// bam_region: a coordinate-sorted readsim BAM, preprocessed once into BAMX
// shards + BAIX (the set-up), then a full convert_bamx to FASTQ and 1000
// closed-loop, single-client convert_bamx(region) calls to SAM. Covers the
// BAM converter and partial conversion (BGZF, BAMX and BAIX).

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/convert.h"
#include "core/session.h"
#include "formats/bam.h"
#include "formats/bamx.h"
#include "formats/bgzf.h"
#include "harness.h"
#include "simdata/readsim.h"

namespace perfbench {

namespace {

constexpr uint64_t kPairs = 60'000;
constexpr uint64_t kGenomeBases = 50'000'000;
constexpr int kQueries = 1000;
constexpr int kCheckEvery = 20;    // one query in 20 is checked
constexpr int kSessionQueries = 200;  // traced session breakdown sample

using ngsx::core::Region;
using ngsx::core::TargetFormat;

struct Query {
  Region region;
  bool checked = false;
  uint32_t expected = 0;  // digest of the linear-scan SAM lines
};

/// Regions whose chromosome is weighted by length and whose length is
/// log-uniform in [1 kb, 1 Mb] (clipped to the chromosome).
std::vector<Query> make_queries(const ngsx::sam::SamHeader& header,
                                uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  auto uniform = [&] { return static_cast<double>(rng() >> 11) * 0x1p-53; };
  const auto& refs = header.references();
  std::vector<double> cumulative;
  double total = 0;
  for (const auto& ref : refs) {
    total += static_cast<double>(ref.length);
    cumulative.push_back(total);
  }
  const int check_offset = static_cast<int>(rng() % kCheckEvery);
  std::vector<Query> queries(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    const double pick = uniform() * total;
    const auto ref = static_cast<int32_t>(std::min<size_t>(
        std::upper_bound(cumulative.begin(), cumulative.end(), pick) -
            cumulative.begin(),
        refs.size() - 1));
    const auto ref_len = static_cast<double>(refs[ref].length);
    const double len = std::min(
        ref_len, std::exp(std::log(1e3) + uniform() * std::log(1e3)));
    const auto begin = static_cast<int32_t>(uniform() * (ref_len - len));
    queries[i].region = Region{ref, begin, begin + static_cast<int32_t>(len)};
    queries[i].checked = i % kCheckEvery == check_offset;
  }
  return queries;
}

/// Expected output of every checked query: the lines of the full SAM
/// conversion whose RNAME/POS start inside the region, in file order.
void expect_from_scan(const std::string& full_sam,
                      const ngsx::sam::SamHeader& header,
                      std::vector<Query>& queries) {
  std::vector<Query*> checked;
  for (Query& q : queries) {
    if (q.checked) {
      checked.push_back(&q);
    }
  }
  std::vector<std::string> text(checked.size());
  std::ifstream in(full_sam);
  std::string line;
  while (std::getline(in, line)) {
    const size_t t1 = line.find('\t');
    const size_t t2 = line.find('\t', t1 + 1);
    const size_t t3 = line.find('\t', t2 + 1);
    const size_t t4 = line.find('\t', t3 + 1);
    const int32_t ref = header.ref_id(line.substr(t2 + 1, t3 - t2 - 1));
    const int64_t pos = std::stoll(line.substr(t3 + 1, t4 - t3 - 1)) - 1;
    for (size_t k = 0; k < checked.size(); ++k) {
      const Region& r = checked[k]->region;
      if (ref == r.ref_id && pos >= r.begin && pos < r.end) {
        text[k] += line;
        text[k] += '\n';
      }
    }
  }
  for (size_t k = 0; k < checked.size(); ++k) {
    checked[k]->expected = digest_bytes(text[k]);
  }
}

/// Per-layer split of preprocessing, each stage a separately timed public
/// call over the whole BAM at P=1.
void trace_preprocess_layers(const std::string& bam, const std::string& dir,
                             Measured& out) {
  const double inflate_s = span_s("formats.bgzf.inflate_s", [&] {
    ngsx::bgzf::Reader reader(bam);
    std::vector<char> buf(1 << 16);
    while (reader.read(buf.data(), buf.size()) > 0) {
    }
  });
  std::vector<std::string> bodies;
  const double inflate_frame_s = span_s("formats.bam.frame_s", [&] {
    ngsx::bam::BamFileReader reader(bam, 1);
    std::string body;
    while (reader.next_raw(body)) {
      bodies.push_back(body);
    }
  });
  std::vector<ngsx::sam::AlignmentRecord> records(bodies.size());
  const double decode_s = span_s("formats.bam.decode_s", [&] {
    for (size_t i = 0; i < bodies.size(); ++i) {
      ngsx::bam::decode_record(bodies[i], records[i]);
    }
  });
  bodies = {};
  ngsx::bamx::BamxLayout layout;
  for (const auto& rec : records) {
    layout.accommodate(rec);
  }
  std::string blob;
  const double encode_s = span_s("formats.bamx.encode_s", [&] {
    for (const auto& rec : records) {
      ngsx::bamx::encode_record(rec, layout, blob);
    }
  });
  records = {};
  const uint64_t stride = layout.stride();
  std::string restrided;
  const double restride_s = span_s("formats.bamx.restride_s", [&] {
    for (uint64_t at = 0; at < blob.size(); at += stride) {
      ngsx::bamx::restride_record(std::string_view(blob).substr(at, stride),
                                  layout, layout, restrided);
    }
  });
  const double p1_s = span_s("core.preprocess_p1_s", [&] {
    ngsx::core::PreprocessOptions po;
    po.threads = 1;
    po.decode_threads = 1;
    ngsx::core::preprocess_bam_parallel(bam, dir + "/p1.bamxm",
                                        dir + "/p1.baix", po);
  });
  out.layers["formats.bgzf.inflate_s"] = inflate_s;
  out.layers["formats.bam.frame_s"] =
      std::max(0.0, inflate_frame_s - inflate_s);
  out.layers["formats.bam.decode_s"] = decode_s;
  out.layers["formats.bamx.encode_s"] = encode_s;
  out.layers["formats.bamx.restride_s"] = restride_s;
  out.layers["core.preprocess_p1_s"] = p1_s;
}

}  // namespace

void run_bam_region(const Options& opt, Tally& tally, Measured& out) {
  const std::string bam = opt.work_dir + "/input.bam";
  const std::string prep = opt.work_dir + "/prep";
  const std::string manifest = prep + "/data.bamxm";
  const std::string baix = prep + "/data.baix";
  ngsx::sam::SamHeader header;
  {
    const auto genome = ngsx::simdata::ReferenceGenome::simulate(
        ngsx::simdata::mouse_like_references(kGenomeBases), opt.seed);
    ngsx::simdata::ReadSimConfig cfg;
    cfg.seed = opt.seed;
    ngsx::simdata::write_bam_dataset(bam, genome, kPairs, cfg);
    header = genome.header();
  }
  std::filesystem::create_directories(prep);

  auto preprocess = [&] {
    return tally.timed("preprocess_bam_parallel", [&] {
      ngsx::core::PreprocessOptions po;
      po.threads = 4;
      po.decode_threads = 4;
      ngsx::core::preprocess_bam_parallel(bam, manifest, baix, po);
    });
  };
  for (int i = 0; i < kSetupRepeats; ++i) {
    out.setup_s.push_back(preprocess());
  }

  std::vector<Query> queries = make_queries(header, opt.seed);
  {
    const std::string scan_dir = opt.work_dir + "/scan";
    ngsx::core::ConvertOptions co;
    co.format = TargetFormat::kSam;
    co.include_header = false;
    tally.timed("convert_bamx sam-scan", [&] {
      ngsx::core::convert_bamx(manifest, baix, scan_dir, co);
    });
    expect_from_scan(part_files(scan_dir, 1, TargetFormat::kSam)[0], header,
                     queries);
    std::filesystem::remove_all(scan_dir);
  }

  std::optional<uint32_t> full_expected;
  auto full = [&](int p) {
    const std::string dir = opt.work_dir + "/full-p" + std::to_string(p);
    ngsx::core::ConvertOptions co;
    co.format = TargetFormat::kFastq;
    co.ranks = p;
    return tally.timed(
        "convert_bamx fastq-p" + std::to_string(p),
        [&] { ngsx::core::convert_bamx(manifest, baix, dir, co); },
        [&] {
          return same_as_first(
              full_expected,
              digest_files(part_files(dir, p, TargetFormat::kFastq)));
        });
  };
  uint64_t region_records = 0;
  auto regions = [&](int p) {
    const std::string dir = opt.work_dir + "/region-p" + std::to_string(p);
    ngsx::core::ConvertOptions co;
    co.format = TargetFormat::kSam;
    co.ranks = p;
    co.include_header = false;
    double total = 0;
    if (p == 4) {
      out.query_ms.emplace_back();
    }
    for (const Query& q : queries) {
      const double s = tally.timed(
          "convert_bamx region-p" + std::to_string(p),
          [&] {
            region_records += ngsx::core::convert_bamx(manifest, baix, dir,
                                                       co, q.region)
                                  .records_in;
          },
          [&] {
            return !q.checked ||
                   digest_files(part_files(dir, p, TargetFormat::kSam)) ==
                       q.expected;
          });
      if (p == 4) {
        out.query_ms.back().push_back(s * 1e3);
      }
      total += s;
    }
    return total;
  };
  timed_loop(opt.seconds, [&](int p) { return full(p) + regions(p); }, out);

  if (!opt.trace) {
    return;
  }
  arm_obs();
  preprocess();
  out.traced_p4_s = full(4);
  const ngsx::obs::Snapshot before = ngsx::obs::snapshot();
  region_records = 0;
  out.traced_p4_s += regions(4);
  const ngsx::obs::Snapshot after = ngsx::obs::snapshot();
  registry_layers(after, out.layers);
  auto per_query = [&](const char* name) {
    return static_cast<double>(after.counter_value(name) -
                               before.counter_value(name)) /
           kQueries;
  };
  out.layers["io.binio.reads"] = per_query("io.binio.reads");
  out.layers["io.binio.read_bytes"] = per_query("io.binio.read_bytes");
  out.layers["core.region.records"] =
      static_cast<double>(region_records) / kQueries;

  // One region query split into the session's public steps.
  std::vector<double> open_ms, load_ms, plan_ms, format_ms;
  for (int i = 0; i < kSessionQueries; ++i) {
    const Query& q = queries[i];
    std::unique_ptr<ngsx::core::ConversionSession> session;
    open_ms.push_back(1e3 * span_s("core.session.open_ms", [&] {
      session = std::make_unique<ngsx::core::ConversionSession>(
          ngsx::core::SessionOptions{manifest, baix, {}});
    }));
    load_ms.push_back(1e3 * span_s("formats.baix.load_ms",
                                   [&] { session->baix(); }));
    std::vector<uint64_t> plan;
    plan_ms.push_back(1e3 * span_s("core.session.plan_ms", [&] {
      plan = session->plan(q.region, ngsx::baix2::RegionMode::kStartWithin);
    }));
    std::string text;
    format_ms.push_back(1e3 * span_s("core.session.format_ms", [&] {
      session->format_records(plan, TargetFormat::kSam, false, text);
    }));
    if (q.checked) {
      tally.expect(digest_bytes(text) == q.expected,
                   "ConversionSession region output");
    }
  }
  out.layers["core.session.open_ms"] = median(open_ms);
  out.layers["formats.baix.load_ms"] = median(load_ms);
  out.layers["core.session.plan_ms"] = median(plan_ms);
  out.layers["core.session.format_ms"] = median(format_ms);

  trace_preprocess_layers(bam, prep, out);
  finish_trace(opt);
}

}  // namespace perfbench
