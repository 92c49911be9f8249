// sam_convert: a readsim SAM converted by convert_sam (Algorithm 1) to BED
// and to FASTQ. Text parsing, target formatting and part-file writes only:
// no BGZF, BAMX or stats code, so it is the control for BAM-side changes.

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/convert.h"
#include "core/partition.h"
#include "harness.h"
#include "simdata/readsim.h"
#include "util/binio.h"

namespace perfbench {

namespace {

constexpr uint64_t kPairs = 400'000;
constexpr uint64_t kGenomeBases = 50'000'000;
constexpr size_t kParseBlockBytes = 8 << 20;

using ngsx::core::TargetFormat;

/// Per-layer split of the conversion, from separately timed public calls:
/// Algorithm 1 partitioning, then SAM parsing and target formatting of the
/// whole body in blocks (file reads and line splitting stay untimed).
void trace_layers(const std::string& sam, Measured& out) {
  const ngsx::sam::SamFileReader reader(sam);
  const ngsx::sam::SamHeader& header = reader.header();
  ngsx::InputFile file(sam);
  const ngsx::core::ByteRange body{reader.alignment_start_offset(),
                                   file.size()};
  out.layers["core.partition.alg1_s"] = span_s("core.partition.alg1_s", [&] {
    ngsx::core::partition_sam_forward(file, body, 4);
  });

  double parse_s = 0;
  double format_s = 0;
  std::string block;
  std::string carry;
  std::vector<std::string_view> lines;
  std::vector<ngsx::sam::AlignmentRecord> records;
  std::string formatted;
  for (uint64_t at = body.begin; at < body.end; at += kParseBlockBytes) {
    block = carry + file.read_at(at, kParseBlockBytes);
    const size_t last_newline = block.rfind('\n');
    carry = block.substr(last_newline + 1);
    block.resize(last_newline + 1);
    lines.clear();
    for (size_t pos = 0; pos < block.size();) {
      const size_t end = block.find('\n', pos);
      lines.emplace_back(block.data() + pos, end - pos);
      pos = end + 1;
    }
    records.resize(lines.size());
    parse_s += span_s("formats.sam.parse_s", [&] {
      for (size_t i = 0; i < lines.size(); ++i) {
        ngsx::sam::parse_record(lines[i], header, records[i]);
      }
    });
    format_s += span_s("core.target.format_s", [&] {
      for (TargetFormat f : {TargetFormat::kBed, TargetFormat::kFastq}) {
        formatted.clear();
        for (const ngsx::sam::AlignmentRecord& rec : records) {
          ngsx::core::format_target_record(f, rec, header, formatted);
        }
      }
    });
  }
  out.layers["formats.sam.parse_s"] = parse_s;
  out.layers["core.target.format_s"] = format_s;
}

}  // namespace

void run_sam_convert(const Options& opt, Tally& tally, Measured& out) {
  const std::string sam = opt.work_dir + "/input.sam";
  {
    const auto genome = ngsx::simdata::ReferenceGenome::simulate(
        ngsx::simdata::mouse_like_references(kGenomeBases), opt.seed);
    ngsx::simdata::ReadSimConfig cfg;
    cfg.seed = opt.seed;
    ngsx::simdata::write_sam_dataset(sam, genome, kPairs, cfg);
  }

  // Every pass at either width must reproduce the first pass's bytes:
  // concatenated P=4 parts equal the single P=1 part.
  std::map<TargetFormat, std::optional<uint32_t>> expected;
  auto convert = [&](int p, TargetFormat format) {
    const std::string name =
        std::string(ngsx::core::target_format_name(format)) + "-p" +
        std::to_string(p);
    const std::string dir = opt.work_dir + "/out-" + name;
    ngsx::core::ConvertOptions co;
    co.format = format;
    co.ranks = p;
    return tally.timed(
        "convert_sam " + name,
        [&] { ngsx::core::convert_sam(sam, dir, co); },
        [&] {
          return same_as_first(expected[format],
                               digest_files(part_files(dir, p, format)));
        });
  };
  auto pass = [&](int p) {
    return convert(p, TargetFormat::kBed) + convert(p, TargetFormat::kFastq);
  };

  out.setup_s = warm_up(pass);
  timed_loop(opt.seconds, pass, out);

  if (opt.trace) {
    arm_obs();
    out.traced_p4_s = pass(4);
    registry_layers(ngsx::obs::snapshot(), out.layers);
    trace_layers(sam, out);
    finish_trace(opt);
  }
}

}  // namespace perfbench
