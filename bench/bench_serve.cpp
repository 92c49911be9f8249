// Resident serving benchmark: cold one-shot region conversion (open the
// source and the BAIX, read the index pages the query's binary searches
// touch, per request: what each `ngsx_convert --region` invocation pays)
// vs the warm resident path (one ConversionSession held open by
// ngsx_serve, its index pages cached, shared scheduler).
//
// The paper removes sequential bottlenecks *within* one conversion; a
// region-query workload (genome browser, pileup service) adds an
// orthogonal one — per-request setup. For a small region that setup (the
// source open and O(log n) index page reads) is a large share of cold
// latency, so the resident session should win by a wide margin (the
// acceptance bar is >= 5x).
//
// Every request is timed on its own. Emits BENCH_serve.json (path
// configurable with --json):
//
//   "cold_us":  mean per-request microseconds, fresh session per request
//   "warm_us":  mean per-request microseconds through Server::handle_line
//               (protocol parse + scheduler + fetch + format included)
//   "speedup":  cold_us / warm_us
//   "cold_p25_us" / "cold_p50_us" / "cold_p75_us", and the same for
//   "warm_": quartiles of the per-request times, so a difference between
//   two builds can be read against the spread of either
//
// Usage: bench_serve [--pairs N] [--cold-requests N] [--warm-requests N]
//                    [--window BP] [--json PATH]

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/convert.h"
#include "core/session.h"
#include "exec/pool.h"
#include "formats/bam.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "simdata/readsim.h"
#include "util/cli.h"
#include "util/tempdir.h"
#include "util/timer.h"

using namespace ngsx;

namespace {

/// Quartiles of per-request times (nearest rank over the sorted samples).
struct Quartiles {
  double p25 = 0.0;
  double p50 = 0.0;
  double p75 = 0.0;
};

double mean(const std::vector<double>& samples) {
  double total = 0.0;
  for (double v : samples) {
    total += v;
  }
  return total / static_cast<double>(samples.size());
}

Quartiles quartiles(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  auto at = [&](double q) {
    return samples[static_cast<size_t>(
        q * static_cast<double>(samples.size() - 1) + 0.5)];
  };
  return Quartiles{at(0.25), at(0.5), at(0.75)};
}

/// Deterministic region sequence over the first reference (no
/// std::mt19937 so the request stream is identical across runs).
std::string region_text(const sam::SamHeader& header, uint64_t i,
                        int64_t window) {
  const sam::Reference& ref = header.references()[0];
  const int64_t span = std::max<int64_t>(1, ref.length - window);
  const int64_t begin = 1 + static_cast<int64_t>((i * 2654435761u) % span);
  return ref.name + ":" + std::to_string(begin) + "-" +
         std::to_string(begin + window);
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const uint64_t pairs = static_cast<uint64_t>(args.get_int("pairs", 20000));
  const int cold_requests = std::max<int>(
      1, static_cast<int>(args.get_int("cold-requests", 40)));
  const int warm_requests = std::max<int>(
      1, static_cast<int>(args.get_int("warm-requests", 400)));
  // Browser-viewport-sized regions: the regime where per-request setup
  // (not record formatting) dominates cold latency.
  const int64_t window = args.get_int("window", 3000);
  const std::string json_path = args.get("json", "BENCH_serve.json");

  obs::enable_metrics();

  std::printf("=== region serving: cold one-shot vs warm resident ===\n");
  TempDir tmp("bench_serve");
  const std::string bam_path = tmp.file("input.bam");
  auto genome = simdata::ReferenceGenome::simulate(
      simdata::mouse_like_references(2'000'000), 7);
  std::vector<sam::AlignmentRecord> records;
  {
    simdata::ReadSimConfig cfg;
    cfg.seed = 7;
    records = simdata::simulate_alignments(genome, pairs, cfg);
    bam::BamFileWriter w(bam_path, genome.header());
    for (const auto& r : records) {
      w.write(r);
    }
    w.close();
  }
  const std::string bamx_path = tmp.file("input.bamxm");
  const std::string baix_path = tmp.file("input.baix");
  const auto pre =
      core::preprocess_bam_parallel(bam_path, bamx_path, baix_path);
  std::printf("dataset: %llu records, %.1f MB BAMX shards + BAIX\n",
              static_cast<unsigned long long>(records.size()),
              pre.bytes_out / 1e6);

  core::SessionOptions sopt;
  sopt.bamx_path = bamx_path;
  sopt.baix_path = baix_path;

  // ------------------------------------------------------------------ cold
  // What every one-shot invocation pays: open the BAMX and the BAIX,
  // search the index pages, plan, fetch, format — then throw it all away. (A real ngsx_convert
  // additionally pays process spawn, so this is a conservative floor.)
  uint64_t planned_records = 0;
  std::vector<double> cold_samples_us;
  for (int i = 0; i < cold_requests; ++i) {
    WallTimer timer;
    core::ConversionSession session(sopt);
    const core::Region region = session.parse(
        region_text(session.header(), static_cast<uint64_t>(i), window));
    const std::vector<uint64_t> plan =
        session.plan(region, baix2::RegionMode::kStartWithin);
    std::string payload;
    session.format_records(plan, core::TargetFormat::kSam,
                           /*include_header=*/true, payload);
    cold_samples_us.push_back(timer.seconds() * 1e6);
    planned_records += plan.size();
  }
  const double cold_us = mean(cold_samples_us);
  const Quartiles cold_q = quartiles(cold_samples_us);
  std::printf("cold one-shot: %d requests, %.0f us/request "
              "(%.1f records/request); median %.0f us (quartiles %.0f-%.0f)\n",
              cold_requests, cold_us,
              static_cast<double>(planned_records) / cold_requests, cold_q.p50,
              cold_q.p25, cold_q.p75);

  // ------------------------------------------------------------------ warm
  // The resident path, end to end: protocol parse, scheduler admission,
  // consumer execution on the shared pool, fetch and format. One untimed
  // request warms the index pages the way a long-lived daemon is warm in
  // steady state.
  core::ConversionSession session(sopt);
  exec::Pool pool(2);
  serve::Server server(session, pool);
  {
    const std::string response = server.handle_line(
        "CONVERT " + region_text(session.header(), 0, window) + " sam");
    if (response.rfind("OK ", 0) != 0) {
      std::fprintf(stderr, "FATAL: warmup failed: %s", response.c_str());
      return 1;
    }
  }
  std::vector<double> warm_samples_us;
  for (int i = 0; i < warm_requests; ++i) {
    const std::string line =
        "CONVERT " +
        region_text(session.header(), static_cast<uint64_t>(i), window) +
        " sam";
    WallTimer timer;
    const std::string response = server.handle_line(line);
    warm_samples_us.push_back(timer.seconds() * 1e6);
    if (response.rfind("OK ", 0) != 0) {
      std::fprintf(stderr, "FATAL: request %d failed: %s", i,
                   response.c_str());
      return 1;
    }
  }
  const double warm_us = mean(warm_samples_us);
  const Quartiles warm_q = quartiles(warm_samples_us);
  const double speedup = cold_us / warm_us;
  std::printf("warm resident: %d requests, %.0f us/request; median %.0f us "
              "(quartiles %.0f-%.0f)\n",
              warm_requests, warm_us, warm_q.p50, warm_q.p25, warm_q.p75);
  std::printf("resident speedup: %.1fx (acceptance bar: >= 5x)\n", speedup);

  // ----------------------------------------------------------------- JSON
  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"records\": %llu,\n",
               static_cast<unsigned long long>(records.size()));
  std::fprintf(f, "  \"window_bp\": %lld,\n",
               static_cast<long long>(window));
  std::fprintf(f, "  \"cold_requests\": %d,\n", cold_requests);
  std::fprintf(f, "  \"warm_requests\": %d,\n", warm_requests);
  std::fprintf(f, "  \"cold_us\": %.1f,\n", cold_us);
  std::fprintf(f, "  \"warm_us\": %.1f,\n", warm_us);
  std::fprintf(f, "  \"speedup\": %.2f,\n", speedup);
  for (const auto& [name, q] :
       {std::pair<const char*, Quartiles>{"cold", cold_q}, {"warm", warm_q}}) {
    std::fprintf(f,
                 "  \"%s_p25_us\": %.1f,\n  \"%s_p50_us\": %.1f,\n"
                 "  \"%s_p75_us\": %.1f,\n",
                 name, q.p25, name, q.p50, name, q.p75);
  }
  // serve.requests / serve.request_us for the warm run live in the
  // embedded snapshot (docs/OBSERVABILITY.md).
  std::fprintf(f, "  \"obs\": %s\n}\n", obs::metrics_json().c_str());
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
