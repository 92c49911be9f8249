// Resident serving benchmark: a fresh ConversionSession per request (open
// the source and the BAIX, read the index pages the query's binary
// searches touch, plan, fetch, format) vs the warm resident path (one
// session held open by ngsx_serve, its index pages cached, shared
// scheduler), then the warm path under concurrent clients.
//
// The paper removes sequential bottlenecks *within* one conversion; a
// region-query workload (genome browser, pileup service) adds an
// orthogonal one — per-request setup. Since region queries binary-search
// the BAIX on disk, that setup is small: the printed ratio compares the
// two in-process paths above, and neither side starts an mpi world or
// writes part files the way `ngsx_convert --region` does. With
// --clients N, N threads drive Server::handle_line at once; with --hot K
// they cycle over K shared regions, so overlapping requests queue
// together and the scheduler coalesces them into one fetch
// (serve.coalesced counts the requests that rode another's execution).
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
//   "concurrent": with --clients N > 0, {clients, hot, requests, rps,
//   p50_us, p99_us, coalesced}
//
// Usage: bench_serve [--pairs N] [--cold-requests N] [--warm-requests N]
//                    [--window BP] [--clients N] [--hot K] [--json PATH]
// In concurrent mode each client sends --warm-requests requests.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
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

/// Nearest-rank percentile `q` (0..1) of ascending `sorted` samples.
double percentile(const std::vector<double>& sorted, double q) {
  return sorted[static_cast<size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5)];
}

Quartiles quartiles(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return Quartiles{percentile(samples, 0.25), percentile(samples, 0.5),
                   percentile(samples, 0.75)};
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

/// The concurrent run: `clients` threads, each sending `requests` CONVERTs
/// through one server. With hot > 0, client c's i-th request asks for
/// region (c + i) % hot, so every client cycles over the same hot set;
/// otherwise every request asks for a different region.
struct ConcurrentResult {
  uint64_t requests = 0;
  double rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  uint64_t coalesced = 0;
  bool ok = true;
};

ConcurrentResult run_concurrent(serve::Server& server,
                                const sam::SamHeader& header, int clients,
                                int requests, int hot, int64_t window) {
  const uint64_t coalesced_before =
      obs::snapshot().counter_value("serve.coalesced");
  std::vector<std::vector<double>> samples_us(static_cast<size_t>(clients));
  std::atomic<bool> go{false};
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<double>& mine = samples_us[static_cast<size_t>(c)];
      mine.reserve(static_cast<size_t>(requests));
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (int i = 0; i < requests; ++i) {
        const uint64_t which =
            hot > 0 ? static_cast<uint64_t>((c + i) % hot)
                    : static_cast<uint64_t>(c) * requests + i;
        const std::string line =
            "CONVERT " + region_text(header, which, window) + " sam";
        WallTimer timer;
        const std::string response = server.handle_line(line);
        mine.push_back(timer.seconds() * 1e6);
        if (response.rfind("OK ", 0) != 0) {
          ok.store(false);
        }
      }
    });
  }
  WallTimer wall;
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) {
    t.join();
  }
  const double seconds = wall.seconds();
  std::vector<double> all;
  for (const std::vector<double>& mine : samples_us) {
    all.insert(all.end(), mine.begin(), mine.end());
  }
  std::sort(all.begin(), all.end());
  ConcurrentResult result;
  result.requests = all.size();
  result.rps = static_cast<double>(all.size()) / seconds;
  result.p50_us = percentile(all, 0.5);
  result.p99_us = percentile(all, 0.99);
  result.coalesced =
      obs::snapshot().counter_value("serve.coalesced") - coalesced_before;
  result.ok = ok.load();
  return result;
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
  // As wide as ngsx_serve's default pool: one worker per hardware thread.
  const int pool_width = exec::hardware_threads();
  const int clients =
      std::max<int>(0, static_cast<int>(args.get_int("clients", 0)));
  const int hot = std::max<int>(0, static_cast<int>(args.get_int("hot", 0)));
  const std::string json_path = args.get("json", "BENCH_serve.json");

  obs::enable_metrics();

  std::printf("=== region serving: fresh session vs warm resident ===\n");
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
  // A fresh session per request: open the BAMX and the BAIX, search the
  // index pages, plan, fetch, format — then throw it all away. A real
  // `ngsx_convert --region` also spawns a process, starts an mpi world and
  // commits part files, so this is a floor on what one-shot use pays.
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
  std::printf("cold fresh session: %d requests, %.0f us/request "
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
  exec::Pool pool(pool_width);
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
  std::printf("resident speedup: %.1fx (mean fresh-session request / mean "
              "warm request, both in-process, one client)\n",
              speedup);

  // ------------------------------------------------------------ concurrent
  ConcurrentResult conc;
  if (clients > 0) {
    conc = run_concurrent(server, session.header(), clients, warm_requests,
                          hot, window);
    if (!conc.ok) {
      std::fprintf(stderr, "FATAL: a concurrent request failed\n");
      return 1;
    }
    const std::string regions =
        hot > 0 ? std::to_string(hot) + " hot regions" : "a new region each";
    std::printf("concurrent: %d clients x %d requests, %s, pool %d: "
                "%.0f req/s; p50 %.0f us, p99 %.0f us; serve.coalesced "
                "%llu (%.1f%% of requests)\n",
                clients, warm_requests, regions.c_str(), pool_width, conc.rps,
                conc.p50_us, conc.p99_us,
                static_cast<unsigned long long>(conc.coalesced),
                100.0 * static_cast<double>(conc.coalesced) /
                    static_cast<double>(conc.requests));
  }

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
  if (clients > 0) {
    std::fprintf(f,
                 "  \"concurrent\": {\"clients\": %d, \"hot\": %d, "
                 "\"pool\": %d, \"requests\": %llu, \"rps\": %.1f, "
                 "\"p50_us\": %.1f, \"p99_us\": %.1f, \"coalesced\": "
                 "%llu},\n",
                 clients, hot, pool_width,
                 static_cast<unsigned long long>(conc.requests), conc.rps,
                 conc.p50_us, conc.p99_us,
                 static_cast<unsigned long long>(conc.coalesced));
  }
  // serve.requests / serve.request_us for the warm (and concurrent) runs
  // live in the embedded snapshot (docs/OBSERVABILITY.md).
  std::fprintf(f, "  \"obs\": %s\n}\n", obs::metrics_json().c_str());
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
