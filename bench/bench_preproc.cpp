// BAM preprocessing benchmark: the single-pass pipeline (framing ->
// parse+encode workers -> ordered commit -> parallel re-stride) at P
// workers against itself at P = 1, the sequential baseline, plus an
// analytic model calibrated from the measured serial per-stage costs.
//
// Emits BENCH_preproc.json (path configurable with --json) with two
// sections:
//
//   "measured": real wall-clock seconds of preprocess_bam_parallel (BAMXM
//     manifest) on this machine at P = 1, 2, 4, with the speedup over
//     P = 1.
//   "modeled": wall time predicted from the measured serial per-stage
//     costs under P genuinely concurrent workers, with record framing as
//     the sequential residue (the paper's §III-B observation):
//
//       T(P) = max(t_frame, (t_decode + t_parse + t_encode) / P)
//              + t_restride / P
//
//     and the speedup T(1) / T(P).
//
// Usage: bench_preproc [--pairs N] [--repeats R] [--json PATH]

#include <cstdio>
#include <string>
#include <vector>

#include "core/convert.h"
#include "formats/bam.h"
#include "formats/bgzf.h"
#include "obs/metrics.h"
#include "simdata/readsim.h"
#include "util/cli.h"
#include "util/tempdir.h"
#include "util/timer.h"

using namespace ngsx;

namespace {

struct Measured {
  int threads = 0;
  double seconds = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const uint64_t pairs = static_cast<uint64_t>(args.get_int("pairs", 20000));
  const int repeats = static_cast<int>(args.get_int("repeats", 3));
  const std::string json_path = args.get("json", "BENCH_preproc.json");

  obs::enable_metrics();

  TempDir tmp("bench_preproc");
  const std::string bam_path = tmp.file("input.bam");
  std::printf("=== BAM preprocessing: one-pass pipeline, P workers vs "
              "P = 1 ===\n");
  auto genome = simdata::ReferenceGenome::simulate(
      simdata::mouse_like_references(2'000'000), 99);
  std::vector<sam::AlignmentRecord> records;
  {
    simdata::ReadSimConfig cfg;
    cfg.seed = 99;
    records = simdata::simulate_alignments(genome, pairs, cfg);
    bam::BamFileWriter w(bam_path, genome.header());
    for (const auto& r : records) {
      w.write(r);
    }
    w.close();
  }
  const uint64_t bam_bytes = file_size(bam_path);
  std::printf("dataset: %llu records, %.1f MB BAM\n",
              static_cast<unsigned long long>(records.size()),
              bam_bytes / 1e6);

  // --------------------------------------------- serial per-stage costs
  // t_decode: BGZF inflate of the whole file, no record interpretation.
  double t_decode;
  {
    bgzf::Reader reader(bam_path);
    char buf[1 << 16];
    WallTimer timer;
    while (reader.read(buf, sizeof(buf)) > 0) {
    }
    t_decode = timer.seconds();
  }
  // t_frame: record framing on top of the decode — the sequential residue
  // of the pipeline. Measured as (decode + framing) - decode.
  std::vector<std::string> bodies;
  double t_frame;
  {
    bam::BamFileReader reader(bam_path, /*decode_threads=*/1);
    std::string body;
    WallTimer timer;
    while (reader.next_raw(body)) {
      bodies.push_back(body);
    }
    t_frame = std::max(0.0, timer.seconds() - t_decode);
  }
  // t_parse: BAM body -> AlignmentRecord for every record.
  double t_parse;
  bamx::BamxLayout layout;
  {
    sam::AlignmentRecord rec;
    WallTimer timer;
    for (const std::string& body : bodies) {
      bam::decode_record(body, rec);
      layout.accommodate(rec);
    }
    t_parse = timer.seconds();
  }
  // t_encode: AlignmentRecord -> fixed-stride BAMX bytes.
  double t_encode;
  std::string blob;
  {
    sam::AlignmentRecord rec;
    WallTimer timer;
    for (const std::string& body : bodies) {
      bam::decode_record(body, rec);
      bamx::encode_record(rec, layout, blob);
    }
    t_encode = std::max(0.0, timer.seconds() - t_parse);
  }
  // t_restride: section-wise copy of every encoded record into a fresh
  // buffer (what the final sharding pass costs per record).
  double t_restride;
  {
    const uint64_t stride = layout.stride();
    std::string out;
    WallTimer timer;
    for (uint64_t i = 0; i < bodies.size(); ++i) {
      out.clear();
      bamx::restride_record(
          std::string_view(blob).substr(i * stride, stride), layout, layout,
          out);
    }
    t_restride = timer.seconds();
  }
  std::printf("serial stage costs: decode %.3f s, frame %.3f s, parse %.3f "
              "s, encode %.3f s, restride %.3f s\n",
              t_decode, t_frame, t_parse, t_encode, t_restride);

  // ------------------------------------------------------------- measured
  std::vector<Measured> measured;
  std::printf("measured (best of %d runs):\n", repeats);
  for (int threads : {1, 2, 4}) {
    double best = 1e300;
    for (int r = 0; r < repeats; ++r) {
      TempDir out("bench_preproc_par");
      core::PreprocessOptions opt;
      opt.threads = threads;
      opt.decode_threads = threads;
      auto stats = core::preprocess_bam_parallel(
          bam_path, out.file("x.bamxm"), out.file("x.baix"), opt);
      best = std::min(best, stats.seconds);
    }
    measured.push_back(Measured{threads, best});
    std::printf("  threads=%d  %8.3f s (%.2fx over P=1)\n", threads, best,
                measured.front().seconds / best);
  }

  // -------------------------------------------------------------- modeled
  const std::vector<int> model_threads = {1, 2, 4, 8, 16};
  std::vector<double> modeled_s;
  for (int p : model_threads) {
    modeled_s.push_back(
        std::max(t_frame, (t_decode + t_parse + t_encode) / p) +
        t_restride / p);
  }
  const double t_seq = modeled_s.front();
  std::printf("modeled (P concurrent workers, from serial stage costs; "
              "sequential baseline P=1 %.3f s):\n", t_seq);
  for (size_t i = 0; i < model_threads.size(); ++i) {
    std::printf("  P=%-2d %8.3f s (%.2fx over P=1)\n", model_threads[i],
                modeled_s[i], t_seq / modeled_s[i]);
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
  std::fprintf(f, "  \"bam_mb\": %.2f,\n", bam_bytes / 1e6);
  std::fprintf(f, "  \"decode_s\": %.4f,\n", t_decode);
  std::fprintf(f, "  \"frame_s\": %.4f,\n", t_frame);
  std::fprintf(f, "  \"parse_s\": %.4f,\n", t_parse);
  std::fprintf(f, "  \"encode_s\": %.4f,\n", t_encode);
  std::fprintf(f, "  \"restride_s\": %.4f,\n", t_restride);
  std::fprintf(f, "  \"sequential_modeled_s\": %.4f,\n", t_seq);
  std::fprintf(f, "  \"measured\": [\n");
  for (size_t i = 0; i < measured.size(); ++i) {
    const Measured& m = measured[i];
    std::fprintf(f,
                 "    {\"threads\": %d, \"seconds\": %.4f, "
                 "\"speedup\": %.2f}%s\n",
                 m.threads, m.seconds, measured.front().seconds / m.seconds,
                 i + 1 < measured.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"modeled\": [\n");
  for (size_t i = 0; i < model_threads.size(); ++i) {
    std::fprintf(f,
                 "    {\"threads\": %d, \"seconds\": %.4f, "
                 "\"speedup\": %.2f}%s\n",
                 model_threads[i], modeled_s[i], t_seq / modeled_s[i],
                 i + 1 < model_threads.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  // Full ngsx.metrics.v1 snapshot: the convert.preprocess.* spans and
  // counters for every run above (docs/OBSERVABILITY.md).
  std::fprintf(f, "  \"obs\": %s\n}\n", obs::metrics_json().c_str());
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
