// Ablation: Algorithm 1's two boundary-adjustment implementations (§III-A).
//
// The paper describes a forward variant (ranks 1..N-1 scan forward for the
// first line breaker, send their new start back) and a backward variant
// (ranks 0..N-2 scan backward, send their new end forward) and picks the
// forward one. This harness measures both on a real generated SAM file:
// scan cost, balance of the induced partitions, and the (tiny) share of
// total conversion time partitioning represents.

#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "core/convert.h"
#include "core/partition.h"
#include "simdata/readsim.h"
#include "util/cli.h"
#include "util/tempdir.h"
#include "util/timer.h"

using namespace ngsx;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const uint64_t pairs = static_cast<uint64_t>(args.get_int("pairs", 30000));

  bench::print_header("Ablation: Algorithm 1 forward vs backward adjustment");
  TempDir tmp("ablate-part");
  auto genome = simdata::ReferenceGenome::simulate(
      simdata::mouse_like_references(2'000'000), 55);
  simdata::ReadSimConfig cfg;
  cfg.seed = 55;
  const std::string sam_path = tmp.file("d.sam");
  simdata::write_sam_dataset(sam_path, genome, pairs, cfg);
  sam::SamFileReader probe(sam_path);
  core::ByteRange body{probe.alignment_start_offset(), file_size(sam_path)};
  InputFile file(sam_path);

  std::printf("%6s %16s %16s %18s\n", "ranks", "forward (ms)",
              "backward (ms)", "max/min partition");
  for (int n : {4, 16, 64, 256}) {
    WallTimer tf;
    auto fwd = core::partition_sam_forward(file, body, n);
    double fwd_ms = tf.millis();
    WallTimer tb;
    auto bwd = core::partition_sam_backward(file, body, n);
    double bwd_ms = tb.millis();

    uint64_t lo = fwd[0].size();
    uint64_t hi = lo;
    for (const auto& r : fwd) {
      lo = std::min(lo, r.size());
      hi = std::max(hi, r.size());
    }
    std::printf("%6d %16.3f %16.3f %17.4fx\n", n, fwd_ms, bwd_ms,
                static_cast<double>(hi) / static_cast<double>(lo));
    NGSX_CHECK(fwd.front().begin == bwd.front().begin &&
               fwd.back().end == bwd.back().end);
  }

  // Partitioning vs conversion cost.
  core::ConvertOptions options;
  options.format = core::TargetFormat::kBed;
  options.ranks = 8;
  WallTimer tc;
  core::convert_sam(sam_path, tmp.subdir("out"), options);
  double convert_s = tc.seconds();
  WallTimer tp;
  core::partition_sam_forward(file, body, 8);
  double part_s = tp.seconds();
  std::printf("\npartitioning is %.4f%% of an 8-rank SAM->BED conversion "
              "(%.1f ms vs %.2f s)\n",
              100.0 * part_s / convert_s, part_s * 1e3, convert_s);
  return 0;
}
