// Table I reproduction: sequential comparison against Picard.
//
// Paper (§V-A, Table I), chr1-region datasets (37.54 GB SAM / 7.72 GB BAM):
//   SAM -> FASTQ: ours w/o preprocessing 3214 s, ours w/ preprocessing
//                 2804 s, Picard 3121 s  (preproc ~10% faster than Picard)
//   BAM -> SAM:   ours w/o preprocessing 2043 s, ours w/ preprocessing
//                 1548 s, Picard 1425 s  (Picard ~30% faster than ours
//                 w/o preprocessing, slightly faster than w/ preprocessing)
//
// Here the same three implementations run on a scaled chr1 dataset:
//   - ours w/o preprocessing: the native SAM converter (1 rank), and for
//     BAM the BamTools-style reader + adaptation path the paper used;
//   - ours w/ preprocessing: conversion reading the preprocessed BAMX
//     (preprocessing cost reported separately, as in the paper);
//   - Picard: the boxed-record SAM-JDK-style comparator.
// Absolute seconds differ from the paper (different machine and dataset
// scale); the reported quantity is each column's time and the ratio table.

#include <algorithm>
#include <cstdio>
#include <functional>

#include "baseline/picardlike.h"
#include "bench_util.h"
#include "core/convert.h"
#include "simdata/readsim.h"
#include "util/cli.h"
#include "util/tempdir.h"
#include "util/timer.h"

using namespace ngsx;

namespace {

/// Best-of-3: single-run timings on this shared container are polluted by
/// page-cache writeback from preceding phases; the minimum is the stable
/// estimator of each converter's cost.
double timed(const std::function<void()>& body) {
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    WallTimer t;
    body();
    best = std::min(best, t.seconds());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const uint64_t pairs = static_cast<uint64_t>(args.get_int("pairs", 40000));

  bench::print_header("Table I: sequential comparison against Picard");
  std::printf("dataset: chr1-region synthetic, %llu read pairs\n",
              static_cast<unsigned long long>(pairs));

  // chr1-only dataset, as in the paper's Table I experiment.
  TempDir tmp("table1");
  auto genome = simdata::ReferenceGenome::simulate(
      {sam::Reference{"chr1", 4'000'000}}, 1);
  simdata::ReadSimConfig cfg;
  cfg.seed = 1;
  const std::string sam_path = tmp.file("chr1.sam");
  const std::string bam_path = tmp.file("chr1.bam");
  simdata::write_sam_dataset(sam_path, genome, pairs, cfg);
  simdata::write_bam_dataset(bam_path, genome, pairs, cfg);
  std::printf("sizes: SAM %.1f MB, BAM %.1f MB\n",
              file_size(sam_path) / 1e6, file_size(bam_path) / 1e6);

  // --------------------------------------------------------- SAM -> FASTQ
  core::ConvertOptions seq_opts;
  seq_opts.format = core::TargetFormat::kFastq;
  seq_opts.ranks = 1;

  double sam_fastq_ours = timed([&] {
    core::convert_sam(sam_path, tmp.subdir("s2f-ours"), seq_opts);
  });

  // Preprocessing-optimized path: SAM -> BAMX once, then convert from BAMX.
  auto pre = core::preprocess_sam_parallel(sam_path, tmp.file("s2f.bamxm"),
                                           tmp.file("s2f.baix"), 1);
  double sam_fastq_pre = timed([&] {
    core::convert_bamx_shards(tmp.file("s2f.bamxm"), tmp.subdir("s2f-conv"),
                              seq_opts);
  });

  double sam_fastq_picard = timed([&] {
    baseline::picard_sam_to_fastq(sam_path, tmp.file("picard.fastq"));
  });

  // ----------------------------------------------------------- BAM -> SAM
  double bam_sam_ours = timed([&] {
    baseline::convert_bam_via_bamtools(bam_path, tmp.file("via.sam"), "sam");
  });

  // Sequential preprocessing: the one-pass pipeline on one worker.
  core::PreprocessOptions bam_pre_opts;
  bam_pre_opts.threads = 1;
  bam_pre_opts.decode_threads = 1;
  auto bam_pre = core::preprocess_bam_parallel(
      bam_path, tmp.file("b.bamxm"), tmp.file("b.baix"), bam_pre_opts);
  core::ConvertOptions b2s_opts;
  b2s_opts.format = core::TargetFormat::kSam;
  b2s_opts.ranks = 1;
  double bam_sam_pre = timed([&] {
    core::convert_bamx(tmp.file("b.bamxm"), tmp.file("b.baix"),
                       tmp.subdir("b2s-conv"), b2s_opts);
  });

  double bam_sam_picard = timed([&] {
    baseline::picard_bam_to_sam(bam_path, tmp.file("picard.sam"));
  });

  // ----------------------------------------------------------- the table
  std::printf("\n%-14s %22s %22s %10s\n", "Avg. time (s)",
              "Ours w/o preprocessing", "Ours w/ preprocessing", "Picard");
  std::printf("%-14s %22.2f %22.2f %10.2f\n", "SAM -> FASTQ", sam_fastq_ours,
              sam_fastq_pre, sam_fastq_picard);
  std::printf("%-14s %22.2f %22.2f %10.2f\n", "BAM -> SAM", bam_sam_ours,
              bam_sam_pre, bam_sam_picard);

  std::printf("\nratios vs Picard (paper's shape in parentheses):\n");
  std::printf("  SAM->FASTQ  w/o preproc / picard = %.2f   (paper 3214/3121 = 1.03)\n",
              sam_fastq_ours / sam_fastq_picard);
  std::printf("  SAM->FASTQ  w/  preproc / picard = %.2f   (paper 2804/3121 = 0.90)\n",
              sam_fastq_pre / sam_fastq_picard);
  std::printf("  BAM->SAM    w/o preproc / picard = %.2f   (paper 2043/1425 = 1.43)\n",
              bam_sam_ours / bam_sam_picard);
  std::printf("  BAM->SAM    w/  preproc / picard = %.2f   (paper 1548/1425 = 1.09)\n",
              bam_sam_pre / bam_sam_picard);
  std::printf(
      "  (one-time preprocessing, excluded per the paper: SAM %.2f s, BAM %.2f s)\n",
      pre.seconds, bam_pre.seconds);
  return 0;
}
