// Figure 8 reproduction: partial-conversion performance of the BAM format
// converter.
//
// Paper (§V-D): chromosome-region subsets covering 20/40/60/80/100% of the
// 117 GB sorted BAM dataset are converted to SAM on 8..128 cores. Reported
// shape: conversion time is approximately proportional to the subset size
// at every core count, because locating the region via binary search over
// the BAIX is trivial next to the conversion itself.
//
// Method: (1) functionally exercise real partial conversion on a synthetic
// dataset, measuring the cold BAIX lookup a region conversion runs (open
// the index, binary-search it on disk, read the answer's entries) and the
// bytes it reads, to substantiate the "trivial overhead" claim; (2) replay the paper-scale subsets through the cluster
// simulator and print the time matrix.

#include <cstdio>

#include "bench_util.h"
#include "cluster/costmodel.h"
#include "core/convert.h"
#include "formats/bamx.h"
#include "obs/metrics.h"
#include "simdata/readsim.h"
#include "util/cli.h"
#include "util/tempdir.h"
#include "util/timer.h"

using namespace ngsx;
using cluster::ConversionJob;
using cluster::IoPattern;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const uint64_t pairs = static_cast<uint64_t>(args.get_int("pairs", 15000));

  bench::print_header("Figure 8: BAM partial-conversion performance");

  // ---- real partial conversions on a synthetic dataset -------------------
  TempDir tmp("fig8");
  auto genome = simdata::ReferenceGenome::simulate(
      {sam::Reference{"chr1", 8'000'000}}, 8);
  simdata::ReadSimConfig rcfg;
  rcfg.seed = 8;
  const std::string bam_path = tmp.file("in.bam");
  simdata::write_bam_dataset(bam_path, genome, pairs, rcfg);
  core::preprocess_bam_parallel(bam_path, tmp.file("in.bamxm"),
                                tmp.file("in.baix"));

  // BAIX lookup cost as a region conversion pays it: open the on-disk
  // index, binary-search it and read the answer's entries, per region.
  const std::string baix_path = tmp.file("in.baix");
  constexpr int kLookups = 1000;
  obs::enable_metrics();
  const obs::Snapshot before = obs::snapshot();
  WallTimer lookup_timer;
  uint64_t hits = 0;
  for (int i = 0; i < kLookups; ++i) {
    bamx::BaixReader baix(baix_path);
    auto [lo, hi] = baix.query(0, i * 1000, i * 1000 + 500000);
    hits += baix.entries(lo, hi).size();
  }
  const double lookup_us = lookup_timer.seconds() * 1e6 / kLookups;
  const obs::Snapshot after = obs::snapshot();
  obs::enable_metrics(false);
  const double lookup_bytes =
      static_cast<double>(after.counter_value("io.binio.read_bytes") -
                          before.counter_value("io.binio.read_bytes")) /
      kLookups;

  std::printf("real run (%llu pairs): subset -> records, conversion time\n",
              static_cast<unsigned long long>(pairs));
  core::ConvertOptions options;
  options.format = core::TargetFormat::kSam;
  options.ranks = 4;
  double t100 = 0;
  for (int pct : {20, 40, 60, 80, 100}) {
    core::Region region{0, 0,
                        static_cast<int32_t>(8'000'000LL * pct / 100)};
    auto stats = core::convert_bamx(
        tmp.file("in.bamxm"), tmp.file("in.baix"),
        tmp.subdir("out" + std::to_string(pct)), options, region);
    if (pct == 100) {
      t100 = stats.seconds;
    }
    std::printf("  %3d%%: %8llu records, %7.3f s\n", pct,
                static_cast<unsigned long long>(stats.records_in),
                stats.seconds);
  }
  std::printf("  BAIX lookup (open + search + read entries): %.1f us and "
              "%.0f bytes read per region\n"
              "    (%.0f entries = %.0f bytes per answer, index %llu bytes; "
              "vs %.0f ms for the smallest conversion)\n",
              lookup_us, lookup_bytes,
              static_cast<double>(hits) / kLookups,
              16.0 * static_cast<double>(hits) / kLookups,
              static_cast<unsigned long long>(file_size(baix_path)),
              t100 * 1e3 / 5);

  // ---- paper-scale replay -------------------------------------------------
  auto costs = cluster::calibrate_conversion(pairs / 2, /*seed=*/18);
  cluster::ClusterSim sim(bench::paper_cluster());
  const uint64_t records = static_cast<uint64_t>(
      bench::kFig7BamBytes / costs.bam_bytes_per_record);
  const double cpu_factor = bench::opteron_cpu_factor(
      costs,
      costs.sam_parse + costs.format_cpu.at(core::TargetFormat::kFastq));

  std::printf("\npaper-scale (117 GB BAM -> SAM), conversion time (s):\n");
  std::printf("%8s", "cores");
  for (int pct : {20, 40, 60, 80, 100}) {
    std::printf(" %8d%%", pct);
  }
  std::printf("\n");
  for (int p : {8, 16, 32, 64, 128}) {
    std::printf("%8d", p);
    for (int pct : {20, 40, 60, 80, 100}) {
      ConversionJob job;
      job.records = records * static_cast<uint64_t>(pct) / 100;
      job.input_bytes =
          static_cast<double>(job.records) * costs.bamx_bytes_per_record;
      job.cpu_per_record =
          cpu_factor * (costs.bamx_decode +
                        costs.format_cpu.at(core::TargetFormat::kSam));
      job.out_bytes_per_record =
          costs.out_bytes_per_record.at(core::TargetFormat::kSam);
      job.read_pattern = IoPattern::kRegular;
      double t = sim.run(cluster::conversion_work(job, p)).makespan;
      std::printf(" %9.1f", t);
    }
    std::printf("\n");
  }
  std::printf("\npaper shape: times ~proportional to subset size at every\n"
              "core count; region lookup overhead trivial.\n");
  return 0;
}
