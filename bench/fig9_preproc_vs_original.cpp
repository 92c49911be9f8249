// Figure 9 reproduction: preprocessing-optimized SAM format converter vs
// the original SAM format converter.
//
// Paper (§V-E): a 15.7 GB SAM dataset converted to BED, BEDGRAPH and FASTA
// with both converters (preprocessing cost excluded for the "_P" bars).
// Reported: (1) the preprocessing-optimized converter scales better
// (regular BAMX layout improves MPI-IO); (2) it is faster — at 128 cores
// the paper measures 16.64/15.10/18.54 s (original) vs 11.51/11.48/12.80 s
// (preprocessed), i.e. 30.8%/24.0%/31.0% improvements from avoiding
// textual parsing.
//
// Method: calibrate both input paths (SAM text parse vs BAMX decode) from
// real runs and replay the 15.7 GB-scale conversions.

#include <cstdio>

#include "bench_util.h"
#include "cluster/costmodel.h"
#include "core/convert.h"
#include "formats/bam.h"
#include "simdata/readsim.h"
#include "util/cli.h"
#include "util/tempdir.h"

using namespace ngsx;
using cluster::ConversionJob;
using cluster::IoPattern;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const uint64_t pairs = static_cast<uint64_t>(args.get_int("pairs", 15000));

  bench::print_header(
      "Figure 9: preprocessing-optimized vs original SAM converter");

  // Functional check: the conversion phase consumes a BAMXM shard
  // manifest and a monolithic BAMX (the lone shard of a one-shard
  // preprocess) interchangeably.
  {
    TempDir tmp("fig9");
    auto genome = simdata::ReferenceGenome::simulate(
        simdata::mouse_like_references(1'000'000), 9);
    simdata::ReadSimConfig rcfg;
    rcfg.seed = 9;
    auto recs = simdata::simulate_alignments(genome, 2000, rcfg);
    const std::string bam_path = tmp.file("in.bam");
    {
      bam::BamFileWriter w(bam_path, genome.header());
      for (const auto& r : recs) {
        w.write(r);
      }
      w.close();
    }
    core::PreprocessOptions one_shard;
    one_shard.threads = 4;
    one_shard.shards = 1;
    auto seq = core::preprocess_bam_parallel(bam_path, tmp.file("s.bamxm"),
                                             tmp.file("s.baix"), one_shard);
    core::PreprocessOptions popt;
    popt.threads = 4;
    core::preprocess_bam_parallel(bam_path, tmp.file("p.bamxm"),
                                  tmp.file("p.baix"), popt);
    core::ConvertOptions copt;
    copt.format = core::TargetFormat::kBed;
    copt.ranks = 4;
    auto from_bamx =
        core::convert_bamx(tmp.file("s-shard-0.bamx"), tmp.file("s.baix"),
                           tmp.subdir("out-bamx"), copt);
    auto from_manifest = core::convert_bamx(tmp.file("p.bamxm"),
                                            tmp.file("p.baix"),
                                            tmp.subdir("out-manifest"), copt);
    std::string a, b;
    for (const auto& path : from_bamx.outputs) {
      a += read_file(path);
    }
    for (const auto& path : from_manifest.outputs) {
      b += read_file(path);
    }
    std::printf("functional check: conversion from .bamx and .bamxm over "
                "%llu records %s\n",
                static_cast<unsigned long long>(seq.records),
                a == b && from_bamx.records_in == from_manifest.records_in
                    ? "agree"
                    : "DISAGREE");
  }

  auto costs = cluster::calibrate_conversion(pairs, /*seed=*/9);
  cluster::ClusterSim sim(bench::paper_cluster());

  const uint64_t records = static_cast<uint64_t>(
      bench::kFig9SamBytes / costs.sam_bytes_per_record);
  const double cpu_factor = bench::opteron_cpu_factor(
      costs,
      costs.sam_parse + costs.format_cpu.at(core::TargetFormat::kFastq));
  std::printf("scaled dataset: 15.7 GB SAM = %.1fM records"
              " (platform CPU factor %.1fx)\n",
              records / 1e6, cpu_factor);
  std::printf("measured CPU: SAM parse %.2f us/rec vs BAMX decode %.2f us/rec\n",
              costs.sam_parse * 1e6, costs.bamx_decode * 1e6);

  const std::vector<int> cores = {1, 2, 4, 8, 16, 32, 64, 128};
  struct At128 {
    double original;
    double preproc;
  };
  std::vector<std::pair<std::string, At128>> at128;

  for (auto format : {core::TargetFormat::kBed, core::TargetFormat::kBedgraph,
                      core::TargetFormat::kFasta}) {
    std::string name(core::target_format_name(format));

    ConversionJob original;
    original.records = records;
    original.input_bytes = bench::kFig9SamBytes;
    original.cpu_per_record =
        cpu_factor * (costs.sam_parse + costs.format_cpu.at(format));
    original.out_bytes_per_record = costs.out_bytes_per_record.at(format);
    original.read_pattern = IoPattern::kIrregular;

    ConversionJob preproc = original;
    preproc.input_bytes =
        static_cast<double>(records) * costs.bamx_bytes_per_record;
    preproc.cpu_per_record =
        cpu_factor * (costs.bamx_decode + costs.format_cpu.at(format));
    preproc.read_pattern = IoPattern::kRegular;

    auto orig_series = cluster::speedup_series(sim, cores, [&](int p) {
      return cluster::conversion_work(original, p);
    });
    auto pre_series = cluster::speedup_series(sim, cores, [&](int p) {
      return cluster::conversion_work(preproc, p);
    });
    bench::print_series("SAM -> " + name + " (original)", orig_series);
    bench::print_series("SAM -> " + name + " (_P)", pre_series);
    at128.push_back({name, {orig_series.back().seconds,
                            pre_series.back().seconds}});
  }

  std::printf("\n128-core conversion times (paper: BED 16.64->11.51 s,"
              " BEDGRAPH 15.10->11.48 s, FASTA 18.54->12.80 s):\n");
  for (const auto& [name, t] : at128) {
    std::printf("  %-9s original %7.2f s, preprocessed %7.2f s"
                " -> %.1f%% improvement (paper: %s)\n",
                name.c_str(), t.original, t.preproc,
                100.0 * (t.original - t.preproc) / t.original,
                name == "bed" ? "30.8%" : name == "bedgraph" ? "24.0%"
                                                             : "31.0%");
  }
  return 0;
}
