// Figure 10 reproduction: speedup of the (parallelized) SAM preprocessing
// step of the preprocessing-optimized SAM format converter.
//
// Paper (§V-F): the same 15.7 GB SAM dataset; sequential preprocessing
// takes 2187 s. Reported shape: scalability *within a single node* is
// bridled by the I/O bottleneck, but performance scales well as more nodes
// join, demonstrating that Algorithm 1 parallelizes the preprocessing
// effectively in distributed environments.
//
// Method: real parallel preprocessing runs validate Algorithm 1 behaviour;
// measured parse+encode costs replay at 15.7 GB scale. The within-node
// I/O ceiling emerges from block placement sharing one node's I/O path.

#include <cstdio>

#include "bench_util.h"
#include "cluster/costmodel.h"
#include "core/convert.h"
#include "formats/bam.h"
#include "simdata/readsim.h"
#include "util/cli.h"
#include "util/tempdir.h"

using namespace ngsx;
using cluster::IoPattern;
using cluster::Phase;
using cluster::RankWork;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const uint64_t pairs = static_cast<uint64_t>(args.get_int("pairs", 15000));

  bench::print_header("Figure 10: SAM preprocessing speedup");

  // Functional check: parallel preprocessing reproduces the sequential
  // (M = 1 / P = 1) record set and BAIX.
  {
    TempDir tmp("fig10");
    auto genome = simdata::ReferenceGenome::simulate(
        simdata::mouse_like_references(1'000'000), 10);
    simdata::ReadSimConfig rcfg;
    rcfg.seed = 10;
    const std::string sam_path = tmp.file("in.sam");
    simdata::write_sam_dataset(sam_path, genome, 4000, rcfg);
    auto one = core::preprocess_sam_parallel(sam_path, tmp.file("m1.bamxm"),
                                             tmp.file("m1.baix"), 1);
    auto four = core::preprocess_sam_parallel(sam_path, tmp.file("m4.bamxm"),
                                              tmp.file("m4.baix"), 4);
    std::printf("functional check: %llu records preprocessed, "
                "M=1 and M=4 record totals %s, BAIX files %s\n",
                static_cast<unsigned long long>(one.records),
                one.records == four.records ? "agree" : "DISAGREE",
                read_file(tmp.file("m1.baix")) ==
                        read_file(tmp.file("m4.baix"))
                    ? "identical"
                    : "DIFFER");

    // Same property for the BAM side.
    const std::string bam_path = tmp.file("in.bam");
    {
      simdata::ReadSimConfig bcfg;
      bcfg.seed = 11;
      auto records = simdata::simulate_alignments(genome, 4000, bcfg);
      bam::BamFileWriter w(bam_path, genome.header());
      for (const auto& r : records) {
        w.write(r);
      }
      w.close();
    }
    core::PreprocessOptions sopt;
    sopt.threads = 1;
    auto seq = core::preprocess_bam_parallel(bam_path, tmp.file("seq.bamxm"),
                                             tmp.file("seq.baix"), sopt);
    core::PreprocessOptions popt;
    popt.threads = 4;
    auto par = core::preprocess_bam_parallel(bam_path, tmp.file("par.bamxm"),
                                             tmp.file("par.baix"), popt);
    std::printf("functional check: BAM P=1 and P=4 record totals "
                "%s (%llu records), BAIX files %s\n",
                seq.records == par.records ? "agree" : "DISAGREE",
                static_cast<unsigned long long>(par.records),
                read_file(tmp.file("seq.baix")) ==
                        read_file(tmp.file("par.baix"))
                    ? "identical"
                    : "DIFFER");
  }

  auto costs = cluster::calibrate_conversion(pairs, /*seed=*/10);
  cluster::ClusterSim sim(bench::paper_cluster());
  const uint64_t records = static_cast<uint64_t>(
      bench::kFig9SamBytes / costs.sam_bytes_per_record);
  const double cpu_factor = bench::opteron_cpu_factor(
      costs,
      costs.sam_parse + costs.format_cpu.at(core::TargetFormat::kFastq));
  // Preprocessing = parse SAM text + encode BAMX + write BAMX/BAIX.
  const double cpu_per_record =
      cpu_factor * (costs.sam_parse + costs.bamx_encode);
  const double out_bytes_per_record = costs.bamx_bytes_per_record + 16.0;

  auto make_work = [&](int p) {
    std::vector<RankWork> work(static_cast<size_t>(p));
    double recs = static_cast<double>(records) / p;
    for (auto& w : work) {
      w.phases = {
          Phase::read(bench::kFig9SamBytes / p, IoPattern::kIrregular),
          Phase::compute(recs * cpu_per_record),
          Phase::write(recs * out_bytes_per_record, IoPattern::kRegular),
      };
    }
    return work;
  };

  auto series = cluster::speedup_series(
      sim, {1, 2, 4, 8, 16, 32, 64, 128}, make_work);
  bench::print_series("SAM -> BAMX preprocessing", series);
  std::printf("sequential replay %.0f s (paper: 2187 s on the same anchor"
              " hardware)\n", series[0].seconds);

  std::printf("\npaper shape: sequential 2187 s; limited scaling within one\n"
              "node (<=8 cores share its I/O path), good scaling beyond as\n"
              "nodes add I/O bandwidth. Within-node ceiling here: speedup at\n"
              "8 cores %.1fx vs 16 cores %.1fx.\n",
              series[3].speedup, series[4].speedup);
  return 0;
}
