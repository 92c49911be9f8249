// ChIP-seq-style analysis pipeline: the workload the paper's statistics
// module targets (§IV, after Han et al. 2012).
//
//   1. Simulate aligned reads with enriched regions (peaks) over a
//      background.
//   2. Convert alignments into a binned coverage histogram (the
//      BED/BEDGRAPH "score" track the converter produces).
//   3. Denoise the histogram with parallel NL-means.
//   4. Select a peak-calling threshold by parallel FDR computation
//      (Algorithm 2) against null simulations.
//   5. Report the enriched regions.
//
// Build & run:  ./build/examples/chipseq_pipeline [--pairs N] [--ranks R]

#include <algorithm>
#include <cstdio>

#include <numeric>
#include <string_view>

#include "formats/bam.h"
#include "simdata/histsim.h"
#include "simdata/readsim.h"
#include "stats/fdr.h"
#include "stats/histogram.h"
#include "stats/nlmeans.h"
#include "stats/peaks.h"
#include "util/cli.h"
#include "util/tempdir.h"

using namespace ngsx;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const uint64_t pairs = static_cast<uint64_t>(args.get_int("pairs", 15000));
  const int ranks = static_cast<int>(args.get_int("ranks", 4));
  const int bin_size = static_cast<int>(args.get_int("bin", 25));
  const double target_fdr = args.get_double("fdr", 0.05);

  TempDir workspace("ngsx-chipseq");

  // 1. Simulated ChIP experiment: one chromosome; reads concentrate in a
  //    few "bound" regions by boosting coverage there with extra pairs.
  auto genome = simdata::ReferenceGenome::simulate(
      {sam::Reference{"chr1", 1'000'000}}, /*seed=*/99);
  simdata::ReadSimConfig sim_config;
  sim_config.seed = 99;
  auto records = simdata::simulate_alignments(genome, pairs, sim_config);
  // Enrichment: clone reads into 5 peak regions.
  const int peak_centers[] = {120'000, 300'000, 520'000, 700'000, 880'000};
  {
    simdata::ReadSimConfig peak_config = sim_config;
    peak_config.seed = 100;
    auto extra = simdata::simulate_alignments(genome, pairs / 5, peak_config);
    size_t k = 0;
    for (auto& rec : extra) {
      if (rec.ref_id < 0) {
        continue;
      }
      int center = peak_centers[k++ % 5];
      rec.pos = center - 1500 + static_cast<int>(k * 37 % 3000);
      rec.mate_pos = rec.pos + 200;
      records.push_back(rec);
    }
    std::sort(records.begin(), records.end(),
              [](const sam::AlignmentRecord& a, const sam::AlignmentRecord& b) {
                return static_cast<uint32_t>(a.ref_id) <
                           static_cast<uint32_t>(b.ref_id) ||
                       (a.ref_id == b.ref_id && a.pos < b.pos);
              });
  }
  const std::string bam_path = workspace.file("chip.bam");
  {
    ngsx::bam::BamFileWriter writer(bam_path, genome.header());
    for (const auto& rec : records) {
      writer.write(rec);
    }
    writer.close();
  }
  std::printf("simulated ChIP dataset: %zu records, 5 planted peaks\n",
              records.size());

  // 2. Coverage histogram (the converter's BEDGRAPH score track).
  auto histogram = stats::histogram_from_bam(bam_path, bin_size);
  histogram.write_bedgraph(workspace.file("coverage.bedgraph"));
  std::vector<double> signal = histogram.flatten();
  std::printf("binned coverage: %zu bins of %d bp\n", signal.size(),
              bin_size);

  // 3-5. Denoise (parallel NL-means) -> FDR threshold (Algorithm 2) ->
  //      enriched-region calling, all via the stats::call_peaks pipeline.
  double background = std::accumulate(signal.begin(), signal.end(), 0.0) /
                      static_cast<double>(signal.size());
  auto nulls = simdata::simulate_null_batch(signal.size(), 40, background,
                                            /*seed=*/123);
  stats::PeakCallParams params;  // NL-means r=20 l=15 sigma=10 defaults
  params.target_fdr = target_fdr;
  params.ranks = ranks;
  params.min_bins = 10;
  params.merge_gap = 2;
  stats::PeakCallResult result = stats::call_peaks(signal, nulls, params);
  if (result.p_t < 0) {
    std::printf("no threshold reaches FDR <= %.2f\n", target_fdr);
    return 1;
  }
  std::printf("selected threshold p_t=%d with FDR %.4f (target %.2f)\n",
              result.p_t, result.fdr, target_fdr);

  // Annotate calls with the GC fraction of the simulated reference under
  // them (G/C over A/C/G/T, case-insensitive; N bases are not counted).
  const std::string& chr1 = genome.sequence(0);
  std::printf("\nenriched regions (merged bins):\n");
  for (const auto& region : result.regions) {
    size_t begin_bp = region.begin_bin * static_cast<size_t>(bin_size);
    size_t end_bp = region.end_bin * static_cast<size_t>(bin_size);
    std::string_view bases =
        std::string_view(chr1).substr(begin_bp, end_bp - begin_bp);
    auto count_of = [&](std::string_view set) {
      return std::count_if(bases.begin(), bases.end(), [&](char c) {
        return set.find(c) != std::string_view::npos;
      });
    };
    const auto acgt = count_of("ACGTacgt");
    double gc = acgt == 0 ? 0.0 : static_cast<double>(count_of("GCgc")) / acgt;
    std::printf("  chr1:%zu-%zu (%.0f mean, %.0f max coverage, %.0f%% GC)\n",
                begin_bp, end_bp, region.mean_value, region.max_value,
                100.0 * gc);
  }
  std::printf(
      "called %zu regions near planted peaks at 120k/300k/520k/700k/880k\n",
      result.regions.size());
  return 0;
}
