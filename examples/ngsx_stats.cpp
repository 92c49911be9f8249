// ngsx_stats: command-line front end for the statistical-analysis module
// (§IV) — the second half of the paper's framework as a tool.
//
// Usage:
//   ngsx_stats --in chip.bam [--bin 25] [--ranks 8] [--fdr 0.05]
//              [--simulations 40] [--seed 1] [--r 20] [--l 15]
//              [--sigma 10] [--min-bins 5] [--merge-gap 2]
//              [--bedgraph coverage.bedgraph] [--peaks peaks.bed]
//
// Pipeline: BAM -> binned coverage histogram -> parallel NL-means ->
// FDR threshold selection (Algorithm 2) -> enriched regions, printed as
// BED rows (and optionally written to --peaks).
//
// Under `ngsx_mpirun -n N` every rank runs this main(): --ranks defaults
// to N (mpi::run() requires the two to match), every rank computes the
// same result, and only rank 0 prints it or writes files.
//
// Exit status: 0 on success, 1 when the analysis fails or no threshold
// reaches the target FDR, 2 on a usage error (missing or unknown flag).

#include <cstdio>
#include <numeric>

#include "formats/bam.h"
#include "formats/bed.h"
#include "mpi/minimpi.h"
#include "simdata/histsim.h"
#include "stats/histogram.h"
#include "stats/peaks.h"
#include "util/cli.h"
#include "util/strutil.h"

using namespace ngsx;

namespace {

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --in FILE.{bam,sam} [--bin N] [--ranks N]\n"
               "          [--fdr F] [--simulations B] [--seed S]\n"
               "          [--r N] [--l N] [--sigma F]\n"
               "          [--min-bins N] [--merge-gap N]\n"
               "          [--bedgraph OUT] [--peaks OUT]\n",
               prog);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const std::string in = args.get("in", "");
  if (in.empty()) {
    return usage(argv[0]);
  }
  const bool primary = !mpi::launched() || mpi::launched_rank() == 0;
  try {
    args.reject_unknown({"in", "bin", "ranks", "fdr", "simulations", "seed",
                         "r", "l", "sigma", "min-bins", "merge-gap",
                         "bedgraph", "peaks"});
    const int bin_size = static_cast<int>(args.get_int("bin", 25));
    const int ranks = static_cast<int>(
        args.get_int("ranks", mpi::launched() ? mpi::launched_size() : 4));

    // 1. Histogram.
    auto histogram = strutil::ends_with(in, ".bam")
                         ? stats::histogram_from_bam(in, bin_size)
                         : stats::histogram_from_sam(in, bin_size);
    std::vector<double> signal = histogram.flatten();
    if (primary) {
      std::fprintf(stderr, "histogram: %zu bins of %d bp\n", signal.size(),
                   bin_size);
    }
    const std::string bedgraph_out = args.get("bedgraph", "");
    if (!bedgraph_out.empty() && primary) {
      histogram.write_bedgraph(bedgraph_out);
      std::fprintf(stderr, "wrote %s\n", bedgraph_out.c_str());
    }

    // 2. Null simulations from the observed background rate.
    double background = std::accumulate(signal.begin(), signal.end(), 0.0) /
                        static_cast<double>(signal.size());
    auto nulls = simdata::simulate_null_batch(
        signal.size(), static_cast<size_t>(args.get_int("simulations", 40)),
        background, /*seed=*/args.get_int("seed", 1));

    // 3. Denoise + threshold + call.
    stats::PeakCallParams params;
    params.nlmeans.r = static_cast<int>(args.get_int("r", 20));
    params.nlmeans.l = static_cast<int>(args.get_int("l", 15));
    params.nlmeans.sigma = args.get_double("sigma", 10.0);
    params.target_fdr = args.get_double("fdr", 0.05);
    params.ranks = ranks;
    params.min_bins = static_cast<size_t>(args.get_int("min-bins", 5));
    params.merge_gap = static_cast<size_t>(args.get_int("merge-gap", 2));
    stats::PeakCallResult result = stats::call_peaks(signal, nulls, params);
    if (result.p_t < 0) {
      if (primary) {
        std::fprintf(stderr, "no threshold reaches FDR <= %.3f\n",
                     params.target_fdr);
      }
      return 1;
    }
    if (!primary) {
      return 0;
    }
    std::fprintf(stderr, "threshold p_t=%d, FDR %.4f, %zu regions\n",
                 result.p_t, result.fdr, result.regions.size());

    // 4. Map flat bin indices back to (chrom, pos) and emit BED intervals.
    std::vector<bed::BedInterval> peaks;
    const auto& refs = histogram.header().references();
    size_t ref = 0;
    size_t ref_first_bin = 0;
    size_t ref_bins = histogram.bins(0).size();
    int peak_id = 0;
    for (const auto& region : result.regions) {
      while (region.begin_bin >= ref_first_bin + ref_bins &&
             ref + 1 < refs.size()) {
        ref_first_bin += ref_bins;
        ref_bins = histogram.bins(static_cast<int32_t>(++ref)).size();
      }
      bed::BedInterval interval;
      interval.chrom = refs[ref].name;
      interval.begin = static_cast<int64_t>(region.begin_bin - ref_first_bin) *
                       bin_size;
      interval.end =
          static_cast<int64_t>(region.end_bin - ref_first_bin) * bin_size;
      interval.name = "peak" + std::to_string(++peak_id);
      interval.score = region.max_value;
      peaks.push_back(std::move(interval));
    }
    std::string text;
    for (const auto& interval : peaks) {
      bed::format_bed_line(interval, text);
      text += '\n';
    }
    std::fwrite(text.data(), 1, text.size(), stdout);
    const std::string peaks_out = args.get("peaks", "");
    if (!peaks_out.empty()) {
      bed::write_bed(peaks_out, peaks);
      std::fprintf(stderr, "wrote %s (%lld bp covered by %zu peaks)\n",
                   peaks_out.c_str(),
                   static_cast<long long>(bed::covered_bases(peaks)),
                   peaks.size());
    }
    return 0;
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
