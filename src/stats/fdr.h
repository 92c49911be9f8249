// ngsx/stats/fdr.h
//
// False Discovery Rate computation for peak-threshold selection (§IV-B,
// after Han et al. 2012). Given an observed histogram (M bins) and B
// null-simulation datasets, for an integer threshold p_t:
//
//   p_i      = sum_b  I(r_i <= r*_ib)                        (eq. 4)
//   d_b      = sum_i  I( sum_b' I(r*_ib <= r*_ib') <= p_t )  (eq. 5)
//   FDR(p_t) = (B^-1 sum_b d_b) / (sum_i I(p_i <= p_t))      (eq. 6)
//
// Complexity Theta(M B^2). The paper's key optimization is a *summation
// permutation* (eqs. 7-9) that moves the bin-direction sum outermost so the
// numerator and denominator accumulate concurrently in a single pass —
// fdr_fused — which the parallel Algorithm 2 then partitions in the bin
// direction with one final gather, avoiding a second global
// synchronization. All variants return exactly equal values (tested).

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace ngsx::stats {

/// The B simulation datasets: sims[b][i] is bin i of simulation b. All
/// rows must have the same length as the histogram.
using SimulationSet = std::vector<std::vector<double>>;

/// Result decomposition, exposed so callers (and tests) can inspect the
/// numerator/denominator pair as well as the ratio.
struct FdrResult {
  double numerator = 0.0;    // B^-1 sum_b d_b
  double denominator = 0.0;  // sum_i I(p_i <= p_t)
  double fdr = 0.0;          // numerator / denominator (0 if denom == 0)
};

/// Literal transcription of equations 4-6 (two separate nested loops);
/// the correctness oracle for everything else.
FdrResult fdr_reference(std::span<const double> histogram,
                        const SimulationSet& sims, int p_t);

/// Single-pass fused form per equations 7-9 (sequential).
FdrResult fdr_fused(std::span<const double> histogram,
                    const SimulationSet& sims, int p_t);

/// Algorithm 2: bin-direction partitioning across `ranks` minimpi ranks,
/// fused local sums, one gather at the master.
FdrResult fdr_parallel(std::span<const double> histogram,
                       const SimulationSet& sims, int p_t, int ranks);

/// Ablation baseline: the *unfused* parallelization the paper argues
/// against — numerator pass, global synchronization, then denominator
/// pass (two gathers + an extra barrier).
FdrResult fdr_parallel_two_pass(std::span<const double> histogram,
                                const SimulationSet& sims, int p_t,
                                int ranks);

/// Eq. 4's p_i for every bin: the number of simulations b with
/// histogram[i] <= sims[b][i]. Bins are split across `ranks` minimpi ranks
/// (ranks = 1 runs inline); every rank of a launched world returns the
/// full vector. This one count pass serves both threshold selection and
/// region calling (call_peaks).
std::vector<int32_t> exceedance_counts(std::span<const double> histogram,
                                       const SimulationSet& sims,
                                       int ranks = 1);

/// Outcome of the threshold sweep.
struct Threshold {
  int p_t = -1;      // smallest qualifying threshold; -1 when none does
  double fdr = 0.0;  // FDR(p_t)
};

/// Sweeps FDR over thresholds 0..B and returns the smallest p_t whose FDR
/// is <= `target_fdr` with a non-zero denominator (the procedure's end
/// use: threshold selection). Thresholds p_t >= 1 share one Theta(M B^2)
/// sweep, split across `ranks` minimpi ranks, that counts how many
/// (bin, simulation) pairs have each rank_of_b in [0, B]; prefix sums of
/// those counts and of the p_i values give every threshold's numerator
/// and denominator, equal to fdr_reference's (the width never changes the
/// result).
///
/// Edge contracts:
///  * p_t = 0 is decided by the denominator alone, count(p_i == 0) — the
///    numerator is structurally zero there (each simulated value ranks at
///    least itself, so rank_of_b >= 1), making the full fused sweep
///    unnecessary; FDR at p_t = 0 is exactly 0 whenever any bin qualifies.
///  * An empty histogram (M = 0) is the one input whose denominator is
///    zero at *every* threshold (the p_t = B denominator counts all M
///    bins). The target is then vacuously met: the sweep returns 0 for any
///    target_fdr >= 0 rather than -1.
Threshold select_threshold(std::span<const double> histogram,
                           const SimulationSet& sims, double target_fdr,
                           int ranks = 1);

/// select_threshold with the p_t = 0 scan read from `p_counts`, which must
/// be exceedance_counts(histogram, sims) (call_peaks computes it once for
/// threshold selection and region calling).
Threshold select_threshold(std::span<const double> histogram,
                           const SimulationSet& sims,
                           std::span<const int32_t> p_counts,
                           double target_fdr, int ranks);

}  // namespace ngsx::stats
