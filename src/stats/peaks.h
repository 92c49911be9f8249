// ngsx/stats/peaks.h
//
// Enriched-region ("peak") calling on NGS coverage histograms — the end
// use of the paper's statistics module (§IV, after Han et al. 2012):
// NL-means denoises the histogram, the FDR computation selects a
// per-bin significance threshold p_t against null simulations, and bins
// with p_i <= p_t are merged into reported regions.

#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "stats/fdr.h"
#include "stats/nlmeans.h"

namespace ngsx::stats {

/// One called region, in bin coordinates [begin_bin, end_bin).
struct EnrichedRegion {
  size_t begin_bin = 0;
  size_t end_bin = 0;
  double max_value = 0.0;   // peak summit height (denoised)
  double mean_value = 0.0;  // mean denoised coverage over the region

  size_t width() const { return end_bin - begin_bin; }
  bool operator==(const EnrichedRegion&) const = default;
};

/// Calls regions at a fixed threshold: bins whose p_i (eq. 4) is <= p_t
/// are significant; significant bins closer than `merge_gap` bins apart
/// merge; regions narrower than `min_bins` are dropped.
std::vector<EnrichedRegion> call_enriched_regions(
    std::span<const double> histogram, const SimulationSet& sims, int p_t,
    size_t min_bins = 1, size_t merge_gap = 0);

/// Full pipeline parameters.
struct PeakCallParams {
  NlMeansParams nlmeans;      // denoising (paper defaults)
  bool denoise = true;
  double target_fdr = 0.05;   // threshold selection target
  size_t min_bins = 5;
  size_t merge_gap = 2;
  int ranks = 1;              // parallel width for NL-means and FDR
};

/// Full pipeline result.
struct PeakCallResult {
  int p_t = -1;                       // selected threshold (-1: none)
  double fdr = 0.0;                   // FDR at the selected threshold
  std::vector<double> denoised;       // the denoised histogram
  std::vector<EnrichedRegion> regions;
};

/// Denoise (parallel NL-means) -> select p_t by FDR sweep (select_threshold,
/// with its edge contracts) -> call regions. If no threshold achieves
/// `target_fdr`, returns p_t = -1 and no regions.
PeakCallResult call_peaks(std::span<const double> histogram,
                          const SimulationSet& sims,
                          const PeakCallParams& params);

}  // namespace ngsx::stats
