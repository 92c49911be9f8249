#include "stats/peaks.h"

#include <algorithm>

#include "util/common.h"

namespace ngsx::stats {

namespace {

/// Region calling over precomputed p_i (exceedance_counts).
std::vector<EnrichedRegion> regions_from_counts(
    std::span<const double> histogram, std::span<const int32_t> p_counts,
    int p_t, size_t min_bins, size_t merge_gap) {
  NGSX_CHECK_MSG(p_counts.size() == histogram.size(),
                 "p_i count/histogram bin count mismatch");
  // Per-bin significance: p_i = sum_b I(r_i <= r*_ib) <= p_t.
  auto significant = [&](size_t i) { return p_counts[i] <= p_t; };
  const size_t m = histogram.size();

  // Merge runs, bridging gaps up to merge_gap insignificant bins.
  std::vector<EnrichedRegion> regions;
  size_t i = 0;
  while (i < m) {
    if (!significant(i)) {
      ++i;
      continue;
    }
    size_t begin = i;
    size_t end = i + 1;
    size_t gap = 0;
    for (size_t j = i + 1; j < m; ++j) {
      if (significant(j)) {
        end = j + 1;
        gap = 0;
      } else if (++gap > merge_gap) {
        break;
      }
    }
    if (end - begin >= min_bins) {
      EnrichedRegion region;
      region.begin_bin = begin;
      region.end_bin = end;
      double total = 0;
      for (size_t j = begin; j < end; ++j) {
        region.max_value = std::max(region.max_value, histogram[j]);
        total += histogram[j];
      }
      region.mean_value = total / static_cast<double>(end - begin);
      regions.push_back(region);
    }
    i = end + 1;
  }
  return regions;
}

}  // namespace

std::vector<EnrichedRegion> call_enriched_regions(
    std::span<const double> histogram, const SimulationSet& sims, int p_t,
    size_t min_bins, size_t merge_gap) {
  return regions_from_counts(histogram, exceedance_counts(histogram, sims),
                             p_t, min_bins, merge_gap);
}

PeakCallResult call_peaks(std::span<const double> histogram,
                          const SimulationSet& sims,
                          const PeakCallParams& params) {
  PeakCallResult result;
  if (params.denoise) {
    result.denoised =
        params.ranks > 1
            ? nlmeans_parallel(histogram, params.nlmeans, params.ranks)
            : nlmeans(histogram, params.nlmeans);
  } else {
    result.denoised.assign(histogram.begin(), histogram.end());
  }

  // One p_i pass (eq. 4) at the pipeline's width feeds both threshold
  // selection and region calling.
  const std::vector<int32_t> p_counts =
      exceedance_counts(result.denoised, sims, params.ranks);

  // Threshold selection: smallest p_t whose FDR meets the target,
  // evaluated with the parallel Algorithm 2 at the pipeline's width.
  const Threshold threshold = select_threshold(
      result.denoised, sims, p_counts, params.target_fdr, params.ranks);
  result.p_t = threshold.p_t;
  result.fdr = threshold.fdr;
  if (result.p_t < 0) {
    return result;
  }
  result.regions = regions_from_counts(result.denoised, p_counts, result.p_t,
                                       params.min_bins, params.merge_gap);
  return result;
}

}  // namespace ngsx::stats
