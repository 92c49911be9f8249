#include "stats/peaks.h"

#include <algorithm>

#include "util/common.h"

namespace ngsx::stats {

std::vector<EnrichedRegion> call_enriched_regions(
    std::span<const double> histogram, const SimulationSet& sims, int p_t,
    size_t min_bins, size_t merge_gap) {
  NGSX_CHECK_MSG(!sims.empty(), "need at least one simulation");
  for (const auto& sim : sims) {
    NGSX_CHECK_MSG(sim.size() == histogram.size(),
                   "simulation/histogram bin count mismatch");
  }

  // Per-bin significance: p_i = sum_b I(r_i <= r*_ib) <= p_t.
  std::vector<bool> significant(histogram.size());
  for (size_t i = 0; i < histogram.size(); ++i) {
    int64_t p_i = 0;
    for (const auto& sim : sims) {
      p_i += histogram[i] <= sim[i] ? 1 : 0;
    }
    significant[i] = p_i <= p_t;
  }

  // Merge runs, bridging gaps up to merge_gap insignificant bins.
  std::vector<EnrichedRegion> regions;
  size_t i = 0;
  while (i < significant.size()) {
    if (!significant[i]) {
      ++i;
      continue;
    }
    size_t begin = i;
    size_t end = i + 1;
    size_t gap = 0;
    for (size_t j = i + 1; j < significant.size(); ++j) {
      if (significant[j]) {
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

  // Threshold selection: smallest p_t whose FDR meets the target,
  // evaluated with the parallel Algorithm 2 at the pipeline's width.
  const Threshold threshold = select_threshold(
      result.denoised, sims, params.target_fdr, params.ranks);
  result.p_t = threshold.p_t;
  result.fdr = threshold.fdr;
  if (result.p_t < 0) {
    return result;
  }
  result.regions = call_enriched_regions(result.denoised, sims, result.p_t,
                                         params.min_bins, params.merge_gap);
  return result;
}

}  // namespace ngsx::stats
