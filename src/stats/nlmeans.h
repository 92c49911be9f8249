// ngsx/stats/nlmeans.h
//
// Non-local means denoising of 1-D NGS histogram data (§IV-A, after Buades
// et al. 2005 and Han et al. 2012). Each point is replaced by a weighted
// average of the points in its search range, with weights from the
// similarity of the surrounding patches:
//
//   NL[v_i]  = sum_{j in R} w(i,j) v_j
//   w(i,j)   = exp(-||N(v_i)-N(v_j)||^2 / (2 sigma^2)) / Z(i)
//
// Parameters: search-range radius r, half patch size l, filtering sigma.
// Complexity Theta(N (2r+1)(2l+1)).
//
// The parallelization follows the paper exactly: the histogram is divided
// evenly across ranks, each partition is *extended by an (r+l)-wide
// replicated halo* from its neighbours, NL-means runs over the extended
// partition, and only the original partition's points are written — so the
// parallel result is bit-identical to the sequential one (a property test
// asserts this for arbitrary rank counts).

#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ngsx::stats {

/// NL-means parameters; defaults are the paper's fixed settings (§V-G).
struct NlMeansParams {
  int r = 20;          // search range radius, in bins
  int l = 15;          // half patch size, in bins
  double sigma = 10.0; // filtering parameter
};

/// Sequential reference implementation.
std::vector<double> nlmeans(std::span<const double> data,
                            const NlMeansParams& params);

/// Denoises `data[begin, end)` given the *global* array (used by both the
/// sequential and halo-extended parallel paths; clamps windows at the
/// global boundaries, i.e. at the edges of `data`).
void nlmeans_range(std::span<const double> data, size_t begin, size_t end,
                   const NlMeansParams& params, std::span<double> out);

/// Distributed parallelization per the paper: `ranks` minimpi ranks, even
/// partitioning, explicit halo exchange of the (r+l) boundary regions via
/// point-to-point messages. Returns the full denoised histogram.
std::vector<double> nlmeans_parallel(std::span<const double> data,
                                     const NlMeansParams& params, int ranks);

}  // namespace ngsx::stats
