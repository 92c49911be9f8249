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
// Complexity Theta(N (2r+1)(2l+1)) in the definition; the kernel evaluates
// each pair weight w(i, i+k) once for both of its points, so it does about
// N (r+1)(2l+1) patch terms and N (r+1) exp calls, offset by offset over
// blocks of outputs (the loop order of Darbon et al.'s fast NL-means,
// without their running sums).
//
// Order contract: every output is computed with the IEEE operation
// sequence of the direct loop — each patch distance summed over d = -l..l
// in ascending order, the weight as exp(-(dist * p) * s) with the
// reciprocals p = 1/(2l+1) and s = 1/(2 sigma^2) and scalar std::exp, z
// and the weighted sum accumulated over the 2r+1 offsets in ascending
// order, no FMA contraction — so the result is bitwise equal to it for
// any finite input (tests/stats_test.cpp keeps that loop as the oracle).
// Blocking, partitioning and the range API never change a bit. Scratch
// per call: a window of block + 2(r+l) values and O(s (block + s)) pair
// weights, with block = 256 outputs and s = min(r, 512).
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
