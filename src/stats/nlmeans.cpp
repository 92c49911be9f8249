#include "stats/nlmeans.h"

#include <algorithm>
#include <cmath>

#include "core/partition.h"
#include "mpi/minimpi.h"
#include "util/common.h"

namespace ngsx::stats {

namespace {

/// Core kernel over a window buffer. `buf` holds global indices
/// [buf_begin, buf_begin + buf_len); outputs points [out_begin, out_end)
/// (global indices) into `out[0 .. out_end-out_begin)`. Index clamping is
/// against the *global* bounds [0, global_n), so results are identical no
/// matter how the array was partitioned; the caller guarantees the buffer
/// covers every index the window can touch after clamping.
void nlmeans_kernel(const double* buf, size_t buf_len, size_t buf_begin,
                    size_t global_n, size_t out_begin, size_t out_end,
                    const NlMeansParams& params, double* out) {
  NGSX_CHECK_MSG(params.r >= 0 && params.l >= 0 && params.sigma > 0,
                 "invalid NL-means parameters");
  const long n = static_cast<long>(global_n);
  const long r = params.r;
  const long l = params.l;
  const double inv_two_sigma_sq = 1.0 / (2.0 * params.sigma * params.sigma);
  const double inv_patch = 1.0 / static_cast<double>(2 * l + 1);

  auto at = [&](long global_idx) -> double {
    long clamped = std::clamp(global_idx, 0L, n - 1);
    size_t local = static_cast<size_t>(clamped) - buf_begin;
    NGSX_CHECK_MSG(local < buf_len, "NL-means window escapes buffer");
    return buf[local];
  };

  for (size_t i = out_begin; i < out_end; ++i) {
    const long gi = static_cast<long>(i);
    double z = 0.0;
    double acc = 0.0;
    for (long gj = gi - r; gj <= gi + r; ++gj) {
      // Patch distance: mean squared difference over the 2l+1 patch.
      double dist = 0.0;
      for (long d = -l; d <= l; ++d) {
        double diff = at(gi + d) - at(gj + d);
        dist += diff * diff;
      }
      dist *= inv_patch;
      double w = std::exp(-dist * inv_two_sigma_sq);
      z += w;
      long gj_clamped = std::clamp(gj, 0L, n - 1);
      acc += w * at(gj_clamped);
    }
    out[i - out_begin] = acc / z;
  }
}

}  // namespace

void nlmeans_range(std::span<const double> data, size_t begin, size_t end,
                   const NlMeansParams& params, std::span<double> out) {
  NGSX_CHECK_MSG(end <= data.size() && begin <= end, "bad NL-means range");
  NGSX_CHECK_MSG(out.size() >= end - begin, "output span too small");
  nlmeans_kernel(data.data(), data.size(), 0, data.size(), begin, end, params,
                 out.data());
}

std::vector<double> nlmeans(std::span<const double> data,
                            const NlMeansParams& params) {
  std::vector<double> out(data.size());
  nlmeans_range(data, 0, data.size(), params, out);
  return out;
}

std::vector<double> nlmeans_parallel(std::span<const double> data,
                                     const NlMeansParams& params, int ranks) {
  NGSX_CHECK_MSG(ranks >= 1, "ranks must be >= 1");
  const size_t n = data.size();
  std::vector<double> result(n);
  if (n == 0) {
    return result;
  }
  const size_t halo = static_cast<size_t>(params.r + params.l);
  auto parts = core::split_records(n, ranks);

  mpi::run(ranks, [&](mpi::Comm& comm) {
    const int rank = comm.rank();
    const int size = comm.size();
    auto [lo, hi] = parts[static_cast<size_t>(rank)];

    // Step 1 (paper): each rank holds its own partition.
    std::vector<double> local(data.begin() + static_cast<long>(lo),
                              data.begin() + static_cast<long>(hi));

    // Step 2: replicate the fixed-size boundary regions from the
    // neighbouring partitions — explicit halo exchange, as under MPI.
    constexpr int kTagLeft = 1;   // data flowing to the left neighbour
    constexpr int kTagRight = 2;  // data flowing to the right neighbour
    size_t own = hi - lo;
    size_t send_left = std::min(halo, own);
    size_t send_right = std::min(halo, own);
    if (rank > 0) {
      comm.send_vector<double>(
          rank - 1, kTagLeft,
          std::vector<double>(local.begin(),
                              local.begin() + static_cast<long>(send_left)));
    }
    if (rank < size - 1) {
      comm.send_vector<double>(
          rank + 1, kTagRight,
          std::vector<double>(local.end() - static_cast<long>(send_right),
                              local.end()));
    }
    std::vector<double> left_halo;
    std::vector<double> right_halo;
    if (rank > 0) {
      left_halo = comm.recv_vector<double>(rank - 1, kTagRight);
    }
    if (rank < size - 1) {
      right_halo = comm.recv_vector<double>(rank + 1, kTagLeft);
    }

    // Extended partition P'_i. With very small partitions a single
    // neighbour's halo may not cover r+l points; fall back to reading the
    // missing span from the globally-shared input (equivalent to deeper
    // halo exchange, which the paper's fixed-size scheme assumes away by
    // using partitions much larger than r+l).
    size_t ext_begin = lo - std::min<size_t>(lo, halo);
    size_t ext_end = std::min(n, hi + halo);
    std::vector<double> extended(ext_end - ext_begin);
    // Own data.
    std::copy(local.begin(), local.end(),
              extended.begin() + static_cast<long>(lo - ext_begin));
    // Left halo: bytes [ext_begin, lo).
    {
      size_t need = lo - ext_begin;
      size_t from_msg = std::min(need, left_halo.size());
      // The received halo is the *tail* of the left neighbour's data.
      std::copy(left_halo.end() - static_cast<long>(from_msg),
                left_halo.end(),
                extended.begin() + static_cast<long>(need - from_msg));
      for (size_t k = 0; k < need - from_msg; ++k) {
        extended[k] = data[ext_begin + k];
      }
    }
    // Right halo: bytes [hi, ext_end).
    {
      size_t need = ext_end - hi;
      size_t from_msg = std::min(need, right_halo.size());
      std::copy(right_halo.begin(),
                right_halo.begin() + static_cast<long>(from_msg),
                extended.begin() + static_cast<long>(hi - ext_begin));
      for (size_t k = from_msg; k < need; ++k) {
        extended[hi - ext_begin + k] = data[hi + k];
      }
    }

    // Step 3: process only the original partition P_i over P'_i.
    std::vector<double> denoised(hi - lo);
    nlmeans_kernel(extended.data(), extended.size(), ext_begin, n, lo, hi,
                   params, denoised.data());

    // Step 4: assemble. Slices travel through the communicator because the
    // ranks may be separate processes; partitions are contiguous in rank
    // order, so concatenation reconstructs the array. Under threads only
    // rank 0 writes the shared result; each process rank fills its own
    // copy (so a launched world returns the full result on every rank).
    auto slices = comm.allgather_vectors<double>(denoised);
    if (comm.rank() == 0 || !mpi::ranks_share_address_space()) {
      size_t at = 0;
      for (const auto& slice : slices) {
        std::copy(slice.begin(), slice.end(),
                  result.begin() + static_cast<long>(at));
        at += slice.size();
      }
    }
  });
  return result;
}

}  // namespace ngsx::stats
