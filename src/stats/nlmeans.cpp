#include "stats/nlmeans.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/partition.h"
#include "mpi/minimpi.h"
#include "util/common.h"

namespace ngsx::stats {

namespace {

/// Outputs per kernel block.
constexpr long kBlock = 256;

/// Largest offset whose pair weights are kept for reuse by the mirrored
/// offset; beyond it a row is computed once per sign instead, so the
/// weight table stays within 2.1 MB for any r.
constexpr long kMaxStoredOffset = 512;

/// Core kernel over a window buffer. `buf` holds global indices
/// [buf_begin, buf_begin + buf_len); outputs points [out_begin, out_end)
/// (global indices) into `out[0 .. out_end-out_begin)`. Index clamping is
/// against the *global* bounds [0, global_n), so results are identical no
/// matter how the array was partitioned; the caller guarantees the buffer
/// covers every index the window can touch after clamping.
///
/// Offset-major: per block of outputs the clamped window is copied once
/// into `padded`; then per offset k >= 0 the squared differences
/// e[t] = (x[t] - x[t+k])^2 are formed once and summed into the patch
/// distance of every pair (m, m+k) touching the block. That pair's weight
/// serves output m at offset +k and output m+k at offset -k: the two
/// differences are exact negations, so their squares, summed in the same
/// d order, are bitwise equal. Pairs that start in the previous block are
/// carried over from it rather than recomputed. Every output then
/// accumulates its 2r+1 weights in ascending offset order. Each output
/// sees exactly the IEEE operation sequence of the direct per-point loop
/// (kept as the oracle in tests/stats_test.cpp), so the result is bitwise
/// equal to it.
void nlmeans_kernel(const double* buf, size_t buf_len, size_t buf_begin,
                    size_t global_n, size_t out_begin, size_t out_end,
                    const NlMeansParams& params, double* out) {
  NGSX_CHECK_MSG(params.r >= 0 && params.l >= 0 && params.sigma > 0,
                 "invalid NL-means parameters");
  if (out_begin >= out_end) {
    return;
  }
  const long n = static_cast<long>(global_n);
  const long r = params.r;
  const long l = params.l;
  const long stored = std::min(r, kMaxStoredOffset);
  const double inv_two_sigma_sq = 1.0 / (2.0 * params.sigma * params.sigma);
  const double inv_patch = 1.0 / static_cast<double>(2 * l + 1);

  std::vector<double> padded;  // x[clamp(t)], t in [b0-r-l, b1+r+l)
  std::vector<double> sq;      // e[t] for one offset
  // Weight rows k = 0..stored: row k starts at row_at(k), has room for
  // kBlock + k weights and holds pairs (m, m+k) for m in [b0-k, b1).
  auto row_at = [](long k) { return k * kBlock + k * (k - 1) / 2; };
  std::vector<double> table(static_cast<size_t>(row_at(stored + 1)));
  std::vector<double> spill;  // one row for an offset above `stored`
  std::vector<double> z;
  std::vector<double> acc;

  for (long b0 = static_cast<long>(out_begin); b0 < static_cast<long>(out_end);
       b0 += kBlock) {
    const long b1 = std::min(b0 + kBlock, static_cast<long>(out_end));
    const long len = b1 - b0;
    const long base = b0 - r - l;  // global index of padded[0]

    padded.resize(static_cast<size_t>(len + 2 * (r + l)));
    for (size_t t = 0; t < padded.size(); ++t) {
      const long clamped = std::clamp(base + static_cast<long>(t), 0L, n - 1);
      const size_t local = static_cast<size_t>(clamped) - buf_begin;
      NGSX_CHECK_MSG(local < buf_len, "NL-means window escapes buffer");
      padded[t] = buf[local];
    }

    // Weights of pairs (m, m+k) for m in [first, first + count) into `row`.
    auto pair_weights = [&](long k, long first, long count,
                            double* __restrict row) {
      const double* __restrict x = padded.data() + (first - l - base);
      sq.resize(static_cast<size_t>(count + 2 * l));
      double* __restrict e = sq.data();
      for (long t = 0; t < count + 2 * l; ++t) {
        const double diff = x[t] - x[t + k];
        e[t] = diff * diff;
      }
      std::fill(row, row + count, 0.0);
      for (long d = 0; d <= 2 * l; ++d) {
        for (long m = 0; m < count; ++m) {
          row[m] += e[m + d];
        }
      }
      for (long m = 0; m < count; ++m) {
        row[m] = std::exp(-(row[m] * inv_patch) * inv_two_sigma_sq);
      }
    };

    for (long k = 0; k <= stored; ++k) {
      double* row = table.data() + row_at(k);
      if (b0 == static_cast<long>(out_begin)) {
        pair_weights(k, b0 - k, len + k, row);
      } else {
        // Pairs starting in [b0-k, b0) end the previous block's row (a full
        // block of kBlock, since only the last block is shorter).
        std::copy(row + kBlock, row + kBlock + k, row);
        pair_weights(k, b0, len, row + k);
      }
    }

    z.assign(static_cast<size_t>(len), 0.0);
    acc.assign(static_cast<size_t>(len), 0.0);
    for (long k = -r; k <= r; ++k) {
      // Output b0+j pairs with m = b0+j at k >= 0 and m = b0+j+k at k < 0.
      const long a = k < 0 ? -k : k;
      const double* w;
      if (a <= stored) {
        w = table.data() + row_at(a) + (k < 0 ? 0 : a);  // row starts at b0-a
      } else {
        spill.resize(static_cast<size_t>(len));
        pair_weights(a, k < 0 ? b0 - a : b0, len, spill.data());
        w = spill.data();
      }
      const double* v = padded.data() + (r + l + k);  // x[b0+k]
      double* __restrict zp = z.data();
      double* __restrict ap = acc.data();
      for (long j = 0; j < len; ++j) {
        zp[j] += w[j];
        ap[j] += w[j] * v[j];
      }
    }
    double* dst = out + (b0 - static_cast<long>(out_begin));
    for (long j = 0; j < len; ++j) {
      dst[j] = acc[j] / z[j];
    }
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

    // Step 3: process only the original partition P_i over P'_i. Step 4:
    // assemble — in place when the ranks share the result, through an
    // allgather when they are separate processes (so a launched world
    // returns the full result on every rank).
    comm.assemble_slices<double>(result, lo, hi, [&](double* slice) {
      nlmeans_kernel(extended.data(), extended.size(), ext_begin, n, lo, hi,
                     params, slice);
    });
  });
  return result;
}

}  // namespace ngsx::stats
