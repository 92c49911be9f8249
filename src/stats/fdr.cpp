#include "stats/fdr.h"

#include <algorithm>

#include "core/partition.h"
#include "mpi/minimpi.h"
#include "util/common.h"

namespace ngsx::stats {

namespace {

void validate(std::span<const double> histogram, const SimulationSet& sims) {
  NGSX_CHECK_MSG(!sims.empty(), "FDR requires at least one simulation");
  for (const auto& sim : sims) {
    NGSX_CHECK_MSG(sim.size() == histogram.size(),
                   "simulation/histogram bin count mismatch");
  }
}

/// Gathers bin i's simulated reads into a contiguous column so the B^2
/// rank counting streams linearly instead of striding across B vectors.
/// Both the fused and the two-pass variants use this same inner kernel,
/// so their comparison isolates the *fusion* itself.
void gather_column(const SimulationSet& sims, size_t i,
                   std::vector<double>& column) {
  column.resize(sims.size());
  for (size_t b = 0; b < sims.size(); ++b) {
    column[b] = sims[b][i];
  }
}

/// Eq. 5's inner sum for simulation b of one bin's column:
/// sum_b' I(col[b] <= col[b']), in [1, B].
int64_t rank_of(const std::vector<double>& column, size_t b) {
  int64_t rank = 0;
  const double v = column[b];
  for (const double other : column) {
    rank += v <= other ? 1 : 0;
  }
  return rank;
}

/// sum_b I( sum_b' I(col[b] <= col[b']) <= p_t ) for one bin's column.
int64_t column_diamond(const std::vector<double>& column, int p_t) {
  int64_t diamond = 0;
  for (size_t b = 0; b < column.size(); ++b) {
    if (rank_of(column, b) <= p_t) {
      ++diamond;
    }
  }
  return diamond;
}

/// out[r] = the number of (bin, simulation) pairs over bins [lo, hi) whose
/// rank_of is r, for r in [0, B]: eq. 5's numerator at every threshold
/// p_t is then the prefix sum out[0] + ... + out[p_t].
void count_ranks(const SimulationSet& sims, size_t lo, size_t hi,
                 int64_t* out) {
  std::fill(out, out + sims.size() + 1, 0);
  std::vector<double> column;
  for (size_t i = lo; i < hi; ++i) {
    gather_column(sims, i, column);
    for (size_t b = 0; b < column.size(); ++b) {
      ++out[rank_of(column, b)];
    }
  }
}

/// count_ranks over every bin, with the bins split across `ranks` minimpi
/// ranks (ranks = 1 runs inline); every rank of a launched world returns
/// the full B+1 counts.
std::vector<int64_t> rank_counts(size_t m, const SimulationSet& sims,
                                 int ranks) {
  NGSX_CHECK_MSG(ranks >= 1, "ranks must be >= 1");
  const size_t buckets = sims.size() + 1;
  std::vector<int64_t> total(buckets);
  if (ranks == 1 || m == 0) {
    count_ranks(sims, 0, m, total.data());
    return total;
  }
  auto parts = core::split_records(m, ranks);
  std::vector<int64_t> per_rank(static_cast<size_t>(ranks) * buckets);
  mpi::run(ranks, [&](mpi::Comm& comm) {
    const size_t r = static_cast<size_t>(comm.rank());
    auto [lo, hi] = parts[r];
    comm.assemble_slices<int64_t>(
        per_rank, r * buckets, (r + 1) * buckets,
        [&](int64_t* slice) { count_ranks(sims, lo, hi, slice); });
  });
  for (size_t k = 0; k < per_rank.size(); ++k) {
    total[k % buckets] += per_rank[k];
  }
  return total;
}

/// Fused per-bin component sums over bins [lo, hi):
///   sum_diamond = sum_i sum_b I( sum_b' I(r*_ib <= r*_ib') <= p_t )
///   sum_star    = sum_i I( p_i <= p_t )
/// Both accumulate in the same sweep (the summation permutation of
/// eqs. 7-9): this is the unit of work Algorithm 2 hands to each rank.
void fused_local_sums(std::span<const double> histogram,
                      const SimulationSet& sims, int p_t, size_t lo,
                      size_t hi, int64_t& sum_diamond, int64_t& sum_star) {
  const size_t b_count = sims.size();
  sum_diamond = 0;
  sum_star = 0;
  std::vector<double> column;
  for (size_t i = lo; i < hi; ++i) {
    gather_column(sims, i, column);
    // sum_star component: p_i = sum_b I(r_i <= r*_ib) — reuses the column
    // the diamond kernel is about to stream (the fusion win).
    int64_t p_i = 0;
    for (size_t b = 0; b < b_count; ++b) {
      p_i += histogram[i] <= column[b] ? 1 : 0;
    }
    if (p_i <= p_t) {
      ++sum_star;
    }
    sum_diamond += column_diamond(column, p_t);
  }
}

/// p_i (eq. 4) of bins [lo, hi) into out[0, hi-lo). Tiles of bins keep
/// their histogram values and counts cache-resident while each simulation
/// row streams through once.
void count_exceedances(std::span<const double> histogram,
                       const SimulationSet& sims, size_t lo, size_t hi,
                       int32_t* out) {
  constexpr size_t kTile = 2048;
  std::fill(out, out + (hi - lo), 0);
  for (size_t t0 = lo; t0 < hi; t0 += kTile) {
    const size_t t1 = std::min(hi, t0 + kTile);
    for (const auto& sim : sims) {
      for (size_t i = t0; i < t1; ++i) {
        out[i - lo] += histogram[i] <= sim[i] ? 1 : 0;
      }
    }
  }
}

FdrResult make_result(int64_t sum_diamond, int64_t sum_star, size_t b_count) {
  FdrResult res;
  res.numerator =
      static_cast<double>(sum_diamond) / static_cast<double>(b_count);
  res.denominator = static_cast<double>(sum_star);
  res.fdr = res.denominator == 0.0 ? 0.0 : res.numerator / res.denominator;
  return res;
}

}  // namespace

FdrResult fdr_reference(std::span<const double> histogram,
                        const SimulationSet& sims, int p_t) {
  validate(histogram, sims);
  const size_t m = histogram.size();
  const size_t b_count = sims.size();

  // Equation 5: d_b per simulation round.
  int64_t sum_d = 0;
  for (size_t b = 0; b < b_count; ++b) {
    int64_t d_b = 0;
    for (size_t i = 0; i < m; ++i) {
      int64_t inner = 0;
      for (size_t bp = 0; bp < b_count; ++bp) {
        inner += sims[b][i] <= sims[bp][i] ? 1 : 0;
      }
      if (inner <= p_t) {
        ++d_b;
      }
    }
    sum_d += d_b;
  }

  // Equation 4 + denominator of equation 6.
  int64_t denom = 0;
  for (size_t i = 0; i < m; ++i) {
    int64_t p_i = 0;
    for (size_t b = 0; b < b_count; ++b) {
      p_i += histogram[i] <= sims[b][i] ? 1 : 0;
    }
    if (p_i <= p_t) {
      ++denom;
    }
  }
  return make_result(sum_d, denom, b_count);
}

FdrResult fdr_fused(std::span<const double> histogram,
                    const SimulationSet& sims, int p_t) {
  validate(histogram, sims);
  int64_t sum_diamond = 0;
  int64_t sum_star = 0;
  fused_local_sums(histogram, sims, p_t, 0, histogram.size(), sum_diamond,
                   sum_star);
  return make_result(sum_diamond, sum_star, sims.size());
}

FdrResult fdr_parallel(std::span<const double> histogram,
                       const SimulationSet& sims, int p_t, int ranks) {
  validate(histogram, sims);
  NGSX_CHECK_MSG(ranks >= 1, "ranks must be >= 1");
  auto parts = core::split_records(histogram.size(), ranks);
  FdrResult result;

  mpi::run(ranks, [&](mpi::Comm& comm) {
    // Algorithm 2, lines 1-3: bin-direction partition, fused local sums.
    auto [lo, hi] = parts[static_cast<size_t>(comm.rank())];
    int64_t local_diamond = 0;
    int64_t local_star = 0;
    fused_local_sums(histogram, sims, p_t, lo, hi, local_diamond,
                     local_star);
    // Line 4: global barrier.
    comm.barrier();
    // Lines 5-8: master gathers both local sums at once and computes FDR.
    struct Sums {
      int64_t diamond;
      int64_t star;
    };
    auto gathered =
        comm.gather_values<Sums>(0, Sums{local_diamond, local_star});
    FdrResult combined{};
    if (comm.rank() == 0) {
      int64_t sum_diamond = 0;
      int64_t sum_star = 0;
      for (const Sums& s : gathered) {
        sum_diamond += s.diamond;
        sum_star += s.star;
      }
      combined = make_result(sum_diamond, sum_star, sims.size());
    }
    // Broadcast so every rank of a multi-process world returns the value;
    // under threads only rank 0 stores it (single writer, no race).
    combined = comm.bcast_value(0, combined);
    if (comm.rank() == 0 || !mpi::ranks_share_address_space()) {
      result = combined;
    }
  });
  return result;
}

FdrResult fdr_parallel_two_pass(std::span<const double> histogram,
                                const SimulationSet& sims, int p_t,
                                int ranks) {
  validate(histogram, sims);
  NGSX_CHECK_MSG(ranks >= 1, "ranks must be >= 1");
  auto parts = core::split_records(histogram.size(), ranks);
  const size_t b_count = sims.size();
  FdrResult result;

  mpi::run(ranks, [&](mpi::Comm& comm) {
    auto [lo, hi] = parts[static_cast<size_t>(comm.rank())];

    // Pass 1: numerator only (same column-gathered inner kernel as the
    // fused variant, so the comparison isolates fusion itself).
    int64_t local_diamond = 0;
    std::vector<double> column;
    for (size_t i = lo; i < hi; ++i) {
      gather_column(sims, i, column);
      local_diamond += column_diamond(column, p_t);
    }
    int64_t sum_diamond = comm.reduce_sum<int64_t>(0, local_diamond);
    comm.barrier();  // the extra global synchronization fusion removes

    // Pass 2: denominator — re-streams the simulation columns that the
    // fused variant piggybacked on pass 1.
    int64_t local_star = 0;
    for (size_t i = lo; i < hi; ++i) {
      gather_column(sims, i, column);
      int64_t p_i = 0;
      for (size_t b = 0; b < b_count; ++b) {
        p_i += histogram[i] <= column[b] ? 1 : 0;
      }
      if (p_i <= p_t) {
        ++local_star;
      }
    }
    int64_t sum_star = comm.reduce_sum<int64_t>(0, local_star);
    FdrResult combined{};
    if (comm.rank() == 0) {
      combined = make_result(sum_diamond, sum_star, b_count);
    }
    combined = comm.bcast_value(0, combined);
    if (comm.rank() == 0 || !mpi::ranks_share_address_space()) {
      result = combined;
    }
  });
  return result;
}

std::vector<int32_t> exceedance_counts(std::span<const double> histogram,
                                       const SimulationSet& sims,
                                       int ranks) {
  validate(histogram, sims);
  NGSX_CHECK_MSG(ranks >= 1, "ranks must be >= 1");
  std::vector<int32_t> counts(histogram.size());
  if (ranks == 1 || histogram.empty()) {
    count_exceedances(histogram, sims, 0, histogram.size(), counts.data());
    return counts;
  }
  auto parts = core::split_records(histogram.size(), ranks);
  mpi::run(ranks, [&](mpi::Comm& comm) {
    auto [lo, hi] = parts[static_cast<size_t>(comm.rank())];
    comm.assemble_slices<int32_t>(counts, lo, hi, [&](int32_t* slice) {
      count_exceedances(histogram, sims, lo, hi, slice);
    });
  });
  return counts;
}

Threshold select_threshold(std::span<const double> histogram,
                           const SimulationSet& sims, double target_fdr,
                           int ranks) {
  return select_threshold(histogram, sims,
                          exceedance_counts(histogram, sims, ranks),
                          target_fdr, ranks);
}

Threshold select_threshold(std::span<const double> histogram,
                           const SimulationSet& sims,
                           std::span<const int32_t> p_counts,
                           double target_fdr, int ranks) {
  validate(histogram, sims);
  NGSX_CHECK_MSG(p_counts.size() == histogram.size(),
                 "p_i count/histogram bin count mismatch");
  const int b_count = static_cast<int>(sims.size());

  // M == 0: every denominator is zero at every threshold (the denominator
  // at p_t = B counts all M bins, so it is the largest), and an FDR with
  // no candidate bins is vacuously within any non-negative target. Report
  // the smallest threshold instead of "nothing qualifies".
  if (histogram.empty()) {
    return target_fdr >= 0.0 ? Threshold{0, 0.0} : Threshold{};
  }

  // Denominators: bins_at[p] = #(p_i == p), so #(p_i <= p_t) is a prefix
  // sum.
  std::vector<int64_t> bins_at(static_cast<size_t>(b_count) + 1);
  for (int32_t p : p_counts) {
    NGSX_CHECK_MSG(p >= 0 && p <= b_count, "p_i count out of [0, B]");
    ++bins_at[static_cast<size_t>(p)];
  }

  // p_t = 0: the numerator is structurally zero — every simulated value is
  // <= itself, so rank_of_b >= 1 > p_t for all b — so only the denominator
  // decides, without the Theta(M B^2) rank sweep. FDR is exactly 0
  // whenever any bin qualifies.
  if (bins_at[0] > 0 && 0.0 <= target_fdr) {
    return Threshold{0, 0.0};
  }

  // Numerators: one rank sweep gives every threshold's sum_b d_b as a
  // prefix sum, where a per-threshold fused pass would redo the sweep B
  // times. The integer sums are the ones fdr_reference forms, so FDR is
  // bitwise the same at every p_t.
  const std::vector<int64_t> pairs_at =
      rank_counts(histogram.size(), sims, ranks);
  int64_t sum_diamond = pairs_at[0];
  int64_t sum_star = bins_at[0];
  for (int p_t = 1; p_t <= b_count; ++p_t) {
    sum_diamond += pairs_at[static_cast<size_t>(p_t)];
    sum_star += bins_at[static_cast<size_t>(p_t)];
    const FdrResult res = make_result(sum_diamond, sum_star, sims.size());
    if (res.denominator > 0 && res.fdr <= target_fdr) {
      return Threshold{p_t, res.fdr};
    }
  }
  return Threshold{};
}

}  // namespace ngsx::stats
