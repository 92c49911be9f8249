// Tests for the statistical-analysis module: coverage histograms, NL-means
// denoising (bit-exact against the direct per-point oracle, sequentially,
// through the range API and at every parallel width — the paper's halo
// replication correctness), and FDR (reference == fused == Algorithm 2 ==
// two-pass).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <random>
#include <span>
#include <tuple>
#include <utility>

#include "simdata/histsim.h"
#include "simdata/readsim.h"
#include "stats/fdr.h"
#include "stats/histogram.h"
#include "stats/nlmeans.h"
#include "util/tempdir.h"

namespace ngsx::stats {
namespace {

using sam::AlignmentRecord;
using sam::SamHeader;

// ---------------------------------------------------------------- histogram

SamHeader small_header() {
  return SamHeader::from_references({{"chr1", 1000}, {"chr2", 500}});
}

AlignmentRecord rec_at(int32_t ref, int32_t pos, const char* cigar = "90M") {
  AlignmentRecord rec;
  rec.qname = "r";
  rec.ref_id = ref;
  rec.pos = pos;
  rec.cigar = sam::parse_cigar(cigar);
  return rec;
}

TEST(Histogram, BinCountsFromLengths) {
  CoverageHistogram h(small_header(), 25);
  EXPECT_EQ(h.bins(0).size(), 40u);  // 1000/25
  EXPECT_EQ(h.bins(1).size(), 20u);
  EXPECT_EQ(h.total_bins(), 60u);
}

TEST(Histogram, RoundsUpPartialBin) {
  CoverageHistogram h(SamHeader::from_references({{"c", 26}}), 25);
  EXPECT_EQ(h.bins(0).size(), 2u);
}

TEST(Histogram, AddCoversOverlappedBins) {
  CoverageHistogram h(small_header(), 25);
  // 90M starting at 10 covers [10,100) -> bins 0..3.
  EXPECT_TRUE(h.add(rec_at(0, 10)));
  for (size_t b = 0; b < 4; ++b) {
    EXPECT_EQ(h.bins(0)[b], 1.0) << "bin " << b;
  }
  EXPECT_EQ(h.bins(0)[4], 0.0);
}

TEST(Histogram, SingleBinAlignment) {
  CoverageHistogram h(small_header(), 25);
  h.add(rec_at(0, 30, "10M"));
  EXPECT_EQ(h.bins(0)[1], 1.0);
  EXPECT_EQ(h.bins(0)[0], 0.0);
  EXPECT_EQ(h.bins(0)[2], 0.0);
}

TEST(Histogram, SkipsUnmapped) {
  CoverageHistogram h(small_header(), 25);
  AlignmentRecord rec = rec_at(0, 10);
  rec.flag = sam::kUnmapped;
  EXPECT_FALSE(h.add(rec));
  rec = rec_at(-1, -1, "*");
  EXPECT_FALSE(h.add(rec));
}

TEST(Histogram, ClampsAtChromosomeEnd) {
  CoverageHistogram h(small_header(), 25);
  EXPECT_TRUE(h.add(rec_at(0, 990)));  // spills past 1000
  EXPECT_EQ(h.bins(0).back(), 1.0);
}

TEST(Histogram, FlattenConcatenatesChromosomes) {
  CoverageHistogram h(small_header(), 25);
  h.add(rec_at(0, 0, "10M"));
  h.add(rec_at(1, 0, "10M"));
  auto flat = h.flatten();
  ASSERT_EQ(flat.size(), 60u);
  EXPECT_EQ(flat[0], 1.0);
  EXPECT_EQ(flat[40], 1.0);  // first bin of chr2
}

TEST(Histogram, BedgraphExactBytes) {
  // The bytes ngsx_stats --bedgraph writes: one row per run of equal bins,
  // zero runs included, the last row of each chromosome clamped to its
  // length (chr2 is 510 bp, so its last 25 bp bin ends at 510).
  TempDir tmp;
  CoverageHistogram h(
      SamHeader::from_references({{"chr1", 1000}, {"chr2", 510}}), 25);
  h.add(rec_at(0, 0));           // bins 0-3
  h.add(rec_at(0, 50));          // bins 2-5
  h.add(rec_at(0, 990));         // bin 39, clamped at the chromosome end
  h.add(rec_at(1, 500, "5M"));   // chr2's partial last bin
  std::string path = tmp.file("h.bedgraph");
  h.write_bedgraph(path);
  EXPECT_EQ(read_file(path),
            "chr1\t0\t50\t1\n"
            "chr1\t50\t100\t2\n"
            "chr1\t100\t150\t1\n"
            "chr1\t150\t975\t0\n"
            "chr1\t975\t1000\t1\n"
            "chr2\t0\t500\t0\n"
            "chr2\t500\t510\t1\n");
}

TEST(Histogram, BedgraphMergesRuns) {
  TempDir tmp;
  CoverageHistogram h(SamHeader::from_references({{"c", 100}}), 10);
  // All bins zero -> exactly one run per chromosome.
  std::string path = tmp.file("h.bedgraph");
  h.write_bedgraph(path);
  std::string text = read_file(path);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1);
  EXPECT_EQ(text, "c\t0\t100\t0\n");
}

TEST(Histogram, FromSamAndBamAgree) {
  TempDir tmp;
  auto genome = simdata::ReferenceGenome::simulate(
      simdata::mouse_like_references(300000), 14);
  simdata::ReadSimConfig cfg;
  cfg.seed = 14;
  std::string sam_path = tmp.file("x.sam");
  std::string bam_path = tmp.file("x.bam");
  simdata::write_sam_dataset(sam_path, genome, 200, cfg);
  simdata::write_bam_dataset(bam_path, genome, 200, cfg);
  auto from_sam = histogram_from_sam(sam_path, 25);
  auto from_bam = histogram_from_bam(bam_path, 25);
  EXPECT_EQ(from_sam.flatten(), from_bam.flatten());
  // Mean coverage should be near pairs*2*90 / genome_size.
  auto flat = from_sam.flatten();
  double covered =
      std::accumulate(flat.begin(), flat.end(), 0.0) * 25;
  EXPECT_GT(covered, 0.0);
}

// ----------------------------------------------------------------- NL-means

/// The direct per-point NL-means loop — the library's kernel before it
/// went offset-major, kept verbatim as the bit-exact oracle (as
/// fdr_reference is for FDR), over the whole of `data`.
std::vector<double> nlmeans_reference(std::span<const double> data,
                                      const NlMeansParams& params) {
  const double* buf = data.data();
  const size_t buf_len = data.size();
  const size_t buf_begin = 0;
  const size_t out_begin = 0;
  const size_t out_end = data.size();
  std::vector<double> result(data.size());
  double* out = result.data();

  NGSX_CHECK_MSG(params.r >= 0 && params.l >= 0 && params.sigma > 0,
                 "invalid NL-means parameters");
  const long n = static_cast<long>(data.size());
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
  return result;
}

/// Bitwise equality: EXPECT_DOUBLE_EQ would allow 4 ULPs.
bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Uniform values in [-50, 50): negative and non-integer, unlike counts.
std::vector<double> random_signal(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-50.0, 50.0);
  std::vector<double> v(n);
  for (double& x : v) {
    x = dist(rng);
  }
  return v;
}

std::vector<double> noisy_signal(size_t n, uint64_t seed) {
  simdata::HistSimConfig cfg;
  cfg.seed = seed;
  return simdata::simulate_histogram(n, cfg);
}

TEST(NlMeans, ConstantInputIsFixedPoint) {
  std::vector<double> flat(500, 7.0);
  NlMeansParams params;
  auto out = nlmeans(flat, params);
  for (double v : out) {
    EXPECT_NEAR(v, 7.0, 1e-9);
  }
}

TEST(NlMeans, OutputSizeMatches) {
  auto data = noisy_signal(1000, 3);
  EXPECT_EQ(nlmeans(data, {}).size(), data.size());
  EXPECT_TRUE(nlmeans(std::vector<double>{}, {}).empty());
}

TEST(NlMeans, ReducesNoiseVariance) {
  // Pure noise around a constant: denoising must shrink the variance.
  auto data = simdata::simulate_null(4000, 10.0, 5);
  auto out = nlmeans(data, {});
  auto variance = [](const std::vector<double>& v) {
    double mean = std::accumulate(v.begin(), v.end(), 0.0) / v.size();
    double acc = 0;
    for (double x : v) {
      acc += (x - mean) * (x - mean);
    }
    return acc / v.size();
  };
  EXPECT_LT(variance(out), variance(data) * 0.5);
}

TEST(NlMeans, PreservesMeanApproximately) {
  auto data = noisy_signal(3000, 9);
  auto out = nlmeans(data, {});
  double in_mean = std::accumulate(data.begin(), data.end(), 0.0) /
                   data.size();
  double out_mean =
      std::accumulate(out.begin(), out.end(), 0.0) / out.size();
  EXPECT_NEAR(out_mean, in_mean, in_mean * 0.1);
}

TEST(NlMeans, RangeApiMatchesWhole) {
  // The kernel works in blocks of outputs starting at the range's first
  // point; slices straddling, starting and ending on block edges must all
  // match the oracle's slice of the whole array.
  const auto data = random_signal(1300, 5);
  NlMeansParams params;
  params.r = 9;
  params.l = 4;
  params.sigma = 12.0;
  const auto whole = nlmeans_reference(data, params);
  const std::vector<std::pair<size_t, size_t>> slices = {
      {0, 1300}, {0, 256}, {0, 257}, {255, 257}, {256, 512}, {100, 700},
      {1, 1299}, {511, 1025}, {1299, 1300}, {600, 600}};
  for (auto [begin, end] : slices) {
    std::vector<double> part(end - begin);
    nlmeans_range(data, begin, end, params, part);
    EXPECT_TRUE(same_bits(
        part, std::span<const double>(whole).subspan(begin, end - begin)))
        << "[" << begin << ", " << end << ")";
  }
}

class NlMeansRanks : public ::testing::TestWithParam<int> {};

TEST_P(NlMeansRanks, ParallelBitIdenticalToSequential) {
  const auto data = random_signal(2000, 31);
  NlMeansParams params;
  params.sigma = 9.0;
  EXPECT_TRUE(same_bits(nlmeans_parallel(data, params, GetParam()),
                        nlmeans_reference(data, params)));
}

INSTANTIATE_TEST_SUITE_P(RankSweep, NlMeansRanks,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 4));

TEST(NlMeans, TinyPartitionsStillCorrect) {
  // Partitions smaller than the halo exercise the deep-halo fallback.
  auto data = noisy_signal(40, 33);
  NlMeansParams params;  // r+l = 35 > 40/8 = 5 per rank
  auto seq = nlmeans(data, params);
  auto par = nlmeans_parallel(data, params, 8);
  EXPECT_TRUE(same_bits(par, seq));
}

TEST(NlMeans, HaloFallbackPartitionsBitIdentical) {
  // Partitions smaller than the halo (r + l): a single neighbour's halo
  // message cannot cover the needed span and the global-read fallback in
  // nlmeans_parallel kicks in. The kernel clamps windows at the *global*
  // boundaries either way, so the result must stay bit-identical to the
  // sequential pass for every rank count that forces the fallback —
  // including ranks == n (one bin per rank) and empty partitions
  // (ranks > n).
  auto data = noisy_signal(24, 29);
  NlMeansParams params;
  params.r = 4;
  params.l = 3;  // halo = 7, far above 24/8 = 3 bins per rank
  params.sigma = 8.0;
  auto seq = nlmeans(data, params);
  for (int ranks : {3, 5, 8, 16, 24, 30}) {
    auto par = nlmeans_parallel(data, params, ranks);
    EXPECT_TRUE(same_bits(par, seq)) << "ranks=" << ranks;
  }
}

TEST(NlMeans, VariousParameters) {
  // Every r x l pair, including r + l > n and the degenerate sizes, on
  // non-integer data (integer counts sum exactly in any order, hiding
  // summation-order changes), plus a histogram at the paper's defaults.
  for (size_t n : {0, 1, 2, 7, 40, 700}) {
    const auto data = random_signal(n, 100 + n);
    for (int r : {0, 1, 5, 40}) {
      for (int l : {0, 1, 10, 15}) {
        NlMeansParams params;
        params.r = r;
        params.l = l;
        params.sigma = 7.5;
        const auto want = nlmeans_reference(data, params);
        EXPECT_TRUE(same_bits(nlmeans(data, params), want))
            << "n=" << n << " r=" << r << " l=" << l;
        EXPECT_TRUE(same_bits(nlmeans_parallel(data, params, 4), want))
            << "n=" << n << " r=" << r << " l=" << l;
      }
    }
  }
  const auto hist = noisy_signal(3000, 17);
  EXPECT_TRUE(same_bits(nlmeans(hist, {}), nlmeans_reference(hist, {})));
}

TEST(NlMeans, WideSearchRadiiBitIdentical) {
  // r above the block length carries rows longer than a block between
  // blocks; r above the kernel's stored pair-weight rows recomputes those
  // offsets per sign. Both must keep the oracle's bits, whole and sliced.
  for (auto [n, r, l] : {std::tuple{1000ul, 300, 3}, std::tuple{600ul, 600, 1},
                         std::tuple{60ul, 700, 2}}) {
    const auto data = random_signal(n, 9 + n);
    NlMeansParams params;
    params.r = r;
    params.l = l;
    const auto want = nlmeans_reference(data, params);
    EXPECT_TRUE(same_bits(nlmeans(data, params), want)) << "r=" << r;
    std::vector<double> part(n / 2);
    nlmeans_range(data, n / 3, n / 3 + n / 2, params, part);
    EXPECT_TRUE(same_bits(
        part, std::span<const double>(want).subspan(n / 3, n / 2)))
        << "r=" << r;
  }
}

TEST(NlMeans, NonFiniteInputsKeepOracleClassPerBin) {
  // NaN and +-Inf make the offset-0 weight NaN instead of 1, so the
  // kernel must compute it from the data. Per bin, the class (NaN, +Inf,
  // -Inf, finite) must match the oracle, and finite values its bits.
  auto data = random_signal(400, 77);
  data[10] = std::numeric_limits<double>::quiet_NaN();
  data[150] = std::numeric_limits<double>::infinity();
  data[151] = -std::numeric_limits<double>::infinity();
  data[399] = std::numeric_limits<double>::infinity();
  auto cls = [](double v) {
    return std::isnan(v) ? 0 : std::isinf(v) ? (v > 0 ? 1 : 2) : 3;
  };
  for (int r : {0, 2, 20}) {
    for (int l : {0, 3}) {
      NlMeansParams params;
      params.r = r;
      params.l = l;
      const auto want = nlmeans_reference(data, params);
      for (int ranks : {1, 3}) {
        const auto got = nlmeans_parallel(data, params, ranks);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(cls(got[i]), cls(want[i]))
              << "r=" << r << " l=" << l << " bin=" << i;
          if (cls(want[i]) == 3) {
            ASSERT_TRUE(same_bits(std::span<const double>(&got[i], 1),
                                  std::span<const double>(&want[i], 1)))
                << "r=" << r << " l=" << l << " bin=" << i;
          }
        }
      }
    }
  }
}

TEST(NlMeans, InvalidParamsRejected) {
  std::vector<double> data(10, 1.0);
  NlMeansParams bad;
  bad.sigma = 0;
  EXPECT_THROW(nlmeans(data, bad), Error);
  bad = {};
  bad.r = -1;
  EXPECT_THROW(nlmeans(data, bad), Error);
}

// ---------------------------------------------------------------------- FDR

struct FdrFixture {
  std::vector<double> hist;
  SimulationSet sims;

  explicit FdrFixture(size_t m = 500, size_t b = 12, uint64_t seed = 3) {
    simdata::HistSimConfig cfg;
    cfg.seed = seed;
    cfg.peak_density = 0.01;
    hist = simdata::simulate_histogram(m, cfg);
    sims = simdata::simulate_null_batch(m, b, cfg.background_rate, seed);
  }
};

TEST(Fdr, HandComputedExample) {
  // M=3 bins, B=2 sims; verify against a by-hand evaluation of eqs. 4-6.
  std::vector<double> hist = {5, 0, 2};
  SimulationSet sims = {{1, 2, 3}, {4, 0, 1}};
  // p_i: bin0: 5<=1? no, 5<=4? no -> 0. bin1: 0<=2 yes, 0<=0 yes -> 2.
  //      bin2: 2<=3 yes, 2<=1 no -> 1.
  // For p_t=0: denominator = #(p_i<=0) = 1 (bin0).
  // inner ranks: sim b=0: bin0: 1<=1,1<=4 -> 2; bin1: 2<=2,2<=0 -> 1;
  //   bin2: 3<=3,3<=1 -> 1. d_0 = #(rank<=0) = 0.
  // sim b=1: bin0: 4<=1,4<=4 -> 1; bin1: 0<=2,0<=0 -> 2; bin2: 1<=3,1<=1 ->2.
  //   d_1 = 0. numerator = (0+0)/2 = 0 -> FDR 0.
  FdrResult r0 = fdr_reference(hist, sims, 0);
  EXPECT_DOUBLE_EQ(r0.numerator, 0.0);
  EXPECT_DOUBLE_EQ(r0.denominator, 1.0);
  EXPECT_DOUBLE_EQ(r0.fdr, 0.0);
  // For p_t=1: denominator = #(p_i<=1) = 2 (bin0, bin2).
  // d_0 = #(rank<=1) = 2 (bins 1,2); d_1 = #(rank<=1) = 1 (bin0).
  // numerator = 3/2 = 1.5; FDR = 1.5/2 = 0.75.
  FdrResult r1 = fdr_reference(hist, sims, 1);
  EXPECT_DOUBLE_EQ(r1.numerator, 1.5);
  EXPECT_DOUBLE_EQ(r1.denominator, 2.0);
  EXPECT_DOUBLE_EQ(r1.fdr, 0.75);
}

TEST(Fdr, FusedEqualsReference) {
  FdrFixture f;
  for (int p_t : {0, 1, 3, 6, 12}) {
    FdrResult ref = fdr_reference(f.hist, f.sims, p_t);
    FdrResult fused = fdr_fused(f.hist, f.sims, p_t);
    EXPECT_DOUBLE_EQ(fused.numerator, ref.numerator) << "p_t=" << p_t;
    EXPECT_DOUBLE_EQ(fused.denominator, ref.denominator);
    EXPECT_DOUBLE_EQ(fused.fdr, ref.fdr);
  }
}

class FdrRanks : public ::testing::TestWithParam<int> {};

TEST_P(FdrRanks, ParallelEqualsReference) {
  FdrFixture f;
  for (int p_t : {0, 2, 7}) {
    FdrResult ref = fdr_reference(f.hist, f.sims, p_t);
    FdrResult par = fdr_parallel(f.hist, f.sims, p_t, GetParam());
    EXPECT_DOUBLE_EQ(par.fdr, ref.fdr) << "p_t=" << p_t;
    EXPECT_DOUBLE_EQ(par.numerator, ref.numerator);
    EXPECT_DOUBLE_EQ(par.denominator, ref.denominator);
  }
}

TEST_P(FdrRanks, TwoPassEqualsReference) {
  FdrFixture f;
  FdrResult ref = fdr_reference(f.hist, f.sims, 4);
  FdrResult two = fdr_parallel_two_pass(f.hist, f.sims, 4, GetParam());
  EXPECT_DOUBLE_EQ(two.fdr, ref.fdr);
}

INSTANTIATE_TEST_SUITE_P(RankSweep, FdrRanks,
                         ::testing::Values(1, 2, 3, 8, 16));

TEST(Fdr, MoreRanksThanBins) {
  FdrFixture f(/*m=*/5, /*b=*/4);
  FdrResult ref = fdr_reference(f.hist, f.sims, 1);
  FdrResult par = fdr_parallel(f.hist, f.sims, 1, 16);
  EXPECT_DOUBLE_EQ(par.fdr, ref.fdr);
}

TEST(Fdr, ZeroDenominatorSafe) {
  // A histogram far above every simulation: p_i = 0 everywhere, so the
  // denominator at p_t = -1 is 0 (impossible threshold).
  std::vector<double> hist = {100, 100};
  SimulationSet sims = {{1, 1}, {2, 2}};
  FdrResult res = fdr_fused(hist, sims, -1);
  EXPECT_DOUBLE_EQ(res.denominator, 0.0);
  EXPECT_DOUBLE_EQ(res.fdr, 0.0);
}

TEST(Fdr, MismatchedSizesRejected) {
  std::vector<double> hist = {1, 2, 3};
  SimulationSet sims = {{1, 2}};
  EXPECT_THROW(fdr_fused(hist, sims, 1), Error);
  EXPECT_THROW(fdr_fused(hist, {}, 1), Error);
}

TEST(Fdr, PeakyHistogramHasLowFdrAtStrictThreshold) {
  // Real peaks (histogram >> null): at strict p_t the discoveries are
  // dominated by true peaks, so FDR stays below the null expectation.
  FdrFixture f(/*m=*/2000, /*b=*/20, /*seed=*/8);
  FdrResult strict = fdr_fused(f.hist, f.sims, 0);
  EXPECT_GT(strict.denominator, 0.0);
  EXPECT_LT(strict.fdr, 0.5);
}

TEST(Fdr, SelectThresholdFindsQualifyingPt) {
  FdrFixture f(/*m=*/1500, /*b=*/16, /*seed=*/10);
  int p_t = select_threshold(f.hist, f.sims, 0.2).p_t;
  ASSERT_GE(p_t, 0);
  FdrResult at = fdr_fused(f.hist, f.sims, p_t);
  EXPECT_LE(at.fdr, 0.2);
  EXPECT_GT(at.denominator, 0.0);
}

TEST(Fdr, SelectThresholdPtZeroIsExactlyZeroFdr) {
  // The p_t = 0 numerator is structurally zero (every simulated value
  // ranks at least itself), so any bin with p_i = 0 makes FDR exactly 0 —
  // the tightened denominator-only fast path must select p_t = 0 even for
  // a target of 0.0.
  std::vector<double> hist = {100, 100};
  SimulationSet sims = {{1, 1}, {2, 2}};
  EXPECT_EQ(select_threshold(hist, sims, 0.0).p_t, 0);
  FdrResult at = fdr_reference(hist, sims, 0);
  EXPECT_DOUBLE_EQ(at.numerator, 0.0);
  EXPECT_DOUBLE_EQ(at.fdr, 0.0);
  EXPECT_GT(at.denominator, 0.0);
}

TEST(Fdr, SelectThresholdMatchesReferenceSweep) {
  // The fast path plus the fused p_t >= 1 sweep must pick exactly the
  // threshold a naive reference sweep would.
  FdrFixture f(/*m=*/300, /*b=*/8, /*seed=*/21);
  for (double target : {0.0, 0.05, 0.2, 0.8}) {
    int naive = -1;
    for (int p_t = 0; p_t <= static_cast<int>(f.sims.size()); ++p_t) {
      FdrResult res = fdr_reference(f.hist, f.sims, p_t);
      if (res.denominator > 0 && res.fdr <= target) {
        naive = p_t;
        break;
      }
    }
    EXPECT_EQ(select_threshold(f.hist, f.sims, target).p_t, naive)
        << "target=" << target;
  }
}

TEST(Fdr, SelectThresholdSweepMatchesReferenceLoopAtEveryWidth) {
  // Each bin is capped at its largest simulated value, so every p_i >= 1
  // and p_t = 0 never qualifies: the threshold always comes from the rank
  // sweep, which must agree with a loop of fdr_reference at every width,
  // including targets that nothing meets.
  FdrFixture f(/*m=*/400, /*b=*/10, /*seed=*/5);
  for (size_t i = 0; i < f.hist.size(); ++i) {
    double column_max = 0.0;
    for (const auto& sim : f.sims) {
      column_max = std::max(column_max, sim[i]);
    }
    f.hist[i] = std::min(f.hist[i], column_max);
  }
  const std::vector<int32_t> p_counts = exceedance_counts(f.hist, f.sims);
  ASSERT_EQ(std::count(p_counts.begin(), p_counts.end(), 0), 0);

  int qualified = 0;
  int unmet = 0;
  for (double target : {-0.1, 0.1, 0.2, 0.3, 0.5, 0.9}) {
    Threshold want;
    for (int p_t = 0; p_t <= static_cast<int>(f.sims.size()); ++p_t) {
      const FdrResult res = fdr_reference(f.hist, f.sims, p_t);
      if (res.denominator > 0 && res.fdr <= target) {
        want = Threshold{p_t, res.fdr};
        break;
      }
    }
    (want.p_t >= 0 ? qualified : unmet) += 1;
    for (int ranks : {1, 4}) {
      SCOPED_TRACE("target=" + std::to_string(target) +
                   " ranks=" + std::to_string(ranks));
      const Threshold got = select_threshold(f.hist, f.sims, target, ranks);
      EXPECT_EQ(got.p_t, want.p_t);
      EXPECT_EQ(got.fdr, want.fdr);
    }
  }
  EXPECT_GE(qualified, 3) << "targets too strict to exercise the sweep";
  EXPECT_GE(unmet, 2) << "every target met; none-qualifies untested";
}

TEST(Fdr, ExceedanceCountsAreEq4AtEveryWidth) {
  FdrFixture f(700, 9, 8);
  std::vector<int32_t> want(f.hist.size());
  for (size_t i = 0; i < f.hist.size(); ++i) {
    for (const auto& sim : f.sims) {
      want[i] += f.hist[i] <= sim[i] ? 1 : 0;
    }
  }
  for (int ranks : {1, 2, 3, 8}) {
    EXPECT_EQ(exceedance_counts(f.hist, f.sims, ranks), want)
        << "ranks=" << ranks;
  }
  SimulationSet short_row = f.sims;
  short_row[2].pop_back();
  EXPECT_THROW(exceedance_counts(f.hist, short_row), Error);
}

TEST(Fdr, SelectThresholdEmptyHistogram) {
  // M = 0 is the only input whose denominator is zero at *every*
  // threshold (even p_t = B, which counts all M bins). The target is then
  // vacuously met: the old code fell through its sweep and reported -1
  // ("nothing qualifies") even for a trivially satisfiable target.
  std::vector<double> hist;
  SimulationSet sims = {{}, {}};
  EXPECT_EQ(select_threshold(hist, sims, 0.0).p_t, 0);
  EXPECT_EQ(select_threshold(hist, sims, 0.5).p_t, 0);
  EXPECT_EQ(select_threshold(hist, sims, -0.1).p_t, -1);
}

TEST(Fdr, SelectThresholdReturnsMinusOneWhenImpossible) {
  // Histogram below all simulations: every bin is "discovered" even at
  // lenient thresholds and the null rate is high; target 0 unachievable
  // when every d_b > 0.
  std::vector<double> hist(50, 0.0);
  SimulationSet sims;
  for (int b = 0; b < 4; ++b) {
    sims.push_back(std::vector<double>(50, 5.0 + b));
  }
  EXPECT_EQ(select_threshold(hist, sims, -0.1).p_t, -1);
}

}  // namespace
}  // namespace ngsx::stats
