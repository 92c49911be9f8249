// Tests for enriched-region calling (stats/peaks).

#include <gtest/gtest.h>

#include "simdata/histsim.h"
#include "stats/peaks.h"
#include "util/common.h"

namespace ngsx::stats {
namespace {

SimulationSet flat_sims(size_t bins, size_t b, double value) {
  return SimulationSet(b, std::vector<double>(bins, value));
}

TEST(CallRegions, FindsObviousPeak) {
  // Background 0 against sims at 5; a block raised to 100 is the peak.
  std::vector<double> hist(100, 0.0);
  for (size_t i = 40; i < 50; ++i) {
    hist[i] = 100.0;
  }
  auto sims = flat_sims(100, 8, 5.0);
  // p_i = 8 off-peak (0 <= 5 always), 0 on-peak. Threshold 0 selects peaks.
  auto regions = call_enriched_regions(hist, sims, /*p_t=*/0);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].begin_bin, 40u);
  EXPECT_EQ(regions[0].end_bin, 50u);
  EXPECT_DOUBLE_EQ(regions[0].max_value, 100.0);
  EXPECT_DOUBLE_EQ(regions[0].mean_value, 100.0);
}

TEST(CallRegions, MinBinsDropsBlips) {
  std::vector<double> hist(100, 0.0);
  hist[10] = 100.0;                      // 1-bin blip
  for (size_t i = 60; i < 70; ++i) {     // real peak
    hist[i] = 100.0;
  }
  auto sims = flat_sims(100, 4, 5.0);
  auto regions = call_enriched_regions(hist, sims, 0, /*min_bins=*/3);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].begin_bin, 60u);
}

TEST(CallRegions, MergeGapBridgesHoles) {
  std::vector<double> hist(100, 0.0);
  for (size_t i = 20; i < 30; ++i) {
    hist[i] = 100.0;
  }
  hist[25] = 0.0;  // one-bin hole
  auto sims = flat_sims(100, 4, 5.0);
  auto split = call_enriched_regions(hist, sims, 0, 1, /*merge_gap=*/0);
  EXPECT_EQ(split.size(), 2u);
  auto merged = call_enriched_regions(hist, sims, 0, 1, /*merge_gap=*/1);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].begin_bin, 20u);
  EXPECT_EQ(merged[0].end_bin, 30u);
}

TEST(CallRegions, NoPeaksNoRegions) {
  std::vector<double> hist(50, 0.0);
  auto sims = flat_sims(50, 4, 5.0);
  EXPECT_TRUE(call_enriched_regions(hist, sims, 0).empty());
}

TEST(CallRegions, RegionAtArrayEdges) {
  std::vector<double> hist(20, 0.0);
  hist[0] = hist[1] = 100.0;
  hist[18] = hist[19] = 100.0;
  auto sims = flat_sims(20, 4, 5.0);
  auto regions = call_enriched_regions(hist, sims, 0, 2);
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_EQ(regions[0].begin_bin, 0u);
  EXPECT_EQ(regions[1].end_bin, 20u);
}

TEST(CallRegions, MismatchedSimsRejected) {
  std::vector<double> hist(10, 0.0);
  SimulationSet bad = {std::vector<double>(9, 1.0)};
  EXPECT_THROW(call_enriched_regions(hist, bad, 0), Error);
  EXPECT_THROW(call_enriched_regions(hist, {}, 0), Error);
}

TEST(CallPeaks, EndToEndRecoversPlantedPeaks) {
  simdata::HistSimConfig cfg;
  cfg.seed = 5;
  cfg.peak_density = 0.0;  // we plant our own, deterministic positions
  auto hist = simdata::simulate_histogram(4000, cfg);
  const size_t centers[] = {500, 1500, 2500, 3500};
  for (size_t c : centers) {
    for (size_t i = c - 20; i < c + 20; ++i) {
      hist[i] += 60.0;
    }
  }
  auto sims = simdata::simulate_null_batch(4000, 20, cfg.background_rate, 5);

  PeakCallParams params;
  params.ranks = 4;
  params.target_fdr = 0.05;
  PeakCallResult result = call_peaks(hist, sims, params);
  ASSERT_GE(result.p_t, 0);
  EXPECT_LE(result.fdr, 0.05);
  ASSERT_EQ(result.regions.size(), 4u);
  for (size_t k = 0; k < 4; ++k) {
    EXPECT_LE(result.regions[k].begin_bin, centers[k] - 10);
    EXPECT_GE(result.regions[k].end_bin, centers[k] + 10);
  }
}

TEST(CallPeaks, ParallelAndSequentialAgree) {
  simdata::HistSimConfig cfg;
  cfg.seed = 6;
  auto hist = simdata::simulate_histogram(2000, cfg);
  auto sims = simdata::simulate_null_batch(2000, 12, cfg.background_rate, 6);
  PeakCallParams seq_params;
  seq_params.ranks = 1;
  PeakCallParams par_params;
  par_params.ranks = 6;
  auto a = call_peaks(hist, sims, seq_params);
  auto b = call_peaks(hist, sims, par_params);
  EXPECT_EQ(a.p_t, b.p_t);
  EXPECT_DOUBLE_EQ(a.fdr, b.fdr);
  EXPECT_EQ(a.denoised, b.denoised);
  EXPECT_EQ(a.regions, b.regions);
}

TEST(CallPeaks, NonZeroThresholdAgreesAcrossWidths) {
  // No bin beats every null (one null row spikes over each planted block),
  // so p_t = 0 has no candidates and the sweep must reach p_t >= 1, where
  // the shared p_i counts feed both the threshold and the regions.
  constexpr size_t kBins = 600;
  std::vector<double> hist(kBins, 0.0);
  auto sims = flat_sims(kBins, 8, 5.0);
  for (size_t begin : {100, 300, 450}) {
    for (size_t i = begin; i < begin + 12; ++i) {
      hist[i] = 100.0;
      sims[begin % 8][i] = 1000.0;
    }
  }
  PeakCallParams params;
  params.target_fdr = 0.2;
  params.min_bins = 3;
  params.ranks = 1;
  const PeakCallResult seq = call_peaks(hist, sims, params);
  ASSERT_GE(seq.p_t, 1);
  EXPECT_FALSE(seq.regions.empty());
  params.ranks = 4;
  const PeakCallResult par = call_peaks(hist, sims, params);
  EXPECT_EQ(par.p_t, seq.p_t);
  EXPECT_EQ(par.fdr, seq.fdr);
  EXPECT_EQ(par.regions, seq.regions);
  EXPECT_EQ(par.denoised, seq.denoised);
  EXPECT_EQ(call_enriched_regions(seq.denoised, sims, seq.p_t,
                                  params.min_bins, params.merge_gap),
            seq.regions);
}

TEST(CallPeaks, NoDenoiseOption) {
  std::vector<double> hist(100, 0.0);
  for (size_t i = 40; i < 50; ++i) {
    hist[i] = 100.0;
  }
  auto sims = flat_sims(100, 8, 5.0);
  PeakCallParams params;
  params.denoise = false;
  params.min_bins = 1;
  params.merge_gap = 0;
  auto result = call_peaks(hist, sims, params);
  ASSERT_GE(result.p_t, 0);
  EXPECT_EQ(result.denoised, hist);
  ASSERT_EQ(result.regions.size(), 1u);
}

TEST(CallPeaks, ImpossibleTargetReturnsNone) {
  // Histogram everywhere below the nulls: everything "significant" at
  // lenient thresholds, nothing meets an FDR of ~0.
  std::vector<double> hist(100, 0.0);
  auto sims = flat_sims(100, 8, 5.0);
  PeakCallParams params;
  params.denoise = false;
  params.target_fdr = 1e-9;
  auto result = call_peaks(hist, sims, params);
  // All bins have p_i = 8; no threshold has any discoveries until p_t=8,
  // where all bins are discovered and every null bin is a false peak.
  EXPECT_EQ(result.p_t, -1);
  EXPECT_TRUE(result.regions.empty());
}

TEST(CallPeaks, ThresholdMatchesSelectThresholdAtEveryWidth) {
  // call_peaks selects its threshold through select_threshold, so the two
  // agree on every input, including the empty-histogram and p_t = 0 edge
  // contracts, whether thresholds run sequentially or on 4 ranks.
  constexpr size_t kNulls = 12;
  simdata::HistSimConfig cfg;
  cfg.seed = 31;
  const SimulationSet nulls =
      simdata::simulate_null_batch(2000, kNulls, cfg.background_rate, 32);
  struct Input {
    const char* name;
    std::vector<double> hist;
    SimulationSet sims;
  };
  const std::vector<Input> inputs = {
      {"empty", {}, SimulationSet(kNulls)},
      {"all-zero", std::vector<double>(2000, 0.0), nulls},
      {"histsim", simdata::simulate_histogram(2000, cfg), nulls},
  };
  for (const Input& in : inputs) {
    for (double target : {0.05, 1.0}) {
      const Threshold expected = select_threshold(in.hist, in.sims, target);
      for (int ranks : {1, 4}) {
        PeakCallParams params;
        params.denoise = false;
        params.target_fdr = target;
        params.ranks = ranks;
        const PeakCallResult result = call_peaks(in.hist, in.sims, params);
        const Threshold at_width =
            select_threshold(in.hist, in.sims, target, ranks);
        EXPECT_EQ(result.p_t, expected.p_t)
            << in.name << " target=" << target << " ranks=" << ranks;
        EXPECT_EQ(at_width.p_t, expected.p_t) << in.name << " ranks=" << ranks;
        EXPECT_DOUBLE_EQ(result.fdr, expected.fdr) << in.name;
        EXPECT_DOUBLE_EQ(at_width.fdr, expected.fdr) << in.name;
      }
    }
  }
  // The edge contracts themselves: an empty histogram meets any
  // non-negative target at p_t = 0; an all-zero one only at p_t = B.
  EXPECT_EQ(select_threshold(inputs[0].hist, inputs[0].sims, 0.05).p_t, 0);
  EXPECT_EQ(select_threshold(inputs[1].hist, inputs[1].sims, 0.05).p_t, -1);
  EXPECT_EQ(select_threshold(inputs[1].hist, inputs[1].sims, 1.0).p_t,
            static_cast<int>(kNulls));
  EXPECT_GT(select_threshold(inputs[2].hist, inputs[2].sims, 0.05).p_t, -1);
}

}  // namespace
}  // namespace ngsx::stats
