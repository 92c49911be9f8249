// peak_calling: a histsim ChIP-like histogram with B = 40 null simulations
// through call_peaks (NL-means -> FDR threshold sweep -> region calling).
// Pure compute plus mpi halo exchange and gathers; no file I/O.

#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <vector>

#include "harness.h"
#include "simdata/histsim.h"
#include "stats/peaks.h"

namespace perfbench {

namespace {

constexpr size_t kBins = 100'000;
constexpr size_t kNulls = 40;

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// The threshold sweep of call_peaks from its public pieces: the smallest
/// p_t whose FDR meets the target with a non-zero denominator.
template <typename Fdr>
int sweep(const Fdr& fdr, double target) {
  for (int p_t = 0; p_t <= static_cast<int>(kNulls); ++p_t) {
    const ngsx::stats::FdrResult r = fdr(p_t);
    if (r.denominator > 0 && r.fdr <= target) {
      return p_t;
    }
  }
  return -1;
}

}  // namespace

void run_peak_calling(const Options& opt, Tally& tally, Measured& out) {
  ngsx::simdata::HistSimConfig hist_cfg;
  hist_cfg.seed = opt.seed;
  const std::vector<double> hist =
      ngsx::simdata::simulate_histogram(kBins, hist_cfg);
  const ngsx::stats::SimulationSet sims = ngsx::simdata::simulate_null_batch(
      kBins, kNulls, hist_cfg.background_rate, opt.seed + 1);

  // Every width must give the bit-identical denoised histogram, the same
  // p_t and the same regions as the first call.
  std::optional<ngsx::stats::PeakCallResult> expected;
  auto call = [&](int p) {
    ngsx::stats::PeakCallParams params;
    params.ranks = p;
    ngsx::stats::PeakCallResult result;
    return tally.timed(
        "call_peaks p" + std::to_string(p),
        [&] { result = ngsx::stats::call_peaks(hist, sims, params); },
        [&] {
          if (!expected) {
            expected = result;
          }
          return result.p_t >= 0 && !result.regions.empty() &&
                 result.p_t == expected->p_t &&
                 result.regions == expected->regions &&
                 bit_identical(result.denoised, expected->denoised);
        });
  };

  out.setup_s = warm_up(call);
  if (expected) {
    std::fprintf(stderr, "peak_calling: p_t %d, %zu regions\n", expected->p_t,
                 expected->regions.size());
  }
  timed_loop(opt.seconds, call, out);

  if (!opt.trace) {
    return;
  }
  if (!expected) {
    throw std::runtime_error("call_peaks never succeeded");
  }
  arm_obs();
  out.traced_p4_s = call(4);
  registry_layers(ngsx::obs::snapshot(), out.layers);

  const ngsx::stats::PeakCallParams params;
  std::vector<double> denoised;
  std::vector<double> denoised_p1;
  out.layers["stats.nlmeans_s"] = span_s("stats.nlmeans_s", [&] {
    denoised = ngsx::stats::nlmeans_parallel(hist, params.nlmeans, 4);
  });
  out.layers["stats.nlmeans_p1_s"] = span_s("stats.nlmeans_p1_s", [&] {
    denoised_p1 = ngsx::stats::nlmeans(hist, params.nlmeans);
  });
  tally.expect(bit_identical(denoised, expected->denoised) &&
                   bit_identical(denoised_p1, expected->denoised),
               "nlmeans_parallel / nlmeans");
  int p_t = -1;
  int p_t_p1 = -1;
  out.layers["stats.fdr_s"] = span_s("stats.fdr_s", [&] {
    p_t = sweep(
        [&](int t) {
          return ngsx::stats::fdr_parallel(denoised, sims, t, 4);
        },
        params.target_fdr);
  });
  out.layers["stats.fdr_p1_s"] = span_s("stats.fdr_p1_s", [&] {
    p_t_p1 = sweep(
        [&](int t) { return ngsx::stats::fdr_fused(denoised, sims, t); },
        params.target_fdr);
  });
  tally.expect(p_t == expected->p_t && p_t_p1 == expected->p_t,
               "fdr_parallel / fdr_fused threshold");
  std::vector<ngsx::stats::EnrichedRegion> regions;
  out.layers["stats.regions_s"] = span_s("stats.regions_s", [&] {
    regions = ngsx::stats::call_enriched_regions(
        denoised, sims, p_t, params.min_bins, params.merge_gap);
  });
  tally.expect(regions == expected->regions, "call_enriched_regions");

  // Computed operation counts: M(2r+1)(2l+1) weights, M*B^2 comparisons.
  const double m = static_cast<double>(kBins);
  out.layers["stats.nlmeans.ops"] =
      m * (2 * params.nlmeans.r + 1) * (2 * params.nlmeans.l + 1);
  out.layers["stats.fdr.ops"] =
      m * static_cast<double>(kNulls) * static_cast<double>(kNulls);
  finish_trace(opt);
}

}  // namespace perfbench
