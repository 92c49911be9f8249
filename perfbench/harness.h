// perfbench/harness.h
//
// Plumbing shared by the four workloads: options, the operation tally that
// feeds `attempted`/`failed`, the timed P=4/P=1 loop, peak-RSS sampling,
// output digests, and the per-layer metric table.
//
// A workload generates its inputs from the seed (untimed), runs its set-up,
// then alternates one P=4 pass and one P=1 pass of its operations until the
// time budget is spent. With tracing on it adds one armed P=4 pass and a
// set of separately timed public calls, one per layer.

#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/target.h"
#include "obs/metrics.h"

namespace perfbench {

/// Command-line options of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;    // inputs and outputs; removed by the caller
  std::string trace_path;  // Chrome trace of the traced pass
};

/// The sample a failed operation contributes: NaN, which poisons the sum of
/// a pass and which median(), lowest() and percentile() skip.
inline constexpr double kFailed = std::numeric_limits<double>::quiet_NaN();

/// Set-up repeats per run; setup_s is their median.
inline constexpr int kSetupRepeats = 5;

/// Attempted and failed operations. An operation fails when its call
/// throws or when the check of its output does not hold.
class Tally {
 public:
  /// Runs `call` under a steady clock, then `check` untimed. Returns the
  /// call's wall seconds, or kFailed when either failed.
  double timed(const std::string& what, const std::function<void()>& call,
               const std::function<bool()>& check = {});

  /// Counts a stand-alone output check as one operation.
  void expect(bool ok, const std::string& what);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  void fail(const std::string& what, const std::string& why);

  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// What a workload measured; main.cpp turns it into metrics.
struct Measured {
  std::vector<double> setup_s;    // seconds of each set-up
  std::vector<double> pass_p4_s;  // timed seconds of each P=4 pass
  std::vector<double> pass_p1_s;  // timed seconds of each P=1 pass
  std::vector<double> rss_mb;     // peak RSS of each P=4 pass
  // Region-query latencies of each P=4 pass (bam_region only).
  std::vector<std::vector<double>> query_ms;
  double traced_p4_s = 0.0;       // the armed P=4 pass
  std::map<std::string, double> layers;  // per-layer metrics by name
};

/// Alternates pass(4) and pass(1) until `seconds` have elapsed, at least
/// twice each. `pass` returns the timed seconds of its pass; the peak RSS
/// of every P=4 pass is sampled around it.
void timed_loop(double seconds, const std::function<double(int)>& pass,
                Measured& out);

/// The set-up of a workload that prepares nothing: kSetupRepeats P=4
/// passes before the timed loop, which fill caches and lazy state that
/// later passes reuse. Returns their seconds.
std::vector<double> warm_up(const std::function<double(int)>& pass);

/// Wall seconds on the steady clock since an arbitrary origin.
double now_s();

// Statistics over samples; NaN samples (failed operations) are skipped,
// and no sample at all gives 0.
double median(std::vector<double> values);
double lowest(const std::vector<double>& values);
/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> values, double q);

/// Resets the kernel's peak-RSS mark to the current RSS.
void reset_peak_rss();

/// Peak RSS since the last reset, in MB (10^6 bytes).
double peak_rss_mb();

/// CRC-32 of the concatenated bytes of `paths`, in order.
uint32_t digest_files(const std::vector<std::string>& paths);

/// CRC-32 of an in-memory byte string (same function).
uint32_t digest_bytes(const std::string& bytes);

/// Records `got` as the expected digest when none is set yet; true iff
/// `got` matches it. Every later output must reproduce the first.
bool same_as_first(std::optional<uint32_t>& expected, uint32_t got);

/// The part files a converter writes into `dir` at width `ranks`, in rank
/// order, so that their concatenation is the whole output.
std::vector<std::string> part_files(const std::string& dir, int ranks,
                                    ngsx::core::TargetFormat format);

/// Times one public call under a trace span named after the layer metric.
/// `name` must be a string literal (obs::Span keeps the pointer).
double span_s(const char* name, const std::function<void()>& call);

/// Clears and arms the obs registry and tracing for the traced pass.
void arm_obs();

/// Copies the registry-backed per-layer metrics out of `snap`.
void registry_layers(const ngsx::obs::Snapshot& snap,
                     std::map<std::string, double>& layers);

/// Disarms obs and writes the Chrome trace to opt.trace_path, if set.
void finish_trace(const Options& opt);

/// Every per-layer metric, in BENCHMARK.json order, with its unit.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& layer_metrics();

// The workloads (one source file each).
void run_sam_convert(const Options& opt, Tally& tally, Measured& out);
void run_bam_region(const Options& opt, Tally& tally, Measured& out);
void run_bam_collate(const Options& opt, Tally& tally, Measured& out);
void run_peak_calling(const Options& opt, Tally& tally, Measured& out);

}  // namespace perfbench
