#include "harness.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <stdexcept>

#include "obs/trace.h"
#include "util/simd.h"

namespace perfbench {

namespace {

// Failures past this many are counted but not printed.
constexpr uint64_t kMaxReportedFailures = 20;

}  // namespace

void Tally::fail(const std::string& what, const std::string& why) {
  ++failed_;
  if (failed_ <= kMaxReportedFailures) {
    std::fprintf(stderr, "FAILED %s: %s\n", what.c_str(), why.c_str());
  }
}

double Tally::timed(const std::string& what, const std::function<void()>& call,
                    const std::function<bool()>& check) {
  ++attempted_;
  const double start = now_s();
  try {
    call();
  } catch (const std::exception& e) {
    fail(what, e.what());
    return kFailed;
  }
  const double elapsed = now_s() - start;
  try {
    if (check && !check()) {
      fail(what, "output check");
      return kFailed;
    }
  } catch (const std::exception& e) {
    fail(what, std::string("output check threw: ") + e.what());
    return kFailed;
  }
  return elapsed;
}

void Tally::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    fail(what, "check");
  }
}

void timed_loop(double seconds, const std::function<double(int)>& pass,
                Measured& out) {
  const double start = now_s();
  for (int rep = 0; rep < 2 || now_s() - start < seconds; ++rep) {
    // Hand freed heap (input generation, earlier passes) back to the
    // kernel so the peak covers this pass's own footprint.
    malloc_trim(0);
    reset_peak_rss();
    out.pass_p4_s.push_back(pass(4));
    out.rss_mb.push_back(peak_rss_mb());
    out.pass_p1_s.push_back(pass(1));
  }
}

std::vector<double> warm_up(const std::function<double(int)>& pass) {
  std::vector<double> passes;
  for (int i = 0; i < kSetupRepeats; ++i) {
    passes.push_back(pass(4));
  }
  return passes;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// `values` without the samples of failed operations, sorted.
std::vector<double> sorted_samples(std::vector<double> values) {
  values.erase(std::remove_if(values.begin(), values.end(),
                              [](double v) { return std::isnan(v); }),
               values.end());
  std::sort(values.begin(), values.end());
  return values;
}

}  // namespace

double median(std::vector<double> values) {
  values = sorted_samples(std::move(values));
  if (values.empty()) {
    return 0.0;
  }
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double lowest(const std::vector<double>& values) {
  const std::vector<double> sorted = sorted_samples(values);
  return sorted.empty() ? 0.0 : sorted.front();
}

double percentile(std::vector<double> values, double q) {
  values = sorted_samples(std::move(values));
  if (values.empty()) {
    return 0.0;
  }
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

void reset_peak_rss() {
  // "5" resets VmHWM to the current RSS (proc(5), /proc/pid/clear_refs).
  std::ofstream refs("/proc/self/clear_refs");
  refs << "5";
  refs.flush();
  if (!refs) {
    throw std::runtime_error("cannot reset peak RSS via /proc/self/clear_refs");
  }
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

uint32_t digest_files(const std::vector<std::string>& paths) {
  uint32_t crc = 0;
  std::vector<char> buf(1 << 20);
  for (const std::string& path : paths) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      throw std::runtime_error("cannot open " + path);
    }
    size_t n;
    while ((n = std::fread(buf.data(), 1, buf.size(), f)) > 0) {
      crc = ngsx::simd::crc32_ieee(crc, buf.data(), n);
    }
    std::fclose(f);
  }
  return crc;
}

uint32_t digest_bytes(const std::string& bytes) {
  return ngsx::simd::crc32_ieee(0, bytes.data(), bytes.size());
}

bool same_as_first(std::optional<uint32_t>& expected, uint32_t got) {
  if (!expected) {
    expected = got;
  }
  return *expected == got;
}

std::vector<std::string> part_files(const std::string& dir, int ranks,
                                    ngsx::core::TargetFormat format) {
  std::vector<std::string> paths;
  for (int r = 0; r < ranks; ++r) {
    paths.push_back(dir + "/part-" + std::to_string(r) +
                    std::string(ngsx::core::target_extension(format)));
  }
  return paths;
}

double span_s(const char* name, const std::function<void()>& call) {
  ngsx::obs::Span span("perfbench", name);
  const double start = now_s();
  call();
  return now_s() - start;
}

void arm_obs() {
  ngsx::obs::reset_metrics();
  ngsx::obs::reset_tracing();
  ngsx::obs::enable_metrics(true);
  ngsx::obs::enable_tracing(true);
}

void finish_trace(const Options& opt) {
  ngsx::obs::enable_metrics(false);
  ngsx::obs::enable_tracing(false);
  if (opt.trace_path.empty()) {
    return;
  }
  std::ofstream out(opt.trace_path);
  out << ngsx::obs::trace_json() << '\n';
  if (!out) {
    throw std::runtime_error("cannot write trace " + opt.trace_path);
  }
}

void registry_layers(const ngsx::obs::Snapshot& snap,
                     std::map<std::string, double>& layers) {
  for (const char* name :
       {"convert.stage.preprocess.ns", "convert.stage.convert.ns",
        "convert.records.out", "convert.bytes.out", "io.binio.writes",
        "io.binio.write_bytes", "io.binio.fsyncs", "collate.spills",
        "collate.spilled_bytes", "collate.pairs", "bgzf.encode.blocks",
        "exec.pool.tasks", "exec.pool.steals", "exec.pool.parks",
        "exec.pipeline.tickets", "mpi.transport.send.messages",
        "mpi.transport.send.bytes"}) {
    layers[name] = static_cast<double>(snap.counter_value(name));
  }
  for (const char* name :
       {"bgzf.encode.deflate_us", "exec.pool.task_us",
        "exec.pipeline.transform_us", "exec.pipeline.commit_wait_us",
        "mpi.transport.wait_us"}) {
    const ngsx::obs::HistogramSnapshot* hist = snap.histogram_value(name);
    layers[name] = hist == nullptr ? 0.0 : static_cast<double>(hist->sum);
  }
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> kMetrics = {
      // formats: SAM text side (sam_convert)
      {"formats.sam.parse_s", "s"},
      {"core.target.format_s", "s"},
      {"core.partition.alg1_s", "s"},
      // formats: BAM -> BAMX preprocessing (bam_region set-up)
      {"formats.bgzf.inflate_s", "s"},
      {"formats.bam.frame_s", "s"},
      {"formats.bam.decode_s", "s"},
      {"formats.bamx.encode_s", "s"},
      {"formats.bamx.restride_s", "s"},
      {"core.preprocess_p1_s", "s"},
      {"convert.stage.preprocess.ns", "ns"},
      // core/session: one region query (bam_region)
      {"core.session.open_ms", "ms"},
      {"formats.baix.load_ms", "ms"},
      {"core.session.plan_ms", "ms"},
      {"core.session.format_ms", "ms"},
      {"core.region.records", "count/query"},
      {"io.binio.reads", "count/query"},
      {"io.binio.read_bytes", "B/query"},
      // core/convert
      {"convert.stage.convert.ns", "ns"},
      {"convert.records.out", "count"},
      {"convert.bytes.out", "B"},
      {"io.binio.writes", "count"},
      {"io.binio.write_bytes", "B"},
      {"io.binio.fsyncs", "count"},
      // core/collate and the BGZF write side (bam_collate)
      {"core.collate.read_s", "s"},
      {"core.collate.markdup_s", "s"},
      {"core.collate.fastq_spill_s", "s"},
      {"collate.spills", "count"},
      {"collate.spilled_bytes", "B"},
      {"collate.pairs", "count"},
      {"bgzf.encode.blocks", "count"},
      {"bgzf.encode.deflate_us", "us"},
      // exec
      {"exec.pool.tasks", "count"},
      {"exec.pool.steals", "count"},
      {"exec.pool.parks", "count"},
      {"exec.pool.task_us", "us"},
      {"exec.pipeline.tickets", "count"},
      {"exec.pipeline.transform_us", "us"},
      {"exec.pipeline.commit_wait_us", "us"},
      // mpi
      {"mpi.transport.send.messages", "count"},
      {"mpi.transport.send.bytes", "B"},
      {"mpi.transport.wait_us", "us"},
      // stats (peak_calling)
      {"stats.nlmeans_s", "s"},
      {"stats.nlmeans_p1_s", "s"},
      {"stats.fdr_s", "s"},
      {"stats.fdr_p1_s", "s"},
      {"stats.regions_s", "s"},
      {"stats.nlmeans.ops", "count"},
      {"stats.fdr.ops", "count"},
  };
  return kMetrics;
}

}  // namespace perfbench
