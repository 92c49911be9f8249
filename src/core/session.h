// ngsx/core/session.h
//
// Resident conversion sessions: the *setup* half of the BAMX converters —
// open the record source, open the indexes, plan a region — split from the
// *per-request* half (fetch + format + emit).
//
// convert_bamx() and convert_bamx_filtered() perform the whole setup on
// every call: sniff and open the BAMX/BAMXM, open the BAIX (v1: a header
// read, then the O(log n) index pages a query's binary searches touch) or
// load the BAIXv2, then convert. That is the right shape for a one-shot CLI
// conversion. A resident service answering many region queries over the
// same shard set would still pay the source open, the index pages and
// (with v2) the whole index load on every request. A ConversionSession is
// constructed once, holds the open source and lazily opened indexes —
// the v1 reader keeps every page it has read — and serves any number of
// plan/format calls; ngsx_serve shares one across all in-flight requests,
// and the one-shot converters build a throwaway session internally so
// both paths run the same code. fetch() is the only way either reads a
// record: one positioned read per run of consecutive record indices,
// decoded into one reused record.
//
// Thread-safety: after construction every method is const and safe to call
// concurrently from any number of threads. RecordSource reads are
// positioned (no shared cursor); each index is opened exactly once under
// std::call_once, and the v1 reader publishes its cached pages atomically.

#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/convert.h"
#include "core/target.h"
#include "formats/baix2.h"
#include "formats/bamx.h"

namespace ngsx::core {

/// What a session opens. Only `bamx_path` is required; each index path is
/// optional and loaded on first use.
struct SessionOptions {
  std::string bamx_path;   // monolithic .bamx or .bamxm manifest (sniffed)
  std::string baix_path;   // v1 index: start-within regions, no filters
  std::string baix2_path;  // v2 index: overlap queries + filters
};

class ConversionSession {
 public:
  explicit ConversionSession(SessionOptions options);

  const sam::SamHeader& header() const { return source_.header(); }
  uint64_t num_records() const { return source_.num_records(); }
  uint64_t stride() const { return source_.layout().stride(); }

  bool has_baix() const { return !options_.baix_path.empty(); }
  bool has_baix2() const { return !options_.baix2_path.empty(); }

  /// The v1 index reader, opened on first call (throws UsageError when the
  /// session was opened without a BAIX path). It reads index pages on
  /// demand and keeps them, so a resident session stops reading the index.
  const bamx::BaixReader& baix() const;

  /// The v2 index, loaded on first call (throws UsageError when the
  /// session was opened without a BAIXv2 path).
  const baix2::Baix2Index& baix2() const;

  /// Parses "chr1:1000-2000" against the session's header.
  Region parse(std::string_view region_text) const {
    return parse_region(region_text, header());
  }

  /// Record fetch list for a region query, in emission order: with a v2
  /// index, exactly what convert_bamx_filtered would emit (ascending
  /// record indices); with only a v1 index — which supports kStartWithin
  /// and no filters, UsageError otherwise — exactly what convert_bamx
  /// would emit (BAIX entry order). A sub-region's plan is always a
  /// subsequence of an enclosing region's plan, which is what lets the
  /// serving layer coalesce overlapping requests.
  std::vector<uint64_t> plan(const Region& region, baix2::RegionMode mode,
                             const baix2::Filter& filter = {}) const;

  /// The one record fetch: calls `emit` for plan entries [begin, end), in
  /// order. `plan` is a record-index list, or null for every record of the
  /// source. Each run of consecutive indices (at most 4096 records) is one
  /// bulk read; its records are decoded one at a time into one reused
  /// record, so `emit` must not keep a reference past its return.
  void fetch(const std::vector<uint64_t>* plan, uint64_t begin, uint64_t end,
             const std::function<void(sam::AlignmentRecord&)>& emit) const;

  struct FormatResult {
    uint64_t records_in = 0;   // records fetched
    uint64_t records_out = 0;  // target objects emitted
    uint64_t bytes = 0;        // bytes appended to out (incl. prologue)
  };

  /// Per-request execution: appends prologue + one formatted record per
  /// planned index to `out`. Byte-identical to the part file a single
  /// static rank would write for the same plan. Text targets only
  /// (UsageError for kBam, as for all record-level formatting).
  FormatResult format_records(const std::vector<uint64_t>& indices,
                              TargetFormat format, bool include_header,
                              std::string& out) const;

 private:
  SessionOptions options_;
  bamx::RecordSource source_;
  mutable std::once_flag baix_once_;
  mutable std::once_flag baix2_once_;
  mutable std::optional<bamx::BaixReader> baix_;
  mutable std::optional<baix2::Baix2Index> baix2_;
};

}  // namespace ngsx::core
