// ngsx/formats/baix2.h
//
// BAIX v2: the paper's second future-work item — "more sophisticated
// indexing techniques to the BAIX structure design for supporting more
// partial conversion types".
//
// The v1 BAIX stores (starting position, record index) and therefore only
// answers "alignments *starting* inside the region". v2 stores the full
// alignment interval plus the flag word and mapping quality, enabling:
//
//   * overlap queries (the samtools-view semantics): alignments whose
//     [begin, end) interval intersects the region, answered with a sorted
//     start array augmented by a running maximum of interval ends — a
//     flattened interval tree. Binary search bounds both ends of the
//     candidate range, so a query costs O(log n + candidates).
//   * filtered partial conversion: minimum mapping quality, strand
//     selection, and duplicate exclusion are evaluated on the index alone,
//     so non-matching records are never fetched from the BAMX.
//
// Returned record indices are sorted ascending so the converter's fetches
// stay sequential in the BAMX file (I/O locality).

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace ngsx::baix2 {

/// One indexed alignment.
struct Entry {
  int32_t ref_id = -1;
  int32_t begin = -1;     // 0-based start
  int32_t end = -1;       // 0-based exclusive end (start + reference span)
  uint16_t flag = 0;
  uint8_t mapq = 0;
  uint64_t record_index = 0;

  bool operator==(const Entry&) const = default;
};

/// Region matching semantics.
enum class RegionMode {
  kStartWithin,  // v1 semantics: alignment starts inside the region
  kOverlap,      // samtools-view semantics: alignment intersects the region
};

/// Index-resolvable record filters ("more partial conversion types").
struct Filter {
  int min_mapq = 0;
  std::optional<bool> reverse_strand;  // set -> require that strand
  bool include_duplicates = true;
  bool include_unmapped = false;  // only meaningful for whole-file scans

  bool matches(const Entry& e) const;
};

/// The v2 index.
///
/// Thread-safety: after construction/load the index is immutable; query(),
/// query_all() and the accessors are const, touch no shared mutable state,
/// and are safe to call concurrently from any number of threads (the
/// serving daemon shares one instance across all in-flight requests).
class Baix2Index {
 public:
  Baix2Index() = default;

  /// Builds from collected entries (core::build_baix2 collects them from
  /// one scan of the BAMX).
  static Baix2Index from_entries(std::vector<Entry> entries);

  void save(const std::string& path) const;
  static Baix2Index load(const std::string& path);

  size_t size() const { return entries_.size(); }
  const Entry& entry(size_t i) const { return entries_[i]; }

  /// Record indices matching the region under `mode` and `filter`,
  /// ascending. `end` is exclusive.
  std::vector<uint64_t> query(int32_t ref_id, int32_t beg, int32_t end,
                              RegionMode mode, const Filter& filter = {}) const;

  /// Record indices of every entry passing `filter` (no region).
  std::vector<uint64_t> query_all(const Filter& filter = {}) const;

  bool operator==(const Baix2Index&) const = default;

 private:
  /// [first, last) positions in entries_ for reference `ref` (entries are
  /// sorted by (ref, begin); unmapped sort last).
  std::pair<size_t, size_t> ref_span(int32_t ref) const;

  std::vector<Entry> entries_;
  std::vector<int32_t> running_max_end_;  // per entry, max end within its ref prefix
};

}  // namespace ngsx::baix2
