// ngsx/formats/bed.h
//
// BED interval parsing and the few interval operations the tools use:
// read and write BED rows, sort, merge, covered bases (ngsx_stats reports
// it for called peaks) and per-interval overlap counts. Set algebra
// (intersect, subtract) is BEDTools' job, not the paper's (§VI situates
// the converter against BEDTools).
//
// Intervals are zero-based half-open [begin, end), BED's native
// convention. Operations take chromosome identity from the `chrom` string
// so they work without a SAM header.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ngsx::bed {

/// One BED row (first six columns; extra columns are preserved verbatim).
struct BedInterval {
  std::string chrom;
  int64_t begin = 0;
  int64_t end = 0;
  std::string name;      // column 4, empty if absent
  double score = 0.0;    // column 5, 0 if absent
  char strand = '.';     // column 6, '.' if absent
  std::string rest;      // columns 7+, tab-joined, empty if absent

  bool operator==(const BedInterval&) const = default;

  int64_t length() const { return end - begin; }
  bool overlaps(const BedInterval& other) const {
    return chrom == other.chrom && begin < other.end && other.begin < end;
  }
};

/// Parses one BED line (3-6+ columns). Throws FormatError on malformed
/// rows (fewer than 3 columns, non-numeric coordinates, end < begin).
BedInterval parse_bed_line(std::string_view line);

/// Serializes an interval with as many columns as it carries.
void format_bed_line(const BedInterval& interval, std::string& out);

/// Reads a whole BED file (skips empty lines, '#' comments, and
/// track/browser lines).
std::vector<BedInterval> read_bed(const std::string& path);

/// Writes intervals as a BED file.
void write_bed(const std::string& path,
               const std::vector<BedInterval>& intervals);

// ---------------------------------------------------------------------------
// Interval operations. All are pure; inputs need not be sorted. Interval
// results are sorted by (chrom, begin, end).
// ---------------------------------------------------------------------------

/// Sorts by (chrom, begin, end) — lexicographic chromosome order, like
/// `bedtools sort`.
void sort_intervals(std::vector<BedInterval>& intervals);

/// Merges overlapping or book-ended intervals (gap <= `max_gap` bases
/// apart). Name/score/strand of merged runs are dropped (as bedtools
/// merge does by default); the count of merged inputs lands in `score`.
std::vector<BedInterval> merge_intervals(std::vector<BedInterval> intervals,
                                         int64_t max_gap = 0);

/// Total bases covered by the union of the intervals.
int64_t covered_bases(std::vector<BedInterval> intervals);

/// For each lhs interval, the number of rhs intervals overlapping it
/// (bedtools intersect -c). Returned in lhs order.
std::vector<uint64_t> count_overlaps(const std::vector<BedInterval>& lhs,
                                     std::vector<BedInterval> rhs);

}  // namespace ngsx::bed
