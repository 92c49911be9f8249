// ngsx/stats/histogram.h
//
// Coverage histogram construction (§IV, first paragraph): aligned reads are
// accumulated into fixed-width bins along each chromosome ("binned peaks"),
// producing the histogram data the NL-means and FDR steps consume. The
// paper's pipeline materializes these via the converter (SAM/BAM ->
// BED/BEDGRAPH); this module provides the direct in-memory builder plus
// BEDGRAPH export (ngsx_stats --bedgraph). The builder is one
// streaming pass over BAM (with parallel BGZF inflate) or SAM. A
// rank-parallel builder over preprocessed BAMX lost to it end to end,
// preprocessing included, and was retired (EXPERIMENTS.md).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "formats/sam.h"

namespace ngsx::stats {

/// Per-chromosome binned read-coverage counts.
class CoverageHistogram {
 public:
  /// `bin_size` in base pairs; the paper's NL-means experiment uses 25 bp.
  CoverageHistogram(const sam::SamHeader& header, int32_t bin_size);

  int32_t bin_size() const { return bin_size_; }
  const sam::SamHeader& header() const { return header_; }

  /// Adds one aligned record: every bin overlapped by [pos, end_pos) gets
  /// +1 (read-pileup semantics). Unmapped records are ignored; returns
  /// whether the record contributed.
  bool add(const sam::AlignmentRecord& rec);

  /// Bins of chromosome `ref_id`.
  const std::vector<double>& bins(int32_t ref_id) const;

  /// All chromosomes concatenated into one 1-D array (the layout the
  /// statistical steps operate on).
  std::vector<double> flatten() const;

  /// Total number of bins across chromosomes.
  size_t total_bins() const;

  /// Serializes as BEDGRAPH, merging runs of equal values into one row
  /// (the format's concise track representation).
  void write_bedgraph(const std::string& path) const;

 private:
  sam::SamHeader header_;
  int32_t bin_size_;
  std::vector<std::vector<double>> per_ref_;
};

/// Builds a histogram by streaming a BAM file. `decode_threads` BGZF
/// inflate workers overlap block decompression with binning (0 = auto,
/// 1 = sequential decode); the result is identical either way.
CoverageHistogram histogram_from_bam(const std::string& bam_path,
                                     int32_t bin_size,
                                     int decode_threads = 0);

/// Builds a histogram by streaming a SAM file.
CoverageHistogram histogram_from_sam(const std::string& sam_path,
                                     int32_t bin_size);

}  // namespace ngsx::stats
