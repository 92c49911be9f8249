// ngsx/simdata/reference.h
//
// Synthetic reference genome substrate. The paper's evaluation uses mouse
// whole-genome data aligned to mm9; no such data ships with this container,
// so we simulate an mm9-like genome: the same chromosome *structure*
// (chr1..chr19, chrX, chrY, chrM with mm9's relative size ordering) scaled
// down by a user-chosen factor, with GC-content variation along each
// chromosome so simulated alignments inherit realistic positional
// statistics.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "formats/sam.h"

namespace ngsx::simdata {

/// mm9-like chromosome table scaled so the whole genome totals roughly
/// `genome_size` bases (relative chromosome proportions follow mm9).
/// Always includes at least chr1; chrM is kept tiny like the real one.
std::vector<sam::Reference> mouse_like_references(uint64_t genome_size);

/// A simulated genome: reference dictionary plus the actual base sequences.
class ReferenceGenome {
 public:
  /// Simulates sequences for `refs` deterministically from `seed`.
  /// GC content drifts in ~50 kb blocks between 35% and 55%.
  static ReferenceGenome simulate(std::vector<sam::Reference> refs,
                                  uint64_t seed);

  const std::vector<sam::Reference>& references() const { return refs_; }
  const sam::SamHeader& header() const { return header_; }

  /// Base sequence of chromosome `ref_id` (uppercase ACGT, occasional N).
  const std::string& sequence(int32_t ref_id) const;

  /// Total bases across all chromosomes.
  uint64_t total_bases() const;

 private:
  std::vector<sam::Reference> refs_;
  sam::SamHeader header_;
  std::vector<std::string> seqs_;
};

}  // namespace ngsx::simdata
