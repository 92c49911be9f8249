#include "simdata/reference.h"

#include <algorithm>
#include <numeric>

#include "util/common.h"
#include "util/rng.h"

namespace ngsx::simdata {

std::vector<sam::Reference> mouse_like_references(uint64_t genome_size) {
  // mm9 chromosome lengths in Mb (approximate), used as proportions.
  struct Proto {
    const char* name;
    double mb;
  };
  static const Proto kMm9[] = {
      {"chr1", 197.2}, {"chr2", 181.7}, {"chr3", 159.6}, {"chr4", 155.6},
      {"chr5", 152.5}, {"chr6", 149.5}, {"chr7", 152.5}, {"chr8", 131.7},
      {"chr9", 124.1}, {"chr10", 130.0}, {"chr11", 122.1}, {"chr12", 120.5},
      {"chr13", 120.3}, {"chr14", 125.2}, {"chr15", 103.5}, {"chr16", 98.3},
      {"chr17", 95.3}, {"chr18", 90.8}, {"chr19", 61.3}, {"chrX", 166.7},
      {"chrY", 15.9}, {"chrM", 0.016}};
  double total_mb = 0;
  for (const Proto& p : kMm9) {
    total_mb += p.mb;
  }
  std::vector<sam::Reference> refs;
  for (const Proto& p : kMm9) {
    int64_t len = static_cast<int64_t>(
        static_cast<double>(genome_size) * (p.mb / total_mb));
    if (len < 200) {
      len = 200;  // keep every chromosome usable for read placement
    }
    refs.push_back(sam::Reference{p.name, len});
  }
  return refs;
}

ReferenceGenome ReferenceGenome::simulate(std::vector<sam::Reference> refs,
                                          uint64_t seed) {
  ReferenceGenome g;
  g.refs_ = std::move(refs);
  g.header_ = sam::SamHeader::from_references(g.refs_);
  g.seqs_.reserve(g.refs_.size());
  for (size_t i = 0; i < g.refs_.size(); ++i) {
    Rng rng(seed * 1000003ull + i);
    const auto& ref = g.refs_[i];
    std::string seq;
    seq.reserve(static_cast<size_t>(ref.length));
    // GC content drifts per block; occasional N-runs mimic assembly gaps.
    const int64_t block = 50000;
    double gc = 0.45;
    for (int64_t pos = 0; pos < ref.length;) {
      int64_t run = std::min(block, ref.length - pos);
      gc = std::clamp(gc + 0.05 * rng.normal(), 0.35, 0.55);
      if (rng.chance(0.002)) {
        // Assembly gap: a short run of N.
        int64_t n_run = std::min<int64_t>(run, rng.range(50, 500));
        seq.append(static_cast<size_t>(n_run), 'N');
        pos += n_run;
        continue;
      }
      for (int64_t j = 0; j < run; ++j) {
        double u = rng.uniform();
        char base;
        if (u < gc / 2) {
          base = 'G';
        } else if (u < gc) {
          base = 'C';
        } else if (u < gc + (1.0 - gc) / 2) {
          base = 'A';
        } else {
          base = 'T';
        }
        seq += base;
      }
      pos += run;
    }
    g.seqs_.push_back(std::move(seq));
  }
  return g;
}

const std::string& ReferenceGenome::sequence(int32_t ref_id) const {
  NGSX_CHECK_MSG(ref_id >= 0 && static_cast<size_t>(ref_id) < seqs_.size(),
                 "reference id out of range");
  return seqs_[static_cast<size_t>(ref_id)];
}

uint64_t ReferenceGenome::total_bases() const {
  uint64_t total = 0;
  for (const auto& s : seqs_) {
    total += s.size();
  }
  return total;
}

}  // namespace ngsx::simdata
