#include "stats/histogram.h"

#include <algorithm>

#include "formats/bam.h"
#include "util/binio.h"
#include "util/strutil.h"

namespace ngsx::stats {

using sam::AlignmentRecord;
using sam::SamHeader;

CoverageHistogram::CoverageHistogram(const SamHeader& header,
                                     int32_t bin_size)
    : header_(header), bin_size_(bin_size) {
  NGSX_CHECK_MSG(bin_size >= 1, "bin size must be positive");
  per_ref_.reserve(header_.references().size());
  for (const auto& ref : header_.references()) {
    size_t n = static_cast<size_t>((ref.length + bin_size - 1) / bin_size);
    per_ref_.emplace_back(n, 0.0);
  }
}

bool CoverageHistogram::add(const AlignmentRecord& rec) {
  if (rec.ref_id < 0 || rec.pos < 0 || rec.is_unmapped()) {
    return false;
  }
  auto& bins = per_ref_[static_cast<size_t>(rec.ref_id)];
  if (bins.empty()) {
    return false;
  }
  size_t first = static_cast<size_t>(rec.pos) / static_cast<size_t>(bin_size_);
  size_t last = static_cast<size_t>(std::max(rec.end_pos() - 1, rec.pos)) /
                static_cast<size_t>(bin_size_);
  first = std::min(first, bins.size() - 1);
  last = std::min(last, bins.size() - 1);
  for (size_t b = first; b <= last; ++b) {
    bins[b] += 1.0;
  }
  return true;
}

const std::vector<double>& CoverageHistogram::bins(int32_t ref_id) const {
  NGSX_CHECK_MSG(
      ref_id >= 0 && static_cast<size_t>(ref_id) < per_ref_.size(),
      "reference id out of range");
  return per_ref_[static_cast<size_t>(ref_id)];
}

std::vector<double> CoverageHistogram::flatten() const {
  std::vector<double> out;
  out.reserve(total_bins());
  for (const auto& bins : per_ref_) {
    out.insert(out.end(), bins.begin(), bins.end());
  }
  return out;
}

size_t CoverageHistogram::total_bins() const {
  size_t total = 0;
  for (const auto& bins : per_ref_) {
    total += bins.size();
  }
  return total;
}

void CoverageHistogram::write_bedgraph(const std::string& path) const {
  OutputFile out(path);
  std::string line;
  for (size_t r = 0; r < per_ref_.size(); ++r) {
    const auto& bins = per_ref_[r];
    std::string_view chrom = header_.references()[r].name;
    int64_t ref_len = header_.references()[r].length;
    size_t run_start = 0;
    for (size_t b = 1; b <= bins.size(); ++b) {
      if (b == bins.size() || bins[b] != bins[run_start]) {
        line.clear();
        line += chrom;
        line += '\t';
        strutil::append_uint(line, run_start * static_cast<size_t>(bin_size_));
        line += '\t';
        int64_t end = static_cast<int64_t>(b) * bin_size_;
        strutil::append_int(line, std::min(end, ref_len));
        line += '\t';
        strutil::append_double(line, bins[run_start]);
        line += '\n';
        out.write(line);
        run_start = b;
      }
    }
  }
  out.close();
}

CoverageHistogram histogram_from_bam(const std::string& bam_path,
                                     int32_t bin_size,
                                     int decode_threads) {
  bam::BamFileReader reader(bam_path, decode_threads);
  CoverageHistogram hist(reader.header(), bin_size);
  AlignmentRecord rec;
  while (reader.next(rec)) {
    hist.add(rec);
  }
  return hist;
}

CoverageHistogram histogram_from_sam(const std::string& sam_path,
                                     int32_t bin_size) {
  sam::SamFileReader reader(sam_path);
  CoverageHistogram hist(reader.header(), bin_size);
  AlignmentRecord rec;
  while (reader.next(rec)) {
    hist.add(rec);
  }
  return hist;
}

}  // namespace ngsx::stats
