#include "formats/baix2.h"

#include <algorithm>

#include "formats/sam.h"
#include "util/binio.h"

namespace ngsx::baix2 {

namespace {
constexpr std::string_view kMagic{"BAIX\2", 5};
constexpr uint16_t kVersion = 2;

/// Sort key: (ref as unsigned so -1 sorts last, begin).
bool entry_less(const Entry& a, const Entry& b) {
  uint32_t ra = static_cast<uint32_t>(a.ref_id);
  uint32_t rb = static_cast<uint32_t>(b.ref_id);
  if (ra != rb) {
    return ra < rb;
  }
  return a.begin < b.begin;
}
}  // namespace

bool Filter::matches(const Entry& e) const {
  if (e.mapq < min_mapq) {
    return false;
  }
  if ((e.flag & sam::kUnmapped) != 0 && !include_unmapped) {
    return false;
  }
  if (!include_duplicates && (e.flag & sam::kDuplicate) != 0) {
    return false;
  }
  if (reverse_strand.has_value() &&
      ((e.flag & sam::kReverse) != 0) != *reverse_strand) {
    return false;
  }
  return true;
}

Baix2Index Baix2Index::from_entries(std::vector<Entry> entries) {
  Baix2Index index;
  index.entries_ = std::move(entries);
  std::stable_sort(index.entries_.begin(), index.entries_.end(), entry_less);
  // Running max of interval ends within each reference prefix: the
  // flattened-interval-tree augmentation overlap queries binary-search on.
  index.running_max_end_.resize(index.entries_.size());
  int32_t current_ref = -2;
  int32_t running = -1;
  for (size_t i = 0; i < index.entries_.size(); ++i) {
    const Entry& e = index.entries_[i];
    if (e.ref_id != current_ref) {
      current_ref = e.ref_id;
      running = -1;
    }
    running = std::max(running, e.end);
    index.running_max_end_[i] = running;
  }
  return index;
}

void Baix2Index::save(const std::string& path) const {
  std::string out;
  out += kMagic;
  binio::put_le<uint16_t>(out, kVersion);
  binio::put_le<uint64_t>(out, entries_.size());
  for (const Entry& e : entries_) {
    binio::put_le<int32_t>(out, e.ref_id);
    binio::put_le<int32_t>(out, e.begin);
    binio::put_le<int32_t>(out, e.end);
    binio::put_le<uint16_t>(out, e.flag);
    binio::put_le<uint8_t>(out, e.mapq);
    binio::put_le<uint8_t>(out, 0);  // pad
    binio::put_le<uint64_t>(out, e.record_index);
  }
  write_file(path, out);
}

Baix2Index Baix2Index::load(const std::string& path) {
  std::string data = read_file(path);
  ByteReader r(data);
  if (r.read_bytes(5) != kMagic) {
    throw FormatError("bad BAIX2 magic in '" + path + "'");
  }
  uint16_t version = r.read<uint16_t>();
  if (version != kVersion) {
    throw FormatError("unsupported BAIX2 version " + std::to_string(version));
  }
  uint64_t n = r.read<uint64_t>();
  if (n > r.remaining() / 24) {  // 24 bytes per entry on disk
    throw FormatError("BAIX2 entry count exceeds file size");
  }
  std::vector<Entry> entries;
  entries.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Entry e;
    e.ref_id = r.read<int32_t>();
    e.begin = r.read<int32_t>();
    e.end = r.read<int32_t>();
    e.flag = r.read<uint16_t>();
    e.mapq = r.read<uint8_t>();
    r.read<uint8_t>();  // pad
    e.record_index = r.read<uint64_t>();
    entries.push_back(e);
  }
  return from_entries(std::move(entries));  // re-derives the augmentation
}

std::pair<size_t, size_t> Baix2Index::ref_span(int32_t ref) const {
  auto lo = std::lower_bound(
      entries_.begin(), entries_.end(), ref,
      [](const Entry& e, int32_t r) {
        return static_cast<uint32_t>(e.ref_id) < static_cast<uint32_t>(r);
      });
  auto hi = std::upper_bound(
      entries_.begin(), entries_.end(), ref,
      [](int32_t r, const Entry& e) {
        return static_cast<uint32_t>(r) < static_cast<uint32_t>(e.ref_id);
      });
  return {static_cast<size_t>(lo - entries_.begin()),
          static_cast<size_t>(hi - entries_.begin())};
}

std::vector<uint64_t> Baix2Index::query(int32_t ref_id, int32_t beg,
                                        int32_t end, RegionMode mode,
                                        const Filter& filter) const {
  std::vector<uint64_t> out;
  if (beg >= end) {
    return out;
  }
  auto [ref_lo, ref_hi] = ref_span(ref_id);
  if (ref_lo == ref_hi) {
    return out;
  }

  // Entries starting at or after `end` can never match either mode.
  size_t hi = static_cast<size_t>(
      std::lower_bound(entries_.begin() + static_cast<long>(ref_lo),
                       entries_.begin() + static_cast<long>(ref_hi), end,
                       [](const Entry& e, int32_t v) { return e.begin < v; }) -
      entries_.begin());

  size_t lo;
  if (mode == RegionMode::kStartWithin) {
    lo = static_cast<size_t>(
        std::lower_bound(entries_.begin() + static_cast<long>(ref_lo),
                         entries_.begin() + static_cast<long>(hi), beg,
                         [](const Entry& e, int32_t v) { return e.begin < v; }) -
        entries_.begin());
  } else {
    // Overlap: candidates need end > beg. running_max_end_ is
    // non-decreasing within the reference, so the first index whose
    // running max exceeds `beg` bounds the candidate range from below.
    auto first = std::partition_point(
        running_max_end_.begin() + static_cast<long>(ref_lo),
        running_max_end_.begin() + static_cast<long>(hi),
        [&](int32_t max_end) { return max_end <= beg; });
    lo = static_cast<size_t>(first - running_max_end_.begin());
  }

  for (size_t i = lo; i < hi; ++i) {
    const Entry& e = entries_[i];
    if (mode == RegionMode::kOverlap && e.end <= beg) {
      continue;  // running max passed, this individual interval doesn't
    }
    if (filter.matches(e)) {
      out.push_back(e.record_index);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<uint64_t> Baix2Index::query_all(const Filter& filter) const {
  std::vector<uint64_t> out;
  for (const Entry& e : entries_) {
    if (filter.matches(e)) {
      out.push_back(e.record_index);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace ngsx::baix2
