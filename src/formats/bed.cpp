#include "formats/bed.h"

#include <algorithm>
#include <tuple>

#include "util/binio.h"
#include "util/common.h"
#include "util/strutil.h"

namespace ngsx::bed {

namespace {

bool interval_less(const BedInterval& a, const BedInterval& b) {
  return std::tie(a.chrom, a.begin, a.end) <
         std::tie(b.chrom, b.begin, b.end);
}

}  // namespace

BedInterval parse_bed_line(std::string_view line) {
  std::vector<std::string_view> fields = strutil::split(line, '\t');
  if (fields.size() < 3) {
    throw FormatError("BED row has fewer than 3 columns: '" +
                      std::string(line.substr(0, 60)) + "'");
  }
  BedInterval interval;
  interval.chrom = std::string(fields[0]);
  interval.begin = strutil::parse_int<int64_t>(fields[1], "BED start");
  interval.end = strutil::parse_int<int64_t>(fields[2], "BED end");
  if (interval.begin < 0 || interval.end < interval.begin) {
    throw FormatError("invalid BED coordinates in '" + std::string(line) +
                      "'");
  }
  if (fields.size() > 3) {
    interval.name = std::string(fields[3]);
  }
  if (fields.size() > 4 && !fields[4].empty() && fields[4] != ".") {
    interval.score = strutil::parse_double(fields[4], "BED score");
  }
  if (fields.size() > 5 && !fields[5].empty()) {
    char s = fields[5][0];
    if (s != '+' && s != '-' && s != '.') {
      throw FormatError("invalid BED strand in '" + std::string(line) + "'");
    }
    interval.strand = s;
  }
  if (fields.size() > 6) {
    for (size_t i = 6; i < fields.size(); ++i) {
      if (i > 6) {
        interval.rest += '\t';
      }
      interval.rest += fields[i];
    }
  }
  return interval;
}

void format_bed_line(const BedInterval& interval, std::string& out) {
  out += interval.chrom;
  out += '\t';
  strutil::append_int(out, interval.begin);
  out += '\t';
  strutil::append_int(out, interval.end);
  bool has_rest = !interval.rest.empty();
  bool has_strand = interval.strand != '.' || has_rest;
  bool has_score = interval.score != 0.0 || has_strand;
  bool has_name = !interval.name.empty() || has_score;
  if (has_name) {
    out += '\t';
    out += interval.name.empty() ? "." : interval.name;
  }
  if (has_score) {
    out += '\t';
    strutil::append_double(out, interval.score);
  }
  if (has_strand) {
    out += '\t';
    out += interval.strand;
  }
  if (has_rest) {
    out += '\t';
    out += interval.rest;
  }
}

std::vector<BedInterval> read_bed(const std::string& path) {
  std::vector<BedInterval> out;
  std::string data = read_file(path);
  size_t pos = 0;
  while (pos < data.size()) {
    size_t nl = data.find('\n', pos);
    size_t end = nl == std::string::npos ? data.size() : nl;
    std::string_view line(data.data() + pos, end - pos);
    pos = nl == std::string::npos ? data.size() : nl + 1;
    std::string_view trimmed = strutil::trim(line);
    if (trimmed.empty() || trimmed[0] == '#' ||
        strutil::starts_with(trimmed, "track") ||
        strutil::starts_with(trimmed, "browser")) {
      continue;
    }
    out.push_back(parse_bed_line(line));
  }
  return out;
}

void write_bed(const std::string& path,
               const std::vector<BedInterval>& intervals) {
  OutputFile out(path);
  std::string line;
  for (const auto& interval : intervals) {
    line.clear();
    format_bed_line(interval, line);
    line += '\n';
    out.write(line);
  }
  out.close();
}

void sort_intervals(std::vector<BedInterval>& intervals) {
  std::stable_sort(intervals.begin(), intervals.end(), interval_less);
}

std::vector<BedInterval> merge_intervals(std::vector<BedInterval> intervals,
                                         int64_t max_gap) {
  sort_intervals(intervals);
  std::vector<BedInterval> out;
  for (const auto& interval : intervals) {
    if (!out.empty() && out.back().chrom == interval.chrom &&
        interval.begin <= out.back().end + max_gap) {
      out.back().end = std::max(out.back().end, interval.end);
      out.back().score += 1;
    } else {
      BedInterval merged;
      merged.chrom = interval.chrom;
      merged.begin = interval.begin;
      merged.end = interval.end;
      merged.score = 1;
      out.push_back(std::move(merged));
    }
  }
  return out;
}

int64_t covered_bases(std::vector<BedInterval> intervals) {
  int64_t total = 0;
  for (const auto& merged : merge_intervals(std::move(intervals))) {
    total += merged.length();
  }
  return total;
}

std::vector<uint64_t> count_overlaps(const std::vector<BedInterval>& lhs,
                                     std::vector<BedInterval> rhs) {
  sort_intervals(rhs);
  std::vector<uint64_t> out;
  out.reserve(lhs.size());
  for (const auto& a : lhs) {
    // rhs candidates: binary search to the first interval of the same
    // chromosome not entirely before `a`, then scan.
    BedInterval probe;
    probe.chrom = a.chrom;
    probe.begin = -1;
    probe.end = -1;
    auto it = std::lower_bound(
        rhs.begin(), rhs.end(), probe,
        [](const BedInterval& x, const BedInterval& y) {
          return std::tie(x.chrom, x.begin) < std::tie(y.chrom, y.begin);
        });
    uint64_t count = 0;
    for (; it != rhs.end() && it->chrom == a.chrom && it->begin < a.end;
         ++it) {
      if (it->end > a.begin) {
        ++count;
      }
    }
    out.push_back(count);
  }
  return out;
}

}  // namespace ngsx::bed
