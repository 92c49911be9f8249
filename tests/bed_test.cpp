// Tests for BED parsing and the interval operations (sort, merge, covered
// bases, overlap counts).

#include <gtest/gtest.h>

#include "formats/bed.h"
#include "util/binio.h"
#include "util/common.h"
#include "util/tempdir.h"

namespace ngsx::bed {
namespace {

BedInterval iv(const char* chrom, int64_t begin, int64_t end) {
  BedInterval interval;
  interval.chrom = chrom;
  interval.begin = begin;
  interval.end = end;
  return interval;
}

// ------------------------------------------------------------------ parsing

TEST(BedParse, ThreeColumns) {
  BedInterval interval = parse_bed_line("chr1\t100\t200");
  EXPECT_EQ(interval.chrom, "chr1");
  EXPECT_EQ(interval.begin, 100);
  EXPECT_EQ(interval.end, 200);
  EXPECT_TRUE(interval.name.empty());
  EXPECT_EQ(interval.strand, '.');
}

TEST(BedParse, SixColumns) {
  BedInterval interval = parse_bed_line("chr2\t5\t15\tpeak1\t37.5\t-");
  EXPECT_EQ(interval.name, "peak1");
  EXPECT_DOUBLE_EQ(interval.score, 37.5);
  EXPECT_EQ(interval.strand, '-');
}

TEST(BedParse, ExtraColumnsPreserved) {
  BedInterval interval =
      parse_bed_line("chr1\t0\t10\tx\t1\t+\tthick\tstart\tcolors");
  EXPECT_EQ(interval.rest, "thick\tstart\tcolors");
  std::string out;
  format_bed_line(interval, out);
  EXPECT_EQ(out, "chr1\t0\t10\tx\t1\t+\tthick\tstart\tcolors");
}

TEST(BedParse, DotScoreAccepted) {
  BedInterval interval = parse_bed_line("chr1\t0\t10\tx\t.\t+");
  EXPECT_DOUBLE_EQ(interval.score, 0.0);
  EXPECT_EQ(interval.strand, '+');
}

TEST(BedParse, Errors) {
  EXPECT_THROW(parse_bed_line("chr1\t100"), FormatError);
  EXPECT_THROW(parse_bed_line("chr1\tabc\t200"), FormatError);
  EXPECT_THROW(parse_bed_line("chr1\t200\t100"), FormatError);
  EXPECT_THROW(parse_bed_line("chr1\t-5\t10"), FormatError);
  EXPECT_THROW(parse_bed_line("chr1\t0\t10\tx\t1\tz"), FormatError);
}

TEST(BedParse, FormatRoundTrip) {
  for (const char* line :
       {"chr1\t0\t10", "chr1\t0\t10\tname", "chr1\t0\t10\tname\t5",
        "chr1\t0\t10\tname\t5\t-"}) {
    std::string out;
    format_bed_line(parse_bed_line(line), out);
    EXPECT_EQ(out, line);
  }
  // The formatter emits minimal columns: a default ('.') strand with no
  // later columns is dropped, so such lines round-trip semantically
  // rather than byte-wise.
  BedInterval dotted = parse_bed_line("chrX\t999\t1000\t.\t0.5\t.");
  std::string out;
  format_bed_line(dotted, out);
  EXPECT_EQ(parse_bed_line(out), dotted);
}

TEST(BedFile, ReadSkipsCommentsAndTracks) {
  TempDir tmp;
  write_file(tmp.file("t.bed"),
             "# comment\ntrack name=peaks\nbrowser position chr1\n"
             "chr1\t10\t20\n\nchr2\t5\t6\n");
  auto intervals = read_bed(tmp.file("t.bed"));
  ASSERT_EQ(intervals.size(), 2u);
  EXPECT_EQ(intervals[0].chrom, "chr1");
  EXPECT_EQ(intervals[1].chrom, "chr2");
}

TEST(BedFile, WriteReadRoundTrip) {
  TempDir tmp;
  std::vector<BedInterval> intervals = {iv("chr1", 0, 5), iv("chr2", 10, 30)};
  intervals[0].name = "a";
  intervals[0].score = 2;
  intervals[0].strand = '+';
  write_bed(tmp.file("t.bed"), intervals);
  EXPECT_EQ(read_bed(tmp.file("t.bed")), intervals);
}

// ----------------------------------------------------------------- algebra

TEST(BedOps, SortOrder) {
  std::vector<BedInterval> v = {iv("chr2", 5, 9), iv("chr1", 50, 60),
                                iv("chr1", 10, 30), iv("chr1", 10, 20)};
  sort_intervals(v);
  EXPECT_EQ(v[0], iv("chr1", 10, 20));
  EXPECT_EQ(v[1], iv("chr1", 10, 30));
  EXPECT_EQ(v[2], iv("chr1", 50, 60));
  EXPECT_EQ(v[3], iv("chr2", 5, 9));
}

TEST(BedOps, MergeOverlapping) {
  auto merged = merge_intervals(
      {iv("chr1", 0, 10), iv("chr1", 5, 20), iv("chr1", 30, 40),
       iv("chr2", 0, 5)});
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].begin, 0);
  EXPECT_EQ(merged[0].end, 20);
  EXPECT_DOUBLE_EQ(merged[0].score, 2);  // merged-count lands in score
  EXPECT_EQ(merged[1], [] {
    BedInterval m = iv("chr1", 30, 40);
    m.score = 1;
    return m;
  }());
  EXPECT_EQ(merged[2].chrom, "chr2");
}

TEST(BedOps, MergeBookEndedAndGap) {
  // Book-ended intervals merge at gap 0; gap=5 bridges small holes.
  auto touch = merge_intervals({iv("c", 0, 10), iv("c", 10, 20)});
  ASSERT_EQ(touch.size(), 1u);
  EXPECT_EQ(touch[0].end, 20);
  auto apart = merge_intervals({iv("c", 0, 10), iv("c", 13, 20)});
  EXPECT_EQ(apart.size(), 2u);
  auto bridged = merge_intervals({iv("c", 0, 10), iv("c", 13, 20)}, 5);
  ASSERT_EQ(bridged.size(), 1u);
  EXPECT_EQ(bridged[0].end, 20);
}

TEST(BedOps, MergeContained) {
  auto merged = merge_intervals({iv("c", 0, 100), iv("c", 10, 20)});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].end, 100);
}

TEST(BedOps, CoveredBases) {
  EXPECT_EQ(covered_bases({iv("c", 0, 10), iv("c", 5, 20), iv("d", 0, 3)}),
            23);
  EXPECT_EQ(covered_bases({}), 0);
}

TEST(BedOps, CountOverlaps) {
  auto counts = count_overlaps(
      {iv("c", 0, 10), iv("c", 100, 110), iv("d", 0, 5)},
      {iv("c", 5, 8), iv("c", 9, 20), iv("c", 105, 106), iv("e", 0, 5)});
  EXPECT_EQ(counts, (std::vector<uint64_t>{2, 1, 0}));
}

}  // namespace
}  // namespace ngsx::bed
