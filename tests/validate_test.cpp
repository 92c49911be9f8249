// Tests for the SAM/BAM validator.

#include <gtest/gtest.h>

#include <algorithm>

#include "formats/bam.h"
#include "formats/validate.h"
#include "simdata/readsim.h"
#include "util/tempdir.h"

namespace ngsx::validate {
namespace {

using sam::AlignmentRecord;
using sam::SamHeader;

SamHeader v_header() {
  return SamHeader::from_references({{"chr1", 10000}, {"chr2", 5000}});
}

AlignmentRecord clean_record() {
  AlignmentRecord rec;
  rec.qname = "ok.read.1";
  rec.flag = sam::kPaired | sam::kRead1;
  rec.ref_id = 0;
  rec.pos = 100;
  rec.mapq = 60;
  rec.cigar = sam::parse_cigar("50M");
  rec.mate_ref_id = 0;
  rec.mate_pos = 300;
  rec.tlen = 250;
  rec.seq = std::string(50, 'A');
  rec.qual = std::string(50, 'I');
  return rec;
}

bool has_rule(const Report& report, std::string_view rule) {
  return std::any_of(report.issues.begin(), report.issues.end(),
                     [&](const Issue& i) { return i.rule == rule; });
}

Report check(const AlignmentRecord& rec) {
  Report report;
  validate_record(rec, v_header(), 0, {}, report);
  return report;
}

TEST(ValidateRecord, CleanRecordPasses) {
  Report report = check(clean_record());
  EXPECT_EQ(report.error_count, 0u);
  EXPECT_EQ(report.warning_count, 0u);
}

TEST(ValidateRecord, QnameRules) {
  AlignmentRecord rec = clean_record();
  rec.qname.clear();
  EXPECT_TRUE(has_rule(check(rec), "QNAME_EMPTY"));
  rec.qname = std::string(300, 'n');
  EXPECT_TRUE(has_rule(check(rec), "QNAME_TOO_LONG"));
  rec.qname = "bad name";  // space
  EXPECT_TRUE(has_rule(check(rec), "QNAME_BAD_CHAR"));
  rec.qname = "bad@name";
  EXPECT_TRUE(has_rule(check(rec), "QNAME_BAD_CHAR"));
}

TEST(ValidateRecord, FlagConsistency) {
  AlignmentRecord rec = clean_record();
  rec.flag = sam::kRead1;  // pair bits without kPaired
  EXPECT_TRUE(has_rule(check(rec), "PAIRED_FLAGS_ON_UNPAIRED"));
  rec.flag = sam::kPaired | sam::kRead1 | sam::kRead2;
  EXPECT_TRUE(has_rule(check(rec), "BOTH_MATE_NUMBERS"));
}

TEST(ValidateRecord, UnmappedRules) {
  AlignmentRecord rec;
  rec.qname = "u";
  rec.flag = sam::kUnmapped;
  rec.mapq = 30;
  rec.cigar = sam::parse_cigar("10M");
  Report report = check(rec);
  EXPECT_TRUE(has_rule(report, "MAPQ_ON_UNMAPPED"));
  EXPECT_TRUE(has_rule(report, "CIGAR_ON_UNMAPPED"));
  EXPECT_EQ(report.error_count, 0u);  // both are warnings
}

TEST(ValidateRecord, PlacementRules) {
  AlignmentRecord rec = clean_record();
  rec.ref_id = 7;  // no such reference
  EXPECT_TRUE(has_rule(check(rec), "RNAME_INVALID"));
  rec = clean_record();
  rec.pos = 20000;  // beyond chr1
  EXPECT_TRUE(has_rule(check(rec), "POS_PAST_END"));
  rec = clean_record();
  rec.pos = 9990;  // alignment spills past the end
  EXPECT_TRUE(has_rule(check(rec), "ALIGNMENT_PAST_END"));
  rec = clean_record();
  rec.pos = -1;
  EXPECT_TRUE(has_rule(check(rec), "POS_MISSING"));
  rec = clean_record();
  rec.cigar.clear();
  EXPECT_TRUE(has_rule(check(rec), "CIGAR_MISSING"));
  rec = clean_record();
  rec.mate_ref_id = 9;
  EXPECT_TRUE(has_rule(check(rec), "RNEXT_INVALID"));
}

TEST(ValidateRecord, CigarRules) {
  AlignmentRecord rec = clean_record();
  rec.cigar = sam::parse_cigar("30M");  // SEQ is 50 bases
  EXPECT_TRUE(has_rule(check(rec), "CIGAR_SEQ_MISMATCH"));
  rec = clean_record();
  rec.cigar = {{'M', 25}, {'M', 25}};
  EXPECT_TRUE(has_rule(check(rec), "CIGAR_ADJACENT_SAME_OP"));
  rec = clean_record();
  rec.cigar = {{'M', 25}, {'H', 2}, {'M', 25}};
  EXPECT_TRUE(has_rule(check(rec), "CIGAR_INTERNAL_HARDCLIP"));
  rec = clean_record();
  rec.cigar = {{'M', 0}, {'M', 50}};
  EXPECT_TRUE(has_rule(check(rec), "CIGAR_ZERO_LENGTH_OP"));
}

TEST(ValidateRecord, SeqQualRules) {
  AlignmentRecord rec = clean_record();
  rec.qual = "II";  // mismatched length
  EXPECT_TRUE(has_rule(check(rec), "SEQ_QUAL_MISMATCH"));
  rec = clean_record();
  rec.qual[10] = ' ';  // below '!'
  EXPECT_TRUE(has_rule(check(rec), "QUAL_BAD_CHAR"));
}

TEST(ValidateRecord, DuplicateTags) {
  AlignmentRecord rec = clean_record();
  rec.tags.push_back(sam::parse_aux("NM:i:1"));
  rec.tags.push_back(sam::parse_aux("NM:i:2"));
  EXPECT_TRUE(has_rule(check(rec), "DUPLICATE_TAG"));
}

TEST(ValidateFile, SimulatedDatasetIsClean) {
  TempDir tmp;
  auto genome = simdata::ReferenceGenome::simulate(
      simdata::mouse_like_references(300000), 3);
  simdata::ReadSimConfig cfg;
  cfg.seed = 3;
  simdata::write_bam_dataset(tmp.file("d.bam"), genome, 300, cfg);
  Options options;
  options.check_sort_order = true;
  Report report = validate_file(tmp.file("d.bam"), options);
  EXPECT_EQ(report.records_checked, 600u);
  EXPECT_TRUE(report.ok()) << (report.issues.empty()
                                   ? "?"
                                   : report.issues[0].rule + ": " +
                                         report.issues[0].message);
  EXPECT_EQ(report.warning_count, 0u);
}

TEST(ValidateFile, SamAndBamAgree) {
  TempDir tmp;
  SamHeader header = v_header();
  AlignmentRecord bad = clean_record();
  bad.cigar = sam::parse_cigar("10M");  // mismatch vs 50-base SEQ
  {
    sam::SamFileWriter w(tmp.file("d.sam"), header);
    w.write(bad);
    w.close();
    bam::BamFileWriter b(tmp.file("d.bam"), header);
    b.write(bad);
    b.close();
  }
  Report from_sam = validate_file(tmp.file("d.sam"));
  Report from_bam = validate_file(tmp.file("d.bam"));
  EXPECT_EQ(from_sam.error_count, from_bam.error_count);
  EXPECT_TRUE(has_rule(from_sam, "CIGAR_SEQ_MISMATCH"));
  EXPECT_TRUE(has_rule(from_bam, "CIGAR_SEQ_MISMATCH"));
}

TEST(ValidateFile, SortOrderCheck) {
  TempDir tmp;
  SamHeader header = v_header();
  AlignmentRecord a = clean_record();
  a.pos = 500;
  AlignmentRecord b = clean_record();
  b.pos = 100;
  {
    bam::BamFileWriter w(tmp.file("d.bam"), header);
    w.write(a);
    w.write(b);
    w.close();
  }
  Options unordered;
  EXPECT_TRUE(validate_file(tmp.file("d.bam"), unordered).ok());
  Options ordered;
  ordered.check_sort_order = true;
  Report report = validate_file(tmp.file("d.bam"), ordered);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_rule(report, "OUT_OF_ORDER"));
}

TEST(ValidateFile, SortOrderAllowsUnmappedOnlyAtTail) {
  // samtools' order puts unplaced reads (ref id -1) after every placed
  // one: a trailing unmapped block is sorted, a placed read after an
  // unmapped one is not.
  TempDir tmp;
  SamHeader header = v_header();
  AlignmentRecord lo = clean_record();
  lo.pos = 100;
  AlignmentRecord hi = clean_record();
  hi.pos = 500;
  AlignmentRecord next_ref = clean_record();
  next_ref.ref_id = 1;
  next_ref.pos = 50;
  next_ref.mate_ref_id = 1;
  AlignmentRecord unmapped;
  unmapped.qname = "unplaced";
  unmapped.flag = sam::kUnmapped;
  unmapped.seq = std::string(50, 'A');
  unmapped.qual = std::string(50, 'I');
  auto sort_report = [&](const std::string& name,
                         const std::vector<AlignmentRecord>& records) {
    const std::string path = tmp.file(name);
    bam::BamFileWriter w(path, header);
    for (const auto& rec : records) {
      w.write(rec);
    }
    w.close();
    Options options;
    options.check_sort_order = true;
    return validate_file(path, options);
  };

  Report tail = sort_report("tail.bam", {lo, hi, next_ref, unmapped, unmapped});
  EXPECT_TRUE(tail.ok()) << (tail.issues.empty() ? "?" : tail.issues[0].rule);
  Report mid = sort_report("mid.bam", {lo, unmapped, hi});
  EXPECT_FALSE(mid.ok());
  ASSERT_TRUE(has_rule(mid, "OUT_OF_ORDER"));
  EXPECT_EQ(mid.issues[0].record_index, 2u);
  EXPECT_TRUE(has_rule(sort_report("refs.bam", {next_ref, lo}),
                       "OUT_OF_ORDER"));
}

TEST(ValidateFile, IssueCapDoesNotStopCounting) {
  TempDir tmp;
  SamHeader header = v_header();
  AlignmentRecord bad = clean_record();
  bad.qname = "has space";
  {
    bam::BamFileWriter w(tmp.file("d.bam"), header);
    for (int i = 0; i < 50; ++i) {
      w.write(bad);
    }
    w.close();
  }
  Options options;
  options.max_recorded_issues = 5;
  Report report = validate_file(tmp.file("d.bam"), options);
  EXPECT_EQ(report.issues.size(), 5u);
  EXPECT_EQ(report.error_count, 50u);
}

}  // namespace
}  // namespace ngsx::validate
