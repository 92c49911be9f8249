// Edge-case suite for the converter framework: degenerate inputs, extreme
// rank/record ratios, header handling, and end-to-end chains through the
// preprocessor and indexes.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "core/convert.h"
#include "formats/bam.h"
#include "formats/validate.h"
#include "simdata/readsim.h"
#include "testutil.h"
#include "util/rng.h"
#include "util/tempdir.h"

namespace ngsx::core {
namespace {

using sam::AlignmentRecord;
using sam::SamHeader;

SamHeader edge_header() {
  return SamHeader::from_references({{"chr1", 100000}});
}

TEST(ConvertEdge, HeaderOnlySamInput) {
  TempDir tmp;
  std::string path = tmp.file("h.sam");
  write_file(path, edge_header().text());
  ConvertOptions options;
  options.format = TargetFormat::kBed;
  options.ranks = 4;
  auto stats = convert_sam(path, tmp.subdir("out"), options);
  EXPECT_EQ(stats.records_in, 0u);
  EXPECT_EQ(stats.records_out, 0u);
  // Part files exist and are empty.
  ASSERT_EQ(stats.outputs.size(), 4u);
  for (const auto& out : stats.outputs) {
    EXPECT_EQ(file_size(out), 0u);
  }
}

TEST(ConvertEdge, SingleRecordManyRanks) {
  TempDir tmp;
  SamHeader header = edge_header();
  AlignmentRecord rec;
  rec.qname = "only";
  rec.ref_id = 0;
  rec.pos = 10;
  rec.cigar = sam::parse_cigar("10M");
  rec.seq = "ACGTACGTAC";
  rec.qual = "IIIIIIIIII";
  std::string path = tmp.file("one.sam");
  {
    sam::SamFileWriter w(path, header);
    w.write(rec);
    w.close();
  }
  ConvertOptions options;
  options.format = TargetFormat::kBed;
  options.ranks = 16;
  auto stats = convert_sam(path, tmp.subdir("out"), options);
  EXPECT_EQ(stats.records_in, 1u);
  EXPECT_EQ(stats.records_out, 1u);
  std::string all;
  for (const auto& out : stats.outputs) {
    all += read_file(out);
  }
  EXPECT_EQ(all, "chr1\t10\t20\tonly\t0\t+\n");
}

TEST(ConvertEdge, EmptyPartsOfSamTargetAreHeaderOnly) {
  // More ranks than records: every rank without a record still publishes
  // its complete, header-only SAM part.
  TempDir tmp;
  SamHeader header = edge_header();
  const std::string path = tmp.file("two.sam");
  write_file(path, header.text() +
                       "a\t0\tchr1\t100\t60\t4M\t*\t0\t0\tACGT\tIIII\n"
                       "b\t0\tchr1\t200\t60\t4M\t*\t0\t0\tACGT\tIIII\n");
  ConvertOptions options;
  options.format = TargetFormat::kSam;
  options.ranks = 8;
  auto stats = convert_sam(path, tmp.subdir("out"), options);
  EXPECT_EQ(stats.records_out, 2u);
  ASSERT_EQ(stats.outputs.size(), 8u);
  const std::string prologue =
      target_prologue(TargetFormat::kSam, header, /*include_header=*/true);
  size_t header_only = 0;
  for (const auto& out : stats.outputs) {
    const std::string text = read_file(out);
    EXPECT_EQ(text.compare(0, prologue.size(), prologue), 0) << out;
    header_only += text.size() == prologue.size() ? 1 : 0;
  }
  EXPECT_EQ(header_only, 6u);
}

TEST(ConvertEdge, UnmappedOnlyDataset) {
  TempDir tmp;
  SamHeader header = edge_header();
  std::string path = tmp.file("u.sam");
  {
    sam::SamFileWriter w(path, header);
    for (int i = 0; i < 40; ++i) {
      AlignmentRecord rec;
      rec.qname = "u" + std::to_string(i);
      rec.flag = sam::kUnmapped;
      rec.seq = "ACGT";
      rec.qual = "IIII";
      w.write(rec);
    }
    w.close();
  }
  ConvertOptions options;
  options.ranks = 3;
  // BED skips everything; FASTQ keeps everything.
  options.format = TargetFormat::kBed;
  auto bed = convert_sam(path, tmp.subdir("bed"), options);
  EXPECT_EQ(bed.records_in, 40u);
  EXPECT_EQ(bed.records_out, 0u);
  options.format = TargetFormat::kFastq;
  auto fastq = convert_sam(path, tmp.subdir("fastq"), options);
  EXPECT_EQ(fastq.records_out, 40u);
}

TEST(ConvertEdge, EmptyBamPreprocessAndConvert) {
  TempDir tmp;
  SamHeader header = edge_header();
  std::string bam_path = tmp.file("e.bam");
  {
    bam::BamFileWriter w(bam_path, header);
    w.close();
  }
  auto pre = preprocess_bam_parallel(bam_path, tmp.file("e.bamxm"),
                                     tmp.file("e.baix"));
  EXPECT_EQ(pre.records, 0u);
  ConvertOptions options;
  options.format = TargetFormat::kJson;
  options.ranks = 4;
  auto stats = convert_bamx(tmp.file("e.bamxm"), tmp.file("e.baix"),
                            tmp.subdir("out"), options);
  EXPECT_EQ(stats.records_in, 0u);
}

TEST(ConvertEdge, PartialRegionWithNoMatches) {
  TempDir tmp;
  auto genome = simdata::ReferenceGenome::simulate(
      {sam::Reference{"chr1", 1'000'000}}, 17);
  simdata::ReadSimConfig cfg;
  cfg.seed = 17;
  std::string bam_path = tmp.file("d.bam");
  simdata::write_bam_dataset(bam_path, genome, 100, cfg);
  testutil::reference_preprocess(bam_path, tmp.file("d.bamx"),
                                 tmp.file("d.baix"));
  ConvertOptions options;
  options.format = TargetFormat::kSam;
  options.include_header = false;
  options.ranks = 2;
  // A region past every alignment: reads cluster in [0, 1M) but the
  // half-open window [999999, 1000000) is all but certainly empty.
  Region region{0, 999999, 1000000};
  auto stats = convert_bamx(tmp.file("d.bamx"), tmp.file("d.baix"),
                            tmp.subdir("out"), options, region);
  EXPECT_EQ(stats.records_in, 0u);
}

TEST(ConvertEdge, MxNWithMoreShardsThanRecordsPerShard) {
  TempDir tmp;
  auto genome = simdata::ReferenceGenome::simulate(
      {sam::Reference{"chr1", 200000}}, 19);
  simdata::ReadSimConfig cfg;
  cfg.seed = 19;
  std::string sam_path = tmp.file("d.sam");
  simdata::write_sam_dataset(sam_path, genome, 10, cfg);  // 20 records
  auto pre = preprocess_sam_parallel(sam_path, tmp.file("d.bamxm"),
                                     tmp.file("d.baix"), 8);
  EXPECT_EQ(pre.records, 20u);
  ConvertOptions options;
  options.format = TargetFormat::kYaml;
  options.ranks = 4;
  auto stats =
      convert_bamx_shards(tmp.file("d.bamxm"), tmp.subdir("out"), options);
  EXPECT_EQ(stats.records_in, 20u);
  EXPECT_EQ(stats.outputs.size(), 8u * 4u);
}

TEST(ConvertEdge, BamPartsAreValidBamFiles) {
  TempDir tmp;
  auto genome = simdata::ReferenceGenome::simulate(
      {sam::Reference{"chr1", 500000}}, 23);
  simdata::ReadSimConfig cfg;
  cfg.seed = 23;
  std::string sam_path = tmp.file("d.sam");
  simdata::write_sam_dataset(sam_path, genome, 100, cfg);
  ConvertOptions options;
  options.format = TargetFormat::kBam;
  options.ranks = 3;
  auto stats = convert_sam(sam_path, tmp.subdir("out"), options);
  uint64_t total = 0;
  for (const auto& part : stats.outputs) {
    bam::BamFileReader reader(part);  // each part independently readable
    EXPECT_EQ(reader.header().references().size(), 1u);
    AlignmentRecord rec;
    while (reader.next(rec)) {
      ++total;
    }
  }
  EXPECT_EQ(total, 200u);
}

TEST(ConvertEdge, SortThenPreprocessThenPartialChain) {
  // The full adoption chain: records sorted upstream -> validated sorted
  // BAM -> preprocess -> partial conversion; counts agree with a direct
  // filter.
  TempDir tmp;
  SamHeader header = edge_header();
  Rng rng(29);
  std::vector<AlignmentRecord> records;
  for (int i = 0; i < 300; ++i) {
    AlignmentRecord rec;
    rec.qname = "r" + std::to_string(i);
    rec.ref_id = 0;
    rec.pos = static_cast<int32_t>(rng.below(90000));
    rec.cigar = sam::parse_cigar("50M");
    rec.seq = std::string(50, 'A');
    records.push_back(rec);
  }
  std::stable_sort(records.begin(), records.end(), testutil::coordinate_less);
  std::string sorted = tmp.file("s.bam");
  {
    bam::BamFileWriter w(sorted, header);
    for (const auto& rec : records) {
      w.write(rec);
    }
    w.close();
  }
  validate::Options sort_check;
  sort_check.check_sort_order = true;
  ASSERT_TRUE(validate::validate_file(sorted, sort_check).ok());
  preprocess_bam_parallel(sorted, tmp.file("s.bamxm"), tmp.file("s.baix"));
  ConvertOptions options;
  options.format = TargetFormat::kBed;
  options.ranks = 4;
  Region region{0, 20000, 60000};
  auto stats = convert_bamx(tmp.file("s.bamxm"), tmp.file("s.baix"),
                            tmp.subdir("out"), options, region);
  uint64_t expect = 0;
  for (const auto& rec : records) {
    expect += rec.pos >= 20000 && rec.pos < 60000 ? 1 : 0;
  }
  EXPECT_EQ(stats.records_in, expect);
}

TEST(ConvertEdge, MissingInputFileThrows) {
  TempDir tmp;
  ConvertOptions options;
  EXPECT_THROW(convert_sam(tmp.file("nope.sam"), tmp.subdir("o"), options),
               Error);
  EXPECT_THROW(preprocess_bam_parallel(tmp.file("nope.bam"),
                                       tmp.file("x.bamxm"), tmp.file("y")),
               Error);
  EXPECT_THROW(preprocess_sam_parallel(tmp.file("nope.sam"),
                                       tmp.file("x.bamxm"), tmp.file("y"), 2),
               Error);
}

TEST(ConvertEdge, InvalidRankCountRejected) {
  TempDir tmp;
  std::string path = tmp.file("h.sam");
  write_file(path, edge_header().text());
  ConvertOptions options;
  options.ranks = 0;
  EXPECT_THROW(convert_sam(path, tmp.subdir("o"), options), Error);
}

/// Records the SamFileReader yields from `path`, or -1 on FormatError.
int64_t sam_reader_outcome(const std::string& path) {
  try {
    sam::SamFileReader reader(path);
    AlignmentRecord rec;
    int64_t n = 0;
    while (reader.next(rec)) {
      ++n;
    }
    return n;
  } catch (const FormatError&) {
    return -1;
  }
}

/// Records convert_sam converts from `path`, or -1 on FormatError.
int64_t convert_sam_outcome(const std::string& path,
                            const std::string& out_dir, int ranks) {
  ConvertOptions options;
  options.format = TargetFormat::kBed;
  options.ranks = ranks;
  try {
    return static_cast<int64_t>(
        convert_sam(path, out_dir, options).records_in);
  } catch (const FormatError&) {
    return -1;
  }
}

TEST(ConvertEdge, SamReadersShareOneBodyLineRule) {
  // Every SAM reader applies sam::is_alignment_line: a whitespace-only
  // body line is skipped, a header line after the first alignment is a
  // FormatError. The parallel converter and the sequential reader must
  // accept and reject exactly the same files.
  TempDir tmp;
  const std::string r1 = "r1\t0\tchr1\t100\t60\t10M\t*\t0\t0\tACGTACGTAC\t"
                         "IIIIIIIIII\n";
  const std::string r2 = "r2\t0\tchr1\t200\t60\t10M\t*\t0\t0\tACGTACGTAC\t"
                         "IIIIIIIIII\n";
  const std::string blank = tmp.file("blank.sam");
  write_file(blank, edge_header().text() + r1 + " \t \r\n" + r2);
  const std::string stray = tmp.file("stray.sam");
  write_file(stray, edge_header().text() + r1 + "@CO\tlate comment\n" + r2);

  EXPECT_EQ(sam_reader_outcome(blank), 2);
  EXPECT_EQ(sam_reader_outcome(stray), -1);
  int run = 0;
  for (int ranks : {1, 2}) {
    for (const std::string& path : {blank, stray}) {
      EXPECT_EQ(convert_sam_outcome(
                    path, tmp.subdir("o" + std::to_string(run++)), ranks),
                sam_reader_outcome(path))
          << path << " ranks=" << ranks;
    }
  }
}

}  // namespace
}  // namespace ngsx::core
