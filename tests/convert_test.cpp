// End-to-end tests for the three converter instances (§III): output
// equivalence across rank counts and formats, preprocessing fidelity, and
// partial conversion.

#include <gtest/gtest.h>

#include <filesystem>

#include "core/convert.h"
#include "formats/bam.h"
#include "simdata/readsim.h"
#include "testutil.h"
#include "util/tempdir.h"

namespace ngsx::core {
namespace {

namespace fs = std::filesystem;
using sam::AlignmentRecord;

struct Dataset {
  TempDir tmp;
  simdata::ReferenceGenome genome;
  std::vector<AlignmentRecord> records;
  std::string sam_path;
  std::string bam_path;

  explicit Dataset(uint64_t pairs = 300, uint64_t seed = 33)
      : genome(simdata::ReferenceGenome::simulate(
            simdata::mouse_like_references(400000), seed)) {
    simdata::ReadSimConfig cfg;
    cfg.seed = seed;
    records = simdata::simulate_alignments(genome, pairs, cfg);
    sam_path = tmp.file("in.sam");
    bam_path = tmp.file("in.bam");
    {
      sam::SamFileWriter w(sam_path, genome.header());
      for (const auto& r : records) {
        w.write(r);
      }
      w.close();
    }
    {
      bam::BamFileWriter w(bam_path, genome.header());
      for (const auto& r : records) {
        w.write(r);
      }
      w.close();
    }
  }
};

/// Concatenates the part files of a conversion in rank order.
std::string concat_outputs(const ConvertStats& stats) {
  std::string all;
  for (const auto& path : stats.outputs) {
    all += read_file(path);
  }
  return all;
}

/// The expected text for converting `records` sequentially with `format`.
std::string expected_text(const Dataset& d, TargetFormat format) {
  TempDir tmp;
  std::string path = tmp.file("expected");
  auto writer = make_target_writer(format, path, d.genome.header(),
                                   /*include_header=*/false);
  for (const auto& rec : d.records) {
    writer->write(rec);
  }
  writer->close();
  return read_file(path);
}

// ----------------------------------------------------------------- regions

TEST(Region, ParseFullChromosome) {
  Dataset d(10);
  Region r = parse_region("chr2", d.genome.header());
  EXPECT_EQ(r.ref_id, 1);
  EXPECT_EQ(r.begin, 0);
  EXPECT_EQ(r.end, d.genome.header().ref_length(1));
}

TEST(Region, ParseRange) {
  Dataset d(10);
  Region r = parse_region("chr1:1001-2000", d.genome.header());
  EXPECT_EQ(r.ref_id, 0);
  EXPECT_EQ(r.begin, 1000);  // 1-based inclusive -> 0-based half-open
  EXPECT_EQ(r.end, 2000);
}

TEST(Region, ParseErrors) {
  Dataset d(10);
  EXPECT_THROW(parse_region("chrNope", d.genome.header()), UsageError);
  EXPECT_THROW(parse_region("chr1:5-2", d.genome.header()), UsageError);
  EXPECT_THROW(parse_region("chr1:0-10", d.genome.header()), UsageError);
}

// ------------------------------------------------------------ SAM converter

class SamConvertRanks : public ::testing::TestWithParam<int> {};

TEST_P(SamConvertRanks, BedOutputMatchesSequentialAcrossRanks) {
  Dataset d;
  ConvertOptions options;
  options.format = TargetFormat::kBed;
  options.ranks = GetParam();
  auto stats = convert_sam(d.sam_path, d.tmp.subdir("out"), options);
  EXPECT_EQ(stats.records_in, d.records.size());
  EXPECT_EQ(stats.outputs.size(), static_cast<size_t>(GetParam()));
  EXPECT_EQ(concat_outputs(stats), expected_text(d, TargetFormat::kBed));
}

INSTANTIATE_TEST_SUITE_P(RankSweep, SamConvertRanks,
                         ::testing::Values(1, 2, 4, 7, 16));

TEST(SamConverter, AllTextFormats) {
  Dataset d(150);
  for (TargetFormat format :
       {TargetFormat::kBed, TargetFormat::kBedgraph, TargetFormat::kFasta,
        TargetFormat::kFastq, TargetFormat::kJson, TargetFormat::kYaml}) {
    ConvertOptions options;
    options.format = format;
    options.ranks = 3;
    auto stats = convert_sam(
        d.tmp.path() + "/in.sam",
        d.tmp.subdir("out-" + std::string(target_format_name(format))),
        options);
    EXPECT_EQ(concat_outputs(stats), expected_text(d, format))
        << target_format_name(format);
  }
}

TEST(SamConverter, SamToSamPreservesRecords) {
  Dataset d(100);
  ConvertOptions options;
  options.format = TargetFormat::kSam;
  options.ranks = 4;
  options.include_header = false;
  auto stats = convert_sam(d.sam_path, d.tmp.subdir("sam-out"), options);
  std::string body = concat_outputs(stats);
  // Re-parse every line and compare to the source records.
  std::vector<AlignmentRecord> parsed;
  size_t pos = 0;
  AlignmentRecord rec;
  while (pos < body.size()) {
    size_t nl = body.find('\n', pos);
    sam::parse_record(std::string_view(body).substr(pos, nl - pos),
                      d.genome.header(), rec);
    parsed.push_back(rec);
    pos = nl + 1;
  }
  EXPECT_EQ(parsed, d.records);
}

TEST(SamConverter, SamToBamRoundTrip) {
  Dataset d(80);
  ConvertOptions options;
  options.format = TargetFormat::kBam;
  options.ranks = 2;
  auto stats = convert_sam(d.sam_path, d.tmp.subdir("bam-out"), options);
  std::vector<AlignmentRecord> all;
  for (const auto& path : stats.outputs) {
    bam::BamFileReader reader(path);
    AlignmentRecord rec;
    while (reader.next(rec)) {
      all.push_back(rec);
    }
  }
  EXPECT_EQ(all, d.records);
}

TEST(SamConverter, RecordCountsTracked) {
  Dataset d(120);
  ConvertOptions options;
  options.format = TargetFormat::kBed;
  options.ranks = 5;
  auto stats = convert_sam(d.sam_path, d.tmp.subdir("out"), options);
  uint64_t mapped = 0;
  for (const auto& rec : d.records) {
    mapped += !rec.is_unmapped() && rec.ref_id >= 0 ? 1 : 0;
  }
  EXPECT_EQ(stats.records_in, d.records.size());
  EXPECT_EQ(stats.records_out, mapped);  // BED skips unmapped
  EXPECT_GT(stats.bytes_in, 0u);
  EXPECT_GT(stats.bytes_out, 0u);
}

// ------------------------------------------------------------ BAM converter

TEST(BamConverter, PreprocessProducesFaithfulBamx) {
  Dataset d(200);
  std::string manifest = d.tmp.file("p.bamxm");
  std::string baix = d.tmp.file("p.baix");
  auto stats = preprocess_bam_parallel(d.bam_path, manifest, baix);
  EXPECT_EQ(stats.records, d.records.size());
  bamx::RecordSource reader(manifest);
  ASSERT_EQ(reader.num_records(), d.records.size());
  EXPECT_EQ(testutil::read_records(reader, 0, reader.num_records()),
            d.records);
  // BAIX covers every record.
  EXPECT_EQ(bamx::BaixReader(baix).size(), d.records.size());
}

class BamConvertRanks : public ::testing::TestWithParam<int> {};

TEST_P(BamConvertRanks, FullConversionMatchesSequential) {
  Dataset d;
  std::string bamx = d.tmp.file("p.bamx");
  std::string baix = d.tmp.file("p.baix");
  testutil::reference_preprocess(d.bam_path, bamx, baix);
  ConvertOptions options;
  options.format = TargetFormat::kBedgraph;
  options.ranks = GetParam();
  auto stats = convert_bamx(bamx, baix, d.tmp.subdir("out"), options);
  EXPECT_EQ(stats.records_in, d.records.size());
  EXPECT_EQ(concat_outputs(stats), expected_text(d, TargetFormat::kBedgraph));
}

INSTANTIATE_TEST_SUITE_P(RankSweep, BamConvertRanks,
                         ::testing::Values(1, 2, 3, 8, 13));

TEST(BamConverter, BamTargetAcrossFetchBatches) {
  // 4400 records: a single rank's share spans more than one of the
  // session's 4096-record bulk fetches. The BAM parts decode back to the
  // input records in order.
  Dataset d(2200);
  std::string bamx = d.tmp.file("p.bamx");
  std::string baix = d.tmp.file("p.baix");
  testutil::reference_preprocess(d.bam_path, bamx, baix);
  for (int ranks : {1, 3}) {
    ConvertOptions options;
    options.format = TargetFormat::kBam;
    options.ranks = ranks;
    auto stats = convert_bamx(
        bamx, baix, d.tmp.subdir("bam-" + std::to_string(ranks)), options);
    std::vector<AlignmentRecord> all;
    for (const auto& path : stats.outputs) {
      bam::BamFileReader reader(path);
      AlignmentRecord rec;
      while (reader.next(rec)) {
        all.push_back(rec);
      }
    }
    EXPECT_EQ(all, d.records) << "ranks=" << ranks;
  }
}

TEST(BamConverter, PartialConversionSelectsRegion) {
  Dataset d(400);
  std::string bamx = d.tmp.file("p.bamx");
  std::string baix = d.tmp.file("p.baix");
  testutil::reference_preprocess(d.bam_path, bamx, baix);

  Region region = parse_region("chr1:1-50000", d.genome.header());
  ConvertOptions options;
  options.format = TargetFormat::kBed;
  options.ranks = 4;
  auto stats =
      convert_bamx(bamx, baix, d.tmp.subdir("part"), options, region);

  uint64_t expected = 0;
  for (const auto& rec : d.records) {
    if (rec.ref_id == region.ref_id && rec.pos >= region.begin &&
        rec.pos < region.end) {
      ++expected;
    }
  }
  EXPECT_EQ(stats.records_in, expected);
  EXPECT_GT(expected, 0u);

  // Every emitted BED row is inside the region (starts within).
  std::string body = concat_outputs(stats);
  size_t pos = 0;
  while (pos < body.size()) {
    size_t nl = body.find('\n', pos);
    std::string_view line(body.data() + pos, nl - pos);
    EXPECT_EQ(line.substr(0, 5), "chr1\t");
    pos = nl + 1;
  }
}

TEST(BamConverter, PartialSizesProportional) {
  // The Fig 8 property: converting x% of the data touches ~x% of records.
  Dataset d(500);
  std::string bamx = d.tmp.file("p.bamx");
  std::string baix = d.tmp.file("p.baix");
  testutil::reference_preprocess(d.bam_path, bamx, baix);
  int32_t chr1_len =
      static_cast<int32_t>(d.genome.header().ref_length(0));
  ConvertOptions options;
  options.format = TargetFormat::kBed;
  options.ranks = 2;
  uint64_t prev = 0;
  for (int pct : {20, 40, 60, 80, 100}) {
    Region region{0, 0, static_cast<int32_t>(
                            static_cast<int64_t>(chr1_len) * pct / 100)};
    auto stats = convert_bamx(
        bamx, baix, d.tmp.subdir("p" + std::to_string(pct)), options, region);
    EXPECT_GE(stats.records_in, prev);
    prev = stats.records_in;
  }
}

TEST(BamConverter, PartialWithoutBaixRejected) {
  Dataset d(50);
  std::string bamx = d.tmp.file("p.bamx");
  std::string baix = d.tmp.file("p.baix");
  testutil::reference_preprocess(d.bam_path, bamx, baix);
  ConvertOptions options;
  options.ranks = 2;
  EXPECT_THROW(convert_bamx(bamx, "", d.tmp.subdir("x"), options,
                            Region{0, 0, 1000}),
               Error);
}

TEST(BamConverter, SequentialStreamMatches) {
  Dataset d(150);
  std::string out = d.tmp.file("seq.fastq");
  auto stats =
      convert_bam_sequential(d.bam_path, out, TargetFormat::kFastq);
  EXPECT_EQ(stats.records_in, d.records.size());
  EXPECT_EQ(read_file(out), expected_text(d, TargetFormat::kFastq));
}

// ------------------------------- preprocessing-optimized SAM converter

class PreprocSamRanks : public ::testing::TestWithParam<int> {};

TEST_P(PreprocSamRanks, ShardsContainAllRecords) {
  Dataset d;
  const int m = GetParam();
  const std::string manifest = d.tmp.file("s.bamxm");
  auto stats =
      preprocess_sam_parallel(d.sam_path, manifest, d.tmp.file("s.baix"), m);
  EXPECT_EQ(stats.records, d.records.size());
  // M shards whose records, in manifest order, reproduce the input.
  bamx::RecordSource reader(manifest);
  EXPECT_EQ(reader.num_shards(), static_cast<size_t>(m));
  EXPECT_EQ(testutil::read_records(reader, 0, reader.num_records()),
            d.records);
}

INSTANTIATE_TEST_SUITE_P(RankSweep, PreprocSamRanks,
                         ::testing::Values(1, 2, 4, 9));

TEST(PreprocSamConverter, MxNConversionMatchesSequential) {
  Dataset d(250);
  const int m = 3;
  const std::string manifest = d.tmp.file("s.bamxm");
  preprocess_sam_parallel(d.sam_path, manifest, d.tmp.file("s.baix"), m);
  ConvertOptions options;
  options.format = TargetFormat::kFasta;
  options.ranks = 4;  // N
  auto stats = convert_bamx_shards(manifest, d.tmp.subdir("conv"), options);
  // M x N part files.
  EXPECT_EQ(stats.outputs.size(), static_cast<size_t>(m * 4));
  EXPECT_EQ(concat_outputs(stats), expected_text(d, TargetFormat::kFasta));
}

TEST(PreprocSamConverter, ShardBaixSupportsPartial) {
  Dataset d(300);
  const std::string manifest = d.tmp.file("s.bamxm");
  const std::string baix = d.tmp.file("s.baix");
  preprocess_sam_parallel(d.sam_path, manifest, baix, 2);
  // One merged BAIX indexes the records of every shard...
  EXPECT_EQ(bamx::BaixReader(baix).size(), d.records.size());
  // ...and drives partial conversion over the manifest.
  Region region = parse_region("chr1:1-100000", d.genome.header());
  ConvertOptions options;
  options.format = TargetFormat::kBed;
  options.ranks = 3;
  auto stats =
      convert_bamx(manifest, baix, d.tmp.subdir("part"), options, region);
  uint64_t expected = 0;
  for (const auto& rec : d.records) {
    if (rec.ref_id == region.ref_id && rec.pos >= region.begin &&
        rec.pos < region.end) {
      ++expected;
    }
  }
  EXPECT_GT(expected, 0u);
  EXPECT_EQ(stats.records_in, expected);
}

TEST(PreprocSamConverter, SamAndBamFrontEndsAgree) {
  // One pipeline, two front-ends: preprocessing the same records from SAM
  // and from BAM yields the same layout, shard records and BAIX bytes.
  Dataset d(200);
  const std::string sam_manifest = d.tmp.file("sam.bamxm");
  const std::string bam_manifest = d.tmp.file("bam.bamxm");
  preprocess_sam_parallel(d.sam_path, sam_manifest, d.tmp.file("sam.baix"),
                          3);
  PreprocessOptions opt;
  opt.threads = 3;
  opt.shards = 3;
  preprocess_bam_parallel(d.bam_path, bam_manifest, d.tmp.file("bam.baix"),
                          opt);
  EXPECT_EQ(read_file(d.tmp.file("sam.baix")),
            read_file(d.tmp.file("bam.baix")));
  bamx::RecordSource from_sam(sam_manifest);
  bamx::RecordSource from_bam(bam_manifest);
  EXPECT_EQ(from_sam.layout(), from_bam.layout());
  std::string sam_bytes, bam_bytes;
  from_sam.read_raw_range(0, from_sam.num_records(), sam_bytes);
  from_bam.read_raw_range(0, from_bam.num_records(), bam_bytes);
  EXPECT_EQ(sam_bytes, bam_bytes);
}

// ------------------------------------------------------------ target layer

TEST(TargetFormat, ParseNames) {
  EXPECT_EQ(parse_target_format("BED"), TargetFormat::kBed);
  EXPECT_EQ(parse_target_format("bedgraph"), TargetFormat::kBedgraph);
  EXPECT_EQ(parse_target_format("fq"), TargetFormat::kFastq);
  EXPECT_EQ(parse_target_format("yml"), TargetFormat::kYaml);
  EXPECT_THROW(parse_target_format("xml"), UsageError);
}

TEST(TargetFormat, NamesAndExtensionsConsistent) {
  for (TargetFormat f :
       {TargetFormat::kSam, TargetFormat::kBam, TargetFormat::kBed,
        TargetFormat::kBedgraph, TargetFormat::kFasta, TargetFormat::kFastq,
        TargetFormat::kJson, TargetFormat::kYaml}) {
    EXPECT_EQ(parse_target_format(target_format_name(f)), f);
    EXPECT_EQ(target_extension(f)[0], '.');
  }
}

TEST(TargetWriter, SamHeaderToggle) {
  Dataset d(5);
  std::string with = d.tmp.file("with.sam");
  std::string without = d.tmp.file("without.sam");
  {
    auto w = make_target_writer(TargetFormat::kSam, with, d.genome.header(),
                                true);
    w->write(d.records[0]);
    w->close();
  }
  {
    auto w = make_target_writer(TargetFormat::kSam, without,
                                d.genome.header(), false);
    w->write(d.records[0]);
    w->close();
  }
  EXPECT_EQ(read_file(with),
            d.genome.header().text() + read_file(without));
}

}  // namespace
}  // namespace ngsx::core
