// Static vs dynamic scheduling equivalence: ConvertOptions::schedule
// switches how chunks are distributed over workers, but the N part files
// must stay byte-identical — the dynamic path reuses the static partition
// boundaries and commits parsed chunks in order, so even stateful writers
// (BAM/BGZF) produce the exact same bytes.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/convert.h"
#include "formats/bam.h"
#include "simdata/readsim.h"
#include "testutil.h"
#include "util/tempdir.h"

namespace ngsx::core {
namespace {

using sam::AlignmentRecord;

struct Dataset {
  TempDir tmp;
  simdata::ReferenceGenome genome;
  std::vector<AlignmentRecord> records;
  std::string sam_path;
  std::string bam_path;

  explicit Dataset(uint64_t pairs = 300, uint64_t seed = 77)
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

/// Runs both schedules with otherwise identical options and asserts every
/// part file matches byte-for-byte (same names, same contents).
template <typename RunFn>
void expect_schedules_identical(Dataset& d, ConvertOptions options,
                                const std::string& tag, RunFn run) {
  options.schedule = Schedule::kStatic;
  ConvertStats st = run(options, d.tmp.subdir(tag + "-static"));
  options.schedule = Schedule::kDynamic;
  ConvertStats dy = run(options, d.tmp.subdir(tag + "-dynamic"));

  ASSERT_EQ(st.outputs.size(), dy.outputs.size()) << tag;
  for (size_t i = 0; i < st.outputs.size(); ++i) {
    EXPECT_EQ(read_file(st.outputs[i]), read_file(dy.outputs[i]))
        << tag << " part " << i;
  }
  EXPECT_EQ(st.records_in, dy.records_in) << tag;
  EXPECT_EQ(st.records_out, dy.records_out) << tag;
  EXPECT_EQ(st.bytes_out, dy.bytes_out) << tag;
}

TEST(Schedule, ParseAndName) {
  EXPECT_EQ(parse_schedule("static"), Schedule::kStatic);
  EXPECT_EQ(parse_schedule("dynamic"), Schedule::kDynamic);
  EXPECT_THROW(parse_schedule("adaptive"), UsageError);
  EXPECT_EQ(schedule_name(Schedule::kStatic), "static");
  EXPECT_EQ(schedule_name(Schedule::kDynamic), "dynamic");
}

TEST(SamSchedule, PartFilesByteIdenticalAcrossFormats) {
  Dataset d(250);
  for (TargetFormat format : {TargetFormat::kBed, TargetFormat::kSam,
                              TargetFormat::kFastq, TargetFormat::kBam}) {
    ConvertOptions options;
    options.format = format;
    options.ranks = 3;
    options.chunk_bytes = 2048;  // many chunks per part
    expect_schedules_identical(
        d, options, std::string("sam-") + std::string(target_format_name(format)),
        [&](const ConvertOptions& o, const std::string& out) {
          return convert_sam(d.sam_path, out, o);
        });
  }
}

TEST(SamSchedule, RankSweepAndThreadOverride) {
  Dataset d(200);
  for (int ranks : {1, 2, 5}) {
    ConvertOptions options;
    options.format = TargetFormat::kBed;
    options.ranks = ranks;
    options.threads = 4;  // pool width decoupled from part count
    options.chunk_bytes = 1024;
    expect_schedules_identical(
        d, options, "ranks" + std::to_string(ranks),
        [&](const ConvertOptions& o, const std::string& out) {
          return convert_sam(d.sam_path, out, o);
        });
  }
}

TEST(SamSchedule, TinyChunksStillIdentical) {
  // chunk_bytes=1 degenerates to one chunk per line-break boundary — the
  // most adversarial commit interleaving the scheduler can produce.
  Dataset d(60);
  ConvertOptions options;
  options.format = TargetFormat::kBedgraph;
  options.ranks = 2;
  options.chunk_bytes = 1;
  expect_schedules_identical(
      d, options, "tiny",
      [&](const ConvertOptions& o, const std::string& out) {
        return convert_sam(d.sam_path, out, o);
      });
}

TEST(BamxSchedule, FullConversionByteIdentical) {
  Dataset d(300);
  std::string bamx = d.tmp.file("p.bamx");
  std::string baix = d.tmp.file("p.baix");
  testutil::reference_preprocess(d.bam_path, bamx, baix);
  for (TargetFormat format : {TargetFormat::kBedgraph, TargetFormat::kBam}) {
    ConvertOptions options;
    options.format = format;
    options.ranks = 4;
    options.record_batch = 16;  // small batches -> many dynamic chunks
    expect_schedules_identical(
        d, options,
        std::string("bamx-") + std::string(target_format_name(format)),
        [&](const ConvertOptions& o, const std::string& out) {
          return convert_bamx(bamx, baix, out, o);
        });
  }
}

TEST(BamxSchedule, RegionConversionByteIdentical) {
  Dataset d(400);
  std::string bamx = d.tmp.file("p.bamx");
  std::string baix = d.tmp.file("p.baix");
  testutil::reference_preprocess(d.bam_path, bamx, baix);
  Region region = parse_region("chr1:1-50000", d.genome.header());
  ConvertOptions options;
  options.format = TargetFormat::kBed;
  options.ranks = 3;
  options.record_batch = 8;
  expect_schedules_identical(
      d, options, "region",
      [&](const ConvertOptions& o, const std::string& out) {
        return convert_bamx(bamx, baix, out, o, region);
      });
}

TEST(BamxSchedule, FilteredConversionByteIdentical) {
  Dataset d(400);
  std::string bamx = d.tmp.file("p.bamx");
  std::string baix2 = d.tmp.file("p.baix2");
  testutil::reference_preprocess(d.bam_path, bamx, d.tmp.file("p.baix"));
  build_baix2(bamx, baix2);
  Region region = parse_region("chr1", d.genome.header());
  baix2::Filter filter;
  filter.min_mapq = 20;
  ConvertOptions options;
  options.format = TargetFormat::kBed;
  options.ranks = 2;
  options.record_batch = 8;
  expect_schedules_identical(
      d, options, "filtered",
      [&](const ConvertOptions& o, const std::string& out) {
        return convert_bamx_filtered(bamx, baix2, out, o, region,
                                     baix2::RegionMode::kOverlap, filter);
      });
}

TEST(SamSchedule, DynamicHandlesMoreRanksThanRecords) {
  // More parts than alignment lines: some chunks/parts are empty; the
  // dynamic path must still emit every (possibly header-only) part file.
  Dataset d(2);
  ConvertOptions options;
  options.format = TargetFormat::kSam;
  options.ranks = 8;
  options.chunk_bytes = 64;
  expect_schedules_identical(
      d, options, "sparse",
      [&](const ConvertOptions& o, const std::string& out) {
        return convert_sam(d.sam_path, out, o);
      });
}

}  // namespace
}  // namespace ngsx::core
