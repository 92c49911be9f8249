// Tests for the external-merge sorter (core/sort.h), driven directly under
// a coordinate order defined here: in-memory vs spill paths, stability for
// equal keys, run-file naming under concurrency, and empty input.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <thread>

#include "core/sort.h"
#include "formats/bam.h"
#include "formats/sam.h"
#include "formats/validate.h"
#include "testutil.h"
#include "util/tempdir.h"

namespace ngsx::core {
namespace {

namespace fs = std::filesystem;
using sam::AlignmentRecord;
using sam::SamHeader;

SamHeader sort_header() {
  return SamHeader::from_references({{"chr1", 500000}, {"chr2", 300000}});
}

/// Shuffled records, including unmapped ones.
std::vector<AlignmentRecord> shuffled_records(size_t n, uint64_t seed) {
  SamHeader header = sort_header();
  Rng rng(seed);
  std::vector<AlignmentRecord> records;
  for (size_t i = 0; i < n; ++i) {
    AlignmentRecord rec = testutil::random_record(rng, header);
    rec.qname = "q" + std::to_string(i);  // unique, for stability checks
    records.push_back(rec);
  }
  return records;
}

/// The sorter's whole contract in one oracle: a stable sort.
std::vector<AlignmentRecord> stable_sorted(std::vector<AlignmentRecord> v) {
  std::stable_sort(v.begin(), v.end(), testutil::coordinate_less);
  return v;
}

/// Pushes `input` through an ExternalSorter named after `target` and
/// returns the drained records.
std::vector<AlignmentRecord> external_sort(
    const std::vector<AlignmentRecord>& input, const std::string& target,
    const SortOptions& options = {}, bool* spilled = nullptr) {
  ExternalSorter sorter(sort_header(), target, testutil::coordinate_less,
                        options);
  for (const auto& rec : input) {
    sorter.push(rec);
  }
  std::vector<AlignmentRecord> out;
  sorter.drain([&](AlignmentRecord&& rec) { out.push_back(std::move(rec)); });
  EXPECT_EQ(sorter.total(), input.size());
  if (spilled != nullptr) {
    *spilled = sorter.spilled();
  }
  return out;
}

int run_files_under(const std::string& dir) {
  int n = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().string().find(".tmp.bam") != std::string::npos) {
      ++n;
    }
  }
  return n;
}

TEST(Sort, InMemoryPath) {
  TempDir tmp;
  auto records = shuffled_records(500, 1);
  bool spilled = true;
  auto out = external_sort(records, tmp.file("out.bam"), {}, &spilled);
  EXPECT_FALSE(spilled);
  EXPECT_EQ(out, stable_sorted(records));
}

TEST(Sort, ExternalMergePath) {
  TempDir tmp;
  auto records = shuffled_records(1000, 2);
  SortOptions options;
  options.max_records_in_memory = 64;  // 32-record buffers: ~32 runs
  ExternalSorter sorter(sort_header(), tmp.file("out.bam"),
                        testutil::coordinate_less, options);
  for (const auto& rec : records) {
    sorter.push(rec);
  }
  EXPECT_GT(run_files_under(tmp.path()), 0);  // runs exist mid-sort
  std::vector<AlignmentRecord> out;
  sorter.drain([&](AlignmentRecord&& rec) { out.push_back(std::move(rec)); });
  EXPECT_TRUE(sorter.spilled());
  EXPECT_GE(sorter.runs(), 30u);
  EXPECT_EQ(sorter.spilled_records(), records.size());
  EXPECT_GT(sorter.spilled_bytes(), 0u);
  EXPECT_EQ(out, stable_sorted(records));
  EXPECT_EQ(run_files_under(tmp.path()), 0);  // drain removed every run
}

TEST(Sort, ExternalMatchesInMemory) {
  TempDir tmp;
  auto records = shuffled_records(800, 3);
  SortOptions tiny;
  tiny.max_records_in_memory = 10;
  bool spilled = false;
  auto ext = external_sort(records, tmp.file("ext.bam"), tiny, &spilled);
  EXPECT_TRUE(spilled);
  EXPECT_EQ(ext, external_sort(records, tmp.file("mem.bam")));
}

TEST(Sort, StableForEqualCoordinates) {
  TempDir tmp;
  // Many records at the same coordinate: input order must be preserved
  // across runs, whatever the run boundaries.
  std::vector<AlignmentRecord> records;
  for (int i = 0; i < 200; ++i) {
    AlignmentRecord rec;
    rec.qname = "dup" + std::to_string(i);
    rec.ref_id = 0;
    rec.pos = 1000;
    rec.cigar = sam::parse_cigar("50M");
    rec.seq = std::string(50, 'A');
    records.push_back(rec);
  }
  SortOptions tiny;
  tiny.max_records_in_memory = 16;
  auto out = external_sort(records, tmp.file("out.bam"), tiny);
  ASSERT_EQ(out.size(), records.size());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].qname, "dup" + std::to_string(i));
  }
}

TEST(Sort, ConcurrentSortsSharingTempDir) {
  // Regression: run paths used to be deterministic per target, so two
  // spilling sorts sharing a temp directory could clobber each other's
  // runs. Paths now embed pid + a process-wide token.
  TempDir tmp;
  const std::string shared = tmp.file("spill");
  fs::create_directories(shared);
  auto records_a = shuffled_records(600, 21);
  auto records_b = shuffled_records(600, 22);
  SortOptions options;
  options.max_records_in_memory = 32;  // both sorts spill many runs
  options.temp_dir = shared;
  std::vector<AlignmentRecord> out_a;
  std::vector<AlignmentRecord> out_b;
  std::thread ta(
      [&] { out_a = external_sort(records_a, tmp.file("a.bam"), options); });
  std::thread tb(
      [&] { out_b = external_sort(records_b, tmp.file("b.bam"), options); });
  ta.join();
  tb.join();
  EXPECT_EQ(out_a, stable_sorted(records_a));
  EXPECT_EQ(out_b, stable_sorted(records_b));
  EXPECT_TRUE(fs::is_empty(shared));  // every run cleaned up
}

TEST(Sort, RepeatedSortsSameTargetDoNotCollide) {
  // Same target path, same temp dir, same pid: the monotonic run token
  // keeps every sorter's runs distinct — also while two are alive at once
  // and spilling in interleaved order.
  TempDir tmp;
  auto records = shuffled_records(300, 23);
  auto reversed = records;
  std::reverse(reversed.begin(), reversed.end());
  SortOptions options;
  options.max_records_in_memory = 32;
  options.temp_dir = tmp.path();
  const std::string target = tmp.file("out.bam");
  EXPECT_EQ(external_sort(records, target, options), stable_sorted(records));
  {
    ExternalSorter first(sort_header(), target, testutil::coordinate_less,
                         options);
    ExternalSorter second(sort_header(), target, testutil::coordinate_less,
                          options);
    for (size_t i = 0; i < records.size(); ++i) {
      first.push(records[i]);
      second.push(reversed[i]);
    }
    std::vector<AlignmentRecord> out_first;
    std::vector<AlignmentRecord> out_second;
    first.drain(
        [&](AlignmentRecord&& rec) { out_first.push_back(std::move(rec)); });
    second.drain(
        [&](AlignmentRecord&& rec) { out_second.push_back(std::move(rec)); });
    EXPECT_TRUE(first.spilled());
    EXPECT_TRUE(second.spilled());
    EXPECT_EQ(out_first, stable_sorted(records));
    EXPECT_EQ(out_second, stable_sorted(reversed));
  }
  EXPECT_EQ(run_files_under(tmp.path()), 0);
}

TEST(Sort, SamInputAccepted) {
  // AlignmentInput (the collation front end) feeds the sorter the same
  // records from SAM as from BAM.
  TempDir tmp;
  auto records = shuffled_records(300, 4);
  {
    sam::SamFileWriter w(tmp.file("in.sam"), sort_header());
    bam::BamFileWriter b(tmp.file("in.bam"), sort_header());
    for (const auto& rec : records) {
      w.write(rec);
      b.write(rec);
    }
    w.close();
    b.close();
  }
  auto sort_file = [&](const std::string& path) {
    AlignmentInput input(path);
    std::vector<AlignmentRecord> read;
    AlignmentRecord rec;
    while (input.next(rec)) {
      read.push_back(rec);
    }
    SortOptions options;
    options.max_records_in_memory = 64;
    return external_sort(read, tmp.file("out.bam"), options);
  };
  auto from_sam = sort_file(tmp.file("in.sam"));
  EXPECT_EQ(from_sam.size(), records.size());
  EXPECT_EQ(from_sam, sort_file(tmp.file("in.bam")));
}

TEST(Sort, EmptyInput) {
  TempDir tmp;
  bool spilled = true;
  EXPECT_TRUE(external_sort({}, tmp.file("out.bam"), {}, &spilled).empty());
  EXPECT_FALSE(spilled);
  ExternalSorter sorter(sort_header(), tmp.file("out.bam"),
                        testutil::coordinate_less, {});
  sorter.flush_run();  // no-op on an empty buffer
  EXPECT_FALSE(sorter.spilled());
  size_t emitted = 0;
  sorter.drain([&](AlignmentRecord&&) { ++emitted; });
  EXPECT_EQ(emitted, 0u);
}

TEST(Sort, SortedOutputPassesSortOrderCheck) {
  // End-to-end: unsorted records -> spilling sort -> BAM that passes the
  // validator's sort-order check, while the unsorted BAM fails it.
  TempDir tmp;
  auto records = shuffled_records(400, 5);
  auto write = [&](const std::string& path,
                   const std::vector<AlignmentRecord>& v) {
    bam::BamFileWriter w(path, sort_header());
    for (const auto& rec : v) {
      w.write(rec);
    }
    w.close();
  };
  SortOptions options;
  options.max_records_in_memory = 64;
  write(tmp.file("in.bam"), records);
  write(tmp.file("out.bam"), external_sort(records, tmp.file("out.bam"),
                                           options));
  // The random records break other rules too: record every issue so the
  // check looks at OUT_OF_ORDER alone.
  validate::Options sort_check;
  sort_check.check_sort_order = true;
  sort_check.max_recorded_issues = 1 << 20;
  auto out_of_order = [&](const std::string& path) {
    validate::Report report = validate::validate_file(path, sort_check);
    EXPECT_EQ(report.records_checked, records.size());
    return std::any_of(
        report.issues.begin(), report.issues.end(),
        [](const validate::Issue& i) { return i.rule == "OUT_OF_ORDER"; });
  };
  EXPECT_TRUE(out_of_order(tmp.file("in.bam")));
  EXPECT_FALSE(out_of_order(tmp.file("out.bam")));
}

}  // namespace
}  // namespace ngsx::core
