// Tests for the BAIX v2 index: overlap queries against a brute-force
// oracle, filters, serialization, and the extended partial conversion
// built on top of it.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/convert.h"
#include "formats/baix2.h"
#include "simdata/readsim.h"
#include "testutil.h"
#include "util/tempdir.h"

namespace ngsx::baix2 {
namespace {

using sam::AlignmentRecord;

struct Fixture {
  TempDir tmp;
  simdata::ReferenceGenome genome;
  std::vector<AlignmentRecord> records;
  std::string bamx_path;
  std::string baix2_path;
  Baix2Index index;

  explicit Fixture(uint64_t pairs = 400, uint64_t seed = 61)
      : genome(simdata::ReferenceGenome::simulate(
            simdata::mouse_like_references(500000), seed)) {
    simdata::ReadSimConfig cfg;
    cfg.seed = seed;
    records = simdata::simulate_alignments(genome, pairs, cfg);
    bamx::BamxLayout layout;
    for (const auto& r : records) {
      layout.accommodate(r);
    }
    bamx_path = tmp.file("d.bamx");
    baix2_path = tmp.file("d.baix2");
    bamx::BamxWriter w(bamx_path, genome.header(), layout);
    for (const auto& r : records) {
      w.write(r);
    }
    w.close();
    core::build_baix2(bamx_path, baix2_path);
    index = Baix2Index::load(baix2_path);
  }

  /// Brute-force oracle.
  std::vector<uint64_t> oracle(int32_t ref, int32_t beg, int32_t end,
                               RegionMode mode, const Filter& f) const {
    std::vector<uint64_t> out;
    for (size_t i = 0; i < records.size(); ++i) {
      const AlignmentRecord& rec = records[i];
      Entry e{rec.ref_id, rec.pos,
              rec.pos >= 0 ? rec.end_pos() : -1, rec.flag, rec.mapq, i};
      if (rec.ref_id != ref) {
        continue;
      }
      bool in_region = mode == RegionMode::kStartWithin
                           ? rec.pos >= beg && rec.pos < end
                           : rec.pos < end && e.end > beg;
      if (in_region && f.matches(e)) {
        out.push_back(i);
      }
    }
    return out;
  }
};

TEST(Baix2, BuildIndexesEveryRecord) {
  Fixture f;
  EXPECT_EQ(f.index.size(), f.records.size());
}

TEST(Baix2, StartWithinMatchesOracle) {
  Fixture f;
  for (auto [beg, end] : std::vector<std::pair<int32_t, int32_t>>{
           {0, 10000}, {5000, 25000}, {0, 1}, {40000, 79000}}) {
    EXPECT_EQ(f.index.query(0, beg, end, RegionMode::kStartWithin),
              f.oracle(0, beg, end, RegionMode::kStartWithin, {}))
        << "[" << beg << "," << end << ")";
  }
}

TEST(Baix2, OverlapMatchesOracle) {
  Fixture f;
  for (auto [beg, end] : std::vector<std::pair<int32_t, int32_t>>{
           {0, 10000}, {5000, 25000}, {0, 1}, {40000, 79000},
           {17, 131}}) {
    EXPECT_EQ(f.index.query(0, beg, end, RegionMode::kOverlap),
              f.oracle(0, beg, end, RegionMode::kOverlap, {}))
        << "[" << beg << "," << end << ")";
  }
}

TEST(Baix2, OverlapFindsStraddlers) {
  // A record starting before the region but overlapping it must be found
  // by kOverlap and missed by kStartWithin.
  Fixture f;
  // Find some mapped record and query a window inside its span.
  const AlignmentRecord* victim = nullptr;
  size_t victim_index = 0;
  for (size_t i = 0; i < f.records.size(); ++i) {
    if (f.records[i].ref_id == 0 && f.records[i].reference_span() > 40) {
      victim = &f.records[i];
      victim_index = i;
      break;
    }
  }
  ASSERT_NE(victim, nullptr);
  int32_t beg = victim->pos + 20;
  int32_t end = victim->pos + 30;
  auto overlap = f.index.query(0, beg, end, RegionMode::kOverlap);
  auto start_within = f.index.query(0, beg, end, RegionMode::kStartWithin);
  EXPECT_NE(std::find(overlap.begin(), overlap.end(), victim_index),
            overlap.end());
  EXPECT_EQ(std::find(start_within.begin(), start_within.end(), victim_index),
            start_within.end());
}

TEST(Baix2, FiltersMatchOracle) {
  Fixture f;
  Filter mapq_filter;
  mapq_filter.min_mapq = 50;
  Filter strand_filter;
  strand_filter.reverse_strand = true;
  Filter no_dup;
  no_dup.include_duplicates = false;
  for (const Filter& filter : {mapq_filter, strand_filter, no_dup}) {
    EXPECT_EQ(f.index.query(0, 0, 80000, RegionMode::kOverlap, filter),
              f.oracle(0, 0, 80000, RegionMode::kOverlap, filter));
  }
  // Combined.
  Filter combined;
  combined.min_mapq = 40;
  combined.reverse_strand = false;
  combined.include_duplicates = false;
  EXPECT_EQ(f.index.query(0, 0, 80000, RegionMode::kOverlap, combined),
            f.oracle(0, 0, 80000, RegionMode::kOverlap, combined));
}

TEST(Baix2, FiltersActuallyFilter) {
  Fixture f;
  Filter strict;
  strict.min_mapq = 55;
  auto all = f.index.query(0, 0, 80000, RegionMode::kOverlap);
  auto filtered = f.index.query(0, 0, 80000, RegionMode::kOverlap, strict);
  EXPECT_GT(all.size(), filtered.size());
  EXPECT_FALSE(filtered.empty());
}

TEST(Baix2, ResultsAscending) {
  Fixture f;
  auto out = f.index.query(0, 0, 50000, RegionMode::kOverlap);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
}

TEST(Baix2, QueryAllWithUnmapped) {
  Fixture f;
  Filter with_unmapped;
  with_unmapped.include_unmapped = true;
  EXPECT_EQ(f.index.query_all(with_unmapped).size(), f.records.size());
  Filter mapped_only;  // default excludes unmapped
  size_t mapped = 0;
  for (const auto& rec : f.records) {
    mapped += rec.is_unmapped() ? 0 : 1;
  }
  EXPECT_EQ(f.index.query_all(mapped_only).size(), mapped);
}

TEST(Baix2, StartWithinParityWithBaixV1) {
  // The v1 BAIX contract is *start-keyed* (docs/FILEFORMATS.md): a region
  // query selects exactly the alignments starting inside [beg, end). v2's
  // kStartWithin must select the same record set, so the two indexes are
  // interchangeable for the paper's partial-conversion semantics — and any
  // extra records v2's kOverlap returns are precisely the straddlers v1
  // cannot see.
  Fixture f;
  bamx::BaixReader v1 =
      testutil::saved_baix_of(f.records, f.tmp.file("d.baix"));
  for (auto [beg, end] : std::vector<std::pair<int32_t, int32_t>>{
           {0, 500000}, {10000, 60000}, {0, 1}, {250000, 250000}}) {
    auto [first, last] = v1.query(0, beg, end);
    std::vector<uint64_t> v1_records;
    for (const bamx::BaixEntry& e : v1.entries(first, last)) {
      v1_records.push_back(e.record_index);
    }
    std::sort(v1_records.begin(), v1_records.end());
    EXPECT_EQ(v1_records, f.index.query(0, beg, end,
                                        RegionMode::kStartWithin))
        << "region [" << beg << ", " << end << ")";
  }
}

TEST(Baix2, OverlapIsStrictSupersetOnStraddledWindow) {
  // A window placed strictly inside some alignment's span: start-keyed
  // selection (v1 and kStartWithin alike) misses the straddler, overlap
  // mode finds it. This is the contract difference --region-mode toggles.
  Fixture f;
  const AlignmentRecord* straddler = nullptr;
  for (const auto& rec : f.records) {
    if (rec.ref_id == 0 && rec.pos >= 0 && rec.end_pos() - rec.pos >= 3) {
      straddler = &rec;
      break;
    }
  }
  ASSERT_NE(straddler, nullptr);
  const int32_t beg = straddler->pos + 1;
  const int32_t end = straddler->pos + 2;
  bamx::BaixReader v1 =
      testutil::saved_baix_of(f.records, f.tmp.file("d.baix"));
  auto [first, last] = v1.query(0, beg, end);
  auto start_within = f.index.query(0, beg, end, RegionMode::kStartWithin);
  auto overlap = f.index.query(0, beg, end, RegionMode::kOverlap);
  EXPECT_EQ(last - first, start_within.size());
  EXPECT_GT(overlap.size(), start_within.size());
  EXPECT_NE(std::find(overlap.begin(), overlap.end(),
                      static_cast<uint64_t>(straddler - f.records.data())),
            overlap.end());
}

TEST(Baix2, SaveLoadRoundTrip) {
  Fixture f;
  std::string copy = f.tmp.file("copy.baix2");
  f.index.save(copy);
  EXPECT_EQ(Baix2Index::load(copy), f.index);
}

TEST(Baix2, LoadBadMagicThrows) {
  TempDir tmp;
  write_file(tmp.file("bad.baix2"), "not an index at all");
  EXPECT_THROW(Baix2Index::load(tmp.file("bad.baix2")), FormatError);
}

TEST(Baix2, HugeEntryCountRejected) {
  // A count whose byte size (n * 24) wraps past 2^64 must still fail the
  // size check, as a FormatError, before anything is reserved.
  TempDir tmp;
  Baix2Index().save(tmp.file("empty.baix2"));
  std::string data = read_file(tmp.file("empty.baix2"));
  const size_t count_at = data.size() - 8;  // the file ends with n_entries
  binio::poke_le<uint64_t>(data, count_at, UINT64_MAX / 24 + 1);
  data += std::string(48, '\0');
  write_file(tmp.file("huge.baix2"), data);
  EXPECT_THROW(Baix2Index::load(tmp.file("huge.baix2")), FormatError);
}

TEST(Baix2, EmptyRegion) {
  Fixture f;
  EXPECT_TRUE(f.index.query(0, 500, 500, RegionMode::kOverlap).empty());
  EXPECT_TRUE(f.index.query(99, 0, 1000, RegionMode::kOverlap).empty());
}

// ------------------------------------------------- filtered conversion

TEST(FilteredConversion, MatchesOracleCount) {
  Fixture f;
  core::ConvertOptions options;
  options.format = core::TargetFormat::kBed;
  options.ranks = 4;
  core::Region region{0, 10000, 60000};
  Filter filter;
  filter.min_mapq = 45;
  filter.include_duplicates = false;
  auto stats = core::convert_bamx_filtered(
      f.bamx_path, f.baix2_path, f.tmp.subdir("out"), options, region,
      RegionMode::kOverlap, filter);
  auto expect =
      f.oracle(0, region.begin, region.end, RegionMode::kOverlap, filter);
  EXPECT_EQ(stats.records_in, expect.size());
  EXPECT_EQ(stats.records_out, expect.size());  // all mapped -> all emitted
}

TEST(FilteredConversion, OutputIdenticalAcrossRanks) {
  Fixture f;
  core::Region region{0, 0, 70000};
  Filter filter;
  filter.reverse_strand = true;
  std::string reference_output;
  for (int ranks : {1, 3, 8}) {
    core::ConvertOptions options;
    options.format = core::TargetFormat::kBed;
    options.ranks = ranks;
    auto stats = core::convert_bamx_filtered(
        f.bamx_path, f.baix2_path,
        f.tmp.subdir("r" + std::to_string(ranks)), options, region,
        RegionMode::kOverlap, filter);
    std::string all;
    for (const auto& path : stats.outputs) {
      all += read_file(path);
    }
    if (ranks == 1) {
      reference_output = all;
    } else {
      EXPECT_EQ(all, reference_output) << ranks << " ranks";
    }
  }
  EXPECT_FALSE(reference_output.empty());
  // Strand filter respected in the output itself.
  size_t pos = 0;
  while ((pos = reference_output.find('\n', pos)) != std::string::npos) {
    ++pos;
  }
  for (size_t i = 0; i + 1 < reference_output.size(); ++i) {
    if (reference_output[i] == '\t' && reference_output[i + 1] == '+') {
      FAIL() << "forward-strand row leaked through the reverse filter";
    }
  }
}

}  // namespace
}  // namespace ngsx::baix2
