// Tests for the streaming read-pair collation stage (docs/COLLATION.md):
// in-memory pairing, orphan/single/passthrough routing, spill-and-reunite
// across runs, paired FASTQ export, duplicate marking, and the
// byte-identity contract between in-memory and forced-spill configs.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/collate.h"
#include "core/convert.h"
#include "core/sort.h"
#include "formats/bam.h"
#include "formats/bamx.h"
#include "formats/baix2.h"
#include "formats/sam.h"
#include "simdata/readsim.h"
#include "util/tempdir.h"

namespace ngsx::core {
namespace {

using sam::AlignmentRecord;
using sam::SamHeader;

SamHeader test_header() {
  return SamHeader::from_references({{"chr1", 500000}, {"chr2", 300000}});
}

/// A complete primary pair: forward R1 at pos1, reverse R2 at pos2.
std::pair<AlignmentRecord, AlignmentRecord> make_pair(const std::string& name,
                                                      int32_t pos1,
                                                      int32_t pos2,
                                                      char qual = 'I') {
  AlignmentRecord r1;
  r1.qname = name;
  r1.flag = sam::kPaired | sam::kRead1 | sam::kMateReverse;
  r1.ref_id = 0;
  r1.pos = pos1;
  r1.cigar = sam::parse_cigar("50M");
  r1.seq = std::string(50, 'A');
  r1.qual = std::string(50, qual);
  AlignmentRecord r2;
  r2.qname = name;
  r2.flag = sam::kPaired | sam::kRead2 | sam::kReverse;
  r2.ref_id = 0;
  r2.pos = pos2;
  r2.cigar = sam::parse_cigar("50M");
  r2.seq = std::string(50, 'C');
  r2.qual = std::string(50, qual);
  return {r1, r2};
}

void write_bam(const std::string& path, const SamHeader& header,
               const std::vector<AlignmentRecord>& records) {
  bam::BamFileWriter w(path, header);
  for (const auto& rec : records) {
    w.write(rec);
  }
  w.close();
}

std::vector<AlignmentRecord> read_bam(const std::string& path) {
  bam::BamFileReader r(path);
  std::vector<AlignmentRecord> out;
  AlignmentRecord rec;
  while (r.next(rec)) {
    out.push_back(rec);
  }
  return out;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Number of BGZF blocks in `path`, the EOF marker included.
size_t bam_block_count(const std::string& path) {
  const std::string bytes = read_bytes(path);
  size_t blocks = 0;
  for (size_t pos = 0; pos < bytes.size(); ++blocks) {
    pos += bgzf::peek_block_size(std::string_view(bytes).substr(pos));
  }
  return blocks;
}

int count_tmp_files(const std::string& dir) {
  int n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().string().find(".tmp.bam") != std::string::npos) {
      ++n;
    }
  }
  return n;
}

/// Event recorder: collects what the stage emitted.
struct Recorder {
  std::vector<std::pair<AlignmentRecord, AlignmentRecord>> pairs;
  std::vector<AlignmentRecord> orphans;
  std::vector<AlignmentRecord> singles;
  std::vector<AlignmentRecord> passthrough;

  CollateEvents events() {
    CollateEvents ev;
    ev.on_pair = [this](AlignmentRecord&& a, AlignmentRecord&& b) {
      pairs.emplace_back(std::move(a), std::move(b));
    };
    ev.on_orphan = [this](AlignmentRecord&& r) {
      orphans.push_back(std::move(r));
    };
    ev.on_single = [this](AlignmentRecord&& r) {
      singles.push_back(std::move(r));
    };
    ev.on_passthrough = [this](AlignmentRecord&& r) {
      passthrough.push_back(std::move(r));
    };
    return ev;
  }
};

// ----------------------------------------------------- CollateStage unit

TEST(CollateStage, PairsCompleteInMemory) {
  TempDir tmp;
  Recorder rec;
  CollateStage stage(test_header(), tmp.file("spill"), rec.events());
  for (int i = 0; i < 3; ++i) {
    auto [r1, r2] = make_pair("p" + std::to_string(i), 100 + i, 400 + i);
    // Mate arrives out of order half the time.
    if (i % 2 == 0) {
      stage.push(r1);
      stage.push(r2);
    } else {
      stage.push(r2);
      stage.push(r1);
    }
  }
  stage.finish();
  ASSERT_EQ(rec.pairs.size(), 3u);
  for (const auto& [a, b] : rec.pairs) {
    EXPECT_TRUE(a.is_read1()) << a.qname;
    EXPECT_TRUE(b.is_read2()) << b.qname;
    EXPECT_EQ(a.qname, b.qname);
  }
  EXPECT_TRUE(rec.orphans.empty());
  EXPECT_EQ(stage.stats().pairs, 3u);
  EXPECT_EQ(stage.stats().records, 6u);
  EXPECT_EQ(stage.stats().spill_runs, 0u);
}

TEST(CollateStage, SecondarySupplementaryExcludedFromPairing) {
  TempDir tmp;
  Recorder rec;
  CollateStage stage(test_header(), tmp.file("spill"), rec.events());
  auto [r1, r2] = make_pair("p0", 100, 400);
  AlignmentRecord secondary = r2;
  secondary.flag |= sam::kSecondary;
  AlignmentRecord supplementary = r2;
  supplementary.flag |= sam::kSupplementary;
  stage.push(r1);
  stage.push(secondary);      // must NOT pair with the pending r1
  stage.push(supplementary);  // ditto
  stage.push(r2);             // this one pairs
  stage.finish();
  ASSERT_EQ(rec.pairs.size(), 1u);
  EXPECT_EQ(rec.pairs[0].first.flag, r1.flag);
  EXPECT_EQ(rec.pairs[0].second.flag, r2.flag);
  EXPECT_EQ(rec.passthrough.size(), 2u);
  EXPECT_TRUE(rec.orphans.empty());
  EXPECT_EQ(stage.stats().passthrough, 2u);
}

TEST(CollateStage, SinglesAndOrphans) {
  TempDir tmp;
  Recorder rec;
  CollateStage stage(test_header(), tmp.file("spill"), rec.events());
  AlignmentRecord single;
  single.qname = "unpaired";
  single.ref_id = 0;
  single.pos = 50;
  single.cigar = sam::parse_cigar("50M");
  single.seq = std::string(50, 'G');
  stage.push(single);
  auto [r1, r2] = make_pair("widow", 100, 400);
  stage.push(r1);  // r2 never arrives
  stage.finish();
  ASSERT_EQ(rec.singles.size(), 1u);
  EXPECT_EQ(rec.singles[0].qname, "unpaired");
  ASSERT_EQ(rec.orphans.size(), 1u);
  EXPECT_EQ(rec.orphans[0].qname, "widow");
  EXPECT_TRUE(rec.pairs.empty());
}

TEST(CollateStage, SpillReunitesMatesAcrossManyRuns) {
  TempDir tmp;
  constexpr int kPairs = 60;
  // All R1s before all R2s: no pair is ever co-resident within an
  // 8-record budget, so everything must reunite through the merge.
  std::vector<AlignmentRecord> input;
  for (int i = 0; i < kPairs; ++i) {
    input.push_back(make_pair("p" + std::to_string(i), 100 + i, 4000 + i)
                        .first);
  }
  for (int i = 0; i < kPairs; ++i) {
    input.push_back(make_pair("p" + std::to_string(i), 100 + i, 4000 + i)
                        .second);
  }
  Recorder rec;
  CollateOptions options;
  options.max_records_in_memory = 8;
  options.temp_dir = tmp.path();
  CollateStage stage(test_header(), tmp.file("spill"), rec.events(), options);
  for (auto& r : input) {
    stage.push(std::move(r));
  }
  stage.finish();
  EXPECT_GT(stage.stats().spill_runs, 2u);  // well past two runs
  EXPECT_GT(stage.stats().spilled_records, 0u);
  EXPECT_GT(stage.stats().spilled_bytes, 0u);
  ASSERT_EQ(rec.pairs.size(), static_cast<size_t>(kPairs));
  std::set<std::string> names;
  for (const auto& [a, b] : rec.pairs) {
    EXPECT_TRUE(a.is_read1());
    EXPECT_TRUE(b.is_read2());
    EXPECT_EQ(a.qname, b.qname);
    names.insert(a.qname);
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kPairs));  // each exactly once
  EXPECT_TRUE(rec.orphans.empty());
  EXPECT_EQ(count_tmp_files(tmp.path()), 0);  // runs cleaned up
}

TEST(CollateStage, MalformedDuplicateRankBecomesOrphan) {
  TempDir tmp;
  Recorder rec;
  CollateStage stage(test_header(), tmp.file("spill"), rec.events());
  auto [r1, r2] = make_pair("twice", 100, 400);
  AlignmentRecord r1_again = r1;
  r1_again.pos = 111;
  stage.push(r1);
  stage.push(r1_again);  // same name, same rank: malformed input
  stage.push(r2);
  stage.finish();
  ASSERT_EQ(rec.pairs.size(), 1u);
  EXPECT_EQ(rec.pairs[0].first.pos, 100);
  ASSERT_EQ(rec.orphans.size(), 1u);
  EXPECT_EQ(rec.orphans[0].pos, 111);
}

// --------------------------------------------------------- collate_to_bam

/// Simulated dataset on disk; returns (path, records).
std::string write_simulated(TempDir& tmp, uint64_t pairs, uint64_t seed,
                            SamHeader* header_out = nullptr) {
  auto genome = simdata::ReferenceGenome::simulate(
      simdata::mouse_like_references(400000), seed);
  simdata::ReadSimConfig cfg;
  cfg.seed = seed;
  auto records = simdata::simulate_alignments(genome, pairs, cfg);
  std::string path = tmp.file("sim.bam");
  write_bam(path, genome.header(), records);
  if (header_out != nullptr) {
    *header_out = genome.header();
  }
  return path;
}

/// A simulated BAM plus up to `copies` injected positional duplicates of
/// its mapped pairs, so both duplicate-marking passes have real work.
std::string write_with_dups(TempDir& tmp, uint64_t pairs, uint64_t seed,
                            int copies) {
  SamHeader header;
  std::string base = write_simulated(tmp, pairs, seed, &header);
  auto records = read_bam(base);
  std::map<std::string, std::vector<AlignmentRecord>> groups;
  for (const auto& rec : records) {
    groups[rec.qname].push_back(rec);
  }
  int copied = 0;
  for (const auto& [name, group] : groups) {
    if (copied == copies) {
      break;
    }
    if (group.size() != 2 || group[0].is_unmapped() ||
        group[1].is_unmapped()) {
      continue;
    }
    for (AlignmentRecord rec : group) {
      rec.qname = "dupcopy." + std::to_string(copied) + "." + name;
      records.push_back(rec);
    }
    ++copied;
  }
  EXPECT_GT(copied, 0);
  std::string path = tmp.file("with_dups.bam");
  write_bam(path, header, records);
  return path;
}

/// Runs `program` at parse_threads 1 and 4 (4 also deflates the output on
/// four threads), each in memory and under a spilling budget: every output
/// must equal the first byte for byte, and spill runs must be cleaned up.
void expect_identical_across_threads(
    TempDir& tmp, const std::string& in,
    const std::function<CollateStats(const std::string&,
                                     const CollateOptions&)>& program) {
  const size_t records = read_bam(in).size();
  std::string expected;
  for (size_t budget : {size_t{0}, records / 8}) {
    for (int threads : {1, 4}) {
      CollateOptions options;
      options.parse_threads = threads;
      options.temp_dir = tmp.path();
      if (budget > 0) {
        options.max_records_in_memory = budget;
      }
      const std::string out = tmp.file("out.bam");
      CollateStats stats = program(out, options);
      EXPECT_EQ(stats.records, records);
      EXPECT_EQ(stats.spill_runs > 0, budget > 0) << "budget " << budget;
      std::string bytes = read_bytes(out);
      if (expected.empty()) {
        expected = bytes;
        // Enough output for many BGZF blocks in flight at four threads.
        EXPECT_GT(bam_block_count(out), 8u);
      }
      EXPECT_EQ(bytes, expected)
          << "threads " << threads << ", budget " << budget;
      EXPECT_EQ(count_tmp_files(tmp.path()), 0);
    }
  }
}

TEST(CollateToBam, NameGroupedOutput) {
  TempDir tmp;
  std::string in = write_simulated(tmp, 300, 7);
  CollateStats stats = collate_to_bam(in, tmp.file("collated.bam"));
  auto input = read_bam(in);
  auto output = read_bam(tmp.file("collated.bam"));
  ASSERT_EQ(output.size(), input.size());
  EXPECT_EQ(stats.records, input.size());
  EXPECT_EQ(stats.written, input.size());
  // Every name is one contiguous block, primaries R1-then-R2 up front.
  std::set<std::string> seen;
  for (size_t i = 0; i < output.size();) {
    const std::string& name = output[i].qname;
    ASSERT_TRUE(seen.insert(name).second) << "name split: " << name;
    size_t j = i;
    while (j < output.size() && output[j].qname == name) {
      ++j;
    }
    for (size_t k = i + 1; k < j; ++k) {
      EXPECT_LE(pairing_rank(output[k - 1]), pairing_rank(output[k]));
    }
    i = j;
  }
  EXPECT_EQ(stats.pairs, 300u);
}

TEST(CollateToBam, ByteIdenticalAcrossBudgets) {
  TempDir tmp;
  std::string in = write_simulated(tmp, 250, 8);
  CollateStats mem = collate_to_bam(in, tmp.file("mem.bam"));
  CollateOptions tiny;
  tiny.max_records_in_memory = 16;
  tiny.temp_dir = tmp.path();
  CollateStats ext = collate_to_bam(in, tmp.file("ext.bam"), tiny);
  EXPECT_EQ(mem.spill_runs, 0u);
  EXPECT_GT(ext.spill_runs, 2u);
  EXPECT_EQ(read_bytes(tmp.file("mem.bam")), read_bytes(tmp.file("ext.bam")));
  EXPECT_EQ(count_tmp_files(tmp.path()), 0);
}

TEST(CollateToBam, ByteIdenticalAcrossThreads) {
  TempDir tmp;
  std::string in = write_simulated(tmp, 2000, 12);
  expect_identical_across_threads(
      tmp, in, [&](const std::string& out, const CollateOptions& options) {
        return collate_to_bam(in, out, options);
      });
}

// ------------------------------------------------------- collate_to_fastq

TEST(CollateToFastq, PairedExportWithOrphansAndSingles) {
  TempDir tmp;
  SamHeader header = test_header();
  std::vector<AlignmentRecord> records;
  for (int i = 0; i < 5; ++i) {
    auto [r1, r2] = make_pair("p" + std::to_string(i), 100 + i, 400 + i);
    records.push_back(r1);
    records.push_back(r2);
  }
  auto [w1, w2] = make_pair("widow", 900, 1300);
  records.push_back(w1);  // orphan: its r2 is never written
  AlignmentRecord single;
  single.qname = "solo";
  single.ref_id = 0;
  single.pos = 2000;
  single.cigar = sam::parse_cigar("50M");
  single.seq = std::string(50, 'T');
  records.push_back(single);
  std::string in = tmp.file("in.bam");
  write_bam(in, header, records);

  CollateStats stats = collate_to_fastq(in, tmp.file("reads"));
  EXPECT_EQ(stats.pairs, 5u);
  EXPECT_EQ(stats.orphans, 1u);
  EXPECT_EQ(stats.singles, 1u);
  ASSERT_EQ(stats.outputs.size(), 4u);

  std::string r1_text = read_bytes(tmp.file("reads_R1.fastq"));
  std::string r2_text = read_bytes(tmp.file("reads_R2.fastq"));
  EXPECT_EQ(std::count(r1_text.begin(), r1_text.end(), '\n'), 5 * 4);
  EXPECT_EQ(std::count(r2_text.begin(), r2_text.end(), '\n'), 5 * 4);
  EXPECT_NE(r1_text.find("/1\n"), std::string::npos);
  EXPECT_NE(r2_text.find("/2\n"), std::string::npos);
  EXPECT_NE(read_bytes(tmp.file("reads_orphans.fastq")).find("widow"),
            std::string::npos);
  EXPECT_NE(read_bytes(tmp.file("reads_singles.fastq")).find("solo"),
            std::string::npos);
}

TEST(CollateToFastq, NoOrphansFlagDropsOrphanFile) {
  TempDir tmp;
  SamHeader header = test_header();
  auto [r1, r2] = make_pair("widow", 900, 1300);
  std::string in = tmp.file("in.bam");
  write_bam(in, header, {r1});
  CollateOptions options;
  options.keep_orphans = false;
  CollateStats stats = collate_to_fastq(in, tmp.file("reads"), options);
  EXPECT_EQ(stats.orphans, 1u);  // still counted
  EXPECT_FALSE(std::filesystem::exists(tmp.file("reads_orphans.fastq")));
}

TEST(CollateToFastq, SameReadSetUnderForcedSpill) {
  // FASTQ emission *order* may differ across budgets (streaming contract);
  // the exported read set must not.
  TempDir tmp;
  SamHeader header;
  std::string sim = write_simulated(tmp, 200, 9, &header);
  // Coordinate-sorted input keeps mates nearby, so the bucket would
  // rarely overflow; rewrite it with all R1s before all R2s so no pair is
  // ever co-resident under a small budget — every pair must spill.
  auto records = read_bam(sim);
  std::stable_sort(records.begin(), records.end(),
                   [](const AlignmentRecord& a, const AlignmentRecord& b) {
                     return a.is_read1() && !b.is_read1();
                   });
  std::string in = tmp.file("split_mates.bam");
  write_bam(in, header, records);
  collate_to_fastq(in, tmp.file("mem"));
  CollateOptions tiny;
  tiny.max_records_in_memory = 16;
  tiny.temp_dir = tmp.path();
  CollateStats ext = collate_to_fastq(in, tmp.file("ext"), tiny);
  EXPECT_GT(ext.spill_runs, 0u);

  auto name_multiset = [](const std::string& text) {
    std::multiset<std::string> names;
    size_t pos = 0;
    while (pos < text.size()) {
      size_t eol = text.find('\n', pos);
      if (eol == std::string::npos) {
        break;
      }
      names.insert(text.substr(pos, eol - pos));
      // Skip seq, +, qual lines.
      for (int i = 0; i < 3 && eol != std::string::npos; ++i) {
        eol = text.find('\n', eol + 1);
      }
      pos = eol == std::string::npos ? text.size() : eol + 1;
    }
    return names;
  };
  EXPECT_EQ(name_multiset(read_bytes(tmp.file("mem_R1.fastq"))),
            name_multiset(read_bytes(tmp.file("ext_R1.fastq"))));
  EXPECT_EQ(name_multiset(read_bytes(tmp.file("mem_R2.fastq"))),
            name_multiset(read_bytes(tmp.file("ext_R2.fastq"))));
  EXPECT_EQ(count_tmp_files(tmp.path()), 0);
}

// -------------------------------------------------------- mark_duplicates

/// Fixture for duplicate marking: a unique pair, a duplicated fragment
/// (three copies at one signature with distinct qualities), and a clipped
/// copy that must collide via unclipped coordinates.
std::vector<AlignmentRecord> dup_fixture() {
  std::vector<AlignmentRecord> records;
  auto [u1, u2] = make_pair("unique", 5000, 5400, 'I');
  records.push_back(u1);
  records.push_back(u2);
  // Three copies of fragment (100, 400): qualities '5' < 'C' < 'I'.
  for (auto [name, q] : std::initializer_list<std::pair<const char*, char>>{
           {"copy_low", '5'}, {"copy_best", 'I'}, {"copy_mid", 'C'}}) {
    auto [r1, r2] = make_pair(name, 100, 400, q);
    records.push_back(r1);
    records.push_back(r2);
  }
  // A soft-clipped copy of the same fragment: R1 at pos 102 with a 2S
  // leading clip (unclipped start 100), R2 ending 2 short with a trailing
  // clip (unclipped end 450 = the others' end_pos).
  auto [c1, c2] = make_pair("copy_clipped", 102, 400, '5');
  c1.cigar = sam::parse_cigar("2S48M");
  c2.cigar = sam::parse_cigar("48M2S");
  records.push_back(c1);
  records.push_back(c2);
  return records;
}

TEST(MarkDuplicates, BestPairSurvivesOthersMarked) {
  TempDir tmp;
  std::string in = tmp.file("in.bam");
  write_bam(in, test_header(), dup_fixture());
  CollateStats stats = mark_duplicates(in, tmp.file("out.bam"),
                                       DuplicateMode::kMark);
  EXPECT_EQ(stats.dup_pairs, 3u);    // low, mid, clipped lose
  EXPECT_EQ(stats.dup_records, 6u);
  auto out = read_bam(tmp.file("out.bam"));
  ASSERT_EQ(out.size(), 10u);
  std::map<std::string, int> dup_flags;
  for (const auto& rec : out) {
    dup_flags[rec.qname] += rec.is_duplicate() ? 1 : 0;
  }
  EXPECT_EQ(dup_flags["unique"], 0);
  EXPECT_EQ(dup_flags["copy_best"], 0);  // highest summed quality wins
  EXPECT_EQ(dup_flags["copy_low"], 2);
  EXPECT_EQ(dup_flags["copy_mid"], 2);
  EXPECT_EQ(dup_flags["copy_clipped"], 2);  // clipping does not hide it
}

TEST(MarkDuplicates, DropModeOmitsDuplicateGroups) {
  TempDir tmp;
  std::string in = tmp.file("in.bam");
  write_bam(in, test_header(), dup_fixture());
  CollateStats stats = mark_duplicates(in, tmp.file("out.bam"),
                                       DuplicateMode::kDrop);
  EXPECT_EQ(stats.dup_records, 6u);
  auto out = read_bam(tmp.file("out.bam"));
  ASSERT_EQ(out.size(), 4u);
  std::set<std::string> names;
  for (const auto& rec : out) {
    names.insert(rec.qname);
    EXPECT_FALSE(rec.is_duplicate());
  }
  EXPECT_EQ(names, (std::set<std::string>{"unique", "copy_best"}));
}

TEST(MarkDuplicates, ClearsPreexistingFlags) {
  TempDir tmp;
  // The only pair in the file arrives pre-flagged as a duplicate; with no
  // competitor its flag must be recomputed away, and the output must be
  // byte-identical to marking the unflagged copy of the same data.
  auto [r1, r2] = make_pair("solo_pair", 100, 400);
  AlignmentRecord f1 = r1;
  AlignmentRecord f2 = r2;
  f1.flag |= sam::kDuplicate;
  f2.flag |= sam::kDuplicate;
  write_bam(tmp.file("flagged.bam"), test_header(), {f1, f2});
  write_bam(tmp.file("clean.bam"), test_header(), {r1, r2});
  mark_duplicates(tmp.file("flagged.bam"), tmp.file("out_flagged.bam"),
                  DuplicateMode::kMark);
  mark_duplicates(tmp.file("clean.bam"), tmp.file("out_clean.bam"),
                  DuplicateMode::kMark);
  for (const auto& rec : read_bam(tmp.file("out_flagged.bam"))) {
    EXPECT_FALSE(rec.is_duplicate());
  }
  EXPECT_EQ(read_bytes(tmp.file("out_flagged.bam")),
            read_bytes(tmp.file("out_clean.bam")));
}

TEST(MarkDuplicates, OrphansAndSinglesNeverMarked) {
  TempDir tmp;
  auto records = dup_fixture();
  // An orphan R1 sitting exactly on the duplicated signature's start.
  auto [o1, o2] = make_pair("orphan", 100, 400, '0');
  records.push_back(o1);
  write_bam(tmp.file("in.bam"), test_header(), records);
  mark_duplicates(tmp.file("in.bam"), tmp.file("out.bam"),
                  DuplicateMode::kDrop);
  std::set<std::string> names;
  for (const auto& rec : read_bam(tmp.file("out.bam"))) {
    names.insert(rec.qname);
  }
  EXPECT_TRUE(names.count("orphan"));  // incomplete pairs never compete
}

TEST(MarkDuplicates, ByteIdenticalAcrossBudgets) {
  TempDir tmp;
  std::string in = write_with_dups(tmp, 200, 10, 40);

  CollateStats mem = mark_duplicates(in, tmp.file("mem.bam"),
                                     DuplicateMode::kMark);
  CollateOptions tiny;
  tiny.max_records_in_memory = 16;
  tiny.temp_dir = tmp.path();
  CollateStats ext = mark_duplicates(in, tmp.file("ext.bam"),
                                     DuplicateMode::kMark, tiny);
  EXPECT_EQ(mem.spill_runs, 0u);
  EXPECT_GT(ext.spill_runs, 2u);
  EXPECT_GT(mem.dup_records, 0u);
  EXPECT_EQ(mem.dup_records, ext.dup_records);
  EXPECT_EQ(read_bytes(tmp.file("mem.bam")), read_bytes(tmp.file("ext.bam")));
  EXPECT_EQ(count_tmp_files(tmp.path()), 0);

  // Drop mode is deterministic across budgets too.
  mark_duplicates(in, tmp.file("mem_drop.bam"), DuplicateMode::kDrop);
  mark_duplicates(in, tmp.file("ext_drop.bam"), DuplicateMode::kDrop, tiny);
  EXPECT_EQ(read_bytes(tmp.file("mem_drop.bam")),
            read_bytes(tmp.file("ext_drop.bam")));
}

TEST(MarkDuplicates, ByteIdenticalAcrossThreads) {
  TempDir tmp;
  std::string in = write_with_dups(tmp, 2000, 13, 200);
  expect_identical_across_threads(
      tmp, in, [&](const std::string& out, const CollateOptions& options) {
        CollateStats stats =
            mark_duplicates(in, out, DuplicateMode::kMark, options);
        EXPECT_GT(stats.dup_records, 0u);
        return stats;
      });
}

TEST(MarkDuplicates, FeedsBaix2DuplicateFilter) {
  // End-to-end with the existing index-side duplicate exclusion: marked
  // BAM -> BAMX -> BAIXv2, query_all(include_duplicates=false) must see
  // exactly the unmarked mapped records.
  TempDir tmp;
  std::string in = tmp.file("in.bam");
  write_bam(in, test_header(), dup_fixture());
  mark_duplicates(in, tmp.file("marked.bam"), DuplicateMode::kMark);
  auto marked = read_bam(tmp.file("marked.bam"));

  bamx::BamxLayout layout;
  for (const auto& rec : marked) {
    layout.accommodate(rec);
  }
  bamx::BamxWriter writer(tmp.file("m.bamx"), test_header(), layout);
  for (const auto& rec : marked) {
    writer.write(rec);
  }
  writer.close();
  build_baix2(tmp.file("m.bamx"), tmp.file("m.baix2"));
  auto index = baix2::Baix2Index::load(tmp.file("m.baix2"));

  baix2::Filter no_dups;
  no_dups.include_duplicates = false;
  size_t expected = 0;
  for (const auto& rec : marked) {
    if (!rec.is_duplicate() && !rec.is_unmapped()) {
      ++expected;
    }
  }
  EXPECT_EQ(index.query_all(no_dups).size(), expected);
}

// --------------------------------------------------- parallel record parse

TEST(ForEachRecord, ParallelParseMatchesSerial) {
  TempDir tmp;
  std::string in = write_simulated(tmp, 300, 11);
  CollateOptions serial;
  serial.parse_threads = 1;
  std::vector<AlignmentRecord> a;
  for_each_record(in, serial,
                  [&](AlignmentRecord&& rec) { a.push_back(std::move(rec)); });
  CollateOptions parallel;
  parallel.parse_threads = 4;
  parallel.record_batch = 37;  // uneven batches across the pipeline
  std::vector<AlignmentRecord> b;
  for_each_record(in, parallel,
                  [&](AlignmentRecord&& rec) { b.push_back(std::move(rec)); });
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace ngsx::core
