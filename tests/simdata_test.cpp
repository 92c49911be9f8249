// Tests for the synthetic-data substrate: reference genome, read/alignment
// simulator, and histogram simulator. These guard the statistical structure
// every downstream experiment relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "formats/bam.h"
#include "simdata/histsim.h"
#include "simdata/readsim.h"
#include "simdata/reference.h"
#include "util/tempdir.h"

namespace ngsx::simdata {
namespace {

using sam::AlignmentRecord;

// --------------------------------------------------------------- reference

TEST(Reference, MouseLikeTableStructure) {
  auto refs = mouse_like_references(10'000'000);
  ASSERT_EQ(refs.size(), 22u);  // chr1..chr19, X, Y, M
  EXPECT_EQ(refs[0].name, "chr1");
  EXPECT_EQ(refs[21].name, "chrM");
  // chr1 is the longest autosome; chrM tiny.
  EXPECT_GT(refs[0].length, refs[18].length);  // chr1 > chr19
  EXPECT_LT(refs[21].length, refs[20].length);  // chrM < chrY
  int64_t total = 0;
  for (const auto& r : refs) {
    total += r.length;
  }
  EXPECT_NEAR(static_cast<double>(total), 10'000'000, 10'000'000 * 0.05);
}

TEST(Reference, SimulateDeterministic) {
  auto refs = mouse_like_references(100000);
  auto a = ReferenceGenome::simulate(refs, 9);
  auto b = ReferenceGenome::simulate(refs, 9);
  EXPECT_EQ(a.sequence(0), b.sequence(0));
  auto c = ReferenceGenome::simulate(refs, 10);
  EXPECT_NE(a.sequence(0), c.sequence(0));
}

TEST(Reference, SequencesMatchDeclaredLengths) {
  auto genome = ReferenceGenome::simulate(mouse_like_references(200000), 3);
  for (size_t i = 0; i < genome.references().size(); ++i) {
    EXPECT_EQ(genome.sequence(static_cast<int32_t>(i)).size(),
              static_cast<size_t>(genome.references()[i].length));
  }
}

TEST(Reference, BasesAreNucleotides) {
  auto genome = ReferenceGenome::simulate(mouse_like_references(100000), 4);
  for (char c : genome.sequence(0)) {
    EXPECT_TRUE(c == 'A' || c == 'C' || c == 'G' || c == 'T' || c == 'N')
        << "unexpected base " << c;
  }
}

TEST(Reference, GcContentPlausible) {
  auto genome = ReferenceGenome::simulate(mouse_like_references(400000), 6);
  const std::string& seq = genome.sequence(0);
  double gc = 0;
  double acgt = 0;
  for (char c : seq) {
    if (c == 'G' || c == 'C') {
      ++gc;
    }
    if (c != 'N') {
      ++acgt;
    }
  }
  EXPECT_GT(gc / acgt, 0.30);
  EXPECT_LT(gc / acgt, 0.60);
}

// ----------------------------------------------------------------- readsim

struct SimFixture {
  ReferenceGenome genome = ReferenceGenome::simulate(
      mouse_like_references(500000), 21);
  ReadSimConfig cfg;
  std::vector<AlignmentRecord> records;

  SimFixture() {
    cfg.seed = 21;
    records = simulate_alignments(genome, 500, cfg);
  }
};

TEST(ReadSim, ProducesTwoRecordsPerPair) {
  SimFixture f;
  EXPECT_EQ(f.records.size(), 1000u);
}

TEST(ReadSim, Deterministic) {
  SimFixture f;
  auto again = simulate_alignments(f.genome, 500, f.cfg);
  EXPECT_EQ(again, f.records);
}

TEST(ReadSim, CoordinateSortedMappedFirst) {
  SimFixture f;
  bool seen_unmapped = false;
  int32_t last_ref = 0;
  int32_t last_pos = -1;
  for (const auto& rec : f.records) {
    if (rec.ref_id < 0) {
      seen_unmapped = true;
      continue;
    }
    EXPECT_FALSE(seen_unmapped) << "mapped record after unmapped block";
    if (rec.ref_id == last_ref) {
      EXPECT_GE(rec.pos, last_pos);
    } else {
      EXPECT_GT(rec.ref_id, last_ref);
    }
    last_ref = rec.ref_id;
    last_pos = rec.pos;
  }
}

TEST(ReadSim, CigarConsistentWithSequenceLength) {
  SimFixture f;
  for (const auto& rec : f.records) {
    if (rec.cigar.empty()) {
      continue;
    }
    int64_t query = 0;
    for (const auto& op : rec.cigar) {
      if (op.consumes_query()) {
        query += op.len;
      }
    }
    EXPECT_EQ(static_cast<size_t>(query), rec.seq.size())
        << "read " << rec.qname;
  }
}

TEST(ReadSim, ReadLengthHonored) {
  SimFixture f;
  for (const auto& rec : f.records) {
    EXPECT_EQ(rec.seq.size(), f.cfg.read_length);
    EXPECT_EQ(rec.qual.size(), f.cfg.read_length);
  }
}

TEST(ReadSim, PairFlagsConsistent) {
  SimFixture f;
  int read1 = 0;
  int read2 = 0;
  for (const auto& rec : f.records) {
    EXPECT_TRUE(rec.is_paired());
    EXPECT_NE((rec.flag & sam::kRead1) != 0, (rec.flag & sam::kRead2) != 0);
    read1 += (rec.flag & sam::kRead1) != 0;
    read2 += (rec.flag & sam::kRead2) != 0;
  }
  EXPECT_EQ(read1, 500);
  EXPECT_EQ(read2, 500);
}

TEST(ReadSim, MappedReadsHaveValidPositions) {
  SimFixture f;
  for (const auto& rec : f.records) {
    if (rec.is_unmapped()) {
      EXPECT_EQ(rec.ref_id, -1);
      EXPECT_TRUE(rec.cigar.empty());
      continue;
    }
    ASSERT_GE(rec.ref_id, 0);
    int64_t ref_len = f.genome.references()[static_cast<size_t>(
        rec.ref_id)].length;
    EXPECT_GE(rec.pos, 0);
    EXPECT_LE(rec.end_pos(), ref_len);
    EXPECT_FALSE(rec.cigar.empty());
  }
}

TEST(ReadSim, ProperPairsHaveOppositeStrandsAndTlen) {
  SimFixture f;
  for (const auto& rec : f.records) {
    if ((rec.flag & sam::kProperPair) == 0) {
      continue;
    }
    EXPECT_NE(rec.is_reverse(), (rec.flag & sam::kMateReverse) != 0);
    EXPECT_NE(rec.tlen, 0);
    EXPECT_EQ(rec.tlen > 0, !rec.is_reverse());
  }
}

TEST(ReadSim, MappedReadsCarryNmAndAs) {
  SimFixture f;
  for (const auto& rec : f.records) {
    if (rec.is_unmapped()) {
      continue;
    }
    EXPECT_NE(rec.find_tag("NM"), nullptr) << rec.qname;
    EXPECT_NE(rec.find_tag("AS"), nullptr) << rec.qname;
  }
}

TEST(ReadSim, QualitiesArePhred33Range) {
  SimFixture f;
  for (const auto& rec : f.records) {
    for (char q : rec.qual) {
      EXPECT_GE(q, '!');
      EXPECT_LE(q, 'J' + 1);
    }
  }
}

TEST(ReadSim, SomeStructuralVariety) {
  // With 1000 records at default rates we expect to see indels, clips,
  // unmapped reads and duplicates.
  SimFixture f;
  int with_indel = 0;
  int with_clip = 0;
  int unmapped = 0;
  int duplicates = 0;
  for (const auto& rec : f.records) {
    unmapped += rec.is_unmapped();
    duplicates += (rec.flag & sam::kDuplicate) != 0;
    for (const auto& op : rec.cigar) {
      if (op.op == 'I' || op.op == 'D') {
        ++with_indel;
        break;
      }
    }
    for (const auto& op : rec.cigar) {
      if (op.op == 'S') {
        ++with_clip;
        break;
      }
    }
  }
  EXPECT_GT(with_indel, 0);
  EXPECT_GT(with_clip, 0);
  EXPECT_GT(unmapped, 0);
  EXPECT_GT(duplicates, 0);
}

TEST(ReadSim, WriteSamAndBamAgree) {
  TempDir tmp;
  auto genome = ReferenceGenome::simulate(mouse_like_references(300000), 8);
  ReadSimConfig cfg;
  cfg.seed = 8;
  std::string sam_path = tmp.file("d.sam");
  std::string bam_path = tmp.file("d.bam");
  uint64_t n_sam = write_sam_dataset(sam_path, genome, 200, cfg);
  uint64_t n_bam = write_bam_dataset(bam_path, genome, 200, cfg);
  EXPECT_EQ(n_sam, 400u);
  EXPECT_EQ(n_bam, 400u);

  sam::SamFileReader sr(sam_path);
  ngsx::bam::BamFileReader br(bam_path);
  AlignmentRecord a;
  AlignmentRecord b;
  int count = 0;
  while (sr.next(a)) {
    ASSERT_TRUE(br.next(b));
    EXPECT_EQ(a, b) << "record " << count;
    ++count;
  }
  EXPECT_FALSE(br.next(b));
  EXPECT_EQ(count, 400);
}

// ----------------------------------------------------------------- histsim

TEST(HistSim, DimensionsAndNonNegativity) {
  HistSimConfig cfg;
  auto hist = simulate_histogram(10000, cfg);
  EXPECT_EQ(hist.size(), 10000u);
  for (double v : hist) {
    EXPECT_GE(v, 0.0);
  }
}

TEST(HistSim, Deterministic) {
  HistSimConfig cfg;
  EXPECT_EQ(simulate_histogram(5000, cfg), simulate_histogram(5000, cfg));
  HistSimConfig other = cfg;
  other.seed = 99;
  EXPECT_NE(simulate_histogram(5000, cfg), simulate_histogram(5000, other));
}

TEST(HistSim, PeaksRaiseMaxAboveBackground) {
  HistSimConfig cfg;
  cfg.peak_density = 0.002;
  auto with_peaks = simulate_histogram(20000, cfg);
  auto null = simulate_null(20000, cfg.background_rate, cfg.seed);
  double max_peaks = *std::max_element(with_peaks.begin(), with_peaks.end());
  double max_null = *std::max_element(null.begin(), null.end());
  EXPECT_GT(max_peaks, 2 * max_null);
}

TEST(HistSim, NullMeanMatchesBackground) {
  auto null = simulate_null(50000, 4.0, 77);
  double mean = std::accumulate(null.begin(), null.end(), 0.0) / null.size();
  EXPECT_NEAR(mean, 4.0, 0.2);
}

TEST(HistSim, BatchRowsIndependent) {
  auto batch = simulate_null_batch(1000, 5, 4.0, 13);
  ASSERT_EQ(batch.size(), 5u);
  for (const auto& row : batch) {
    EXPECT_EQ(row.size(), 1000u);
  }
  EXPECT_NE(batch[0], batch[1]);
  EXPECT_NE(batch[3], batch[4]);
}

}  // namespace
}  // namespace ngsx::simdata
