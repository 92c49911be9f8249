// Property suite: randomized records must survive every codec in the
// repository unchanged — SAM text, BAM, BAMX — individually and
// chained. The generator (tests/testutil.h) produces degenerate and
// extreme field combinations the simulator never emits.

#include <gtest/gtest.h>

#include <filesystem>

#include "formats/bam.h"
#include "formats/bamx.h"
#include "formats/sam.h"
#include "testutil.h"
#include "util/iopolicy.h"
#include "util/tempdir.h"

namespace ngsx {
namespace {

using sam::AlignmentRecord;
using sam::SamHeader;

SamHeader property_header() {
  return SamHeader::from_references(
      {{"chr1", 200000}, {"chr2", 90000}, {"weird.name-1", 512}});
}

class RoundTripSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RoundTripSeeds, SamTextCodec) {
  SamHeader header = property_header();
  Rng rng(GetParam());
  std::string line;
  AlignmentRecord back;
  for (int i = 0; i < 200; ++i) {
    AlignmentRecord rec = testutil::random_record(rng, header);
    line.clear();
    sam::format_record(rec, header, line);
    sam::parse_record(line, header, back);
    ASSERT_EQ(back, rec) << "seed " << GetParam() << " record " << i
                         << "\nline: " << line;
  }
}

TEST_P(RoundTripSeeds, BamCodec) {
  SamHeader header = property_header();
  Rng rng(GetParam() + 1000);
  std::string buf;
  AlignmentRecord back;
  for (int i = 0; i < 200; ++i) {
    AlignmentRecord rec = testutil::random_record(rng, header);
    buf.clear();
    bam::encode_record(rec, buf);
    bam::decode_record(std::string_view(buf).substr(4), back);
    ASSERT_EQ(back, rec) << "seed " << GetParam() << " record " << i;
  }
}

TEST_P(RoundTripSeeds, BamxCodec) {
  SamHeader header = property_header();
  Rng rng(GetParam() + 2000);
  std::vector<AlignmentRecord> records;
  bamx::BamxLayout layout;
  for (int i = 0; i < 150; ++i) {
    records.push_back(testutil::random_record(rng, header));
    layout.accommodate(records.back());
  }
  std::string buf;
  AlignmentRecord back;
  for (size_t i = 0; i < records.size(); ++i) {
    buf.clear();
    bamx::encode_record(records[i], layout, buf);
    bamx::decode_record(buf, layout, back);
    ASSERT_EQ(back, records[i]) << "seed " << GetParam() << " record " << i;
  }
}

TEST_P(RoundTripSeeds, ChainedSamBamBamxFiles) {
  // SAM file -> parse -> BAM file -> read -> BAMX file -> read: identical.
  SamHeader header = property_header();
  Rng rng(GetParam() + 3000);
  std::vector<AlignmentRecord> records;
  for (int i = 0; i < 120; ++i) {
    records.push_back(testutil::random_record(rng, header));
  }
  TempDir tmp;

  // SAM leg.
  {
    sam::SamFileWriter w(tmp.file("a.sam"), header);
    for (const auto& r : records) {
      w.write(r);
    }
    w.close();
  }
  std::vector<AlignmentRecord> from_sam;
  {
    sam::SamFileReader r(tmp.file("a.sam"));
    AlignmentRecord rec;
    while (r.next(rec)) {
      from_sam.push_back(rec);
    }
  }
  ASSERT_EQ(from_sam, records);

  // BAM leg.
  {
    bam::BamFileWriter w(tmp.file("a.bam"), header);
    for (const auto& r : from_sam) {
      w.write(r);
    }
    w.close();
  }
  std::vector<AlignmentRecord> from_bam;
  {
    bam::BamFileReader r(tmp.file("a.bam"));
    AlignmentRecord rec;
    while (r.next(rec)) {
      from_bam.push_back(rec);
    }
  }
  ASSERT_EQ(from_bam, records);

  // BAMX leg.
  bamx::BamxLayout layout;
  for (const auto& r : from_bam) {
    layout.accommodate(r);
  }
  {
    bamx::BamxWriter w(tmp.file("a.bamx"), header, layout);
    for (const auto& r : from_bam) {
      w.write(r);
    }
    w.close();
  }
  bamx::RecordSource r(tmp.file("a.bamx"));
  ASSERT_EQ(r.num_records(), records.size());
  const auto back = testutil::read_records(r, 0, r.num_records());
  for (size_t i = 0; i < records.size(); ++i) {
    ASSERT_EQ(back[i], records[i]) << "record " << i;
  }
}

TEST_P(RoundTripSeeds, BamFileParallelDecode) {
  // The same BAM file read with 1, 2, and 8 BGZF decode threads must
  // yield identical records and identical per-record virtual offsets —
  // including after seeking back to a previously told offset.
  SamHeader header = property_header();
  Rng rng(GetParam() + 5000);
  std::vector<AlignmentRecord> records;
  for (int i = 0; i < 200; ++i) {
    records.push_back(testutil::random_record(rng, header));
  }
  TempDir tmp;
  {
    bam::BamFileWriter w(tmp.file("p.bam"), header);
    for (const auto& r : records) {
      w.write(r);
    }
    w.close();
  }

  std::vector<uint64_t> seq_voffsets;
  {
    bam::BamFileReader r(tmp.file("p.bam"), /*decode_threads=*/1);
    AlignmentRecord rec;
    size_t i = 0;
    while (seq_voffsets.push_back(r.tell()), r.next(rec)) {
      ASSERT_EQ(rec, records[i]) << "record " << i;
      ++i;
    }
    ASSERT_EQ(i, records.size());
  }

  for (int threads : {2, 8}) {
    bam::BamFileReader r(tmp.file("p.bam"), threads);
    AlignmentRecord rec;
    for (size_t i = 0; i < records.size(); ++i) {
      ASSERT_EQ(r.tell(), seq_voffsets[i]) << "threads " << threads;
      ASSERT_TRUE(r.next(rec));
      ASSERT_EQ(rec, records[i]) << "threads " << threads << " record " << i;
    }
    ASSERT_FALSE(r.next(rec));
    // Random re-reads through the collected offsets.
    Rng order(GetParam() + 6000 + static_cast<uint64_t>(threads));
    for (int probe = 0; probe < 25; ++probe) {
      size_t i = static_cast<size_t>(order.below(records.size()));
      r.seek(seq_voffsets[i]);
      ASSERT_TRUE(r.next(rec));
      ASSERT_EQ(rec, records[i])
          << "threads " << threads << " probe of record " << i;
    }
  }
}

TEST_P(RoundTripSeeds, AtomicCommitKilledWriterRerunsByteIdentical) {
  // Property over random datasets: kill the BAMX writer's commit with an
  // injected hard fault (the faulted operation rotates with the seed),
  // verify nothing is observable under the final name, then re-run and
  // require the exact bytes of a never-faulted write.
  SamHeader header = property_header();
  Rng rng(GetParam() + 7000);
  std::vector<AlignmentRecord> records;
  bamx::BamxLayout layout;
  for (int i = 0; i < 150; ++i) {
    records.push_back(testutil::random_record(rng, header));
    layout.accommodate(records.back());
  }
  TempDir tmp;
  auto write_all = [&](const std::string& path) {
    bamx::BamxWriter w(path, header, layout);
    for (const auto& r : records) {
      w.write(r);
    }
    w.close();
  };

  const std::string clean = tmp.file("clean.bamx");
  write_all(clean);
  const std::string reference = read_file(clean);

  const io::Op ops[] = {io::Op::kWrite, io::Op::kFsync, io::Op::kClose,
                        io::Op::kRename};
  const std::string path = tmp.file("killed.bamx");
  {
    io::Fault fault;
    fault.op = ops[GetParam() % 4];
    fault.kind = io::FaultKind::kError;
    io::IoPolicy::instance().inject(path, fault);
    EXPECT_THROW(write_all(path), IoError);
    io::IoPolicy::instance().clear();
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  for (const auto& entry :
       std::filesystem::directory_iterator(tmp.path())) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp."),
              std::string::npos)
        << "leaked staging file: " << entry.path();
  }
  write_all(path);
  EXPECT_EQ(read_file(path), reference);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripSeeds,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace ngsx
