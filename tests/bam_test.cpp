// Tests for the BAM binary codec, the UCSC binning function, and the
// streaming reader/writer.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "formats/bam.h"
#include "simdata/readsim.h"
#include "util/tempdir.h"

namespace ngsx::bam {
namespace {

using sam::AlignmentRecord;
using sam::AuxField;
using sam::SamHeader;

SamHeader test_header() {
  return SamHeader::from_references({{"chr1", 1 << 26}, {"chr2", 100000}});
}

AlignmentRecord rich_record() {
  AlignmentRecord rec;
  rec.qname = "pair.1";
  rec.flag = sam::kPaired | sam::kRead1 | sam::kReverse;
  rec.ref_id = 0;
  rec.pos = 12345;
  rec.mapq = 37;
  rec.cigar = sam::parse_cigar("5S40M2I43M");
  rec.mate_ref_id = 1;
  rec.mate_pos = 555;
  rec.tlen = -300;
  rec.seq = "ACGTN";
  rec.seq += std::string(85, 'G');
  rec.qual = std::string(90, 'F');
  rec.tags.push_back(sam::parse_aux("NM:i:3"));
  rec.tags.push_back(sam::parse_aux("MD:Z:40T42"));
  rec.tags.push_back(sam::parse_aux("XT:A:U"));
  rec.tags.push_back(sam::parse_aux("XF:f:0.25"));
  rec.tags.push_back(sam::parse_aux("ZB:B:S,9,8,7"));
  rec.tags.push_back(sam::parse_aux("ZF:B:f,1.5,2.5"));
  return rec;
}

// ----------------------------------------------------------------- binning

TEST(Reg2Bin, SpecLevels) {
  // Whole-genome interval -> root bin.
  EXPECT_EQ(reg2bin(0, 1 << 29), 0);
  // Small interval deep in the tree -> leaf level (bins 4681+).
  EXPECT_GE(reg2bin(0, 1), 4681);
  EXPECT_EQ(reg2bin(0, 1 << 14), 4681);
  EXPECT_EQ(reg2bin(1 << 14, (1 << 14) + 1), 4682);
  // Interval spanning two leaf windows -> parent level.
  int parent = reg2bin((1 << 14) - 1, (1 << 14) + 1);
  EXPECT_GE(parent, 585);
  EXPECT_LT(parent, 4681);
}

// ------------------------------------------------------------ record codec

TEST(BamRecord, EncodeDecodeRoundTrip) {
  AlignmentRecord rec = rich_record();
  std::string buf;
  encode_record(rec, buf);
  // Strip the leading block_size field.
  int32_t block_size = binio::get_le<int32_t>(buf, 0);
  EXPECT_EQ(static_cast<size_t>(block_size) + 4, buf.size());
  AlignmentRecord back;
  decode_record(std::string_view(buf).substr(4), back);
  EXPECT_EQ(back, rec);
}

TEST(BamRecord, UnmappedRoundTrip) {
  AlignmentRecord rec;
  rec.qname = "u";
  rec.flag = sam::kUnmapped;
  rec.seq = "ACGT";
  rec.qual = "IIII";
  std::string buf;
  encode_record(rec, buf);
  AlignmentRecord back;
  decode_record(std::string_view(buf).substr(4), back);
  EXPECT_EQ(back, rec);
}

TEST(BamRecord, MissingQualEncodedAsFf) {
  AlignmentRecord rec;
  rec.qname = "q";
  rec.seq = "ACG";
  std::string buf;
  encode_record(rec, buf);
  AlignmentRecord back;
  decode_record(std::string_view(buf).substr(4), back);
  EXPECT_EQ(back.seq, "ACG");
  EXPECT_TRUE(back.qual.empty());
}

TEST(BamRecord, OddLengthSequence) {
  AlignmentRecord rec;
  rec.qname = "odd";
  rec.seq = "ACGTA";
  rec.qual = "IIIII";
  std::string buf;
  encode_record(rec, buf);
  AlignmentRecord back;
  decode_record(std::string_view(buf).substr(4), back);
  EXPECT_EQ(back.seq, "ACGTA");
}

TEST(BamRecord, AmbiguityCodesSurvive) {
  AlignmentRecord rec;
  rec.qname = "iupac";
  rec.seq = "=ACMGRSVTWYHKDBN";
  rec.qual = std::string(16, '#');
  std::string buf;
  encode_record(rec, buf);
  AlignmentRecord back;
  decode_record(std::string_view(buf).substr(4), back);
  EXPECT_EQ(back.seq, "=ACMGRSVTWYHKDBN");
}

TEST(BamRecord, LongReadNameRejected) {
  AlignmentRecord rec;
  rec.qname = std::string(300, 'n');
  std::string buf;
  EXPECT_THROW(encode_record(rec, buf), FormatError);
}

TEST(BamRecord, AllIntegerAuxWidthsDecodeToI) {
  // Hand-encode aux fields of every width and check they normalize to 'i'.
  AlignmentRecord base;
  base.qname = "x";
  std::string buf;
  encode_record(base, buf);
  std::string body = buf.substr(4);
  auto with_aux = [&](std::initializer_list<uint8_t> bytes) {
    std::string b = body;
    for (uint8_t v : bytes) {
      b += static_cast<char>(v);
    }
    AlignmentRecord out;
    decode_record(b, out);
    return out;
  };
  AlignmentRecord r1 = with_aux({'X', 'A', 'c', 0xFF});  // int8 -1
  ASSERT_EQ(r1.tags.size(), 1u);
  EXPECT_EQ(r1.tags[0].type, 'i');
  EXPECT_EQ(r1.tags[0].int_value, -1);
  AlignmentRecord r2 = with_aux({'X', 'B', 'C', 0xFF});  // uint8 255
  EXPECT_EQ(r2.tags[0].int_value, 255);
  AlignmentRecord r3 = with_aux({'X', 'C', 's', 0x00, 0x80});  // int16 min
  EXPECT_EQ(r3.tags[0].int_value, -32768);
  AlignmentRecord r4 = with_aux({'X', 'D', 'S', 0xFF, 0xFF});  // uint16 max
  EXPECT_EQ(r4.tags[0].int_value, 65535);
  AlignmentRecord r5 =
      with_aux({'X', 'E', 'I', 0xFF, 0xFF, 0xFF, 0xFF});  // uint32 max
  EXPECT_EQ(r5.tags[0].int_value, 4294967295LL);
}

TEST(BamRecord, TruncatedBodyRejected) {
  AlignmentRecord rec = rich_record();
  std::string buf;
  encode_record(rec, buf);
  AlignmentRecord back;
  EXPECT_THROW(
      decode_record(std::string_view(buf).substr(4, buf.size() - 10), back),
      FormatError);
}

// -------------------------------------------------------------- file layer

TEST(BamFile, HeaderRoundTrip) {
  TempDir tmp;
  SamHeader h = test_header();
  std::string path = tmp.file("t.bam");
  {
    BamFileWriter w(path, h);
    w.close();
  }
  BamFileReader r(path);
  EXPECT_EQ(r.header().text(), h.text());
  ASSERT_EQ(r.header().references().size(), 2u);
  EXPECT_EQ(r.header().references()[0].name, "chr1");
  AlignmentRecord rec;
  EXPECT_FALSE(r.next(rec));
}

TEST(BamFile, RecordsRoundTripInOrder) {
  TempDir tmp;
  SamHeader h = test_header();
  std::string path = tmp.file("t.bam");
  std::vector<AlignmentRecord> records;
  for (int i = 0; i < 500; ++i) {
    AlignmentRecord rec = rich_record();
    rec.qname = "r" + std::to_string(i);
    rec.pos = i * 100;
    records.push_back(rec);
  }
  {
    BamFileWriter w(path, h);
    for (const auto& rec : records) {
      w.write(rec);
    }
    w.close();
  }
  BamFileReader r(path);
  AlignmentRecord rec;
  size_t i = 0;
  while (r.next(rec)) {
    ASSERT_LT(i, records.size());
    EXPECT_EQ(rec, records[i]);
    ++i;
  }
  EXPECT_EQ(i, records.size());
}

TEST(BamFile, TellSeekToRecord) {
  TempDir tmp;
  SamHeader h = test_header();
  std::string path = tmp.file("t.bam");
  {
    BamFileWriter w(path, h);
    for (int i = 0; i < 100; ++i) {
      AlignmentRecord rec = rich_record();
      rec.qname = "r" + std::to_string(i);
      w.write(rec);
    }
    w.close();
  }
  // Record voffsets come from the read side, as an indexer takes them.
  BamFileReader r(path);
  AlignmentRecord rec;
  std::vector<uint64_t> voffsets;
  while (voffsets.push_back(r.tell()), r.next(rec)) {
  }
  ASSERT_EQ(voffsets.size(), 101u);  // one per record, plus the end
  r.seek(voffsets[42]);
  ASSERT_TRUE(r.next(rec));
  EXPECT_EQ(rec.qname, "r42");
  r.seek(voffsets[7]);
  ASSERT_TRUE(r.next(rec));
  EXPECT_EQ(rec.qname, "r7");
}

// A BAM of several BGZF blocks for the decode-width cases.
std::string write_multiblock_bam(const TempDir& tmp) {
  std::string path = tmp.file("t.bam");
  BamFileWriter w(path, test_header());
  for (int i = 0; i < 3000; ++i) {
    AlignmentRecord rec = rich_record();
    rec.qname = "r" + std::to_string(i);
    rec.pos = i * 10;
    w.write(rec);
  }
  w.close();
  return path;
}

std::vector<AlignmentRecord> read_all(const std::string& path,
                                      int decode_threads) {
  BamFileReader r(path, decode_threads);
  std::vector<AlignmentRecord> records;
  AlignmentRecord rec;
  while (r.next(rec)) {
    records.push_back(rec);
  }
  return records;
}

TEST(BamFile, ResolveDecodeThreads) {
  // decode_threads 0 resolves to the hardware width and 3 inflates on
  // three workers; both read the records the one-thread reader reads.
  // Negative widths are a usage error.
  TempDir tmp;
  std::string path = write_multiblock_bam(tmp);
  EXPECT_THROW(BamFileReader reader(path, -1), UsageError);
  const std::vector<AlignmentRecord> one = read_all(path, 1);
  ASSERT_EQ(one.size(), 3000u);
  EXPECT_EQ(read_all(path, 0), one);
  EXPECT_EQ(read_all(path, 3), one);
}

TEST(BamFile, OpenReaderFactory) {
  // The constructor opens the BGZF reader at the resolved width: inline at
  // 1, threaded at 4. Both hand back the same records at the same virtual
  // offsets; a negative width opens nothing.
  TempDir tmp;
  std::string path = write_multiblock_bam(tmp);
  EXPECT_THROW(BamFileReader reader(path, -2), UsageError);
  auto walk = [&](int decode_threads) {
    BamFileReader r(path, decode_threads);
    std::vector<std::pair<uint64_t, std::string>> seen;
    AlignmentRecord rec;
    uint64_t voffset = r.tell();
    while (r.next(rec)) {
      seen.emplace_back(voffset, rec.qname);
      voffset = r.tell();
    }
    seen.emplace_back(voffset, "");  // the end
    return seen;
  };
  const auto seq = walk(1);
  ASSERT_EQ(seq.size(), 3001u);
  EXPECT_EQ(walk(4), seq);
}

TEST(BamFile, BadMagicRejected) {
  TempDir tmp;
  std::string path = tmp.file("bad.bam");
  {
    bgzf::Writer w(path);
    w.write("NOPE");
    w.close();
  }
  EXPECT_THROW(BamFileReader reader(path), FormatError);
}

TEST(BamFile, HugeReferenceCountThenEofRejected) {
  // n_ref = INT32_MAX with no reference entries behind it: the reader must
  // stop at the truncation with FormatError, not size anything by n_ref.
  TempDir tmp;
  std::string path = tmp.file("nref.bam");
  {
    bgzf::Writer w(path);
    const int32_t l_text = 0;
    const int32_t n_ref = INT32_MAX;
    w.write("BAM\1");
    w.write(&l_text, 4);
    w.write(&n_ref, 4);
    w.close();
  }
  EXPECT_THROW(BamFileReader reader(path), FormatError);
}

TEST(BamFile, SimulatedDatasetRoundTrip) {
  // Property-style: every simulated record survives BAM round-tripping.
  TempDir tmp;
  auto genome = simdata::ReferenceGenome::simulate(
      simdata::mouse_like_references(200000), 5);
  simdata::ReadSimConfig cfg;
  cfg.seed = 5;
  auto records = simdata::simulate_alignments(genome, 300, cfg);
  std::string path = tmp.file("sim.bam");
  {
    BamFileWriter w(path, genome.header());
    for (const auto& rec : records) {
      w.write(rec);
    }
    w.close();
  }
  BamFileReader r(path);
  AlignmentRecord rec;
  size_t i = 0;
  while (r.next(rec)) {
    ASSERT_LT(i, records.size());
    EXPECT_EQ(rec, records[i]) << "at record " << i;
    ++i;
  }
  EXPECT_EQ(i, records.size());
}

}  // namespace
}  // namespace ngsx::bam
