// Tests for the paper's BAMX / BAIX formats: fixed-stride layout, random
// access, hostile-header bounds, and the region index used by partial
// conversion.

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <tuple>

#include "formats/bamx.h"
#include "simdata/readsim.h"
#include "testutil.h"
#include "util/rng.h"
#include "util/tempdir.h"

namespace ngsx::bamx {
namespace {

using sam::AlignmentRecord;
using sam::SamHeader;

SamHeader test_header() {
  return SamHeader::from_references({{"chr1", 1000000}, {"chr2", 500000}});
}

AlignmentRecord sample_record(int i) {
  AlignmentRecord rec;
  rec.qname = "read-" + std::to_string(i);
  rec.flag = sam::kPaired | (i % 2 == 0 ? sam::kRead1 : sam::kRead2);
  rec.ref_id = i % 2;
  rec.pos = 100 * i;
  rec.mapq = static_cast<uint8_t>(i % 61);
  rec.cigar = sam::parse_cigar(i % 3 == 0 ? "90M" : "5S40M2D45M");
  rec.mate_ref_id = rec.ref_id;
  rec.mate_pos = 100 * i + 200;
  rec.tlen = 290;
  rec.seq = std::string(static_cast<size_t>(50 + i % 40), "ACGT"[i % 4]);
  rec.qual = std::string(rec.seq.size(), 'E');
  if (i % 4 == 0) {
    rec.tags.push_back(sam::parse_aux("NM:i:" + std::to_string(i % 9)));
  }
  if (i % 7 == 0) {
    rec.tags.push_back(sam::parse_aux("ZB:B:S,1,2,3,4"));
  }
  return rec;
}

// ------------------------------------------------------------------ layout

TEST(BamxLayout, AccommodateTracksMaxima) {
  BamxLayout layout;
  AlignmentRecord small = sample_record(1);
  AlignmentRecord big = sample_record(39);  // longer seq
  layout.accommodate(small);
  layout.accommodate(big);
  EXPECT_TRUE(layout.fits(small));
  EXPECT_TRUE(layout.fits(big));
  EXPECT_GE(layout.max_seq, std::max(small.seq.size(), big.seq.size()));
}

TEST(BamxLayout, StrideIsAligned) {
  BamxLayout layout;
  layout.accommodate(sample_record(3));
  EXPECT_EQ(layout.stride() % 8, 0u);
  EXPECT_GE(layout.stride(), layout.aux_offset());
}

TEST(BamxLayout, MergeTakesMaxima) {
  BamxLayout a;
  a.max_qname = 10;
  a.max_seq = 100;
  BamxLayout b;
  b.max_qname = 20;
  b.max_cigar = 7;
  a.merge(b);
  EXPECT_EQ(a.max_qname, 20u);
  EXPECT_EQ(a.max_seq, 100u);
  EXPECT_EQ(a.max_cigar, 7u);
}

TEST(BamxLayout, FitsRejectsOversize) {
  BamxLayout layout;
  layout.accommodate(sample_record(1));
  AlignmentRecord huge = sample_record(1);
  huge.qname = std::string(200, 'q');
  EXPECT_FALSE(layout.fits(huge));
}

// ------------------------------------------------------------ record codec

TEST(BamxRecord, EncodeDecodeRoundTrip) {
  for (int i = 0; i < 50; ++i) {
    AlignmentRecord rec = sample_record(i);
    BamxLayout layout;
    layout.accommodate(rec);
    // Pad the layout beyond the record to exercise real padding.
    layout.max_qname += 13;
    layout.max_cigar += 3;
    layout.max_seq += 21;
    layout.max_aux += 17;
    std::string buf;
    encode_record(rec, layout, buf);
    EXPECT_EQ(buf.size(), layout.stride());
    AlignmentRecord back;
    decode_record(buf, layout, back);
    EXPECT_EQ(back, rec) << "record " << i;
  }
}

TEST(BamxRecord, EncodeRejectsOverflow) {
  BamxLayout tiny;
  tiny.max_qname = 2;
  AlignmentRecord rec = sample_record(1);
  std::string buf;
  EXPECT_THROW(encode_record(rec, tiny, buf), UsageError);
}

TEST(BamxRecord, PeekRefPos) {
  AlignmentRecord rec = sample_record(5);
  BamxLayout layout;
  layout.accommodate(rec);
  std::string buf;
  encode_record(rec, layout, buf);
  // ref_id and pos sit at fixed offsets 0 and 4 of every record, so an
  // index builder can read them without decoding the record.
  EXPECT_EQ(binio::get_le<int32_t>(buf, 0), rec.ref_id);
  EXPECT_EQ(binio::get_le<int32_t>(buf, 4), rec.pos);
}

TEST(BamxRecord, UnmappedRoundTrip) {
  AlignmentRecord rec;
  rec.qname = "u";
  rec.flag = sam::kUnmapped;
  rec.seq = "ACGT";
  BamxLayout layout;
  layout.accommodate(rec);
  std::string buf;
  encode_record(rec, layout, buf);
  AlignmentRecord back;
  decode_record(buf, layout, back);
  EXPECT_EQ(back, rec);
}

// -------------------------------------------------------------- file layer

struct FileFixture {
  TempDir tmp;
  std::string path;
  std::vector<AlignmentRecord> records;
  BamxLayout layout;

  explicit FileFixture(int n = 200) {
    for (int i = 0; i < n; ++i) {
      records.push_back(sample_record(i));
      layout.accommodate(records.back());
    }
    path = tmp.file("t.bamx");
    BamxWriter w(path, test_header(), layout);
    for (const auto& rec : records) {
      w.write(rec);
    }
    w.close();
  }
};

TEST(BamxFile, HeaderAndCountPersisted) {
  FileFixture f;
  RecordSource r(f.path);
  EXPECT_EQ(r.num_records(), f.records.size());
  EXPECT_EQ(r.layout(), f.layout);
  EXPECT_EQ(r.header().references().size(), 2u);
}

TEST(BamxFile, RandomAccessAnyOrder) {
  FileFixture f;
  RecordSource r(f.path);
  for (uint64_t i : {199u, 0u, 57u, 123u, 1u, 198u}) {
    EXPECT_EQ(testutil::read_records(r, i, i + 1),
              std::vector<AlignmentRecord>{f.records[i]})
        << "record " << i;
  }
}

TEST(BamxFile, ReadRangeBulk) {
  FileFixture f;
  RecordSource r(f.path);
  const uint64_t stride = r.layout().stride();
  std::string bytes;
  r.read_raw_range(50, 100, bytes);
  ASSERT_EQ(bytes.size(), 50 * stride);
  AlignmentRecord rec;
  for (uint64_t i = 0; i < 50; ++i) {
    decode_record(std::string_view(bytes).substr(i * stride, stride),
                  r.layout(), rec);
    EXPECT_EQ(rec, f.records[50 + i]);
  }
  // Appending semantics: the bytes of records [0, 10) follow.
  r.read_raw_range(0, 10, bytes);
  ASSERT_EQ(bytes.size(), 60 * stride);
  decode_record(std::string_view(bytes).substr(50 * stride, stride),
                r.layout(), rec);
  EXPECT_EQ(rec, f.records[0]);
  // Empty range is a no-op.
  r.read_raw_range(5, 5, bytes);
  EXPECT_EQ(bytes.size(), 60 * stride);
}

TEST(BamxFile, OutOfRangeChecked) {
  FileFixture f;
  RecordSource r(f.path);
  std::string bytes;
  EXPECT_THROW(r.read_raw_range(f.records.size(), f.records.size() + 1, bytes),
               Error);
  EXPECT_THROW(r.read_raw_range(0, f.records.size() + 1, bytes), Error);
  EXPECT_THROW(r.read_raw_range(10, 5, bytes), Error);
  EXPECT_TRUE(bytes.empty());
}

TEST(BamxFile, BadMagicRejected) {
  TempDir tmp;
  std::string path = tmp.file("bad.bamx");
  write_file(path, "garbage garbage garbage garbage garbage!");
  EXPECT_THROW(RecordSource r(path), FormatError);
}

TEST(BamxFile, TruncationDetected) {
  FileFixture f;
  std::string data = read_file(f.path);
  std::string cut = f.tmp.file("cut.bamx");
  write_file(cut, data.substr(0, data.size() - f.layout.stride()));
  EXPECT_THROW(RecordSource r(cut), FormatError);
}

TEST(BamxFile, EmptyFileRoundTrip) {
  TempDir tmp;
  std::string path = tmp.file("empty.bamx");
  BamxLayout layout;
  {
    BamxWriter w(path, test_header(), layout);
    w.close();
  }
  RecordSource r(path);
  EXPECT_EQ(r.num_records(), 0u);
}

// ------------------------------------------------------------- raw ranges

TEST(BamxFile, RawRangeMatchesEncodedRecords) {
  FileFixture f;
  RecordSource r(f.path);
  std::string expected;
  for (uint64_t i = 30; i < 70; ++i) {
    encode_record(f.records[i], f.layout, expected);
  }
  std::string raw;
  r.read_raw_range(30, 70, raw);
  EXPECT_EQ(raw, expected);
  // Appending semantics; empty range is a no-op.
  r.read_raw_range(10, 10, raw);
  EXPECT_EQ(raw.size(), 40 * f.layout.stride());
  r.read_raw_range(0, 1, raw);
  EXPECT_EQ(raw.size(), 41 * f.layout.stride());
  // The appended block decodes back to the record it came from.
  AlignmentRecord back;
  decode_record(
      std::string_view(raw).substr(40 * f.layout.stride(), f.layout.stride()),
      f.layout, back);
  EXPECT_EQ(back, f.records[0]);
  EXPECT_THROW(r.read_raw_range(0, f.records.size() + 1, raw), Error);
}

TEST(BamxFile, RawRangeAcrossShards) {
  FileFixture f;  // 200 records, shared layout
  // Hand-shard the fixture's records into three BAMX files plus manifest.
  const std::vector<std::pair<uint64_t, uint64_t>> parts = {
      {0, 80}, {80, 130}, {130, 200}};
  BamxManifest m;
  m.layout = f.layout;
  m.n_records = f.records.size();
  for (size_t s = 0; s < parts.size(); ++s) {
    std::string name = "shard-" + std::to_string(s) + ".bamx";
    BamxWriter w(f.tmp.file(name), test_header(), f.layout);
    for (uint64_t i = parts[s].first; i < parts[s].second; ++i) {
      w.write(f.records[i]);
    }
    w.close();
    m.shards.push_back(
        {name, parts[s].second - parts[s].first, parts[s].first});
  }
  std::string manifest = f.tmp.file("t.bamxm");
  m.save(manifest);

  RecordSource sharded(manifest);
  RecordSource mono(f.path);
  EXPECT_EQ(sharded.num_shards(), 3u);
  EXPECT_EQ(mono.num_shards(), 1u);
  // Ranges fully inside a shard, touching a boundary, and spanning all
  // three shards must all match the monolithic bytes exactly.
  for (auto [beg, end] : std::vector<std::pair<uint64_t, uint64_t>>{
           {0, 0}, {5, 40}, {78, 82}, {80, 130}, {60, 170}, {0, 200}}) {
    std::string a, b;
    mono.read_raw_range(beg, end, a);
    sharded.read_raw_range(beg, end, b);
    EXPECT_EQ(a, b) << "range [" << beg << ", " << end << ")";
    EXPECT_EQ(a.size(), (end - beg) * f.layout.stride());
  }
  std::string out;
  EXPECT_THROW(sharded.read_raw_range(0, 201, out), Error);
}

// ----------------------------------------------------- hostile file headers

/// The fixture's BAMX with the u64 header field at `offset` overwritten.
std::string patched_copy(const FileFixture& f, size_t offset, uint64_t value) {
  std::string data = read_file(f.path);
  binio::poke_le<uint64_t>(data, offset, value);
  std::string path = f.tmp.file("patched.bamx");
  write_file(path, data);
  return path;
}

// Offsets of the fixed header's u64 fields (docs/FILEFORMATS.md).
constexpr size_t kNRecordsAt = 5 + 2 + 16 + 8;
constexpr size_t kBlobSizeAt = kNRecordsAt + 8;

TEST(BamxFile, HugeBlobSizeRejectedBeforeAllocating) {
  FileFixture f(4);
  EXPECT_THROW(RecordSource(patched_copy(f, kBlobSizeAt, uint64_t{1} << 62)),
               FormatError);
  EXPECT_THROW(RecordSource(patched_copy(f, kBlobSizeAt, UINT64_MAX)),
               FormatError);
}

TEST(BamxFile, WrappingRecordCountRejected) {
  // n_records * stride wraps past 2^64 to less than the file holds; the
  // count must still be rejected.
  FileFixture f(4);
  const uint64_t wraps = UINT64_MAX / f.layout.stride() + 1;
  EXPECT_THROW(RecordSource(patched_copy(f, kNRecordsAt, wraps)),
               FormatError);
  EXPECT_THROW(RecordSource(patched_copy(f, kNRecordsAt, 5)), FormatError);
  EXPECT_EQ(RecordSource(patched_copy(f, kNRecordsAt, 3)).num_records(), 3u);
}

// ---------------------------------------------------- opening by magic

std::string open_error(const std::string& path) {
  try {
    RecordSource source(path);
  } catch (const FormatError& e) {
    return e.what();
  }
  ADD_FAILURE() << "no FormatError for " << path;
  return {};
}

TEST(OpenRecordSource, EmptyFileNamedInError) {
  TempDir tmp;
  std::string path = tmp.file("zero.bamx");
  write_file(path, "");
  std::string msg = open_error(path);
  EXPECT_NE(msg.find(path), std::string::npos) << msg;
  EXPECT_NE(msg.find("the file is empty"), std::string::npos) << msg;
}

TEST(OpenRecordSource, TruncatedMagicHexDumped) {
  TempDir tmp;
  std::string path = tmp.file("two.bamx");
  write_file(path, "BA");  // 2 bytes: a plausible but cut-short magic
  std::string msg = open_error(path);
  EXPECT_NE(msg.find(path), std::string::npos) << msg;
  EXPECT_NE(msg.find("truncated magic, only 2 byte(s)"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("42 41"), std::string::npos) << msg;  // 'B' 'A' in hex
}

TEST(OpenRecordSource, UnknownMagicHexDumped) {
  TempDir tmp;
  std::string path = tmp.file("seven.bin");
  write_file(path, "NOTBAM!");  // 7 bytes, wrong magic
  std::string msg = open_error(path);
  EXPECT_NE(msg.find(path), std::string::npos) << msg;
  // Only the six sniffed bytes are reported: "NOTBAM".
  EXPECT_NE(msg.find("magic bytes: 4e 4f 54 42 41 4d"), std::string::npos)
      << msg;
}

// -------------------------------------------------------------------- BAIX

TEST(Baix, BuildSortsByRefThenPos) {
  FileFixture f;
  BaixIndex index = testutil::baix_of(f.records);
  ASSERT_EQ(index.size(), f.records.size());
  for (size_t i = 1; i < index.size(); ++i) {
    const auto& a = index.entry(i - 1);
    const auto& b = index.entry(i);
    uint32_t ra = static_cast<uint32_t>(a.ref_id);
    uint32_t rb = static_cast<uint32_t>(b.ref_id);
    EXPECT_TRUE(ra < rb || (ra == rb && a.pos <= b.pos));
  }
}

TEST(Baix, QueryMatchesLinearFilter) {
  FileFixture f;
  BaixReader index =
      testutil::saved_baix_of(f.records, f.tmp.file("q.baix"));
  for (auto [ref, beg, end] : std::vector<std::tuple<int, int, int>>{
           {0, 0, 5000}, {0, 3000, 9000}, {1, 0, 100000}, {0, 0, 1}}) {
    auto [lo, hi] = index.query(ref, beg, end);
    size_t expect = 0;
    for (const auto& rec : f.records) {
      if (rec.ref_id == ref && rec.pos >= beg && rec.pos < end) {
        ++expect;
      }
    }
    EXPECT_EQ(hi - lo, expect) << "region " << ref << ":" << beg << "-"
                               << end;
    for (const BaixEntry& e : index.entries(lo, hi)) {
      EXPECT_EQ(e.ref_id, ref);
      EXPECT_GE(e.pos, beg);
      EXPECT_LT(e.pos, end);
    }
  }
}

TEST(Baix, EntriesPointToCorrectRecords) {
  FileFixture f;
  RecordSource r(f.path);
  BaixReader index =
      testutil::saved_baix_of(f.records, f.tmp.file("p.baix"));
  const auto records = testutil::read_records(r, 0, r.num_records());
  auto [lo, hi] = index.query(0, 0, 2000);
  for (const BaixEntry& e : index.entries(lo, hi)) {
    const AlignmentRecord& rec = records.at(e.record_index);
    EXPECT_EQ(rec.pos, e.pos);
    EXPECT_EQ(rec.ref_id, e.ref_id);
  }
}

TEST(Baix, SaveLoadRoundTrip) {
  FileFixture f;
  BaixIndex index = testutil::baix_of(f.records);
  std::string path = f.tmp.file("t.baix");
  index.save(path);
  BaixReader reader(path);
  ASSERT_EQ(reader.size(), index.size());
  EXPECT_EQ(reader.entries(0, reader.size()), index.entries());
  BaixReader fresh(path);  // entry by entry, from a cold cache
  for (size_t i = 0; i < index.size(); ++i) {
    EXPECT_EQ(fresh.entry(i), index.entry(i)) << i;
  }
}

TEST(Baix, LoadBadMagicThrows) {
  TempDir tmp;
  std::string path = tmp.file("bad.baix");
  write_file(path, "XXXXXXXXXXXXXXXXX");
  EXPECT_THROW(BaixReader reader(path), FormatError);
}

TEST(Baix, HugeEntryCountRejected) {
  // 2^60 entries of 16 bytes wrap the byte count to 0; the size check must
  // still fail, as a FormatError, before anything is sized from it.
  TempDir tmp;
  BaixIndex().save(tmp.file("empty.baix"));
  std::string data = read_file(tmp.file("empty.baix"));
  binio::poke_le<uint64_t>(data, data.size() - 8, uint64_t{1} << 60);
  write_file(tmp.file("huge.baix"), data + std::string(32, '\0'));
  EXPECT_THROW(BaixReader reader(tmp.file("huge.baix")), FormatError);
}

TEST(Baix, EntryCountBoundIsExact) {
  // Two entries' worth of bytes plus a partial one: a count of 2 opens, 3
  // does not.
  TempDir tmp;
  BaixIndex::from_entries({{0, 5, 0}, {0, 9, 1}}).save(tmp.file("two.baix"));
  const std::string data = read_file(tmp.file("two.baix")) + "partial";
  write_file(tmp.file("ok.baix"), data);
  EXPECT_EQ(BaixReader(tmp.file("ok.baix")).size(), 2u);
  std::string over = data;
  binio::poke_le<uint64_t>(over, 7, 3);
  write_file(tmp.file("over.baix"), over);
  EXPECT_THROW(BaixReader reader(tmp.file("over.baix")), FormatError);
}

TEST(Baix, TruncatedHeaderAndBadVersionRejected) {
  TempDir tmp;
  BaixIndex().save(tmp.file("empty.baix"));
  const std::string data = read_file(tmp.file("empty.baix"));
  for (size_t keep : {0, 4, 5, 7, 14}) {
    write_file(tmp.file("short.baix"), data.substr(0, keep));
    EXPECT_THROW(BaixReader reader(tmp.file("short.baix")), FormatError)
        << keep << " bytes";
  }
  std::string v2 = data;
  binio::poke_le<uint16_t>(v2, 5, 2);
  write_file(tmp.file("v2.baix"), v2);
  EXPECT_THROW(BaixReader reader(tmp.file("v2.baix")), FormatError);
}

TEST(Baix, UnmappedSortLast) {
  std::vector<BaixEntry> entries = {
      {-1, -1, 0}, {0, 50, 1}, {1, 10, 2}, {0, 10, 3}};
  BaixIndex index = BaixIndex::from_entries(entries);
  EXPECT_EQ(index.entry(0).record_index, 3u);  // chr0:10
  EXPECT_EQ(index.entry(1).record_index, 1u);  // chr0:50
  EXPECT_EQ(index.entry(2).record_index, 2u);  // chr1:10
  EXPECT_EQ(index.entry(3).record_index, 0u);  // unmapped last
}

TEST(Baix, EmptyQuery) {
  TempDir tmp;
  BaixIndex().save(tmp.file("empty.baix"));
  BaixReader index(tmp.file("empty.baix"));
  auto [lo, hi] = index.query(0, 0, 100);
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 0u);
  EXPECT_TRUE(index.entries(lo, hi).empty());
}

// ---------------------------------------------- BaixReader against an oracle

/// The answer BaixReader::query must give: std::lower_bound over the
/// entries in memory.
std::pair<size_t, size_t> oracle_query(const std::vector<BaixEntry>& entries,
                                       int32_t ref, int32_t beg, int32_t end) {
  auto at = [&](int32_t pos) {
    return static_cast<size_t>(
        std::lower_bound(entries.begin(), entries.end(),
                         BaixEntry{ref, pos, 0}, baix_entry_less) -
        entries.begin());
  };
  return {at(beg), at(end)};
}

/// `n` random entries over refs {-1, 0, 1, 2} and positions [0, 300), so
/// positions repeat and unmapped entries sort last.
BaixIndex random_baix(Rng& rng, size_t n) {
  std::vector<BaixEntry> entries;
  for (size_t i = 0; i < n; ++i) {
    const int32_t ref = static_cast<int32_t>(rng.below(4)) - 1;
    const int32_t pos = ref < 0 ? -1 : static_cast<int32_t>(rng.below(300));
    entries.push_back(BaixEntry{ref, pos, i});
  }
  return BaixIndex::from_entries(std::move(entries));
}

/// Regions that hit every edge of `index`: random ones, one before the
/// first entry, one after the last, and ones bounded by the entries on
/// each side of the first page edges (255, 256, 257, 511, 512, 513).
std::vector<std::tuple<int32_t, int32_t, int32_t>> edge_regions(
    Rng& rng, const BaixIndex& index) {
  std::vector<std::tuple<int32_t, int32_t, int32_t>> regions = {
      {0, -100, -1}, {2, 300, 1 << 30}, {3, 0, 100}, {-1, -1, 0},
      {-1, -5, 5},   {0, 0, 1 << 30},   {1, 50, 10}};
  for (int i = 0; i < 40; ++i) {
    const int32_t ref = static_cast<int32_t>(rng.below(5)) - 1;
    const int32_t beg = static_cast<int32_t>(rng.below(320)) - 10;
    regions.emplace_back(ref, beg,
                         beg + static_cast<int32_t>(rng.below(120)));
  }
  for (size_t e : {255, 256, 257, 511, 512, 513}) {
    if (e < index.size()) {
      const BaixEntry& at = index.entry(e);
      regions.emplace_back(at.ref_id, at.pos, at.pos + 1);
      regions.emplace_back(at.ref_id, at.pos - 3, at.pos);
      if (e > 0 && index.entry(e - 1).ref_id == at.ref_id) {
        regions.emplace_back(at.ref_id, index.entry(e - 1).pos, at.pos + 2);
      }
    }
  }
  return regions;
}

TEST(BaixReader, MatchesLowerBoundOracle) {
  TempDir tmp;
  Rng rng(24);
  for (size_t n : {0, 1, 2, 255, 256, 257, 511, 512, 513, 1000, 3000}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    const BaixIndex index = random_baix(rng, n);
    const std::string path = tmp.file("r" + std::to_string(n) + ".baix");
    index.save(path);
    BaixReader warm(path);  // one reader for every region: pages pile up
    for (auto [ref, beg, end] : edge_regions(rng, index)) {
      SCOPED_TRACE("region " + std::to_string(ref) + ":" +
                   std::to_string(beg) + "-" + std::to_string(end));
      const auto expect = oracle_query(index.entries(), ref, beg, end);
      BaixReader cold(path);
      EXPECT_EQ(cold.query(ref, beg, end), expect);
      EXPECT_EQ(warm.query(ref, beg, end), expect);
      if (expect.first < expect.second) {
        const std::vector<BaixEntry> answer(
            index.entries().begin() + static_cast<ptrdiff_t>(expect.first),
            index.entries().begin() + static_cast<ptrdiff_t>(expect.second));
        EXPECT_EQ(cold.entries(expect.first, expect.second), answer);
        EXPECT_EQ(BaixReader(path).entries(expect.first, expect.second),
                  answer);
        EXPECT_EQ(warm.entries(expect.first, expect.second), answer);
      }
    }
    EXPECT_EQ(warm.entries(0, n), index.entries());
  }
}

TEST(BaixReader, AnswerAcrossCachedAndMissingPages) {
  // Pages 1 and 3 cached, 0, 2 and 4 missing: one read fills 0..4 and the
  // cached pages keep their entries.
  TempDir tmp;
  Rng rng(5);
  const BaixIndex index = random_baix(rng, 1200);
  index.save(tmp.file("m.baix"));
  BaixReader reader(tmp.file("m.baix"));
  EXPECT_EQ(reader.entry(300), index.entry(300));
  EXPECT_EQ(reader.entry(800), index.entry(800));
  const std::vector<BaixEntry> answer(index.entries().begin() + 10,
                                      index.entries().begin() + 1100);
  EXPECT_EQ(reader.entries(10, 1100), answer);
  EXPECT_EQ(reader.entries(0, 1200), index.entries());
}

TEST(BaixReader, ConcurrentQueriesOnOneReader) {
  // Eight threads race on one cold reader: every page is read by whoever
  // needs it first and published once; every answer matches the oracle.
  TempDir tmp;
  Rng rng(88);
  const BaixIndex index = random_baix(rng, 5000);
  index.save(tmp.file("c.baix"));
  std::vector<std::tuple<int32_t, int32_t, int32_t>> regions =
      edge_regions(rng, index);
  BaixReader reader(tmp.file("c.baix"));
  std::vector<int> mismatches(8, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 4; ++round) {
        for (size_t k = 0; k < regions.size(); ++k) {
          auto [ref, beg, end] = regions[(k * 7 + static_cast<size_t>(t)) %
                                         regions.size()];
          const auto expect = oracle_query(index.entries(), ref, beg, end);
          const auto got = reader.query(ref, beg, end);
          if (got != expect) {
            ++mismatches[static_cast<size_t>(t)];
            continue;
          }
          const auto entries = reader.entries(got.first, got.second);
          for (size_t e = got.first; e < got.second; ++e) {
            if (entries[e - got.first] != index.entry(e)) {
              ++mismatches[static_cast<size_t>(t)];
            }
          }
        }
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  EXPECT_EQ(mismatches, std::vector<int>(8, 0));
  EXPECT_EQ(reader.entries(0, index.size()), index.entries());
}

}  // namespace
}  // namespace ngsx::bamx
