// Tests for the multi-threaded BGZF reader: ParallelReader must be
// observationally identical to the sequential Reader — same bytes, same
// tell() values, same FormatError messages on corrupt input — across
// random read()/seek() interleavings and thread counts. The writer's
// thread matrix lives in bgzf_test.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "formats/bgzf.h"
#include "formats/bgzf_parallel.h"
#include "util/rng.h"
#include "util/tempdir.h"

namespace ngsx::bgzf {
namespace {

std::string random_payload(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string s(n, '\0');
  for (auto& c : s) {
    c = "ACGTNacgtn\t 0123456789"[rng.below(21)];
  }
  return s;
}

// ------------------------------------------------------------ reader side

/// Writes `payload` as a BGZF file with irregular block boundaries driven
/// by `seed` (flush_block at random points), returning the path.
std::string write_bgzf(const TempDir& tmp, const std::string& name,
                       const std::string& payload, uint64_t seed) {
  std::string path = tmp.file(name);
  Writer w(path);
  Rng rng(seed);
  size_t pos = 0;
  while (pos < payload.size()) {
    size_t take = std::min(payload.size() - pos, 1 + rng.below(80000));
    w.write(std::string_view(payload).substr(pos, take));
    pos += take;
    if (rng.below(3) == 0) {
      w.flush_block();  // irregular (including short) block boundaries
    }
  }
  w.close();
  return path;
}

std::string drain(ReaderBase& r, size_t chunk = 8192) {
  std::string out;
  std::string buf(chunk, '\0');
  size_t got;
  while ((got = r.read(buf.data(), buf.size())) > 0) {
    out.append(buf.data(), got);
  }
  return out;
}

class DecodeThreads : public ::testing::TestWithParam<int> {};

TEST_P(DecodeThreads, FullScanByteIdentical) {
  TempDir tmp;
  std::string payload = random_payload(3 << 20, 11);
  std::string path = write_bgzf(tmp, "t.bgzf", payload, 12);

  ParallelReader par(path, GetParam());
  Reader seq(path);
  EXPECT_EQ(drain(par), payload);
  EXPECT_EQ(drain(seq), payload);
  EXPECT_TRUE(par.eof());
  EXPECT_TRUE(seq.eof());
  EXPECT_EQ(par.tell(), seq.tell());
  EXPECT_EQ(par.compressed_size(), seq.compressed_size());
}

TEST_P(DecodeThreads, TellParityDuringScan) {
  // tell() must return the same virtual offsets as the sequential reader
  // at every read boundary — indexes built against one must work with the
  // other.
  TempDir tmp;
  std::string payload = random_payload(1 << 19, 21);
  std::string path = write_bgzf(tmp, "t.bgzf", payload, 22);

  ParallelReader par(path, GetParam());
  Reader seq(path);
  Rng rng(23);
  char pbuf[40000];
  char sbuf[40000];
  while (true) {
    EXPECT_EQ(par.tell(), seq.tell());
    size_t n = 1 + rng.below(sizeof(pbuf));
    size_t pgot = par.read(pbuf, n);
    size_t sgot = seq.read(sbuf, n);
    ASSERT_EQ(pgot, sgot);
    ASSERT_EQ(std::string_view(pbuf, pgot), std::string_view(sbuf, sgot));
    if (pgot == 0) {
      break;
    }
  }
  EXPECT_EQ(par.tell(), seq.tell());
}

TEST_P(DecodeThreads, RandomReadSeekInterleavingMatchesSequential) {
  // Property test: drive both readers with the same random op stream —
  // reads of random sizes and seeks to voffsets previously returned by
  // tell() — and require identical bytes and identical tell() throughout.
  TempDir tmp;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    size_t payload_size = 50000 + Rng(seed).below(2 << 20);
    std::string payload = random_payload(payload_size, 100 + seed);
    std::string path = write_bgzf(tmp, "s" + std::to_string(seed) + ".bgzf",
                                  payload, 200 + seed);

    ParallelReader par(path, GetParam());
    Reader seq(path);
    Rng rng(300 + seed);
    std::vector<uint64_t> voffsets{0};
    char pbuf[70000];
    char sbuf[70000];
    for (int op = 0; op < 60; ++op) {
      if (rng.below(3) == 0 && !voffsets.empty()) {
        uint64_t target = voffsets[rng.below(voffsets.size())];
        par.seek(target);
        seq.seek(target);
      } else {
        size_t n = 1 + rng.below(sizeof(pbuf));
        size_t pgot = par.read(pbuf, n);
        size_t sgot = seq.read(sbuf, n);
        ASSERT_EQ(pgot, sgot) << "seed " << seed << " op " << op;
        ASSERT_EQ(std::string_view(pbuf, pgot),
                  std::string_view(sbuf, sgot))
            << "seed " << seed << " op " << op;
      }
      ASSERT_EQ(par.tell(), seq.tell()) << "seed " << seed << " op " << op;
      ASSERT_EQ(par.eof(), seq.eof()) << "seed " << seed << " op " << op;
      voffsets.push_back(par.tell());
    }
  }
}

TEST_P(DecodeThreads, SeekRoundTripRestoresStream) {
  TempDir tmp;
  std::string payload = random_payload(1 << 20, 31);
  std::string path = write_bgzf(tmp, "t.bgzf", payload, 32);

  ParallelReader par(path, GetParam());
  // Collect voffset -> expected remainder pairs with the sequential reader.
  Reader seq(path);
  std::vector<std::pair<uint64_t, size_t>> marks;  // voffset, consumed bytes
  char buf[30000];
  size_t consumed = 0;
  for (int i = 0; i < 20; ++i) {
    marks.emplace_back(seq.tell(), consumed);
    consumed += seq.read(buf, sizeof(buf));
  }
  // Visit marks in a scrambled order; each seek must land exactly there.
  Rng rng(33);
  for (int i = 0; i < 40; ++i) {
    auto [voffset, offset] = marks[rng.below(marks.size())];
    par.seek(voffset);
    EXPECT_EQ(par.tell(), voffset);
    size_t want = std::min<size_t>(sizeof(buf), payload.size() - offset);
    std::string got(want, '\0');
    par.read_exact(got.data(), got.size());
    EXPECT_EQ(got, payload.substr(offset, want)) << "mark voffset " << voffset;
  }
}

TEST_P(DecodeThreads, SeekToEofIsLegalAndSticky) {
  TempDir tmp;
  std::string payload = random_payload(200000, 41);
  std::string path = write_bgzf(tmp, "t.bgzf", payload, 42);

  Reader seq(path);
  (void)drain(seq);
  uint64_t end_voffset = seq.tell();

  ParallelReader par(path, GetParam());
  par.seek(end_voffset);
  char c;
  EXPECT_EQ(par.read(&c, 1), 0u);
  EXPECT_TRUE(par.eof());
  EXPECT_EQ(par.tell(), seq.tell());
  // And back to the start: the pipeline restarts cleanly after EOF.
  par.seek(0);
  EXPECT_FALSE(par.eof());
  EXPECT_EQ(drain(par), payload);
}

TEST_P(DecodeThreads, SeekPastEndThrowsLikeSequential) {
  TempDir tmp;
  std::string path = write_bgzf(tmp, "t.bgzf", random_payload(100000, 51), 52);

  ParallelReader par(path, GetParam());
  Reader seq(path);
  uint64_t bogus = make_voffset(1ull << 40, 17);
  std::string par_msg;
  std::string seq_msg;
  try {
    par.seek(bogus);
  } catch (const FormatError& e) {
    par_msg = e.what();
  }
  try {
    seq.seek(bogus);
  } catch (const FormatError& e) {
    seq_msg = e.what();
  }
  EXPECT_FALSE(par_msg.empty());
  EXPECT_EQ(par_msg, seq_msg);
}

TEST_P(DecodeThreads, SeekBeyondBlockPayloadThrowsLikeSequential) {
  TempDir tmp;
  std::string path = tmp.file("t.bgzf");
  {
    Writer w(path);
    w.write("short");  // one 5-byte block
    w.close();
  }
  ParallelReader par(path, GetParam());
  Reader seq(path);
  uint64_t bogus = make_voffset(0, 4000);  // uoffset > payload
  std::string par_msg;
  std::string seq_msg;
  try {
    par.seek(bogus);
  } catch (const FormatError& e) {
    par_msg = e.what();
  }
  try {
    seq.seek(bogus);
  } catch (const FormatError& e) {
    seq_msg = e.what();
  }
  EXPECT_FALSE(par_msg.empty());
  EXPECT_EQ(par_msg, seq_msg);
}

/// Reads both readers to exhaustion and returns (sequential error message,
/// parallel error message); empty string = no error.
std::pair<std::string, std::string> drain_errors(const std::string& path,
                                                 int threads) {
  std::string seq_msg;
  std::string par_msg;
  try {
    Reader seq(path);
    (void)drain(seq);
  } catch (const FormatError& e) {
    seq_msg = e.what();
  }
  try {
    ParallelReader par(path, threads);
    (void)drain(par);
  } catch (const FormatError& e) {
    par_msg = e.what();
  }
  return {seq_msg, par_msg};
}

TEST_P(DecodeThreads, TruncatedBlockErrorParity) {
  // Cut the file mid-block: both readers must deliver the same prefix and
  // then throw the same FormatError (with the compressed offset), with no
  // hang.
  TempDir tmp;
  std::string payload = random_payload(1 << 20, 61);
  std::string path = write_bgzf(tmp, "t.bgzf", payload, 62);
  std::string bytes = read_file(path);

  // Mid-block truncation (not on a header boundary).
  std::string cut_block = tmp.file("cut_block.bgzf");
  write_file(cut_block, bytes.substr(0, bytes.size() * 2 / 3));
  auto [seq_msg, par_msg] = drain_errors(cut_block, GetParam());
  EXPECT_FALSE(seq_msg.empty());
  EXPECT_EQ(par_msg, seq_msg);

  // Mid-header truncation: find the last block start by re-scanning.
  std::string cut_header = tmp.file("cut_header.bgzf");
  size_t last_start = 0;
  for (size_t pos = 0; pos + kBlockHeaderSize <= bytes.size();) {
    last_start = pos;
    pos += peek_block_size(std::string_view(bytes).substr(pos));
  }
  write_file(cut_header, bytes.substr(0, last_start + 5));
  auto [seq_msg2, par_msg2] = drain_errors(cut_header, GetParam());
  EXPECT_FALSE(seq_msg2.empty());
  EXPECT_EQ(par_msg2, seq_msg2);
}

TEST_P(DecodeThreads, CorruptBlockBodyErrorParity) {
  // Flip bytes inside a block body: CRC/inflate failure must carry the
  // same message (with compressed offset) from both readers.
  TempDir tmp;
  std::string payload = random_payload(1 << 20, 71);
  std::string path = write_bgzf(tmp, "t.bgzf", payload, 72);
  std::string bytes = read_file(path);

  // Block extents: flips stay inside block *bodies* (past the 18-byte
  // header). A header flip derails the framing scan itself, and then
  // which error wins in the parallel reader (scanner vs. an inflate
  // worker) is timing-dependent; body flips always fail in the inflate
  // of that one block, so the message must match exactly.
  std::vector<std::pair<size_t, size_t>> blocks;  // start, total size
  for (size_t pos = 0; pos + kBlockHeaderSize <= bytes.size();) {
    size_t total = peek_block_size(std::string_view(bytes).substr(pos));
    blocks.emplace_back(pos, total);
    pos += total;
  }
  ASSERT_GT(blocks.size(), 2u);

  Rng rng(73);
  for (int trial = 0; trial < 4; ++trial) {
    std::string corrupt = bytes;
    auto [start, total] = blocks[rng.below(blocks.size() - 1)];  // skip EOF
    size_t pos = start + kBlockHeaderSize +
                 rng.below(total - kBlockHeaderSize);
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 + rng.below(255)));
    std::string cpath = tmp.file("c" + std::to_string(trial) + ".bgzf");
    write_file(cpath, corrupt);
    auto [seq_msg, par_msg] = drain_errors(cpath, GetParam());
    EXPECT_FALSE(seq_msg.empty()) << "trial " << trial << " flip at " << pos;
    EXPECT_EQ(par_msg, seq_msg) << "trial " << trial << " flip at " << pos;
  }
}

TEST_P(DecodeThreads, ErrorIsStickyAcrossReads) {
  TempDir tmp;
  std::string path = write_bgzf(tmp, "t.bgzf", random_payload(1 << 19, 81),
                                82);
  std::string bytes = read_file(path);
  write_file(path, bytes.substr(0, bytes.size() - 40));  // truncate

  ParallelReader par(path, GetParam());
  EXPECT_THROW((void)drain(par), FormatError);
  char c;
  EXPECT_THROW((void)par.read(&c, 1), FormatError);  // still failed
  EXPECT_THROW((void)par.eof(), FormatError);
}

TEST_P(DecodeThreads, MissingEofMarkerReadsLikeSequential) {
  // The sequential reader does not require the EOF marker; the parallel
  // reader must not either.
  TempDir tmp;
  std::string payload = random_payload(300000, 91);
  std::string path = write_bgzf(tmp, "t.bgzf", payload, 92);
  std::string bytes = read_file(path);
  ASSERT_EQ(std::string_view(bytes).substr(bytes.size() - 28),
            eof_marker());
  write_file(path, bytes.substr(0, bytes.size() - 28));

  ParallelReader par(path, GetParam());
  Reader seq(path);
  EXPECT_EQ(drain(par), payload);
  EXPECT_EQ(drain(seq), payload);
  EXPECT_EQ(par.tell(), seq.tell());
}

TEST_P(DecodeThreads, DestructionMidStreamDoesNotHang) {
  // Abandoning a reader with most of the file unread must cancel the
  // pipeline promptly (a stalled committer would deadlock the dtor).
  TempDir tmp;
  std::string path = write_bgzf(tmp, "t.bgzf", random_payload(4 << 20, 95),
                                96);
  for (int i = 0; i < 8; ++i) {
    ParallelReader par(path, GetParam(), /*readahead_blocks=*/2);
    char buf[100];
    (void)par.read(buf, sizeof(buf));
  }
}

TEST_P(DecodeThreads, SmallReadaheadWindowStillExact) {
  TempDir tmp;
  std::string payload = random_payload(1 << 20, 97);
  std::string path = write_bgzf(tmp, "t.bgzf", payload, 98);
  ParallelReader par(path, GetParam(), /*readahead_blocks=*/1);
  EXPECT_EQ(drain(par), payload);
}

INSTANTIATE_TEST_SUITE_P(Threads, DecodeThreads, ::testing::Values(1, 2, 8));

TEST(ParallelReaderEdge, EmptyFileOnlyEofMarker) {
  TempDir tmp;
  std::string path = tmp.file("e.bgzf");
  {
    Writer w(path);
    w.close();
  }
  ParallelReader par(path, 2);
  char c;
  EXPECT_EQ(par.read(&c, 1), 0u);
  EXPECT_TRUE(par.eof());
  Reader seq(path);
  EXPECT_EQ(seq.read(&c, 1), 0u);
  EXPECT_EQ(par.tell(), seq.tell());
}

TEST(ParallelReaderEdge, ZeroByteFile) {
  TempDir tmp;
  std::string path = tmp.file("z.bgzf");
  write_file(path, "");
  ParallelReader par(path, 2);
  char c;
  EXPECT_EQ(par.read(&c, 1), 0u);
  EXPECT_TRUE(par.eof());
}

TEST(ParallelReaderEdge, ResolveDecodeThreads) {
  EXPECT_THROW(resolve_decode_threads(-1), UsageError);
  EXPECT_GE(resolve_decode_threads(0), 1);  // auto = hardware width
  EXPECT_EQ(resolve_decode_threads(3), 3);
}

TEST(ParallelReaderEdge, OpenReaderFactory) {
  TempDir tmp;
  std::string payload = random_payload(100000, 99);
  std::string path = write_bgzf(tmp, "t.bgzf", payload, 100);

  EXPECT_THROW(open_reader(path, -2), UsageError);
  // <= 1 resolves to the sequential reader; > 1 to the parallel one.
  auto seq = open_reader(path, 1);
  EXPECT_EQ(dynamic_cast<ParallelReader*>(seq.get()), nullptr);
  auto par = open_reader(path, 4);
  EXPECT_NE(dynamic_cast<ParallelReader*>(par.get()), nullptr);
  EXPECT_EQ(drain(*seq), payload);
  EXPECT_EQ(drain(*par), payload);
}

}  // namespace
}  // namespace ngsx::bgzf
