// Tests for the BGZF block-compression codec: wire format, virtual
// offsets, streaming reader/writer (one and several inflate/deflate
// threads), corruption detection.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "formats/bgzf.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/tempdir.h"

namespace ngsx::bgzf {
namespace {

std::string random_payload(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string s(n, '\0');
  for (auto& c : s) {
    c = static_cast<char>(rng.below(256));
  }
  return s;
}

// ------------------------------------------------------------ block codec

TEST(BgzfBlock, CompressDecompressRoundTrip) {
  for (size_t n : {0u, 1u, 100u, 65000u}) {
    std::string input = random_payload(n, n + 1);
    std::string block;
    compress_block(input, block);
    EXPECT_EQ(peek_block_size(block.substr(0, 18)), block.size());
    std::string out;
    EXPECT_EQ(decompress_block(block, out), n);
    EXPECT_EQ(out, input);
  }
}

TEST(BgzfBlock, CompressibleDataShrinks) {
  std::string input(60000, 'A');
  std::string block;
  compress_block(input, block);
  EXPECT_LT(block.size(), 1000u);
}

TEST(BgzfBlock, InputTooLargeRejected) {
  std::string big(kMaxBlockInput + 1, 'x');
  std::string out;
  EXPECT_THROW(compress_block(big, out), Error);
}

TEST(BgzfBlock, EofMarkerIsValidEmptyBlock) {
  std::string_view eof = eof_marker();
  EXPECT_EQ(eof.size(), 28u);
  EXPECT_EQ(peek_block_size(eof), 28u);
  std::string out;
  EXPECT_EQ(decompress_block(eof, out), 0u);
}

TEST(BgzfBlock, BadMagicRejected) {
  std::string block;
  compress_block("data", block);
  block[0] = 'x';
  EXPECT_THROW(peek_block_size(block), FormatError);
}

TEST(BgzfBlock, CrcMismatchDetected) {
  std::string block;
  compress_block("hello world hello world", block);
  // Corrupt one byte of the stored CRC (last 8 bytes are CRC+ISIZE).
  block[block.size() - 6] ^= 0x5A;
  std::string out;
  EXPECT_THROW(decompress_block(block, out), FormatError);
}

TEST(BgzfBlock, TruncatedBlockDetected) {
  std::string block;
  compress_block("payload payload payload", block);
  std::string out;
  EXPECT_THROW(decompress_block(block.substr(0, block.size() - 1), out),
               FormatError);
}

TEST(BgzfBlock, VirtualOffsetPacking) {
  uint64_t v = make_voffset(0x123456789ABull, 0xCDEF);
  EXPECT_EQ(voffset_coffset(v), 0x123456789ABull);
  EXPECT_EQ(voffset_uoffset(v), 0xCDEFu);
  EXPECT_EQ(make_voffset(0, 0), 0u);
}

// ------------------------------------------------------------- writer/reader

TEST(BgzfFile, RoundTripSmall) {
  TempDir tmp;
  std::string path = tmp.file("t.bgzf");
  {
    Writer w(path);
    w.write("hello ");
    w.write("world");
    w.close();
  }
  Reader r(path);
  char buf[64];
  size_t got = r.read(buf, sizeof(buf));
  EXPECT_EQ(std::string(buf, got), "hello world");
  EXPECT_TRUE(r.eof());
}

TEST(BgzfFile, EndsWithEofMarker) {
  TempDir tmp;
  std::string path = tmp.file("t.bgzf");
  {
    Writer w(path);
    w.write("x");
    w.close();
  }
  std::string raw = read_file(path);
  ASSERT_GE(raw.size(), 28u);
  EXPECT_EQ(raw.substr(raw.size() - 28), std::string(eof_marker()));
}

TEST(BgzfFile, EmptyFileJustEof) {
  TempDir tmp;
  std::string path = tmp.file("e.bgzf");
  {
    Writer w(path);
    w.close();
  }
  Reader r(path);
  EXPECT_TRUE(r.eof());
  char c;
  EXPECT_EQ(r.read(&c, 1), 0u);
}

TEST(BgzfFile, MultiBlockRoundTrip) {
  TempDir tmp;
  std::string path = tmp.file("m.bgzf");
  std::string payload = random_payload(300000, 3);  // spans >4 blocks
  {
    Writer w(path);
    w.write(payload);
    w.close();
  }
  Reader r(path);
  std::string out(payload.size(), '\0');
  r.read_exact(out.data(), out.size());
  EXPECT_EQ(out, payload);
  EXPECT_TRUE(r.eof());
}

TEST(BgzfFile, ReadExactPastEndThrows) {
  TempDir tmp;
  std::string path = tmp.file("t.bgzf");
  {
    Writer w(path);
    w.write("abc");
    w.close();
  }
  Reader r(path);
  char buf[10];
  EXPECT_THROW(r.read_exact(buf, 10), FormatError);
}

TEST(BgzfFile, TellSeekRoundTrip) {
  TempDir tmp;
  std::string path = tmp.file("s.bgzf");
  std::vector<std::string> items;
  {
    Writer w(path);
    for (int i = 0; i < 2000; ++i) {
      items.push_back("item-" + std::to_string(i) + ";");
      w.write(items.back());
    }
    w.close();
  }
  // Record each item's voffset during a read-back.
  std::vector<uint64_t> offsets;
  {
    Reader r(path);
    for (const std::string& item : items) {
      offsets.push_back(r.tell());
      std::string got(item.size(), '\0');
      r.read_exact(got.data(), got.size());
      ASSERT_EQ(got, item);
    }
  }
  Reader r(path);
  // Seek to a few recorded positions and verify the data there.
  for (int i : {0, 1, 999, 1999, 500}) {
    r.seek(offsets[static_cast<size_t>(i)]);
    std::string expect = "item-" + std::to_string(i) + ";";
    std::string got(expect.size(), '\0');
    r.read_exact(got.data(), got.size());
    EXPECT_EQ(got, expect);
  }
}

TEST(BgzfFile, FlushBlockForcesBoundary) {
  TempDir tmp;
  std::string path = tmp.file("f.bgzf");
  {
    Writer w(path);
    w.write("header");
    w.flush_block();
    w.write("body");
    w.close();
  }
  uint64_t voffset_after;
  {
    Reader r(path);
    char buf[6];
    r.read_exact(buf, 6);
    voffset_after = r.tell();
    EXPECT_EQ(voffset_uoffset(voffset_after), 0u);  // fresh block
    EXPECT_GT(voffset_coffset(voffset_after), 0u);
  }
  Reader r(path);
  r.seek(voffset_after);
  char buf[4];
  r.read_exact(buf, 4);
  EXPECT_EQ(std::string(buf, 4), "body");
}

TEST(BgzfFile, SeekToEofLegal) {
  TempDir tmp;
  std::string path = tmp.file("t.bgzf");
  {
    Writer w(path);
    w.write("abc");
    w.flush_block();
    w.close();
  }
  uint64_t end_voffset;
  {
    Reader r(path);
    char buf[3];
    r.read_exact(buf, 3);
    end_voffset = r.tell();
    EXPECT_EQ(voffset_coffset(end_voffset),
              read_file(path).size() - eof_marker().size());
  }
  Reader r(path);
  r.seek(end_voffset);
  char c;
  EXPECT_EQ(r.read(&c, 1), 0u);
}

TEST(BgzfFile, LargeWriteExactBlockBoundary) {
  TempDir tmp;
  std::string path = tmp.file("b.bgzf");
  std::string payload = random_payload(kMaxBlockInput * 2, 9);
  {
    Writer w(path);
    w.write(payload);
    w.close();
  }
  Reader r(path);
  std::string out(payload.size(), '\0');
  r.read_exact(out.data(), kMaxBlockInput);
  EXPECT_EQ(voffset_uoffset(r.tell()), 0u);  // first block is exactly full
  r.read_exact(out.data() + kMaxBlockInput, kMaxBlockInput);
  EXPECT_EQ(out, payload);
  EXPECT_TRUE(r.eof());
}

TEST(BgzfFile, GarbageFileRejected) {
  TempDir tmp;
  std::string path = tmp.file("g.bgzf");
  write_file(path, "this is not a bgzf file at all, not even close!");
  Reader r(path);
  char c;
  EXPECT_THROW(r.read(&c, 1), FormatError);
}


// ------------------------------------------------- multi-threaded writer
//
// Writer(path, level, threads) cuts blocks with the same code at every
// width, so a file written on several deflate threads must equal the
// one-thread file byte for byte.

/// Compressible payload (a sequence-like alphabet), so levels differ.
std::string text_payload(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string s(n, '\0');
  for (auto& c : s) {
    c = "ACGTNacgtn\t 0123456789"[rng.below(21)];
  }
  return s;
}

std::string write_with(const std::string& path, const std::string& payload,
                       int level, int threads) {
  Writer w(path, level, threads);
  w.write(payload);
  w.close();
  return read_file(path);
}

class ParallelThreads : public ::testing::TestWithParam<int> {};

TEST_P(ParallelThreads, ByteIdenticalToSequentialWriter) {
  // Same input, same level, same block boundaries -> same file bytes.
  TempDir tmp;
  std::string payload = text_payload(1 << 21, 42);  // ~32 blocks
  EXPECT_EQ(write_with(tmp.file("par.bgzf"), payload, 6, GetParam()),
            write_with(tmp.file("seq.bgzf"), payload, 6, 1));
}

TEST_P(ParallelThreads, ManySmallWrites) {
  TempDir tmp;
  std::string expected;
  {
    Writer w(tmp.file("t.bgzf"), 6, GetParam());
    Rng rng(7);
    for (int i = 0; i < 5000; ++i) {
      std::string piece = text_payload(1 + rng.below(700), 100 + i);
      expected += piece;
      w.write(piece);
    }
    w.close();
  }
  Reader r(tmp.file("t.bgzf"));
  std::string got(expected.size(), '\0');
  r.read_exact(got.data(), got.size());
  EXPECT_EQ(got, expected);
  EXPECT_TRUE(r.eof());
}

TEST_P(ParallelThreads, FlushBlockSequencePoints) {
  TempDir tmp;
  auto write = [&](const std::string& name, int threads) {
    Writer w(tmp.file(name), 6, threads);
    w.write("alpha");
    w.flush_block();
    w.write("beta");
    w.flush_block();
    w.flush_block();  // idempotent on empty
    w.write("gamma");
    w.close();
    return read_file(tmp.file(name));
  };
  EXPECT_EQ(write("par.bgzf", GetParam()), write("seq.bgzf", 1));
  Reader r(tmp.file("par.bgzf"));
  char buf[14];
  r.read_exact(buf, 14);
  EXPECT_EQ(std::string(buf, 14), "alphabetagamma");
  // "alpha" and "beta" each closed a block of their own.
  Reader blocks(tmp.file("par.bgzf"));
  blocks.read_exact(buf, 5);
  EXPECT_EQ(voffset_uoffset(blocks.tell()), 0u);
  blocks.read_exact(buf, 4);
  EXPECT_EQ(voffset_uoffset(blocks.tell()), 0u);
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelThreads,
                         ::testing::Values(1, 2, 4, 8));

class LevelThreads
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LevelThreads, ByteIdenticalToOneThread) {
  const auto [threads, level] = GetParam();
  TempDir tmp;
  std::string payload = text_payload(600000, 5);  // ~10 blocks
  std::string one = write_with(tmp.file("one.bgzf"), payload, level, 1);
  EXPECT_EQ(write_with(tmp.file("many.bgzf"), payload, level, threads), one);
  Reader r(tmp.file("one.bgzf"));
  std::string got(payload.size(), '\0');
  r.read_exact(got.data(), got.size());
  EXPECT_EQ(got, payload);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, LevelThreads,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(0, 1, 6, 9)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "threads" + std::to_string(std::get<0>(info.param)) +
             "_level" + std::to_string(std::get<1>(info.param));
    });

TEST(ThreadedWriter, EmptyFile) {
  TempDir tmp;
  {
    Writer w(tmp.file("e.bgzf"), 6, 3);
    w.close();
    EXPECT_EQ(w.compressed_bytes(), eof_marker().size());
  }
  EXPECT_EQ(read_file(tmp.file("e.bgzf")), std::string(eof_marker()));
}

TEST(ThreadedWriter, DoubleCloseIsIdempotent) {
  TempDir tmp;
  Writer w(tmp.file("t.bgzf"), 6, 2);
  w.write("data");
  w.close();
  w.close();
  EXPECT_THROW(w.write("more"), Error);
}

TEST(ThreadedWriter, LargeSingleWrite) {
  TempDir tmp;
  std::string payload = text_payload(8 << 20, 9);
  {
    Writer w(tmp.file("big.bgzf"), /*level=*/1, 4);
    w.write(payload);
    w.close();
  }
  Reader r(tmp.file("big.bgzf"));
  std::string got(payload.size(), '\0');
  r.read_exact(got.data(), got.size());
  EXPECT_EQ(got, payload);
}

TEST(ThreadedWriter, BackpressureBoundsMemory) {
  // Far more blocks than the pipeline holds: the producer must stall
  // rather than queue. Blocks pushed but not yet committed never exceed
  // the input channel plus the window (2 * threads + 4 each), one claim
  // per worker past the window, and the block in the sink.
  TempDir tmp;
  const int threads = 2;
  const size_t bound = 2 * (2 * threads + 4) + threads + 1;
  std::string block(kMaxBlockInput, 'x');
  std::string one;
  compress_block(block, one);  // every block compresses to this size
  size_t max_in_flight = 0;
  {
    Writer w(tmp.file("t.bgzf"), 6, threads);
    for (size_t pushed = 1; pushed <= 200; ++pushed) {
      w.write(block);
      size_t committed = w.compressed_bytes() / one.size();
      max_in_flight = std::max(max_in_flight, pushed - committed);
    }
    w.close();
    EXPECT_EQ(w.compressed_bytes(), 200 * one.size() + eof_marker().size());
  }
  EXPECT_LE(max_in_flight, bound);
  Reader r(tmp.file("t.bgzf"));
  uint64_t total = 0;
  char buf[1 << 16];
  size_t got;
  while ((got = r.read(buf, sizeof(buf))) > 0) {
    total += got;
  }
  EXPECT_EQ(total, 200ull * kMaxBlockInput);
}

TEST(ThreadedWriter, DestructionWithoutCloseRollsBack) {
  // Neither the final file nor a staging file survives an unclosed writer.
  for (int threads : {1, 4}) {
    TempDir tmp;
    {
      Writer w(tmp.file("r.bgzf"), 6, threads);
      w.write(text_payload(kMaxBlockInput * 5, 3));
    }
    EXPECT_TRUE(std::filesystem::is_empty(tmp.path()))
        << "threads " << threads;
  }
}

// ------------------------------------------------- multi-threaded reader
//
// Reader(path, threads) runs one cursor over inline decode (1 thread) or
// an ordered inflate pipeline (> 1), so every width must match the
// one-thread reader: same bytes, same tell() values, same FormatError
// messages on corrupt input, across random read()/seek() interleavings.

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

std::string drain(Reader& r, size_t chunk = 8192) {
  std::string out;
  std::string buf(chunk, '\0');
  size_t got;
  while ((got = r.read(buf.data(), buf.size())) > 0) {
    out.append(buf.data(), got);
  }
  return out;
}

/// (start, total size) of every block in a BGZF image, EOF marker included.
std::vector<std::pair<size_t, size_t>> block_extents(const std::string& bytes) {
  std::vector<std::pair<size_t, size_t>> blocks;
  for (size_t pos = 0; pos + kBlockHeaderSize <= bytes.size();) {
    size_t total = peek_block_size(std::string_view(bytes).substr(pos));
    blocks.emplace_back(pos, total);
    pos += total;
  }
  return blocks;
}

class DecodeThreads : public ::testing::TestWithParam<int> {};

TEST_P(DecodeThreads, FullScanByteIdentical) {
  TempDir tmp;
  std::string payload = text_payload(3 << 20, 11);
  std::string path = write_bgzf(tmp, "t.bgzf", payload, 12);

  Reader par(path, GetParam());
  Reader seq(path);
  EXPECT_EQ(drain(par), payload);
  EXPECT_EQ(drain(seq), payload);
  EXPECT_TRUE(par.eof());
  EXPECT_TRUE(seq.eof());
  EXPECT_EQ(par.tell(), seq.tell());
  EXPECT_EQ(par.compressed_size(), seq.compressed_size());
}

TEST_P(DecodeThreads, TellParityDuringScan) {
  // tell() must return the same virtual offsets as the one-thread reader
  // at every read boundary — indexes built against one must work with the
  // other.
  TempDir tmp;
  std::string payload = text_payload(1 << 19, 21);
  std::string path = write_bgzf(tmp, "t.bgzf", payload, 22);

  Reader par(path, GetParam());
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
    std::string payload = text_payload(payload_size, 100 + seed);
    std::string path = write_bgzf(tmp, "s" + std::to_string(seed) + ".bgzf",
                                  payload, 200 + seed);

    Reader par(path, GetParam());
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
  std::string payload = text_payload(1 << 20, 31);
  std::string path = write_bgzf(tmp, "t.bgzf", payload, 32);

  Reader par(path, GetParam());
  // Collect voffset -> expected remainder pairs with the one-thread reader.
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
  std::string payload = text_payload(200000, 41);
  std::string path = write_bgzf(tmp, "t.bgzf", payload, 42);

  Reader seq(path);
  (void)drain(seq);
  uint64_t end_voffset = seq.tell();

  Reader par(path, GetParam());
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

/// The FormatError message `op` throws, or "" if it does not throw.
template <typename Op>
std::string error_of(Op op) {
  try {
    op();
  } catch (const FormatError& e) {
    return e.what();
  }
  return "";
}

TEST_P(DecodeThreads, SeekPastEndThrowsLikeSequential) {
  TempDir tmp;
  std::string path = write_bgzf(tmp, "t.bgzf", text_payload(100000, 51), 52);

  Reader par(path, GetParam());
  Reader seq(path);
  uint64_t bogus = make_voffset(1ull << 40, 17);
  std::string par_msg = error_of([&] { par.seek(bogus); });
  EXPECT_FALSE(par_msg.empty());
  EXPECT_EQ(par_msg, error_of([&] { seq.seek(bogus); }));
}

TEST_P(DecodeThreads, SeekBeyondBlockPayloadThrowsLikeSequential) {
  TempDir tmp;
  std::string path = tmp.file("t.bgzf");
  {
    Writer w(path);
    w.write("short");  // one 5-byte block
    w.close();
  }
  Reader par(path, GetParam());
  Reader seq(path);
  uint64_t bogus = make_voffset(0, 4000);  // uoffset > payload
  std::string par_msg = error_of([&] { par.seek(bogus); });
  EXPECT_FALSE(par_msg.empty());
  EXPECT_EQ(par_msg, error_of([&] { seq.seek(bogus); }));
}

/// Reads `path` to exhaustion at one thread and at `threads`; returns
/// (one-thread error message, `threads` error message), "" = no error.
std::pair<std::string, std::string> drain_errors(const std::string& path,
                                                 int threads) {
  auto drain_error = [&](int width) {
    return error_of([&] {
      Reader r(path, width);
      (void)drain(r);
    });
  };
  return {drain_error(1), drain_error(threads)};
}

TEST_P(DecodeThreads, TruncatedBlockErrorParity) {
  // Cut the file mid-block: both readers must deliver the same prefix and
  // then throw the same FormatError (with the compressed offset), with no
  // hang.
  TempDir tmp;
  std::string payload = text_payload(1 << 20, 61);
  std::string path = write_bgzf(tmp, "t.bgzf", payload, 62);
  std::string bytes = read_file(path);

  // Mid-block truncation (not on a header boundary).
  std::string cut_block = tmp.file("cut_block.bgzf");
  write_file(cut_block, bytes.substr(0, bytes.size() * 2 / 3));
  auto [seq_msg, par_msg] = drain_errors(cut_block, GetParam());
  EXPECT_FALSE(seq_msg.empty());
  EXPECT_EQ(par_msg, seq_msg);

  // Mid-header truncation just past the last block start.
  std::string cut_header = tmp.file("cut_header.bgzf");
  write_file(cut_header,
             bytes.substr(0, block_extents(bytes).back().first + 5));
  auto [seq_msg2, par_msg2] = drain_errors(cut_header, GetParam());
  EXPECT_FALSE(seq_msg2.empty());
  EXPECT_EQ(par_msg2, seq_msg2);
}

TEST_P(DecodeThreads, CorruptBlockBodyErrorParity) {
  // Flip bytes inside a block, header or body: the first bad block in
  // file order decides the outcome at every width, so the message (with
  // compressed offset) must match exactly. Body flips always fail;
  // header flips may hit an ignored field (MTIME, OS) and read cleanly.
  TempDir tmp;
  std::string payload = text_payload(1 << 20, 71);
  std::string path = write_bgzf(tmp, "t.bgzf", payload, 72);
  std::string bytes = read_file(path);
  const auto blocks = block_extents(bytes);
  ASSERT_GT(blocks.size(), 2u);

  Rng rng(73);
  for (int trial = 0; trial < 8; ++trial) {
    const bool body = trial % 2 == 0;
    std::string corrupt = bytes;
    auto [start, total] = blocks[rng.below(blocks.size() - 1)];  // skip EOF
    size_t pos = body ? start + kBlockHeaderSize +
                            rng.below(total - kBlockHeaderSize)
                      : start + rng.below(kBlockHeaderSize);
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 + rng.below(255)));
    std::string cpath = tmp.file("c" + std::to_string(trial) + ".bgzf");
    write_file(cpath, corrupt);
    auto [seq_msg, par_msg] = drain_errors(cpath, GetParam());
    if (body) {
      EXPECT_FALSE(seq_msg.empty()) << "trial " << trial << " flip at " << pos;
    }
    EXPECT_EQ(par_msg, seq_msg) << "trial " << trial << " flip at " << pos;
  }
}

TEST_P(DecodeThreads, LaggingConsumerGetsEveryBlockBeforeTheError) {
  // A consumer that stalls while the workers run ahead into a bad block
  // must still receive every block before it, then the one-thread error.
  TempDir tmp;
  std::string path = tmp.file("t.bgzf");
  {
    Writer w(path);
    w.write(text_payload(8 << 20, 75));
    w.close();
  }
  std::string bytes = read_file(path);
  const auto blocks = block_extents(bytes);
  ASSERT_GT(blocks.size(), 61u);
  auto [start, total] = blocks[60];
  size_t pos = start + total / 2;  // inside the deflate body
  bytes[pos] = static_cast<char>(bytes[pos] ^ 0x5a);
  write_file(path, bytes);

  struct Outcome {
    size_t delivered = 0;
    std::string message;
    uint64_t tell = 0;
  };
  auto consume = [&](int threads) {
    Outcome o;
    Reader r(path, threads);
    std::string buf(8192, '\0');
    o.message = error_of([&] {
      o.delivered += r.read(buf.data(), buf.size());
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      size_t got;
      while ((got = r.read(buf.data(), buf.size())) > 0) {
        o.delivered += got;
      }
    });
    o.tell = r.tell();
    return o;
  };
  const Outcome one = consume(1);
  ASSERT_FALSE(one.message.empty());
  EXPECT_GE(one.delivered, 59 * kMaxBlockInput);
  const Outcome many = consume(GetParam());
  EXPECT_EQ(many.delivered, one.delivered);
  EXPECT_EQ(many.message, one.message);
  EXPECT_EQ(many.tell, one.tell);
  EXPECT_EQ(many.tell, make_voffset(start, 0));
}

TEST_P(DecodeThreads, ErrorIsStickyAcrossReads) {
  TempDir tmp;
  std::string path = write_bgzf(tmp, "t.bgzf", text_payload(1 << 19, 81),
                                82);
  std::string bytes = read_file(path);
  write_file(path, bytes.substr(0, bytes.size() - 40));  // truncate

  Reader par(path, GetParam());
  EXPECT_THROW((void)drain(par), FormatError);
  char c;
  EXPECT_THROW((void)par.read(&c, 1), FormatError);  // still failed
  EXPECT_THROW((void)par.eof(), FormatError);
}

TEST_P(DecodeThreads, MissingEofMarkerReadsLikeSequential) {
  // The reader does not require the EOF marker at any width.
  TempDir tmp;
  std::string payload = text_payload(300000, 91);
  std::string path = write_bgzf(tmp, "t.bgzf", payload, 92);
  std::string bytes = read_file(path);
  ASSERT_EQ(std::string_view(bytes).substr(bytes.size() - 28),
            eof_marker());
  write_file(path, bytes.substr(0, bytes.size() - 28));

  Reader par(path, GetParam());
  Reader seq(path);
  EXPECT_EQ(drain(par), payload);
  EXPECT_EQ(drain(seq), payload);
  EXPECT_EQ(par.tell(), seq.tell());
}

TEST_P(DecodeThreads, DestructionMidStreamDoesNotHang) {
  // Abandoning a reader with most of the file unread must cancel the
  // pipeline promptly (a stalled committer would deadlock the dtor).
  TempDir tmp;
  std::string path = write_bgzf(tmp, "t.bgzf", text_payload(4 << 20, 95),
                                96);
  for (int i = 0; i < 8; ++i) {
    Reader par(path, GetParam());
    char buf[100];
    (void)par.read(buf, sizeof(buf));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, DecodeThreads,
                         ::testing::Values(1, 2, 4, 8));

TEST(ThreadedReader, EmptyFileOnlyEofMarker) {
  TempDir tmp;
  std::string path = tmp.file("e.bgzf");
  {
    Writer w(path);
    w.close();
  }
  Reader par(path, 2);
  char c;
  EXPECT_EQ(par.read(&c, 1), 0u);
  EXPECT_TRUE(par.eof());
  Reader seq(path);
  EXPECT_EQ(seq.read(&c, 1), 0u);
  EXPECT_EQ(par.tell(), seq.tell());
}

TEST(ThreadedReader, ZeroByteFile) {
  TempDir tmp;
  std::string path = tmp.file("z.bgzf");
  write_file(path, "");
  Reader par(path, 2);
  char c;
  EXPECT_EQ(par.read(&c, 1), 0u);
  EXPECT_TRUE(par.eof());
}

TEST(ThreadedReader, ReadaheadBoundsMemory) {
  // Far more blocks than the readahead and the pipeline window hold, and
  // a consumer that stalls after its first byte: the workers must stop
  // once the readahead channel (32 blocks) is full rather than decode the
  // whole file.
  struct MetricsScope {
    MetricsScope() {
      obs::reset_metrics();
      obs::enable_metrics();
    }
    ~MetricsScope() { obs::enable_metrics(false); }
  } armed;
  TempDir tmp;
  const int threads = 2;
  const int64_t bound = 32;
  std::string payload = text_payload(8 << 20, 99);  // ~130 blocks
  std::string path = tmp.file("t.bgzf");
  {
    Writer w(path);
    w.write(payload);
    w.close();
  }
  auto depth = [] {
    return obs::snapshot().gauge_value("bgzf.decode.readahead_depth");
  };
  {
    Reader r(path, threads);
    char c;
    ASSERT_EQ(r.read(&c, 1), 1u);
    int64_t max_depth = 0;
    for (int i = 0; i < 200 && max_depth < bound; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      max_depth = std::max(max_depth, depth());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    max_depth = std::max(max_depth, depth());
    EXPECT_EQ(max_depth, bound);
    EXPECT_EQ(drain(r), payload.substr(1));
  }
  EXPECT_EQ(depth(), 0);
}

}  // namespace
}  // namespace ngsx::bgzf
