// Tests for the BGZF block-compression codec: wire format, virtual
// offsets, streaming reader/writer (one and several deflate threads),
// corruption detection.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <tuple>

#include "formats/bgzf.h"
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

}  // namespace
}  // namespace ngsx::bgzf
