// Unit tests for ngsx/util: binary I/O, string utilities, RNG, CLI parsing,
// temp directories.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>

#include "util/binio.h"
#include "util/cli.h"
#include "util/common.h"
#include "util/rng.h"
#include "util/strutil.h"
#include "util/tempdir.h"

namespace ngsx {
namespace {

namespace fs = std::filesystem;

// ----------------------------------------------------------------- binio

TEST(BinIo, PutGetRoundTripIntegers) {
  std::string buf;
  binio::put_le<uint8_t>(buf, 0xAB);
  binio::put_le<uint16_t>(buf, 0xBEEF);
  binio::put_le<int32_t>(buf, -123456);
  binio::put_le<uint64_t>(buf, 0x0123456789ABCDEFull);
  EXPECT_EQ(buf.size(), 1 + 2 + 4 + 8u);
  EXPECT_EQ(binio::get_le<uint8_t>(buf, 0), 0xAB);
  EXPECT_EQ(binio::get_le<uint16_t>(buf, 1), 0xBEEF);
  EXPECT_EQ(binio::get_le<int32_t>(buf, 3), -123456);
  EXPECT_EQ(binio::get_le<uint64_t>(buf, 7), 0x0123456789ABCDEFull);
}

TEST(BinIo, LittleEndianByteOrder) {
  std::string buf;
  binio::put_le<uint32_t>(buf, 0x04030201);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(static_cast<uint8_t>(buf[0]), 1);
  EXPECT_EQ(static_cast<uint8_t>(buf[1]), 2);
  EXPECT_EQ(static_cast<uint8_t>(buf[2]), 3);
  EXPECT_EQ(static_cast<uint8_t>(buf[3]), 4);
}

TEST(BinIo, GetOutOfRangeThrows) {
  std::string buf = "ab";
  EXPECT_THROW(binio::get_le<uint32_t>(buf, 0), FormatError);
  EXPECT_THROW(binio::get_le<uint8_t>(buf, 2), FormatError);
}

TEST(BinIo, PokePatchesInPlace) {
  std::string buf(8, '\0');
  binio::poke_le<uint32_t>(buf, 2, 0xCAFEBABE);
  EXPECT_EQ(binio::get_le<uint32_t>(buf, 2), 0xCAFEBABE);
}

TEST(BinIo, FloatRoundTrip) {
  std::string buf;
  binio::put_le<float>(buf, 3.25f);
  binio::put_le<double>(buf, -1e100);
  EXPECT_FLOAT_EQ(binio::get_le<float>(buf, 0), 3.25f);
  EXPECT_DOUBLE_EQ(binio::get_le<double>(buf, 4), -1e100);
}

TEST(ByteReader, SequentialReads) {
  std::string buf;
  binio::put_le<int32_t>(buf, 7);
  buf += "name";
  buf += '\0';
  binio::put_le<uint16_t>(buf, 99);
  ByteReader r(buf);
  EXPECT_EQ(r.read<int32_t>(), 7);
  EXPECT_EQ(r.read_cstr(), "name");
  EXPECT_EQ(r.read<uint16_t>(), 99);
  EXPECT_TRUE(r.eof());
}

TEST(ByteReader, TruncatedThrows) {
  std::string buf = "ab";
  ByteReader r(buf);
  EXPECT_THROW(r.read<uint32_t>(), FormatError);
}

TEST(ByteReader, UnterminatedCstrThrows) {
  std::string buf = "abc";
  ByteReader r(buf);
  EXPECT_THROW(r.read_cstr(), FormatError);
}

TEST(ByteReader, SkipAndRemaining) {
  std::string buf = "abcdef";
  ByteReader r(buf);
  r.skip(2);
  EXPECT_EQ(r.remaining(), 4u);
  EXPECT_EQ(r.read_bytes(2), "cd");
  EXPECT_THROW(r.skip(10), FormatError);
}

TEST(ByteReader, HugeLengthThrowsWithoutMovingTheCursor) {
  // A length near SIZE_MAX (a negative int32 length field cast to size_t)
  // must not wrap the bounds check.
  std::string buf = "abcdefgh";
  ByteReader r(buf);
  r.read_bytes(2);
  EXPECT_THROW(r.read_bytes(SIZE_MAX), FormatError);
  EXPECT_THROW(r.read_bytes(static_cast<size_t>(int32_t{-1})), FormatError);
  EXPECT_THROW(r.skip(SIZE_MAX), FormatError);
  EXPECT_EQ(r.remaining(), 6u);
  EXPECT_EQ(r.read_bytes(6), "cdefgh");
}

// --------------------------------------------------------------- files

TEST(Files, WriteReadRoundTrip) {
  TempDir tmp;
  std::string path = tmp.file("x.bin");
  std::string data = "hello";
  data += '\0';
  data += "world\xff";
  write_file(path, data);
  EXPECT_EQ(read_file(path), data);
  EXPECT_EQ(file_size(path), data.size());
}

TEST(Files, InputFilePread) {
  TempDir tmp;
  std::string path = tmp.file("x.bin");
  write_file(path, "0123456789");
  InputFile in(path);
  EXPECT_EQ(in.size(), 10u);
  EXPECT_EQ(in.read_at(3, 4), "3456");
  EXPECT_EQ(in.read_at(8, 100), "89");  // short at EOF
  EXPECT_EQ(in.read_at(100, 10), "");
  char buf[4];
  in.pread_exact(buf, 4, 0);
  EXPECT_EQ(std::string(buf, 4), "0123");
  EXPECT_THROW(in.pread_exact(buf, 4, 8), IoError);
}

TEST(Files, OpenMissingFileThrows) {
  EXPECT_THROW(InputFile("/nonexistent/definitely/missing"), IoError);
  EXPECT_THROW(file_size("/nonexistent/definitely/missing"), IoError);
}

TEST(Files, OutputFileBuffersAndFlushes) {
  TempDir tmp;
  std::string path = tmp.file("out.bin");
  {
    OutputFile out(path, /*buffer_bytes=*/16);
    for (int i = 0; i < 100; ++i) {
      out.write("abcd");
    }
    EXPECT_EQ(out.bytes_written(), 400u);
    out.close();
  }
  EXPECT_EQ(file_size(path), 400u);
}

TEST(Files, OutputFileLargeWriteBypassesBuffer) {
  TempDir tmp;
  std::string path = tmp.file("big.bin");
  std::string big(1 << 20, 'z');
  {
    OutputFile out(path, /*buffer_bytes=*/1024);
    out.write("small");
    out.write(big);
    out.close();
  }
  std::string all = read_file(path);
  EXPECT_EQ(all.size(), 5 + big.size());
  EXPECT_EQ(all.substr(0, 5), "small");
}

TEST(Files, InputFileMoveTransfersOwnership) {
  TempDir tmp;
  std::string path = tmp.file("m.bin");
  write_file(path, "abc");
  InputFile a(path);
  InputFile b = std::move(a);
  EXPECT_EQ(b.read_at(0, 3), "abc");
}

// --------------------------------------------------------------- strutil

TEST(StrUtil, SplitBasic) {
  auto f = strutil::split("a\tb\tc", '\t');
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[2], "c");
}

TEST(StrUtil, SplitEmptyFields) {
  auto f = strutil::split("\ta\t\t", '\t');
  ASSERT_EQ(f.size(), 4u);
  EXPECT_EQ(f[0], "");
  EXPECT_EQ(f[1], "a");
  EXPECT_EQ(f[2], "");
  EXPECT_EQ(f[3], "");
}

TEST(StrUtil, SplitSingleField) {
  auto f = strutil::split("abc", '\t');
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0], "abc");
}

TEST(StrUtil, ParseIntValid) {
  EXPECT_EQ(strutil::parse_int<int>("42", "x"), 42);
  EXPECT_EQ(strutil::parse_int<int64_t>("-9000000000", "x"), -9000000000LL);
  EXPECT_EQ(strutil::parse_int<uint8_t>("255", "x"), 255);
}

TEST(StrUtil, ParseIntInvalidThrows) {
  EXPECT_THROW(strutil::parse_int<int>("", "x"), FormatError);
  EXPECT_THROW(strutil::parse_int<int>("12a", "x"), FormatError);
  EXPECT_THROW(strutil::parse_int<uint8_t>("256", "x"), FormatError);
  EXPECT_THROW(strutil::parse_int<int>("4.5", "x"), FormatError);
}

TEST(StrUtil, ParseDouble) {
  EXPECT_DOUBLE_EQ(strutil::parse_double("2.5", "x"), 2.5);
  EXPECT_DOUBLE_EQ(strutil::parse_double("-1e3", "x"), -1000.0);
  EXPECT_THROW(strutil::parse_double("nope", "x"), FormatError);
}

TEST(StrUtil, AppendInt) {
  std::string s = "v=";
  strutil::append_int(s, -42);
  EXPECT_EQ(s, "v=-42");
}

TEST(StrUtil, AppendDoubleTrimsIntegers) {
  std::string s;
  strutil::append_double(s, 3.0);
  EXPECT_EQ(s, "3");
  s.clear();
  strutil::append_double(s, 2.5);
  EXPECT_EQ(s, "2.5");
}

TEST(StrUtil, Trim) {
  EXPECT_EQ(strutil::trim("  a b \r\n"), "a b");
  EXPECT_EQ(strutil::trim(""), "");
  EXPECT_EQ(strutil::trim(" \t "), "");
}

TEST(StrUtil, StartsEndsWith) {
  EXPECT_TRUE(strutil::starts_with("chr10", "chr"));
  EXPECT_FALSE(strutil::starts_with("ch", "chr"));
  EXPECT_TRUE(strutil::ends_with("file.sam", ".sam"));
  EXPECT_FALSE(strutil::ends_with("sam", ".sam"));
}

TEST(StrUtil, JsonEscape) {
  std::string s;
  strutil::append_json_escaped(s, "a\"b\\c\nd\te");
  EXPECT_EQ(s, "a\\\"b\\\\c\\nd\\te");
  s.clear();
  strutil::append_json_escaped(s, std::string_view("\x01", 1));
  EXPECT_EQ(s, "\\u0001");
}

// ------------------------------------------------------------------- rng

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += a.next() == b.next() ? 1 : 0;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowInRange) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
  EXPECT_EQ(rng.below(1), 0u);
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0;
  double sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.1);
}

TEST(Rng, PoissonMean) {
  Rng rng(13);
  for (double lambda : {0.5, 4.0, 50.0}) {
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
      sum += static_cast<double>(rng.poisson(lambda));
    }
    EXPECT_NEAR(sum / n, lambda, lambda * 0.1 + 0.1);
  }
  EXPECT_EQ(rng.poisson(0.0), 0u);
  EXPECT_EQ(rng.poisson(-1.0), 0u);
}

// ------------------------------------------------------------------- cli

TEST(Cli, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog", "--n=5", "--name", "x",
                        "pos1", "--f=2.5", "--toggle"};
  CliArgs args(7, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("n", 0), 5);
  EXPECT_EQ(args.get("name", ""), "x");
  EXPECT_TRUE(args.get_bool("toggle", false));
  EXPECT_DOUBLE_EQ(args.get_double("f", 0), 2.5);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
  EXPECT_EQ(args.get_int("missing", 42), 42);
  EXPECT_FALSE(args.has("missing"));
}

TEST(Cli, BadBoolThrows) {
  const char* argv[] = {"prog", "--flag=maybe"};
  CliArgs args(2, const_cast<char**>(argv));
  EXPECT_THROW(args.get_bool("flag", false), UsageError);
}

TEST(Cli, RejectUnknownNamesTheStrayFlag) {
  const char* argv[] = {"prog", "--in", "a.sam", "--bogus", "1"};
  CliArgs args(5, const_cast<char**>(argv));
  EXPECT_NO_THROW(args.reject_unknown({"in", "bogus"}));
  try {
    args.reject_unknown({"in", "out"});
    FAIL() << "unknown flag accepted";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("--bogus"), std::string::npos)
        << e.what();
  }
}

// --------------------------------------------------------------- tempdir

TEST(TempDir, CreatesAndRemoves) {
  std::string path;
  {
    TempDir tmp("ngsx-test");
    path = tmp.path();
    EXPECT_TRUE(fs::exists(path));
    write_file(tmp.file("a.txt"), "x");
    std::string sub = tmp.subdir("nested/deep");
    EXPECT_TRUE(fs::exists(sub));
  }
  EXPECT_FALSE(fs::exists(path));
}

TEST(TempDir, UniquePaths) {
  TempDir a;
  TempDir b;
  EXPECT_NE(a.path(), b.path());
}

// ------------------------------------------------------------- NGSX_CHECK

TEST(Check, ThrowsWithContext) {
  try {
    NGSX_CHECK_MSG(false, "context message");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("context message"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace ngsx
