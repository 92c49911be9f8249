// Failure-injection suite: randomly corrupted or truncated input files
// must produce ngsx::Error exceptions (or, for benign flips, still parse)
// — never crashes, hangs, or silent garbage propagation into unrelated
// state. Exercises the defensive paths of every binary reader.

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "core/convert.h"
#include "formats/bam.h"
#include "formats/bamx.h"
#include "formats/sam.h"
#include "simdata/readsim.h"
#include "testutil.h"
#include "util/iopolicy.h"
#include "util/rng.h"
#include "util/tempdir.h"

namespace ngsx {
namespace {

using sam::AlignmentRecord;

/// Builds one of each file format from the same simulated dataset.
struct Corpus {
  TempDir tmp;
  std::string sam_path;
  std::string bam_path;
  std::string bamx_path;
  std::string baix_path;

  Corpus() {
    auto genome = simdata::ReferenceGenome::simulate(
        simdata::mouse_like_references(200000), 71);
    simdata::ReadSimConfig cfg;
    cfg.seed = 71;
    auto records = simdata::simulate_alignments(genome, 150, cfg);
    sam_path = tmp.file("c.sam");
    bam_path = tmp.file("c.bam");
    bamx_path = tmp.file("c.bamx");
    baix_path = tmp.file("c.baix");
    {
      sam::SamFileWriter w(sam_path, genome.header());
      for (const auto& r : records) {
        w.write(r);
      }
      w.close();
    }
    {
      bam::BamFileWriter w(bam_path, genome.header());
      for (const auto& r : records) {
        w.write(r);
      }
      w.close();
    }
    bamx::BamxLayout layout;
    for (const auto& r : records) {
      layout.accommodate(r);
    }
    {
      bamx::BamxWriter w(bamx_path, genome.header(), layout);
      for (const auto& r : records) {
        w.write(r);
      }
      w.close();
    }
    testutil::baix_of(records).save(baix_path);
  }
};

Corpus& corpus() {
  static Corpus c;
  return c;
}

/// Writes a copy of `path` with `flips` random byte corruptions.
std::string corrupt_copy(const std::string& path, uint64_t seed, int flips,
                         const std::string& out_path) {
  std::string data = read_file(path);
  Rng rng(seed);
  for (int i = 0; i < flips && !data.empty(); ++i) {
    size_t at = static_cast<size_t>(rng.below(data.size()));
    data[at] = static_cast<char>(data[at] ^ (1 + rng.below(255)));
  }
  write_file(out_path, data);
  return out_path;
}

/// Writes a truncated copy of `path`.
std::string truncate_copy(const std::string& path, uint64_t seed,
                          const std::string& out_path) {
  std::string data = read_file(path);
  Rng rng(seed);
  size_t keep = static_cast<size_t>(rng.below(data.size()));
  write_file(out_path, data.substr(0, keep));
  return out_path;
}

class CorruptionSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CorruptionSeeds, BamFlipsNeverCrash) {
  Corpus& c = corpus();
  std::string path = corrupt_copy(c.bam_path, GetParam(), 3,
                                  c.tmp.file("x.bam"));
  try {
    bam::BamFileReader reader(path);
    AlignmentRecord rec;
    int n = 0;
    while (reader.next(rec) && n < 10000) {
      ++n;  // benign flips may still parse; that's acceptable
    }
  } catch (const Error&) {
    // Detected corruption: the expected outcome.
  }
}

TEST_P(CorruptionSeeds, BamTruncationsNeverCrash) {
  Corpus& c = corpus();
  std::string path =
      truncate_copy(c.bam_path, GetParam() + 100, c.tmp.file("t.bam"));
  try {
    bam::BamFileReader reader(path);
    AlignmentRecord rec;
    while (reader.next(rec)) {
    }
  } catch (const Error&) {
  }
}

TEST_P(CorruptionSeeds, BamParallelDecodeFlipsMatchSequential) {
  // Decoding a corrupt BAM on four BGZF inflate threads must reach the
  // same outcome as one thread: the same number of records parsed before
  // either the same Error or a clean stop — and it must never hang a
  // worker or crash.
  Corpus& c = corpus();
  std::string path = corrupt_copy(c.bam_path, GetParam(), 3,
                                  c.tmp.file("p.bam"));
  auto outcome = [&](int decode_threads) {
    int n = 0;
    try {
      bam::BamFileReader reader(path, decode_threads);
      AlignmentRecord rec;
      while (reader.next(rec) && n < 10000) {
        ++n;
      }
    } catch (const Error& e) {
      return std::make_pair(n, std::string(e.what()));
    }
    return std::make_pair(n, std::string());
  };
  auto sequential = outcome(1);
  auto parallel = outcome(4);
  EXPECT_EQ(parallel.first, sequential.first);
  // The first bad block in file order decides the outcome at every width.
  EXPECT_EQ(parallel.second, sequential.second);
}

TEST_P(CorruptionSeeds, BamParallelDecodeTruncationsMatchSequential) {
  Corpus& c = corpus();
  std::string path =
      truncate_copy(c.bam_path, GetParam() + 100, c.tmp.file("pt.bam"));
  auto outcome = [&](int decode_threads) {
    int n = 0;
    try {
      bam::BamFileReader reader(path, decode_threads);
      AlignmentRecord rec;
      while (reader.next(rec)) {
        ++n;
      }
    } catch (const Error& e) {
      return std::make_pair(n, std::string(e.what()));
    }
    return std::make_pair(n, std::string());
  };
  auto sequential = outcome(1);
  auto parallel = outcome(4);
  EXPECT_EQ(parallel.first, sequential.first);
  // Truncation is framing-visible at one offset: message parity holds.
  EXPECT_EQ(parallel.second, sequential.second);
}

TEST_P(CorruptionSeeds, BamxFlipsNeverCrash) {
  Corpus& c = corpus();
  std::string path = corrupt_copy(c.bamx_path, GetParam() + 200, 3,
                                  c.tmp.file("x.bamx"));
  try {
    bamx::RecordSource reader(path);
    testutil::read_records(reader, 0, reader.num_records());
  } catch (const Error&) {
  }
}

TEST_P(CorruptionSeeds, BamxTruncationsNeverCrash) {
  Corpus& c = corpus();
  std::string path =
      truncate_copy(c.bamx_path, GetParam() + 300, c.tmp.file("t.bamx"));
  try {
    bamx::RecordSource reader(path);
    testutil::read_records(reader, 0, reader.num_records());
  } catch (const Error&) {
  }
}

TEST_P(CorruptionSeeds, BaixFlipsNeverCrash) {
  Corpus& c = corpus();
  std::string path = corrupt_copy(c.baix_path, GetParam() + 500, 2,
                                  c.tmp.file("x.baix"));
  try {
    bamx::BaixReader index(path);
    auto [first, last] = index.query(0, 0, 100000);
    index.entries(first, last);
  } catch (const Error&) {
  }
}

TEST_P(CorruptionSeeds, SamGarbageLinesNeverCrash) {
  // Random bytes injected into a SAM body: parse errors, not crashes.
  Corpus& c = corpus();
  std::string path = corrupt_copy(c.sam_path, GetParam() + 700, 5,
                                  c.tmp.file("x.sam"));
  try {
    sam::SamFileReader reader(path);
    AlignmentRecord rec;
    while (reader.next(rec)) {
    }
  } catch (const Error&) {
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionSeeds,
                         ::testing::Range<uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// Atomic-commit path: killing a writer mid-stream with an injected hard
// fault must leave nothing under the final name (and no staging leak), and
// a clean re-run must reproduce the never-faulted file byte for byte.
// ---------------------------------------------------------------------------

/// Re-derives the corpus dataset (same seeds as Corpus).
std::vector<AlignmentRecord> corpus_records(sam::SamHeader& header_out) {
  auto genome = simdata::ReferenceGenome::simulate(
      simdata::mouse_like_references(200000), 71);
  auto records = simdata::simulate_alignments(
      genome, 150, [] {
        simdata::ReadSimConfig cfg;
        cfg.seed = 71;
        return cfg;
      }());
  header_out = genome.header();
  return records;
}

void expect_no_staging_leak(const std::string& dir) {
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp."),
              std::string::npos)
        << "leaked staging file: " << entry.path();
  }
}

TEST(AtomicCommit, KilledWritersLeaveNoFinalFileAndRerunIsByteIdentical) {
  Corpus& c = corpus();
  sam::SamHeader header;
  auto records = corpus_records(header);
  bamx::BamxLayout layout;
  for (const auto& r : records) {
    layout.accommodate(r);
  }
  TempDir tmp;

  struct Format {
    const char* name;
    const std::string* reference;  // corpus file with identical bytes
    std::function<void(const std::string&)> write;
  };
  std::vector<Format> formats = {
      {"sam", &c.sam_path,
       [&](const std::string& p) {
         sam::SamFileWriter w(p, header);
         for (const auto& r : records) {
           w.write(r);
         }
         w.close();
       }},
      {"bam", &c.bam_path,
       [&](const std::string& p) {
         bam::BamFileWriter w(p, header);
         for (const auto& r : records) {
           w.write(r);
         }
         w.close();
       }},
      {"bamx", &c.bamx_path,
       [&](const std::string& p) {
         bamx::BamxWriter w(p, header, layout);
         for (const auto& r : records) {
           w.write(r);
         }
         w.close();
       }},
  };

  for (const Format& fmt : formats) {
    SCOPED_TRACE(fmt.name);
    const std::string path = tmp.file(std::string("kill.") + fmt.name);
    {
      io::Fault fault;
      fault.op = io::Op::kWrite;
      fault.kind = io::FaultKind::kError;
      io::IoPolicy::instance().inject(path, fault);
      EXPECT_THROW(fmt.write(path), Error);
      io::IoPolicy::instance().clear();
    }
    EXPECT_FALSE(std::filesystem::exists(path))
        << "partial file observable under its final name";
    expect_no_staging_leak(tmp.path());
    // The fault cleared: the identical call now succeeds, byte-identically
    // to the never-faulted corpus file.
    fmt.write(path);
    EXPECT_EQ(read_file(path), read_file(*fmt.reference));
  }
}

TEST(AtomicCommit, EnospcMidStreamRollsBackCompressedWriters) {
  // ENOSPC strikes while compressed payload is moving to the kernel (not
  // at close): larger dataset so BGZF crosses its buffer thresholds.
  sam::SamHeader header;
  auto records = corpus_records(header);
  TempDir tmp;
  const std::string path = tmp.file("enospc.bam");
  {
    io::Fault fault;
    fault.op = io::Op::kWrite;
    fault.kind = io::FaultKind::kEnospc;
    fault.bytes = 512;  // far below the compressed stream size
    io::IoPolicy::instance().inject(path, fault);
    EXPECT_THROW(
        [&] {
          bam::BamFileWriter w(path, header);
          for (int round = 0; round < 50; ++round) {
            for (const auto& r : records) {
              w.write(r);
            }
          }
          w.close();
        }(),
        Error);
    io::IoPolicy::instance().clear();
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  expect_no_staging_leak(tmp.path());
}

TEST(Corruption, BaixRecordIndexPastTheBamxIsAFormatError) {
  // Entry 0 of an otherwise valid BAIX points at record 2^63 - 1: the
  // region plan must reject it as a FormatError naming the index, before
  // any record read or part file.
  Corpus& c = corpus();
  TempDir tmp;
  const bamx::BaixEntry first = bamx::BaixReader(c.baix_path).entry(0);
  std::string data = read_file(c.baix_path);
  binio::poke_le<uint64_t>(data, 15 + 8, (uint64_t{1} << 63) - 1);
  const std::string path = tmp.file("far.baix");
  write_file(path, data);
  core::ConvertOptions opt;
  opt.format = core::TargetFormat::kSam;
  opt.ranks = 2;
  const std::string dir = tmp.subdir("out");
  try {
    core::convert_bamx(c.bamx_path, path, dir, opt,
                       core::Region{first.ref_id, first.pos, first.pos + 1});
    FAIL() << "a record index past the BAMX was accepted";
  } catch (const FormatError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
    EXPECT_NE(msg.find("9223372036854775807"), std::string::npos) << msg;
  }
  EXPECT_TRUE(std::filesystem::is_empty(dir));
}

TEST(Corruption, TotallyRandomBytesRejectedEverywhere) {
  TempDir tmp;
  Rng rng(9);
  std::string noise(4096, '\0');
  for (auto& ch : noise) {
    ch = static_cast<char>(rng.below(256));
  }
  std::string path = tmp.file("noise.bin");
  write_file(path, noise);
  EXPECT_THROW(bam::BamFileReader r(path), Error);
  EXPECT_THROW(bamx::RecordSource r(path), Error);
  EXPECT_THROW(bamx::BaixReader r(path), Error);
}

}  // namespace
}  // namespace ngsx
