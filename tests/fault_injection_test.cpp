// Failure matrix for the IoPolicy fault-injection layer (docs/ROBUSTNESS.md):
// for each converter × target format × {1,8} BGZF decode threads, inject
// each fault class at several operation offsets and assert the four
// robustness invariants:
//
//   1. the converter returns a clean ngsx::Error carrying the injected
//      failure (no abort, no hang, no false success);
//   2. no partially written file is ever observable under a final output
//      name — anything that exists with a final name is byte-identical to
//      the never-faulted run's file of the same name;
//   3. no ".tmp." staging file is leaked anywhere;
//   4. after the fault clears, a re-run produces byte-identical outputs to
//      the never-faulted run (and transient faults within the retry budget
//      succeed on the *first* run, also byte-identically).

#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/collate.h"
#include "core/convert.h"
#include "obs/metrics.h"
#include "formats/bam.h"
#include "formats/bgzf.h"
#include "formats/sam.h"
#include "simdata/readsim.h"
#include "testutil.h"
#include "util/binio.h"
#include "util/iopolicy.h"
#include "util/rng.h"
#include "util/tempdir.h"

namespace ngsx {
namespace {

namespace fs = std::filesystem;
using core::ConvertOptions;
using core::TargetFormat;

/// Clears every injected rule on scope exit so a failing assertion cannot
/// poison later iterations (or the TempDir destructor's cleanup I/O).
struct FaultScope {
  FaultScope(const std::string& substr, const io::Fault& fault) {
    io::IoPolicy::instance().inject(substr, fault);
  }
  ~FaultScope() { io::IoPolicy::instance().clear(); }
};

io::Fault make_fault(io::Op op, io::FaultKind kind, uint64_t arg,
                     uint64_t times = ~0ull) {
  io::Fault f;
  f.op = op;
  f.kind = kind;
  if (kind == io::FaultKind::kEnospc || kind == io::FaultKind::kShortRead) {
    f.bytes = arg;
  } else {
    f.after_ops = arg;
  }
  f.err = kind == io::FaultKind::kEnospc ? ENOSPC : EIO;
  f.times = times;
  return f;
}

/// One injected failure plus the message fragment it must surface.
struct FaultCase {
  std::string name;
  io::Fault fault;
  std::string expect;  // required substring of the thrown Error
};

/// The write-side fault classes, at operation offsets {0, 1}. Offset 1
/// needs at least two matching physical operations, which every multi-part
/// conversion provides (>= 2 part files, each flushed at least once).
std::vector<FaultCase> write_fault_cases(bool multi_op) {
  std::vector<FaultCase> cases;
  std::vector<uint64_t> offsets = multi_op ? std::vector<uint64_t>{0, 1}
                                           : std::vector<uint64_t>{0};
  for (uint64_t at : offsets) {
    std::string suffix = "@" + std::to_string(at);
    cases.push_back({"write-error" + suffix,
                     make_fault(io::Op::kWrite, io::FaultKind::kError, at),
                     "[injected fault]"});
    cases.push_back({"fsync-fail" + suffix,
                     make_fault(io::Op::kFsync, io::FaultKind::kError, at),
                     "[injected fault]"});
    cases.push_back({"close-fail" + suffix,
                     make_fault(io::Op::kClose, io::FaultKind::kError, at),
                     "[injected fault]"});
    cases.push_back({"rename-fail" + suffix,
                     make_fault(io::Op::kRename, io::FaultKind::kError, at),
                     "[injected fault]"});
    // A transient that never clears: the bounded retry must give up and
    // surface the error instead of spinning. (A finite `times` is covered
    // by the absorbed-transient tests; here every retry fails.)
    cases.push_back({"transient-exhausted" + suffix,
                     make_fault(io::Op::kWrite, io::FaultKind::kTransient, at),
                     "[injected fault]"});
  }
  cases.push_back({"enospc@64",
                   make_fault(io::Op::kWrite, io::FaultKind::kEnospc, 64),
                   "No space left on device [injected fault]"});
  return cases;
}

/// The read-side fault classes. Short reads surface as the reader's own
/// truncation error (binio refuses to pass a mid-file short read off as
/// EOF), so they assert on "short read" rather than the injection marker.
std::vector<FaultCase> read_fault_cases() {
  std::vector<FaultCase> cases;
  for (uint64_t at : {uint64_t{0}, uint64_t{1}}) {
    std::string suffix = "@" + std::to_string(at);
    cases.push_back({"read-error" + suffix,
                     make_fault(io::Op::kRead, io::FaultKind::kError, at),
                     "[injected fault]"});
    cases.push_back(
        {"read-transient-exhausted" + suffix,
         make_fault(io::Op::kRead, io::FaultKind::kTransient, at),
         "[injected fault]"});
  }
  // A short read inside the file's extent surfaces as binio's "short read"
  // IoError; one that lands where the request crosses EOF is legitimately
  // indistinguishable from a truncated file, and the format layer reports
  // it as its own truncation error instead (e.g. the SAM header scanner's
  // line-too-long guard). Either way it must be a clean ngsx::Error, so
  // this case only pins the error type, not the message.
  cases.push_back({"short-read@3",
                   make_fault(io::Op::kRead, io::FaultKind::kShortRead, 3),
                   ""});
  return cases;
}

/// Simulated dataset shared by every test in this binary.
struct Dataset {
  TempDir tmp;
  std::string sam_path;
  std::string bam_path;
  sam::SamHeader header;

  Dataset() {
    auto genome = simdata::ReferenceGenome::simulate(
        simdata::mouse_like_references(200000), 71);
    simdata::ReadSimConfig cfg;
    cfg.seed = 71;
    auto records = simdata::simulate_alignments(genome, 150, cfg);
    header = genome.header();
    sam_path = tmp.file("in.sam");
    bam_path = tmp.file("in.bam");
    sam::SamFileWriter sw(sam_path, header);
    bam::BamFileWriter bw(bam_path, header);
    for (const auto& r : records) {
      sw.write(r);
      bw.write(r);
    }
    sw.close();
    bw.close();
  }
};

Dataset& dataset() {
  static Dataset d;
  return d;
}

/// Snapshot of a directory tree: relative path -> file bytes.
std::map<std::string, std::string> snapshot(const std::string& dir) {
  std::map<std::string, std::string> files;
  if (!fs::exists(dir)) {
    return files;
  }
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      std::string rel = fs::relative(entry.path(), dir).string();
      files[rel] = read_file(entry.path().string());
    }
  }
  return files;
}

/// Invariant 3: no staging file may survive anywhere under `dir`.
void expect_no_temp_leaks(const std::string& dir) {
  if (!fs::exists(dir)) {
    return;
  }
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp."),
              std::string::npos)
        << "leaked staging file: " << entry.path();
  }
}

/// Invariant 2: everything under a final name in `dir` must be a complete
/// file — byte-identical to the clean run's file of the same name.
void expect_outputs_complete(const std::string& dir,
                             const std::map<std::string, std::string>& clean) {
  for (const auto& [rel, bytes] : snapshot(dir)) {
    auto it = clean.find(rel);
    ASSERT_NE(it, clean.end()) << "unexpected output file: " << rel;
    EXPECT_EQ(bytes, it->second)
        << "partial file observable under final name: " << rel;
  }
}

void expect_identical(const std::map<std::string, std::string>& got,
                      const std::map<std::string, std::string>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [rel, bytes] : want) {
    auto it = got.find(rel);
    ASSERT_NE(it, got.end()) << "missing output file: " << rel;
    EXPECT_EQ(it->second, bytes) << "retry output differs: " << rel;
  }
}

/// Runs `fn` (a full conversion into `dir`) expecting the injected error,
/// then checks invariants 1-3 against the clean snapshot.
template <typename Fn>
void expect_fault(const FaultCase& fc, const std::string& substr,
                  const std::string& dir, Fn&& fn,
                  const std::map<std::string, std::string>& clean) {
  SCOPED_TRACE(fc.name);
  fs::create_directories(dir);
  {
    FaultScope scope(substr, fc.fault);
    try {
      fn();
      FAIL() << "conversion succeeded despite injected fault " << fc.name;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(fc.expect), std::string::npos)
          << "error message '" << e.what() << "' lacks '" << fc.expect << "'";
    }
  }
  expect_no_temp_leaks(dir);
  expect_outputs_complete(dir, clean);
}

/// Test axis: BGZF decode threads of the BAM readers.
class FaultMatrix : public ::testing::TestWithParam<int> {
 protected:
  int decode_threads() const { return GetParam(); }

  static ConvertOptions options(TargetFormat format) {
    ConvertOptions opt;
    opt.format = format;
    opt.ranks = 2;
    return opt;
  }
};

INSTANTIATE_TEST_SUITE_P(DecodeThreads, FaultMatrix, ::testing::Values(1, 8),
                         [](const auto& info) {
                           return "decode" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// 1. SAM format converter.
// ---------------------------------------------------------------------------

TEST_P(FaultMatrix, ConvertSamSurvivesEveryFaultClass) {
  Dataset& d = dataset();
  for (TargetFormat format : {TargetFormat::kBed, TargetFormat::kBam}) {
    SCOPED_TRACE(core::target_format_name(format));
    ConvertOptions opt = options(format);
    TempDir tmp("faultsam");
    const std::string clean_dir = tmp.subdir("clean");
    core::convert_sam(d.sam_path, clean_dir, opt);
    auto clean = snapshot(clean_dir);

    int i = 0;
    for (const FaultCase& fc : write_fault_cases(/*multi_op=*/true)) {
      const std::string dir = tmp.subdir("w" + std::to_string(i++));
      expect_fault(fc, "part-", dir,
                   [&] { core::convert_sam(d.sam_path, dir, opt); }, clean);
      // Invariant 4: the fault cleared; the same run now succeeds and is
      // byte-identical to the never-faulted run.
      auto retry = snapshot(dir);
      core::convert_sam(d.sam_path, dir, opt);
      expect_identical(snapshot(dir), clean);
    }
    i = 0;
    for (const FaultCase& fc : read_fault_cases()) {
      const std::string dir = tmp.subdir("r" + std::to_string(i++));
      expect_fault(fc, "in.sam", dir,
                   [&] { core::convert_sam(d.sam_path, dir, opt); }, clean);
      core::convert_sam(d.sam_path, dir, opt);
      expect_identical(snapshot(dir), clean);
    }
  }
}

TEST_P(FaultMatrix, ConvertSamAbsorbsTransientFaultsWithinBudget) {
  Dataset& d = dataset();
  ConvertOptions opt = options(TargetFormat::kBed);
  TempDir tmp("faulttransient");
  const std::string clean_dir = tmp.subdir("clean");
  core::convert_sam(d.sam_path, clean_dir, opt);
  auto clean = snapshot(clean_dir);

  {
    // Two consecutive write failures: within the retry budget, so the run
    // must succeed — and byte-identically, since retried writes must not
    // duplicate or drop buffered bytes.
    const std::string dir = tmp.subdir("w");
    FaultScope scope("part-", make_fault(io::Op::kWrite,
                                         io::FaultKind::kTransient, 0,
                                         /*times=*/2));
    core::convert_sam(d.sam_path, dir, opt);
    expect_identical(snapshot(dir), clean);
  }
  {
    const std::string dir = tmp.subdir("r");
    FaultScope scope("in.sam", make_fault(io::Op::kRead,
                                          io::FaultKind::kTransient, 0,
                                          /*times=*/2));
    core::convert_sam(d.sam_path, dir, opt);
    expect_identical(snapshot(dir), clean);
  }
}

// ---------------------------------------------------------------------------
// 2. BAM format converter (preprocess + parallel conversion).
// ---------------------------------------------------------------------------

TEST_P(FaultMatrix, PreprocessBamSurvivesWriteAndReadFaults) {
  Dataset& d = dataset();
  TempDir tmp("faultprep");
  core::PreprocessOptions popt;
  popt.threads = 2;
  popt.shards = 2;
  popt.decode_threads = decode_threads();
  const auto preprocess = [&](const std::string& dir) {
    core::preprocess_bam_parallel(d.bam_path, dir + "/x.bamxm",
                                  dir + "/x.baix", popt);
  };
  const std::string clean_dir = tmp.subdir("clean");
  preprocess(clean_dir);
  auto clean = snapshot(clean_dir);

  // Write faults on the shards, the BAIX and the manifest; the last two
  // are one small file each, so only offset-0 faults can fire there.
  const std::vector<std::pair<std::string, bool>> targets = {
      {"x-shard-", true}, {"x.baix", false}, {"x.bamxm", false}};
  int i = 0;
  for (const auto& [target, multi_op] : targets) {
    for (const FaultCase& fc : write_fault_cases(multi_op)) {
      SCOPED_TRACE(target);
      const std::string dir = tmp.subdir("w" + std::to_string(i++));
      expect_fault(fc, target, dir, [&] { preprocess(dir); }, clean);
      // Shards commit before the BAIX and the manifest, and a later
      // failure removes them again: nothing is published.
      EXPECT_TRUE(snapshot(dir).empty());
      preprocess(dir);
      expect_identical(snapshot(dir), clean);
    }
  }
  i = 0;
  for (const FaultCase& fc : read_fault_cases()) {
    const std::string dir = tmp.subdir("r" + std::to_string(i++));
    expect_fault(fc, "in.bam", dir, [&] { preprocess(dir); }, clean);
    EXPECT_TRUE(snapshot(dir).empty());
    preprocess(dir);
    expect_identical(snapshot(dir), clean);
  }
}

TEST_P(FaultMatrix, ConvertBamxSurvivesEveryFaultClass) {
  Dataset& d = dataset();
  TempDir tmp("faultbamx");
  const std::string bamx = tmp.file("x.bamx");
  const std::string baix = tmp.file("x.baix");
  testutil::reference_preprocess(d.bam_path, bamx, baix);

  for (TargetFormat format : {TargetFormat::kBed, TargetFormat::kBam}) {
    SCOPED_TRACE(core::target_format_name(format));
    ConvertOptions opt = options(format);
    const std::string clean_dir = tmp.subdir(
        std::string("clean-") + std::string(core::target_format_name(format)));
    core::convert_bamx(bamx, baix, clean_dir, opt);
    auto clean = snapshot(clean_dir);

    int i = 0;
    std::string tag(core::target_format_name(format));
    for (const FaultCase& fc : write_fault_cases(/*multi_op=*/true)) {
      const std::string dir = tmp.subdir(tag + "-w" + std::to_string(i++));
      expect_fault(fc, "part-", dir,
                   [&] { core::convert_bamx(bamx, baix, dir, opt); }, clean);
      core::convert_bamx(bamx, baix, dir, opt);
      expect_identical(snapshot(dir), clean);
    }
    i = 0;
    for (const FaultCase& fc : read_fault_cases()) {
      const std::string dir = tmp.subdir(tag + "-r" + std::to_string(i++));
      expect_fault(fc, "x.bamx", dir,
                   [&] { core::convert_bamx(bamx, baix, dir, opt); }, clean);
      core::convert_bamx(bamx, baix, dir, opt);
      expect_identical(snapshot(dir), clean);
    }
  }
}

TEST(BaixPageFaults, ShortReadOrEioOnAPageReadPublishesNoPart) {
  // A region conversion reads BAIX pages while it plans, before any part
  // file exists: a damaged page read must surface as IoError and leave the
  // output directory empty, and the same call succeeds once it clears.
  Dataset& d = dataset();
  TempDir tmp("faultbaix");
  const std::string bamx = tmp.file("x.bamx");
  const std::string baix = tmp.file("x.baix");
  testutil::reference_preprocess(d.bam_path, bamx, baix);
  ConvertOptions opt;
  opt.format = TargetFormat::kSam;
  opt.ranks = 2;
  const core::Region region{0, 0, 1 << 30};
  const std::string clean_dir = tmp.subdir("clean");
  ASSERT_GT(core::convert_bamx(bamx, baix, clean_dir, opt, region).records_in,
            0u);
  const auto clean = snapshot(clean_dir);

  // Read 0 is the 15-byte header; a short read of 16 bytes spares it and
  // cuts every page read, and EIO at read 1 hits the first page read.
  const std::vector<FaultCase> cases = {
      {"page-short-read",
       make_fault(io::Op::kRead, io::FaultKind::kShortRead, 16), "short read"},
      {"page-eio", make_fault(io::Op::kRead, io::FaultKind::kError, 1),
       "[injected fault]"}};
  int i = 0;
  for (const FaultCase& fc : cases) {
    SCOPED_TRACE(fc.name);
    const std::string dir = tmp.subdir("f" + std::to_string(i++));
    {
      FaultScope scope("x.baix", fc.fault);
      try {
        core::convert_bamx(bamx, baix, dir, opt, region);
        ADD_FAILURE() << "conversion succeeded despite a faulted page read";
      } catch (const IoError& e) {
        EXPECT_NE(std::string(e.what()).find(fc.expect), std::string::npos)
            << e.what();
      }
    }
    EXPECT_TRUE(snapshot(dir).empty());
    expect_no_temp_leaks(dir);
    core::convert_bamx(bamx, baix, dir, opt, region);
    expect_identical(snapshot(dir), clean);
  }
}

TEST_P(FaultMatrix, ConvertBamSequentialSurvivesEveryFaultClass) {
  Dataset& d = dataset();
  TempDir tmp("faultseq");
  for (TargetFormat format : {TargetFormat::kBed, TargetFormat::kBam}) {
    SCOPED_TRACE(core::target_format_name(format));
    std::string ext(core::target_extension(format));
    const std::string clean_dir = tmp.subdir(
        std::string("clean-") + std::string(core::target_format_name(format)));
    core::convert_bam_sequential(d.bam_path, clean_dir + "/seq" + ext, format,
                                 decode_threads());
    auto clean = snapshot(clean_dir);

    int i = 0;
    std::string tag(core::target_format_name(format));
    // Single output file => only offset-0 write faults can fire.
    for (const FaultCase& fc : write_fault_cases(/*multi_op=*/false)) {
      const std::string dir = tmp.subdir(tag + "-w" + std::to_string(i++));
      const std::string out = dir + "/seq" + ext;
      expect_fault(fc, "/seq", dir,
                   [&] {
                     core::convert_bam_sequential(d.bam_path, out, format,
                                                  decode_threads());
                   },
                   clean);
      core::convert_bam_sequential(d.bam_path, out, format, decode_threads());
      expect_identical(snapshot(dir), clean);
    }
    i = 0;
    for (const FaultCase& fc : read_fault_cases()) {
      const std::string dir = tmp.subdir(tag + "-r" + std::to_string(i++));
      const std::string out = dir + "/seq" + ext;
      expect_fault(fc, "in.bam", dir,
                   [&] {
                     core::convert_bam_sequential(d.bam_path, out, format,
                                                  decode_threads());
                   },
                   clean);
      core::convert_bam_sequential(d.bam_path, out, format, decode_threads());
      expect_identical(snapshot(dir), clean);
    }
  }
}

// ---------------------------------------------------------------------------
// 3. Preprocessing-optimized SAM format converter (M x N shards).
// ---------------------------------------------------------------------------

TEST_P(FaultMatrix, ShardedConverterSurvivesFaultsInBothPhases) {
  Dataset& d = dataset();
  ConvertOptions opt = options(TargetFormat::kBed);
  TempDir tmp("faultshard");

  const auto preprocess = [&](const std::string& dir) {
    core::preprocess_sam_parallel(d.sam_path, dir + "/x.bamxm",
                                  dir + "/x.baix", 2);
  };
  const std::string clean_pre = tmp.subdir("clean-pre");
  preprocess(clean_pre);
  const std::string manifest = clean_pre + "/x.bamxm";
  auto clean_shards = snapshot(clean_pre);
  const std::string clean_conv = tmp.subdir("clean-conv");
  core::convert_bamx_shards(manifest, clean_conv, opt);
  auto clean_parts = snapshot(clean_conv);

  // Phase 1 faults: shard writers. Nothing may be published.
  int i = 0;
  for (const FaultCase& fc : write_fault_cases(/*multi_op=*/true)) {
    const std::string dir = tmp.subdir("pre" + std::to_string(i++));
    expect_fault(fc, "shard-", dir, [&] { preprocess(dir); }, clean_shards);
    EXPECT_TRUE(snapshot(dir).empty());
    preprocess(dir);
    expect_identical(snapshot(dir), clean_shards);
  }

  // Phase 2 faults: part writers and manifest/shard readers.
  i = 0;
  for (const FaultCase& fc : write_fault_cases(/*multi_op=*/true)) {
    const std::string dir = tmp.subdir("conv" + std::to_string(i++));
    expect_fault(fc, "part-", dir,
                 [&] { core::convert_bamx_shards(manifest, dir, opt); },
                 clean_parts);
    core::convert_bamx_shards(manifest, dir, opt);
    expect_identical(snapshot(dir), clean_parts);
  }
  i = 0;
  for (const FaultCase& fc : read_fault_cases()) {
    const std::string dir = tmp.subdir("convr" + std::to_string(i++));
    expect_fault(fc, ".bamx", dir,
                 [&] { core::convert_bamx_shards(manifest, dir, opt); },
                 clean_parts);
    core::convert_bamx_shards(manifest, dir, opt);
    expect_identical(snapshot(dir), clean_parts);
  }
}

// ---------------------------------------------------------------------------
// Direct OutputFile contract checks (not converter-mediated).
// ---------------------------------------------------------------------------

TEST(OutputFileAtomicCommit, CloseFailureRemovesStagingAndFinal) {
  TempDir tmp("atomic");
  const std::string path = tmp.file("out.bin");
  for (io::Op op : {io::Op::kWrite, io::Op::kFsync, io::Op::kClose,
                    io::Op::kRename}) {
    FaultScope scope("out.bin",
                     make_fault(op, io::FaultKind::kError, 0));
    OutputFile out(path);
    out.write("hello world");
    EXPECT_THROW(out.close(), IoError);
    EXPECT_FALSE(fs::exists(path));
    EXPECT_FALSE(fs::exists(out.staging_path()));
    // close() after a failure is a no-op, not a second throw.
    out.close();
  }
}

TEST(OutputFileAtomicCommit, DiscardedWriterLeavesNothing) {
  TempDir tmp("atomic");
  const std::string path = tmp.file("out.bin");
  {
    OutputFile out(path);
    out.write("abandoned bytes");
    out.flush();
    EXPECT_TRUE(fs::exists(out.staging_path()));
    out.discard();
    EXPECT_FALSE(fs::exists(out.staging_path()));
  }
  EXPECT_FALSE(fs::exists(path));
}

TEST(OutputFileAtomicCommit, SuccessfulClosePublishesExactBytes) {
  TempDir tmp("atomic");
  const std::string path = tmp.file("out.bin");
  OutputFile out(path);
  out.write("published");
  EXPECT_FALSE(fs::exists(path)) << "visible before close()";
  out.close();
  EXPECT_EQ(read_file(path), "published");
  EXPECT_FALSE(fs::exists(out.staging_path()));
}

TEST(OutputFileAtomicCommit, PatchAtLandsBeforeCommit) {
  TempDir tmp("atomic");
  const std::string path = tmp.file("out.bin");
  OutputFile out(path);
  out.write("AAAABBBB");
  out.patch_at(0, "XY");
  out.close();
  EXPECT_EQ(read_file(path), "XYAABBBB");
}

TEST(InputFileShortRead, MidFileShortReadThrowsInsteadOfTruncating) {
  TempDir tmp("shortread");
  const std::string path = tmp.file("in.bin");
  write_file(path, std::string(1024, 'x'));
  InputFile in(path);
  FaultScope scope("in.bin",
                   make_fault(io::Op::kRead, io::FaultKind::kShortRead, 16));
  char buf[256];
  EXPECT_THROW(in.pread(buf, sizeof(buf), 0), IoError);
}

TEST(InputFileTransient, RetryAbsorbsTransientReadErrors) {
  TempDir tmp("transient");
  const std::string path = tmp.file("in.bin");
  write_file(path, "transient payload");
  InputFile in(path);
  FaultScope scope("in.bin", make_fault(io::Op::kRead,
                                        io::FaultKind::kTransient, 0,
                                        /*times=*/io::kMaxTransientRetries));
  char buf[17];
  ASSERT_EQ(in.pread(buf, sizeof(buf), 0), sizeof(buf));
  EXPECT_EQ(std::string(buf, sizeof(buf)), "transient payload");
}

/// Arms metrics for one test and restores the disarmed default on exit.
struct MetricsScope {
  MetricsScope() {
    obs::reset_metrics();
    obs::enable_metrics();
  }
  ~MetricsScope() { obs::enable_metrics(false); }
};

TEST(InputFileTransient, RetriesAreCountedInMetrics) {
  MetricsScope armed;
  TempDir tmp("transient-metrics");
  const std::string path = tmp.file("in.bin");
  write_file(path, "transient payload");
  InputFile in(path);
  // Two transient failures before success: io_consult retries in place,
  // counting one io.binio.retries per absorbed failure, and never reaches
  // the hard-fault path.
  FaultScope scope("in.bin", make_fault(io::Op::kRead,
                                        io::FaultKind::kTransient, 0,
                                        /*times=*/2));
  char buf[17];
  ASSERT_EQ(in.pread(buf, sizeof(buf), 0), sizeof(buf));
  obs::Snapshot snap = obs::snapshot();
  EXPECT_EQ(snap.counter_value("io.binio.retries"), 2u);
  EXPECT_EQ(snap.counter_value("io.binio.faults"), 0u);
  EXPECT_GE(snap.counter_value("io.binio.reads"), 1u);
}

TEST(InputFileTransient, ExhaustedRetriesCountAsFault) {
  MetricsScope armed;
  TempDir tmp("fault-metrics");
  const std::string path = tmp.file("in.bin");
  write_file(path, "doomed payload");
  InputFile in(path);
  // More transient failures than the retry budget: the hook must count
  // every retry attempt and then exactly one hard fault for the throw.
  FaultScope scope("in.bin",
                   make_fault(io::Op::kRead, io::FaultKind::kTransient, 0,
                              /*times=*/io::kMaxTransientRetries + 1));
  char buf[14];
  EXPECT_THROW(in.pread(buf, sizeof(buf), 0), IoError);
  obs::Snapshot snap = obs::snapshot();
  EXPECT_EQ(snap.counter_value("io.binio.retries"),
            static_cast<uint64_t>(io::kMaxTransientRetries));
  EXPECT_EQ(snap.counter_value("io.binio.faults"), 1u);
}

// --------------------------------------------- external-sort run cleanup
//
// Invariant 3 (no ".tmp." litter) for the external-merge sorter
// (core/sort.h), driven through collate_to_bam, its name-grouped BAM
// client: a failure at any phase — writing a spill run, or writing the
// final output mid-merge — must leave zero run files behind.

namespace {

/// A BAM that forces the sorter to spill under a 32-record budget.
std::string write_sort_input(TempDir& tmp) {
  sam::SamHeader header =
      sam::SamHeader::from_references({{"chr1", 500000}});
  const std::string path = tmp.file("in.bam");
  bam::BamFileWriter w(path, header);
  for (int i = 0; i < 400; ++i) {
    sam::AlignmentRecord rec;
    rec.qname = "q" + std::to_string((i * 7919) % 400);  // shuffled names
    rec.ref_id = 0;
    rec.pos = (i * 7919) % 400000;
    rec.cigar = sam::parse_cigar("50M");
    rec.seq = std::string(50, 'A');
    w.write(rec);
  }
  w.close();
  return path;
}

core::CollateOptions spilling_options(const std::string& spill_dir) {
  core::CollateOptions options;
  options.max_records_in_memory = 32;
  options.temp_dir = spill_dir;
  return options;
}

int count_files_under(const std::string& dir) {
  int n = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      ++n;
    }
  }
  return n;
}

}  // namespace

TEST(SortFaults, EnospcOnSpillRunLeavesNoRunFiles) {
  TempDir tmp("sort-spill-fault");
  const std::string in = write_sort_input(tmp);
  const std::string spill_dir = tmp.file("spill");
  fs::create_directories(spill_dir);
  // Fail the second run file ("run1") after a small byte budget: the
  // first run commits, then the background spill stage fails and the
  // error surfaces from push()/drain(). Every committed run must still
  // be removed on unwind.
  FaultScope scope("run1.tmp.bam",
                   make_fault(io::Op::kWrite, io::FaultKind::kEnospc, 64));
  EXPECT_THROW(core::collate_to_bam(in, tmp.file("out.bam"),
                                    spilling_options(spill_dir)),
               Error);
  EXPECT_EQ(count_files_under(spill_dir), 0);
  EXPECT_FALSE(fs::exists(tmp.file("out.bam")));
}

TEST(SortFaults, EnospcMidMergeLeavesNoRunFiles) {
  TempDir tmp("sort-merge-fault");
  const std::string in = write_sort_input(tmp);
  // Output goes under final/, runs under spill/ — the injection substring
  // matches only the merge-phase output writes, never the run files.
  const std::string final_dir = tmp.file("final");
  const std::string spill_dir = tmp.file("spill");
  fs::create_directories(final_dir);
  fs::create_directories(spill_dir);
  FaultScope scope("final/",
                   make_fault(io::Op::kWrite, io::FaultKind::kEnospc, 256));
  EXPECT_THROW(core::collate_to_bam(in, final_dir + "/out.bam",
                                    spilling_options(spill_dir)),
               Error);
  // Mid-merge failure: all runs existed when the merge started, and the
  // sorter's unwind removed every one of them.
  EXPECT_EQ(count_files_under(spill_dir), 0);
  EXPECT_EQ(count_files_under(final_dir), 0);  // no partial output either
}

TEST(SortFaults, RetryAfterFaultClearsProducesCorrectOutput) {
  TempDir tmp("sort-fault-retry");
  const std::string in = write_sort_input(tmp);
  const std::string spill_dir = tmp.file("spill");
  fs::create_directories(spill_dir);
  const core::CollateOptions options = spilling_options(spill_dir);
  {
    FaultScope scope("run0.tmp.bam",
                     make_fault(io::Op::kWrite, io::FaultKind::kEnospc, 64));
    EXPECT_THROW(core::collate_to_bam(in, tmp.file("out.bam"), options),
                 Error);
  }
  const core::CollateStats stats =
      core::collate_to_bam(in, tmp.file("out.bam"), options);
  EXPECT_EQ(stats.written, 400u);
  EXPECT_GT(stats.spill_runs, 1u);
  EXPECT_EQ(count_files_under(spill_dir), 0);
  // Byte-identical to a run that never spilled.
  core::collate_to_bam(in, tmp.file("mem.bam"));
  EXPECT_EQ(read_file(tmp.file("out.bam")), read_file(tmp.file("mem.bam")));
}

TEST(BgzfWriterFaults, CloseAfterFailedWritePublishesNothing) {
  // A block the file lost must not be papered over by a later close():
  // the first write error rolls the writer back, at one deflate thread
  // and at four. The fault is one shot, so later writes would succeed.
  Rng rng(5);
  std::string payload(bgzf::kMaxBlockInput * 64, '\0');  // > 1 MB buffer
  for (auto& c : payload) {
    c = static_cast<char>(rng.below(256));  // incompressible
  }
  for (int threads : {1, 4}) {
    TempDir tmp("bgzf-fault");
    FaultScope scope("out.bgzf", make_fault(io::Op::kWrite,
                                            io::FaultKind::kEnospc, 64, 1));
    bgzf::Writer w(tmp.file("out.bgzf"), 1, threads);
    EXPECT_THROW(w.write(payload), IoError) << "threads " << threads;
    w.close();  // no-op after the rollback
    EXPECT_TRUE(fs::is_empty(tmp.path())) << "threads " << threads;
  }
}

TEST(CollateFaults, EnospcOnThreadedMarkDuplicatesOutputPublishesNothing) {
  // mark_duplicates deflates its output on four threads, so the failing
  // write happens in the BGZF pipeline's commit sink, off the caller's
  // thread. The error must still surface, and the rollback must publish
  // neither the final BAM nor a staging file and leave no spill run.
  TempDir tmp("markdup-fault");
  const std::string in = tmp.file("in.bam");
  {
    auto genome = simdata::ReferenceGenome::simulate(
        simdata::mouse_like_references(1000000), 73);
    simdata::ReadSimConfig cfg;
    cfg.seed = 73;
    simdata::write_bam_dataset(in, genome, 8000, cfg);
  }
  const std::string final_dir = tmp.file("final");
  const std::string spill_dir = tmp.file("spill");
  fs::create_directories(final_dir);
  fs::create_directories(spill_dir);
  core::CollateOptions options = spilling_options(spill_dir);
  options.max_records_in_memory = 4000;
  options.parse_threads = 4;
  const std::string out = final_dir + "/markdup.bam";
  {
    // One shot: the writes after the failed one succeed, so only the
    // writer's own error path keeps a file with a hole from being
    // published.
    FaultScope scope("final/", make_fault(io::Op::kWrite,
                                          io::FaultKind::kEnospc, 64, 1));
    try {
      core::mark_duplicates(in, out, core::DuplicateMode::kMark, options);
      FAIL() << "mark_duplicates succeeded despite the injected ENOSPC";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("[injected fault]"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(count_files_under(final_dir), 0);
  EXPECT_EQ(count_files_under(spill_dir), 0);
  // Fault cleared: the rerun spills, publishes, and writes more than the
  // output buffer, so the fault above hit mid-stream, not in close().
  const core::CollateStats stats =
      core::mark_duplicates(in, out, core::DuplicateMode::kMark, options);
  EXPECT_GT(stats.spill_runs, 0u);
  EXPECT_GT(file_size(out), uint64_t{1} << 20);
  EXPECT_EQ(count_files_under(spill_dir), 0);
}

}  // namespace
}  // namespace ngsx
