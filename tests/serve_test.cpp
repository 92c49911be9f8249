// Tests for the serving subsystem (src/serve): byte-identity of served
// payloads against the one-shot converters, deterministic scheduler
// behavior (coalescing, admission control, deadlines, shutdown drain),
// the one-read-per-run fetch, the wire protocol, serve.* metrics, the
// periodic metrics flusher, and a concurrent-query stress over one shared
// session (the TSan job runs this binary).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <future>
#include <mutex>
#include <thread>

#include "core/convert.h"
#include "core/session.h"
#include "formats/bam.h"
#include "formats/bamx.h"
#include "obs/metrics.h"
#include "serve/metrics_flush.h"
#include "serve/protocol.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "simdata/readsim.h"
#include "testutil.h"
#include "util/tempdir.h"

namespace ngsx::serve {
namespace {

using core::ConversionSession;
using core::ConvertOptions;
using core::Region;
using core::SessionOptions;
using core::TargetFormat;
using sam::AlignmentRecord;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

struct ServeData {
  TempDir tmp;
  simdata::ReferenceGenome genome;
  std::vector<AlignmentRecord> records;
  std::string bam, bamx, baix, baix2;

  explicit ServeData(uint64_t pairs = 250, uint64_t seed = 7)
      : genome(simdata::ReferenceGenome::simulate(
            simdata::mouse_like_references(400000), seed)) {
    simdata::ReadSimConfig cfg;
    cfg.seed = seed;
    records = simdata::simulate_alignments(genome, pairs, cfg);
    bam = tmp.file("in.bam");
    bam::BamFileWriter w(bam, genome.header());
    for (const auto& r : records) {
      w.write(r);
    }
    w.close();
    bamx = tmp.file("in.bamx");
    baix = tmp.file("in.baix");
    baix2 = tmp.file("in.baix2");
    testutil::reference_preprocess(bam, bamx, baix);
    core::build_baix2(bamx, baix2);
  }
};

/// One-shot converter ground truth: single-rank part file bytes.
std::string convert_reference(const ServeData& d, const std::string& out_dir,
                              TargetFormat format,
                              std::optional<Region> region,
                              bool include_header = true) {
  ConvertOptions opt;
  opt.format = format;
  opt.ranks = 1;
  opt.include_header = include_header;
  auto stats = core::convert_bamx(d.bamx, d.baix, out_dir, opt, region);
  return read_file(stats.outputs.at(0));
}

std::string convert_filtered_reference(const ServeData& d,
                                       const std::string& out_dir,
                                       TargetFormat format,
                                       const Region& region,
                                       baix2::RegionMode mode,
                                       const baix2::Filter& filter) {
  ConvertOptions opt;
  opt.format = format;
  opt.ranks = 1;
  auto stats = core::convert_bamx_filtered(d.bamx, d.baix2, out_dir, opt,
                                           region, mode, filter);
  return read_file(stats.outputs.at(0));
}

ServeRequest make_request(const Region& region,
                          TargetFormat format = TargetFormat::kSam) {
  ServeRequest request;
  request.region = region;
  request.format = format;
  return request;
}

/// Gate for deterministic scheduler tests: every job execution signals
/// `executions` then parks until release().
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  std::atomic<int> executions{0};

  std::function<void()> hook() {
    return [this] {
      executions.fetch_add(1);
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [this] { return open; });
    };
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  void wait_executions(int n) {
    while (executions.load() < n) {
      std::this_thread::sleep_for(milliseconds(1));
    }
  }
};

// --------------------------------------------------------- byte identity

TEST(ServeByteIdentity, StartWithinRegionMatchesConvertBamx) {
  ServeData d;
  ConversionSession session(SessionOptions{d.bamx, d.baix, {}});
  exec::Pool pool(2);
  Scheduler scheduler(session, pool, {});

  const Region region = session.parse("chr1:1-200000");
  int checked = 0;
  for (TargetFormat format :
       {TargetFormat::kSam, TargetFormat::kBed, TargetFormat::kFastq,
        TargetFormat::kJson}) {
    ServeResult result = scheduler.submit(make_request(region, format));
    ASSERT_TRUE(result.ok) << result.error;
    const std::string expected = convert_reference(
        d, d.tmp.file("ref-" + std::to_string(checked)), format, region);
    EXPECT_EQ(result.payload, expected)
        << "format " << core::target_format_name(format);
    if (format == TargetFormat::kSam) {
      EXPECT_GT(result.records, 0u) << "empty region defeats the test";
    }
    ++checked;
  }
}

TEST(ServeByteIdentity, WholeReferenceAndNoHeader) {
  ServeData d;
  ConversionSession session(SessionOptions{d.bamx, d.baix, {}});
  exec::Pool pool(2);
  Scheduler scheduler(session, pool, {});

  const Region region = session.parse("chr1");
  ServeRequest request = make_request(region, TargetFormat::kSam);
  request.include_header = false;
  ServeResult result = scheduler.submit(request);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.payload,
            convert_reference(d, d.tmp.file("ref-nh"), TargetFormat::kSam,
                              region, /*include_header=*/false));
}

TEST(ServeByteIdentity, OverlapAndFiltersMatchConvertBamxFiltered) {
  ServeData d;
  ConversionSession session(SessionOptions{d.bamx, {}, d.baix2});
  exec::Pool pool(2);
  Scheduler scheduler(session, pool, {});

  const Region region = session.parse("chr1:5000-250000");
  baix2::Filter filter;
  filter.min_mapq = 20;
  filter.reverse_strand = true;
  filter.include_duplicates = false;

  ServeRequest request = make_request(region, TargetFormat::kSam);
  request.mode = baix2::RegionMode::kOverlap;
  request.filter = filter;
  ServeResult result = scheduler.submit(request);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.payload, convert_filtered_reference(
                                d, d.tmp.file("ref-filt"), TargetFormat::kSam,
                                region, baix2::RegionMode::kOverlap, filter));
}

TEST(ServeByteIdentity, ShardedManifestSource) {
  ServeData d;
  const std::string manifest = d.tmp.file("in.bamxm");
  const std::string par_baix = d.tmp.file("par.baix");
  core::PreprocessOptions popt;
  popt.threads = 3;
  popt.shards = 3;
  core::preprocess_bam_parallel(d.bam, manifest, par_baix, popt);

  ConversionSession session(SessionOptions{manifest, par_baix, {}});
  exec::Pool pool(2);
  Scheduler scheduler(session, pool, {});

  const Region region = session.parse("chr2:1-300000");
  ServeResult result = scheduler.submit(make_request(region));
  ASSERT_TRUE(result.ok) << result.error;
  // The sharded BAMX data is byte-identical to the monolithic one, so the
  // monolithic converter is still the ground truth.
  EXPECT_EQ(result.payload,
            convert_reference(d, d.tmp.file("ref-sharded"), TargetFormat::kSam,
                              region));
}

/// Hand-built records that leave fields empty (no CIGAR, `*` QUAL, no aux,
/// once no bases) between full ones, so a record reused across decodes
/// shows any field carried over from the record before.
std::vector<AlignmentRecord> sparse_and_full_records() {
  std::vector<AlignmentRecord> records;
  for (int i = 0; i < 12; ++i) {
    AlignmentRecord rec;
    rec.qname = "hand-" + std::to_string(i);
    if (i % 2 == 0) {
      rec.flag = sam::kPaired | sam::kRead1;
      rec.ref_id = 0;
      rec.pos = 100 * i;
      rec.mapq = 60;
      rec.cigar = sam::parse_cigar("4S30M2I10M");
      rec.mate_ref_id = 0;
      rec.mate_pos = 100 * i + 300;
      rec.tlen = 350;
      rec.seq = std::string(46, "ACGT"[i % 4]);
      rec.qual = std::string(46, 'I');
      rec.tags.push_back(sam::parse_aux("NM:i:2"));
      rec.tags.push_back(sam::parse_aux("RG:Z:group-" + std::to_string(i)));
    } else {
      rec.flag = sam::kUnmapped;
      rec.seq = i == 5 ? "" : "ACG";
    }
    records.push_back(std::move(rec));
  }
  return records;
}

TEST(ServeByteIdentity, CoalescedPlanFetchMatchesRecordReads) {
  // fetch() reads runs of consecutive plan indices in bulk and decodes
  // them into one reused record; every mix of runs, repeats, backward
  // steps and shard crossings must emit exactly the stored records.
  ServeData d;
  const std::string manifest = d.tmp.file("in.bamxm");
  core::PreprocessOptions popt;
  popt.threads = 2;
  popt.shards = 3;
  core::preprocess_bam_parallel(d.bam, manifest, d.tmp.file("par.baix"),
                                popt);
  const std::vector<AlignmentRecord> hand = sparse_and_full_records();
  const std::string hand_bamx = d.tmp.file("hand.bamx");
  {
    bamx::BamxLayout layout;
    for (const AlignmentRecord& rec : hand) {
      layout.accommodate(rec);
    }
    bamx::BamxWriter writer(hand_bamx, d.genome.header(), layout);
    for (const AlignmentRecord& rec : hand) {
      writer.write(rec);
    }
    writer.close();
  }

  for (const std::string& path : {manifest, hand_bamx}) {
    SCOPED_TRACE(path);
    ConversionSession session(SessionOptions{path, {}, {}});
    // What was written: the simulated records round-trip through BAM and
    // preprocessing unchanged.
    const std::vector<AlignmentRecord>& written =
        path == hand_bamx ? hand : d.records;
    const uint64_t n = written.size();
    std::vector<uint64_t> plan;
    for (uint64_t i = 0; i < n; ++i) {
      plan.push_back(i);  // one run across every shard boundary
    }
    for (uint64_t i : {5ul, 6ul, 6ul, 7ul, 3ul, 4ul, n - 1, 0ul, 1ul}) {
      plan.push_back(i);
    }
    for (uint64_t begin : {0ul, 1ul, n - 2}) {
      std::vector<AlignmentRecord> got;
      session.fetch(&plan, begin, plan.size(),
                    [&](AlignmentRecord& rec) { got.push_back(rec); });
      ASSERT_EQ(got.size(), plan.size() - begin);
      for (size_t k = 0; k < got.size(); ++k) {
        const uint64_t index = plan[begin + k];
        EXPECT_EQ(got[k], written[index]) << "plan entry " << begin + k;
      }
    }
  }
}

TEST(ServeFetch, WarmContiguousRegionIsOneRead) {
  // With the index pages cached by a first request, a region whose plan
  // is one run of consecutive records costs exactly one positioned read.
  ServeData d;
  ConversionSession session(SessionOptions{d.bamx, d.baix, {}});
  const Region region = session.parse("chr1:1-60000");
  const std::vector<uint64_t> plan =
      session.plan(region, baix2::RegionMode::kStartWithin);
  ASSERT_GE(plan.size(), 2u) << "a one-record region defeats the test";
  for (size_t k = 1; k < plan.size(); ++k) {
    ASSERT_EQ(plan[k], plan[0] + k) << "region plan is not one run";
  }

  obs::enable_metrics();
  exec::Pool pool(2);
  Server server(session, pool, {});
  const std::string line = "CONVERT chr1:1-60000 sam";
  const std::string first = server.handle_line(line);
  ASSERT_TRUE(first.rfind("OK ", 0) == 0) << first;
  const uint64_t reads_before =
      obs::snapshot().counter_value("io.binio.reads");
  EXPECT_EQ(server.handle_line(line), first);
  EXPECT_EQ(obs::snapshot().counter_value("io.binio.reads") - reads_before,
            1u);
}

// ------------------------------------------------------------- scheduler

TEST(ServeScheduler, CoalescesOverlappingQueuedRequests) {
  ServeData d;
  obs::enable_metrics();
  obs::reset_metrics();
  ConversionSession session(SessionOptions{d.bamx, d.baix, {}});
  exec::Pool pool(1);  // one consumer -> deterministic queue states
  Gate gate;
  SchedulerOptions opt;
  opt.on_execute = gate.hook();
  Scheduler scheduler(session, pool, opt);

  // A (different format group) occupies the only consumer at the gate.
  const Region blocker_region = session.parse("chr1:1-1000");
  auto a = scheduler.submit_async(make_request(blocker_region,
                                               TargetFormat::kBed));
  gate.wait_executions(1);

  // B and C overlap in the same group: C must ride B's queued job.
  const Region b_region = session.parse("chr1:1000-30000");
  const Region c_region = session.parse("chr1:20000-60000");
  auto b = scheduler.submit_async(make_request(b_region));
  auto c = scheduler.submit_async(make_request(c_region));
  EXPECT_EQ(scheduler.queued(), 1u);  // one job carries both waiters

  gate.release();
  ServeResult ra = a.get();
  ServeResult rb = b.get();
  ServeResult rc = c.get();
  ASSERT_TRUE(ra.ok && rb.ok && rc.ok)
      << ra.error << " / " << rb.error << " / " << rc.error;

  // One execution for A, ONE for B∪C (coalescing), not three.
  EXPECT_EQ(gate.executions.load(), 2);
  EXPECT_FALSE(rb.coalesced);
  EXPECT_TRUE(rc.coalesced);

  // Fan-out byte identity: each waiter's payload equals its own dedicated
  // conversion even though the records were fetched+formatted once.
  EXPECT_EQ(rb.payload, convert_reference(d, d.tmp.file("ref-b"),
                                          TargetFormat::kSam, b_region));
  EXPECT_EQ(rc.payload, convert_reference(d, d.tmp.file("ref-c"),
                                          TargetFormat::kSam, c_region));
  EXPECT_GT(rb.records, 0u);

  const obs::Snapshot snap = obs::snapshot();
  EXPECT_EQ(snap.counter_value("serve.requests"), 3u);
  EXPECT_EQ(snap.counter_value("serve.coalesced"), 1u);
}

TEST(ServeScheduler, AdmissionRejectsWithTypedBackpressure) {
  ServeData d;
  obs::enable_metrics();
  obs::reset_metrics();
  ConversionSession session(SessionOptions{d.bamx, d.baix, {}});
  exec::Pool pool(1);
  Gate gate;
  SchedulerOptions opt;
  opt.max_queued = 2;
  opt.on_execute = gate.hook();
  Scheduler scheduler(session, pool, opt);

  const Region region = session.parse("chr1:1-1000");
  auto running = scheduler.submit_async(make_request(region,
                                                     TargetFormat::kBed));
  gate.wait_executions(1);

  // Different formats -> different groups, nothing coalesces; the queue
  // holds exactly max_queued jobs.
  auto q1 = scheduler.submit_async(make_request(region, TargetFormat::kSam));
  auto q2 = scheduler.submit_async(make_request(region, TargetFormat::kFastq));
  EXPECT_EQ(scheduler.queued(), 2u);

  // The N+1st is rejected immediately with the typed backpressure error.
  ServeResult rejected =
      scheduler.submit(make_request(region, TargetFormat::kJson));
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.reject, RejectReason::kBackpressure);
  EXPECT_EQ(reject_code(rejected.reject), "backpressure");

  gate.release();
  EXPECT_TRUE(running.get().ok);
  EXPECT_TRUE(q1.get().ok);
  EXPECT_TRUE(q2.get().ok);

  const obs::Snapshot snap = obs::snapshot();
  EXPECT_EQ(snap.counter_value("serve.admission_rejects"), 1u);
  EXPECT_EQ(snap.counter_value("serve.requests"), 4u);
}

TEST(ServeScheduler, ExpiredDeadlineRejectedWithoutExecution) {
  ServeData d;
  ConversionSession session(SessionOptions{d.bamx, d.baix, {}});
  exec::Pool pool(1);
  Gate gate;
  SchedulerOptions opt;
  opt.on_execute = gate.hook();
  Scheduler scheduler(session, pool, opt);

  const Region region = session.parse("chr1:1-1000");
  auto running = scheduler.submit_async(make_request(region,
                                                     TargetFormat::kBed));
  gate.wait_executions(1);

  ServeRequest late = make_request(region);
  late.deadline = steady_clock::now() - milliseconds(1);  // already expired
  auto future = scheduler.submit_async(late);

  gate.release();
  EXPECT_TRUE(running.get().ok);
  ServeResult result = future.get();
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.reject, RejectReason::kDeadline);
}

TEST(ServeScheduler, ShutdownDrainsAcceptedThenRejectsNew) {
  ServeData d;
  ConversionSession session(SessionOptions{d.bamx, d.baix, {}});
  exec::Pool pool(2);
  Scheduler scheduler(session, pool, {});

  const Region region = session.parse("chr1:1-100000");
  auto accepted = scheduler.submit_async(make_request(region));
  scheduler.shutdown();  // blocks until the queue is drained

  ServeResult drained = accepted.get();
  EXPECT_TRUE(drained.ok) << drained.error;  // accepted work is never dropped

  ServeResult rejected = scheduler.submit(make_request(region));
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.reject, RejectReason::kShutdown);
  EXPECT_EQ(reject_code(rejected.reject), "shutting-down");
}

TEST(ServeScheduler, BamTargetIsBadRequest) {
  ServeData d;
  ConversionSession session(SessionOptions{d.bamx, d.baix, {}});
  exec::Pool pool(1);
  Scheduler scheduler(session, pool, {});
  ServeResult result = scheduler.submit(
      make_request(session.parse("chr1:1-1000"), TargetFormat::kBam));
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.reject, RejectReason::kBadRequest);
}

TEST(ServeScheduler, FiltersWithoutBaix2AreBadRequest) {
  ServeData d;
  ConversionSession session(SessionOptions{d.bamx, d.baix, {}});
  exec::Pool pool(1);
  Scheduler scheduler(session, pool, {});
  ServeRequest request = make_request(session.parse("chr1:1-1000"));
  request.mode = baix2::RegionMode::kOverlap;  // needs interval ends
  ServeResult result = scheduler.submit(request);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.reject, RejectReason::kBadRequest);
}

// -------------------------------------------------------------- protocol

TEST(ServeProtocol, ParsesConvertOptions) {
  ProtoRequest request = parse_request(
      "CONVERT chr1:100-200 fastq mode=overlap mapq=30 strand=rev nodup "
      "noheader deadline-ms=250");
  EXPECT_EQ(request.verb, ProtoRequest::Verb::kConvert);
  EXPECT_EQ(request.region, "chr1:100-200");
  EXPECT_EQ(request.format, TargetFormat::kFastq);
  EXPECT_EQ(request.mode, baix2::RegionMode::kOverlap);
  EXPECT_EQ(request.filter.min_mapq, 30);
  ASSERT_TRUE(request.filter.reverse_strand.has_value());
  EXPECT_TRUE(*request.filter.reverse_strand);
  EXPECT_FALSE(request.filter.include_duplicates);
  EXPECT_FALSE(request.include_header);
  ASSERT_TRUE(request.deadline_ms.has_value());
  EXPECT_EQ(*request.deadline_ms, 250);
}

TEST(ServeProtocol, DefaultsAndSimpleVerbs) {
  ProtoRequest convert = parse_request("CONVERT chr2 sam");
  EXPECT_EQ(convert.mode, baix2::RegionMode::kStartWithin);
  EXPECT_TRUE(convert.include_header);
  EXPECT_FALSE(convert.deadline_ms.has_value());
  EXPECT_EQ(parse_request("STATS").verb, ProtoRequest::Verb::kStats);
  EXPECT_EQ(parse_request("PING\r").verb, ProtoRequest::Verb::kPing);
  EXPECT_EQ(parse_request("SHUTDOWN").verb, ProtoRequest::Verb::kShutdown);
  EXPECT_EQ(parse_request("QUIT").verb, ProtoRequest::Verb::kQuit);
}

TEST(ServeProtocol, RejectsMalformedLines) {
  EXPECT_THROW(parse_request(""), UsageError);
  EXPECT_THROW(parse_request("FETCH chr1 sam"), UsageError);
  EXPECT_THROW(parse_request("CONVERT chr1"), UsageError);
  EXPECT_THROW(parse_request("CONVERT chr1 sam mode=sideways"), UsageError);
  EXPECT_THROW(parse_request("CONVERT chr1 sam strand=up"), UsageError);
  EXPECT_THROW(parse_request("CONVERT chr1 sam mapq=many"), FormatError);
  EXPECT_THROW(parse_request("CONVERT chr1 sam turbo"), UsageError);
}

TEST(ServeProtocol, ResponseFraming) {
  EXPECT_EQ(ok_response("abc\n"), "OK 4\nabc\n");
  EXPECT_EQ(ok_response(""), "OK 0\n");
  EXPECT_EQ(err_response("bad-request", "no\nnewlines"),
            "ERR bad-request no newlines\n");
}

// ---------------------------------------------------------------- server

TEST(ServeServer, HandleLineEndToEnd) {
  ServeData d;
  obs::enable_metrics();
  obs::reset_metrics();
  ConversionSession session(SessionOptions{d.bamx, d.baix, d.baix2});
  exec::Pool pool(2);
  Server server(session, pool, {});

  EXPECT_EQ(server.handle_line("PING"), "OK 5\npong\n");

  // CONVERT matches the one-shot converter byte for byte, behind framing.
  const Region region = session.parse("chr1:1-150000");
  const std::string expected =
      convert_reference(d, d.tmp.file("ref-srv"), TargetFormat::kSam, region);
  EXPECT_EQ(server.handle_line("CONVERT chr1:1-150000 sam"),
            ok_response(expected));

  // Errors are typed single-line responses.
  EXPECT_TRUE(server.handle_line("NONSENSE").rfind("ERR bad-request", 0) == 0);
  EXPECT_TRUE(server.handle_line("CONVERT chr99 sam")
                  .rfind("ERR bad-request", 0) == 0);
  EXPECT_TRUE(server.handle_line("CONVERT chr1:1-10 bam")
                  .rfind("ERR bad-request", 0) == 0);

  // STATS serves the documented schema with serve.* counters present.
  const std::string stats = server.handle_line("STATS");
  EXPECT_TRUE(stats.rfind("OK ", 0) == 0);
  EXPECT_NE(stats.find("ngsx.metrics.v1"), std::string::npos);
  EXPECT_NE(stats.find("serve.requests"), std::string::npos);

  // QUIT is a silent connection close; SHUTDOWN answers then flags.
  EXPECT_EQ(server.handle_line("QUIT"), "");
  EXPECT_FALSE(server.shutdown_requested());
  EXPECT_EQ(server.handle_line("SHUTDOWN"), "OK 4\nbye\n");
  EXPECT_TRUE(server.shutdown_requested());

  const obs::Snapshot snap = obs::snapshot();
  EXPECT_EQ(snap.counter_value("serve.requests"), 2u);  // sam + bam attempts
  const obs::HistogramSnapshot* latency =
      snap.histogram_value("serve.request_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_GE(latency->count, 1u);
}

// -------------------------------------------------------- metrics flusher

TEST(ServeMetricsFlusher, PeriodicAtomicSnapshots) {
  TempDir tmp;
  obs::enable_metrics();
  const std::string path = tmp.file("metrics.json");
  {
    MetricsFlusher flusher(path, milliseconds(5));
    while (flusher.flushes() < 3) {
      std::this_thread::sleep_for(milliseconds(2));
    }
    flusher.stop();
    const std::string snapshot = read_file(path);
    EXPECT_NE(snapshot.find("ngsx.metrics.v1"), std::string::npos);
    EXPECT_EQ(snapshot.back(), '\n');
  }
  // Atomic commit: no staging files survive next to the target.
  size_t entries = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(tmp.path())) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);  // just metrics.json
}

// ------------------------------------------------- concurrent-query stress

// Shared-session thread-safety: many threads hammer one Server (and thus
// one ConversionSession and Scheduler) with mixed requests. The TSan CI
// job runs this to certify the documented const-thread-safety.
TEST(ServeStress, ConcurrentQueriesOverSharedSession) {
  ServeData d(200, 11);
  ConversionSession session(SessionOptions{d.bamx, d.baix, d.baix2});
  exec::Pool pool(4);
  ServerOptions opt;
  opt.max_queued = 256;
  Server server(session, pool, opt);

  const std::string expected_sam = server.handle_line("CONVERT chr1 sam");
  const std::string expected_bed =
      server.handle_line("CONVERT chr1:1-300000 bed mode=overlap");
  ASSERT_TRUE(expected_sam.rfind("OK ", 0) == 0);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 24;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        if ((t + i) % 2 == 0) {
          if (server.handle_line("CONVERT chr1 sam") != expected_sam) {
            mismatches.fetch_add(1);
          }
        } else {
          if (server.handle_line("CONVERT chr1:1-300000 bed mode=overlap") !=
              expected_bed) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace ngsx::serve
