// ngsx_convert: a command-line front end for the converter framework —
// roughly what a downstream user would install. Exposes all three
// converter instances (§III) behind one interface.
//
// Usage (each command is one line):
//   ngsx_convert --in data.sam --to bed --out outdir --ranks 8
//   ngsx_convert --in data.bam --to fastq --out outdir --ranks 8
//   ngsx_convert --in data.bam --to sam --out outdir --region chr1:1-50000
//   ngsx_convert --in data.sam --to fasta --out outdir --preprocess --m 4
//   ngsx_convert --in data.bam --to sam --out outdir
//                --metrics metrics.json --trace trace.json
//
// For SAM input, --preprocess selects the preprocessing-optimized
// converter (III-C, M preprocessing ranks + N conversion ranks); otherwise
// the direct Algorithm-1 converter runs (III-A). BAM input is always
// preprocessed into a BAMXM shard manifest + BAIX next to the output
// (III-B); --region performs partial conversion via the BAIX.
//
// --metrics writes the merged metrics snapshot (schema ngsx.metrics.v1)
// and --trace writes Chrome-trace JSON for chrome://tracing / Perfetto;
// both are documented in docs/OBSERVABILITY.md. The per-stage summary on
// stdout is derived from the same metrics, so only stages that actually
// ran are listed.
//
// Exit status: 0 on success, 1 when the conversion fails, 2 on a usage
// error (missing or unknown flag, bad flag value).

#include <cstdio>

#include <filesystem>
#include <functional>
#include <memory>

#include "core/collate.h"
#include "core/convert.h"
#include "exec/pool.h"
#include "mpi/minimpi.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/metrics_flush.h"
#include "util/binio.h"
#include "util/cli.h"
#include "util/strutil.h"

using namespace ngsx;

namespace {

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --in FILE.{sam,bam} --to FORMAT --out DIR\n"
               "          [--ranks N] [--region chr:beg-end]\n"
               "          [--region-mode start|overlap]\n"
               "          [--preprocess-threads P]\n"
               "          [--preprocess [--m M]]\n"
               "          [--no-header] [--metrics FILE.json]\n"
               "          [--metrics-interval SEC] [--trace FILE.json]\n"
               "FORMAT: sam bam bed bedgraph fasta fastq json yaml\n"
               "--ranks N converts with N ranks, one part file each\n"
               "--ranks 0 auto-detects the hardware width\n"
               "--preprocess-threads sets the width of the single-pass BAM\n"
               "preprocessor and its BGZF inflate workers (0 = auto, 1 =\n"
               "sequential), which emits a BAMXM shard manifest + BAIX next\n"
               "to the part files\n"
               "--region-mode start (default) keeps the BAIX start-keyed\n"
               "query; overlap builds a BAIX v2 and selects every alignment\n"
               "overlapping the region (see docs/FILEFORMATS.md)\n"
               "--metrics writes a ngsx.metrics.v1 snapshot, --trace a\n"
               "Chrome-trace JSON (see docs/OBSERVABILITY.md)\n"
               "--metrics-interval additionally rewrites the --metrics file\n"
               "atomically every SEC seconds while the conversion runs\n"
               "--collate MODE instead runs the read-pair collation stage\n"
               "(docs/COLLATION.md) over --in; MODE: bam (name-grouped\n"
               "BAM), fastq (paired R1/R2 + orphans/singles), mark-dups or\n"
               "drop-dups (streaming duplicate marking). --collate-mem N\n"
               "caps in-memory records before spilling, --temp-dir DIR\n"
               "redirects spill runs, --no-orphans drops orphaned mates\n"
               "from FASTQ export, --threads T sets the BGZF inflate, parse\n"
               "and BGZF-compression workers (0 = auto)\n",
               prog);
  return 2;
}

/// Resolves a width flag: 0 means auto-detect, negative is an error.
int resolve_width(const char* flag, int64_t value, int auto_value) {
  if (value < 0) {
    throw UsageError(std::string("--") + flag + " must be >= 0 (0 = auto)");
  }
  return value == 0 ? auto_value : static_cast<int>(value);
}

/// Prints the per-stage wall-time summary from the recorded stage
/// counters. Stages register their `convert.stage.<name>.ns` counter only
/// when they run, so skipped stages (e.g. no preprocessing for direct SAM
/// conversion) are simply absent — they were previously printed as
/// "0.00 s" entries.
void print_stage_summary(const obs::Snapshot& snap) {
  const std::string prefix = "convert.stage.";
  const std::string suffix = ".ns";
  std::string line;
  for (const auto& [name, value] : snap.counters) {
    if (name.size() <= prefix.size() + suffix.size() ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    std::string stage = name.substr(
        prefix.size(), name.size() - prefix.size() - suffix.size());
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s%s %.2f s", line.empty() ? "" : ", ",
                  stage.c_str(), static_cast<double>(value) / 1e9);
    line += buf;
  }
  if (!line.empty()) {
    std::printf("stage wall time: %s\n", line.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const std::string in = args.get("in", "");
  const std::string out = args.get("out", "");
  const std::string to = args.get("to", "");
  // --collate modes replace the format conversion, so --to is not needed.
  if (in.empty() || out.empty() || (to.empty() && !args.has("collate"))) {
    return usage(argv[0]);
  }

  // Under ngsx_mpirun every rank executes this main(); the mpi-parallel
  // conversion stages coordinate through run(), but anything
  // single-process — preprocessing, stdout/stderr reporting, metrics and
  // trace files — belongs to rank 0 alone (docs/DISTRIBUTED.md
  // "Launched worlds").
  const bool primary = !mpi::launched() || mpi::launched_rank() == 0;

  try {
    args.reject_unknown({"in", "out", "to", "ranks", "region", "region-mode",
                         "preprocess-threads", "preprocess",
                         "m", "no-header", "metrics", "metrics-interval",
                         "trace", "collate", "collate-mem", "temp-dir",
                         "no-orphans", "threads"});
    if (args.has("threads") && !args.has("collate")) {
      throw UsageError("--threads applies to --collate only; a conversion "
                       "runs one part per rank (--ranks)");
    }
    // Metrics power the stage summary, so they are always on; tracing is
    // opt-in (it buffers every span until exit).
    const std::string metrics_path = args.get("metrics", "");
    const std::string trace_path = args.get("trace", "");
    obs::enable_metrics();
    if (!trace_path.empty()) {
      obs::enable_tracing();
      obs::set_thread_name("main");
    }

    // Periodic flush: a long conversion becomes observable while it runs.
    // The flusher rewrites the snapshot atomically (stage + fsync +
    // rename), so a scraper never reads a torn file; its destructor stops
    // the thread and leaves the final state, which the unconditional
    // write below then overwrites with the same content.
    std::unique_ptr<serve::MetricsFlusher> flusher;
    const int64_t metrics_interval = args.get_int("metrics-interval", 0);
    if (metrics_interval < 0) {
      throw UsageError("--metrics-interval must be >= 0 (0 = off)");
    }
    if (metrics_interval > 0) {
      if (metrics_path.empty()) {
        throw UsageError("--metrics-interval requires --metrics FILE");
      }
      if (primary) {
        flusher = std::make_unique<serve::MetricsFlusher>(
            metrics_path,
            std::chrono::milliseconds(metrics_interval * 1000));
      }
    }

    // Collation modes run the pair-collation stage instead of a format
    // conversion (docs/COLLATION.md); they are single-process by design —
    // the stage's state is one bounded hash bucket, not a rank-parallel
    // partition.
    const std::string collate_mode = args.get("collate", "");
    if (!collate_mode.empty()) {
      if (mpi::launched()) {
        throw UsageError("--collate does not run under ngsx_mpirun");
      }
      core::CollateOptions copt;
      const int64_t collate_mem = args.get_int("collate-mem", 0);
      if (collate_mem < 0) {
        throw UsageError("--collate-mem must be >= 0 (0 = default)");
      }
      if (collate_mem > 0) {
        copt.max_records_in_memory = static_cast<size_t>(collate_mem);
      }
      const int64_t thread_request = args.get_int("threads", 0);
      if (thread_request < 0) {
        throw UsageError("--threads must be >= 0 (0 = auto)");
      }
      copt.parse_threads = static_cast<int>(thread_request);
      copt.decode_threads = copt.parse_threads;
      copt.temp_dir = args.get("temp-dir", "");
      copt.keep_orphans = !args.get_bool("no-orphans", false);

      std::filesystem::create_directories(out);
      core::CollateStats cs;
      if (collate_mode == "bam") {
        cs = core::collate_to_bam(in, out + "/collated.bam", copt);
      } else if (collate_mode == "fastq") {
        cs = core::collate_to_fastq(in, out + "/reads", copt);
      } else if (collate_mode == "mark-dups" || collate_mode == "drop-dups") {
        cs = core::mark_duplicates(in, out + "/markdup.bam",
                                   collate_mode == "mark-dups"
                                       ? core::DuplicateMode::kMark
                                       : core::DuplicateMode::kDrop,
                                   copt);
      } else {
        throw UsageError(
            "--collate must be bam, fastq, mark-dups or drop-dups");
      }

      std::printf(
          "collated %llu records in %.2f s: %llu pairs, %llu orphans, "
          "%llu singles, %llu passthrough\n",
          static_cast<unsigned long long>(cs.records), cs.seconds,
          static_cast<unsigned long long>(cs.pairs),
          static_cast<unsigned long long>(cs.orphans),
          static_cast<unsigned long long>(cs.singles),
          static_cast<unsigned long long>(cs.passthrough));
      if (cs.spill_runs > 0) {
        std::printf("spilled %llu records across %llu runs (%.1f MB)\n",
                    static_cast<unsigned long long>(cs.spilled_records),
                    static_cast<unsigned long long>(cs.spill_runs),
                    cs.spilled_bytes / 1e6);
      }
      if (collate_mode == "mark-dups" || collate_mode == "drop-dups") {
        std::printf("%s %llu duplicate groups (%llu records)\n",
                    collate_mode == "mark-dups" ? "marked" : "dropped",
                    static_cast<unsigned long long>(cs.dup_pairs),
                    static_cast<unsigned long long>(cs.dup_records));
      }
      const obs::Snapshot snap = obs::snapshot();
      print_stage_summary(snap);
      std::printf("%llu records written, %zu output files under %s\n",
                  static_cast<unsigned long long>(cs.written),
                  cs.outputs.size(), out.c_str());
      if (flusher != nullptr) {
        flusher->stop();
      }
      if (!metrics_path.empty()) {
        write_file(metrics_path, obs::metrics_json(snap) + "\n");
      }
      if (!trace_path.empty()) {
        write_file(trace_path, obs::trace_json() + "\n");
      }
      return 0;
    }

    core::ConvertOptions options;
    options.format = core::parse_target_format(to);
    const int auto_width = exec::hardware_threads();
    // In a launched world the rank count is the world size, not a flag:
    // mpi::run() requires them to match.
    options.ranks =
        mpi::launched()
            ? resolve_width("ranks", args.get_int("ranks", 0),
                            mpi::launched_size())
            : resolve_width("ranks", args.get_int("ranks", 4), auto_width);
    options.include_header = !args.get_bool("no-header", false);
    const std::string region_text = args.get("region", "");

    const std::string region_mode_text = args.get("region-mode", "start");
    if (region_mode_text != "start" && region_mode_text != "overlap") {
      throw UsageError("--region-mode must be start or overlap");
    }

    // Preprocessing and index builds are thread-pool stages, not
    // mpi-parallel ones: in a launched world rank 0 writes the files while
    // the other ranks wait at the run() barrier, then everyone reads them.
    const auto on_rank0 = [&](const std::function<void()>& stage) {
      if (!mpi::launched()) {
        stage();
        return;
      }
      mpi::run(options.ranks, [&](mpi::Comm& comm) {
        if (comm.rank() == 0) {
          stage();
        }
      });
    };

    core::ConvertStats stats;
    if (strutil::ends_with(in, ".bam")) {
      // BAM path: preprocess (III-B) into a BAMXM shard manifest + BAIX,
      // then full or partial conversion.
      const int64_t preprocess_request = args.get_int("preprocess-threads", 0);
      if (preprocess_request < 0) {
        throw UsageError("--preprocess-threads must be >= 0 (0 = auto)");
      }
      const std::string bamx = out + "/input.bamxm";
      const std::string baix = out + "/input.baix";
      std::filesystem::create_directories(out);
      core::PreprocessOptions popt;
      popt.threads = static_cast<int>(preprocess_request);
      popt.decode_threads = popt.threads;
      core::PreprocessStats pre;
      on_rank0(
          [&] { pre = core::preprocess_bam_parallel(in, bamx, baix, popt); });
      if (primary) {
        std::fprintf(stderr, "preprocessed %llu records in %.2f s\n",
                     static_cast<unsigned long long>(pre.records),
                     pre.seconds);
      }
      std::optional<core::Region> region;
      if (!region_text.empty()) {
        region = core::parse_region(region_text,
                                    bamx::RecordSource(bamx).header());
      }
      if (region.has_value() && region_mode_text == "overlap") {
        // Overlap semantics need interval ends — the start-keyed BAIX v1
        // cannot answer them, so build the v2 index and convert through it.
        const std::string baix2 = out + "/input.baix2";
        on_rank0([&] { core::build_baix2(bamx, baix2); });
        stats = core::convert_bamx_filtered(bamx, baix2, out, options,
                                            *region,
                                            baix2::RegionMode::kOverlap);
      } else {
        stats = core::convert_bamx(bamx, baix, out, options, region);
      }
    } else if (args.get_bool("preprocess", false)) {
      // Preprocessing-optimized SAM converter (III-C): M x N part files.
      if (!region_text.empty()) {
        std::fprintf(stderr, "--region with SAM input requires --preprocess"
                             " shards to be converted individually; use a"
                             " BAM input for partial conversion\n");
        return 2;
      }
      const int m =
          resolve_width("m", args.get_int("m", options.ranks), auto_width);
      const std::string manifest = out + "/shards/input.bamxm";
      std::filesystem::create_directories(out + "/shards");
      core::PreprocessStats pre;
      on_rank0([&] {
        pre = core::preprocess_sam_parallel(in, manifest,
                                            out + "/shards/input.baix", m);
      });
      if (primary) {
        std::fprintf(stderr,
                     "preprocessed %llu records (%d shards) in %.2f s\n",
                     static_cast<unsigned long long>(pre.records), m,
                     pre.seconds);
      }
      stats = core::convert_bamx_shards(manifest, out, options);
    } else {
      // Direct SAM converter (III-A).
      if (!region_text.empty()) {
        std::fprintf(stderr, "--region requires an indexed (BAM) input\n");
        return 2;
      }
      stats = core::convert_sam(in, out, options);
    }

    const obs::Snapshot snap = obs::snapshot();
    if (primary) {
      std::printf("converted %llu records -> %llu target objects in %.2f s\n",
                  static_cast<unsigned long long>(stats.records_in),
                  static_cast<unsigned long long>(stats.records_out),
                  stats.seconds);
      print_stage_summary(snap);
      std::printf("%.1f MB in, %.1f MB out, %zu part files under %s\n",
                  stats.bytes_in / 1e6, stats.bytes_out / 1e6,
                  stats.outputs.size(), out.c_str());
    }
    if (flusher != nullptr) {
      flusher->stop();  // final periodic flush; stop racing the write below
    }
    // Metrics/trace files: rank 0's snapshot only — each rank of a
    // launched world has its own counters, and concurrent writers to one
    // path would corrupt it.
    if (!metrics_path.empty() && primary) {
      write_file(metrics_path, obs::metrics_json(snap) + "\n");
    }
    if (!trace_path.empty() && primary) {
      write_file(trace_path, obs::trace_json() + "\n");
      if (obs::trace_dropped_count() > 0) {
        std::fprintf(stderr,
                     "trace: %llu spans dropped (per-thread buffer full)\n",
                     static_cast<unsigned long long>(
                         obs::trace_dropped_count()));
      }
    }
    return 0;
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    // Non-ngsx exceptions (std::bad_alloc, system_error from a dying
    // worker thread) must still exit 1, not abort via std::terminate.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
