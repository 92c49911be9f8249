// Read-pair collation benchmark (docs/COLLATION.md): streaming FASTQ
// export, name-grouped BAM, and two-pass duplicate marking over a
// simulated coordinate-sorted BAM, each in an in-memory and a forced-spill
// configuration.
//
// The interesting contrast is the in-memory hash path vs the external
// name sort: on coordinate-sorted input the pending-mate bucket stays
// near the insert-size occupancy, so streaming collation should run at
// roughly BAM decode speed, while the forced-spill configuration pays one
// extra compress/decompress cycle per record. The dup-marking rows cost
// two input passes by construction.
//
// --threads T (default 1) sets the BGZF decode and record-parse workers,
// which are also the deflate workers of the name-grouped and
// duplicate-marked BAM outputs.
//
// Emits BENCH_collate.json (path configurable with --json). Exits
// non-zero when a "spilling" row wrote no spill runs, and, with
// --floor N, unless the in-memory FASTQ-export row sustains at least
// N records/s — the CI regression gate.
//
// Usage: bench_collate [--pairs N] [--repeats R] [--threads T]
//                      [--json PATH] [--floor N]

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/collate.h"
#include "obs/metrics.h"
#include "simdata/readsim.h"
#include "util/cli.h"
#include "util/tempdir.h"

using namespace ngsx;

namespace {

struct Row {
  std::string program;
  std::string config;
  double seconds = 0.0;
  double records_per_s = 0.0;
  uint64_t spill_runs = 0;
  uint64_t spilled_bytes = 0;
};

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const uint64_t pairs = static_cast<uint64_t>(args.get_int("pairs", 50000));
  const int repeats = static_cast<int>(args.get_int("repeats", 3));
  const std::string json_path = args.get("json", "BENCH_collate.json");
  const double floor = static_cast<double>(args.get_int("floor", 0));
  const int threads = static_cast<int>(args.get_int("threads", 1));
  if (threads < 1) {
    std::fprintf(stderr, "FATAL: --threads must be >= 1\n");
    return 2;
  }

  obs::enable_metrics();

  TempDir tmp("bench_collate");
  const std::string bam_path = tmp.file("input.bam");
  std::printf("=== read-pair collation: streaming vs forced spill ===\n");
  uint64_t records;
  {
    auto genome = simdata::ReferenceGenome::simulate(
        simdata::mouse_like_references(2'000'000), 7);
    simdata::ReadSimConfig cfg;
    cfg.seed = 7;
    records = simdata::write_bam_dataset(bam_path, genome, pairs, cfg);
  }
  std::printf("dataset: %llu records, %.1f MB BAM, %d thread(s)\n",
              static_cast<unsigned long long>(records),
              file_size(bam_path) / 1e6, threads);

  core::CollateOptions in_memory;
  in_memory.temp_dir = tmp.path();
  in_memory.decode_threads = threads;
  in_memory.parse_threads = threads;
  core::CollateOptions spilling = in_memory;
  // Force heavy spilling: ~20 runs over the dataset.
  spilling.max_records_in_memory = std::max<size_t>(64, records / 20);
  // FASTQ export spills only when its pending-mate bucket (half the
  // budget) overflows. On coordinate-sorted input that bucket holds just
  // the mates in flight plus the orphans so far, well under records / 40,
  // so it gets the 64-record budget perfbench's bam_collate spills with.
  core::CollateOptions fastq_spilling = in_memory;
  fastq_spilling.max_records_in_memory = 64;

  std::vector<Row> rows;
  auto run = [&](const std::string& program, const std::string& config,
                 auto&& fn) {
    Row row{program, config};
    row.seconds = 1e300;
    for (int r = 0; r < repeats; ++r) {
      core::CollateStats stats = fn();
      row.seconds = std::min(row.seconds, stats.seconds);
      row.spill_runs = stats.spill_runs;
      row.spilled_bytes = stats.spilled_bytes;
    }
    row.records_per_s = static_cast<double>(records) / row.seconds;
    rows.push_back(row);
    std::printf("  %-16s %-10s %8.3f s  %12.0f records/s  %llu runs"
                "  %.2f MB spilled\n",
                program.c_str(), config.c_str(), row.seconds,
                row.records_per_s,
                static_cast<unsigned long long>(row.spill_runs),
                row.spilled_bytes / 1e6);
    return row;
  };

  const Row gate =
      run("fastq_export", "in-memory", [&] {
        return core::collate_to_fastq(bam_path, tmp.file("fq_mem"),
                                      in_memory);
      });
  run("fastq_export", "spilling", [&] {
    return core::collate_to_fastq(bam_path, tmp.file("fq_ext"),
                                  fastq_spilling);
  });
  run("name_group_bam", "in-memory", [&] {
    return core::collate_to_bam(bam_path, tmp.file("grouped_mem.bam"),
                                in_memory);
  });
  run("name_group_bam", "spilling", [&] {
    return core::collate_to_bam(bam_path, tmp.file("grouped_ext.bam"),
                                spilling);
  });
  run("mark_duplicates", "in-memory", [&] {
    return core::mark_duplicates(bam_path, tmp.file("markdup_mem.bam"),
                                 core::DuplicateMode::kMark, in_memory);
  });
  run("mark_duplicates", "spilling", [&] {
    return core::mark_duplicates(bam_path, tmp.file("markdup_ext.bam"),
                                 core::DuplicateMode::kMark, spilling);
  });

  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"records\": %llu,\n",
               static_cast<unsigned long long>(records));
  std::fprintf(f, "  \"bam_mb\": %.2f,\n", file_size(bam_path) / 1e6);
  std::fprintf(f, "  \"threads\": %d,\n", threads);
  std::fprintf(f, "  \"spill_budget\": %llu,\n",
               static_cast<unsigned long long>(
                   spilling.max_records_in_memory));
  std::fprintf(f, "  \"fastq_spill_budget\": %llu,\n",
               static_cast<unsigned long long>(
                   fastq_spilling.max_records_in_memory));
  std::fprintf(f, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"program\": \"%s\", \"config\": \"%s\", "
                 "\"seconds\": %.4f, \"records_per_s\": %.0f, "
                 "\"spill_runs\": %llu, \"spilled_bytes\": %llu}%s\n",
                 r.program.c_str(), r.config.c_str(), r.seconds,
                 r.records_per_s,
                 static_cast<unsigned long long>(r.spill_runs),
                 static_cast<unsigned long long>(r.spilled_bytes),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  // collate.* counters and stage spans for every run above.
  std::fprintf(f, "  \"obs\": %s\n}\n", obs::metrics_json().c_str());
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());

  int status = 0;
  for (const Row& r : rows) {
    if (r.config == "spilling" && r.spill_runs == 0) {
      std::fprintf(stderr,
                   "FAIL: spilling %s row wrote no spill runs, so it did not "
                   "time the spill path\n",
                   r.program.c_str());
      status = 1;
    }
  }
  if (floor > 0 && gate.records_per_s < floor) {
    std::fprintf(stderr,
                 "FAIL: in-memory fastq_export %.0f records/s is below the "
                 "--floor %.0f\n",
                 gate.records_per_s, floor);
    status = 1;
  }
  return status;
}
