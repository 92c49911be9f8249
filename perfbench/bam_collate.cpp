// bam_collate: a small coordinate-sorted BAM through mark_duplicates (mark
// mode, default budget) and collate_to_fastq with a forced-spill budget.
// The write side of BGZF and BAM encoding plus the external sort.

#include <filesystem>
#include <optional>
#include <string>

#include "core/collate.h"
#include "harness.h"
#include "obs/trace.h"
#include "simdata/readsim.h"

namespace perfbench {

namespace {

constexpr uint64_t kPairs = 25'000;
// A small genome keeps coverage high, so pending mates overflow the
// 32-record bucket of a 64-record budget and spill many runs.
constexpr uint64_t kGenomeBases = 1'250'000;
constexpr size_t kForcedSpillBudget = 64;

/// True iff every input record is accounted for exactly once.
bool balanced(const ngsx::core::CollateStats& s) {
  return s.records == 2 * s.pairs + s.orphans + s.singles + s.passthrough;
}

}  // namespace

void run_bam_collate(const Options& opt, Tally& tally, Measured& out) {
  const std::string bam = opt.work_dir + "/input.bam";
  const std::string spill_dir = opt.work_dir + "/spill";
  uint64_t records = 0;
  {
    const auto genome = ngsx::simdata::ReferenceGenome::simulate(
        ngsx::simdata::mouse_like_references(kGenomeBases), opt.seed);
    ngsx::simdata::ReadSimConfig cfg;
    cfg.seed = opt.seed;
    records = ngsx::simdata::write_bam_dataset(bam, genome, kPairs, cfg);
  }
  std::filesystem::create_directories(spill_dir);
  auto options = [&](int p, size_t budget) {
    ngsx::core::CollateOptions o;
    o.temp_dir = spill_dir;
    o.decode_threads = p;
    o.parse_threads = p;
    if (budget > 0) {
      o.max_records_in_memory = budget;
    }
    return o;
  };

  // Outputs must be byte-identical across widths and, for duplicate
  // marking, across memory budgets: every run matches the first.
  std::optional<uint32_t> markdup_expected;
  std::optional<uint32_t> fastq_expected;
  auto markdup = [&](int p, size_t budget) {
    const std::string path = opt.work_dir + "/markdup.bam";
    ngsx::core::CollateStats st;
    return tally.timed(
        "mark_duplicates p" + std::to_string(p),
        [&] {
          ngsx::obs::Span span("perfbench", "core.collate.markdup_s");
          st = ngsx::core::mark_duplicates(
              bam, path, ngsx::core::DuplicateMode::kMark, options(p, budget));
        },
        [&] {
          return st.records == records && (budget == 0 || st.spill_runs > 0) &&
                 same_as_first(markdup_expected, digest_files({path}));
        });
  };
  auto fastq = [&](int p) {
    ngsx::core::CollateStats st;
    return tally.timed(
        "collate_to_fastq forced-spill p" + std::to_string(p),
        [&] {
          ngsx::obs::Span span("perfbench", "core.collate.fastq_spill_s");
          st = ngsx::core::collate_to_fastq(bam, opt.work_dir + "/fastq",
                                            options(p, kForcedSpillBudget));
        },
        [&] {
          return st.spill_runs > 0 && st.records == records && balanced(st) &&
                 same_as_first(fastq_expected, digest_files(st.outputs));
        });
  };
  auto pass = [&](int p) { return markdup(p, 0) + fastq(p); };

  out.setup_s = warm_up(pass);
  // Duplicate marking under a spilling budget must match the in-memory run.
  markdup(4, records / 16);
  timed_loop(opt.seconds, pass, out);

  if (!opt.trace) {
    return;
  }
  arm_obs();
  out.layers["core.collate.markdup_s"] = markdup(4, 0);
  out.layers["core.collate.fastq_spill_s"] = fastq(4);
  out.traced_p4_s = out.layers["core.collate.markdup_s"] +
                    out.layers["core.collate.fastq_spill_s"];
  registry_layers(ngsx::obs::snapshot(), out.layers);
  out.layers["core.collate.read_s"] = span_s("core.collate.read_s", [&] {
    ngsx::core::for_each_record(bam, options(4, 0),
                                [](ngsx::sam::AlignmentRecord&&) {});
  });
  finish_trace(opt);
}

}  // namespace perfbench
