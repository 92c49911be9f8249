// ngsx/core/sort.h
//
// External-merge sorting of alignment records under a pluggable key — the
// spill/merge engine behind read-pair collation (core/collate.h). Records
// are buffered up to a memory budget, each full buffer is stable-sorted
// and spilled as a BAM run on a background exec::SerialStage, and the runs
// are k-way merged on drain. Coordinate sorting is not offered: the
// paper's BAM input arrives already sorted ("a 117 GB sorted BAM dataset",
// §V-C) by the upstream `samtools sort` step, and validate_file's
// OUT_OF_ORDER check is the one place that order is verified. The whole
// sort is stable for ANY key: each run is stable-sorted, runs are created
// in input order, and the merge breaks key ties by run index — so records
// with equal keys keep their input order no matter how (or whether) the
// input spilled. That stability is what makes collation output
// byte-identical between in-memory and forced-spill configurations.
//
// Run files are named "<target>.<pid>.<token>.run<N>.tmp.bam" with a
// process-wide monotonic token, so concurrent sorts sharing a temp
// directory — or even targeting the same output path — never collide. Every
// created run is removed when the sorter is destroyed, drained or not, so
// a failure mid-spill or mid-merge leaves no ".tmp.bam" litter behind.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec/serial.h"
#include "formats/sam.h"

namespace ngsx::bam {
class BamFileReader;
}

namespace ngsx::core {

struct SortOptions {
  /// Records buffered in memory before spilling a run. The default keeps
  /// runs around a few hundred MB of decoded records. Because runs are
  /// sorted and compressed on a background stage while the next buffer
  /// fills, peak residency can briefly reach ~1.5x this budget.
  size_t max_records_in_memory = 1'000'000;

  /// Directory for spill runs; empty = alongside the output file.
  std::string temp_dir;
};

/// Pluggable record order for the external-merge machinery. A plain
/// function pointer: orders must be stateless so that spill runs written
/// by a background thread compare identically at merge time.
using RecordLess = bool (*)(const sam::AlignmentRecord&,
                            const sam::AlignmentRecord&);

/// Rank of a record within its read-name group under collation order:
/// primary read1 (0), primary read2 (1), primary unpaired (2), then
/// secondary/supplementary lines (3).
int pairing_rank(const sam::AlignmentRecord& rec);

/// Name-collation order: read name (plain byte-wise comparison), then
/// pairing_rank — so a group's primary mates are adjacent with R1 first.
/// Records with equal (name, rank) keep input order per the stability
/// contract above.
bool name_collate_less(const sam::AlignmentRecord& a,
                       const sam::AlignmentRecord& b);

/// Unified streaming record source over SAM or BAM (picked by ".bam"
/// extension). `decode_threads` selects parallel BGZF inflate for BAM
/// input (0 = auto, 1 = sequential); it is ignored for SAM.
class AlignmentInput {
 public:
  explicit AlignmentInput(const std::string& path, int decode_threads = 1);
  ~AlignmentInput();

  const sam::SamHeader& header() const;
  bool next(sam::AlignmentRecord& rec);

 private:
  std::unique_ptr<bam::BamFileReader> bam_;
  std::unique_ptr<sam::SamFileReader> sam_;
};

/// The external-merge engine: push records in any order, drain them in
/// `less` order. Single producer; drain() may be called once.
class ExternalSorter {
 public:
  /// `target_path` is the output file the runs are named after; the sorter
  /// itself never writes it. Spill runs land in options.temp_dir when set,
  /// else next to the target.
  ExternalSorter(sam::SamHeader header, const std::string& target_path,
                 RecordLess less, const SortOptions& options);

  /// Finishes the background spill stage and removes every surviving run
  /// file — the scope guard that keeps failed sorts litter-free.
  ~ExternalSorter();

  ExternalSorter(const ExternalSorter&) = delete;
  ExternalSorter& operator=(const ExternalSorter&) = delete;

  /// Buffers one record, spilling a run when the buffer is full. Rethrows
  /// the first background spill error, if any.
  void push(sam::AlignmentRecord rec);

  /// Forces the current buffer out as a run now (the collation stage calls
  /// this when its *bucket* memory, not the sorter's buffer, overflows).
  /// No-op on an empty buffer.
  void flush_run();

  /// Emits every pushed record in (less, input-order) order, then removes
  /// the runs. In-memory inputs are sorted and emitted directly; spilled
  /// inputs k-way merge the runs with the final buffer spilled as the last
  /// run. One-shot: push() after drain() is a usage error.
  void drain(const std::function<void(sam::AlignmentRecord&&)>& emit);

  uint64_t total() const { return total_; }
  bool spilled() const { return runs_created_ > 0; }
  /// Spill runs written over the sorter's lifetime (monotonic; survives
  /// drain()'s run-file cleanup).
  size_t runs() const { return runs_created_; }
  uint64_t spilled_records() const {
    return spilled_records_.load(std::memory_order_relaxed);
  }
  /// Compressed bytes across committed runs.
  uint64_t spilled_bytes() const {
    return spilled_bytes_.load(std::memory_order_relaxed);
  }

 private:
  void remove_runs() noexcept;

  sam::SamHeader header_;
  RecordLess less_;
  SortOptions options_;
  std::string run_base_;       // "<dir>/<target filename>.<pid>.<token>"
  size_t buffer_cap_;
  std::vector<sam::AlignmentRecord> buffer_;
  std::vector<std::string> run_paths_;
  size_t runs_created_ = 0;
  uint64_t total_ = 0;
  bool drained_ = false;
  std::atomic<uint64_t> spilled_records_{0};
  std::atomic<uint64_t> spilled_bytes_{0};
  exec::SerialStage spill_stage_;
};

}  // namespace ngsx::core
