#include "core/sort.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <queue>
#include <utility>

#include "formats/bam.h"
#include "formats/sam.h"
#include "util/strutil.h"

namespace fs = std::filesystem;

namespace ngsx::core {

using sam::AlignmentRecord;
using sam::SamHeader;

int pairing_rank(const AlignmentRecord& rec) {
  if (!rec.is_primary()) {
    return 3;
  }
  if (!rec.is_paired()) {
    return 2;
  }
  return rec.is_read2() ? 1 : 0;
}

bool name_collate_less(const AlignmentRecord& a, const AlignmentRecord& b) {
  if (int c = a.qname.compare(b.qname); c != 0) {
    return c < 0;
  }
  return pairing_rank(a) < pairing_rank(b);
}

// ------------------------------------------------------------ AlignmentInput

AlignmentInput::AlignmentInput(const std::string& path, int decode_threads) {
  if (strutil::ends_with(path, ".bam")) {
    bam_ = std::make_unique<bam::BamFileReader>(path, decode_threads);
  } else {
    sam_ = std::make_unique<sam::SamFileReader>(path);
  }
}

AlignmentInput::~AlignmentInput() = default;

const SamHeader& AlignmentInput::header() const {
  return bam_ ? bam_->header() : sam_->header();
}

bool AlignmentInput::next(AlignmentRecord& rec) {
  return bam_ ? bam_->next(rec) : sam_->next(rec);
}

// ------------------------------------------------------------ ExternalSorter

namespace {

/// Process-wide run-name token: two sorters in one process never share a
/// run path even when they share target path and temp_dir. The pid in the
/// name covers concurrent *processes* sharing a temp_dir.
std::atomic<uint64_t> g_run_token{0};

/// BGZF level for spill runs. Runs never leave the process and the merge
/// reads records, not bytes, so the fastest level costs nothing in the
/// output. They stay on one deflate thread: the background spill stage
/// already overlaps their compression with the next buffer's fill.
constexpr int kSpillLevel = 1;

}  // namespace

ExternalSorter::ExternalSorter(SamHeader header,
                               const std::string& target_path,
                               RecordLess less, const SortOptions& options)
    : header_(std::move(header)),
      less_(less),
      options_(options),
      // Halve the budget per buffer: one buffer fills while the previous
      // one sorts/compresses on the spill stage (queue depth 1), keeping
      // peak residency near the configured budget.
      buffer_cap_(std::max<size_t>(1, options.max_records_in_memory / 2)),
      spill_stage_(1) {
  NGSX_CHECK_MSG(options_.max_records_in_memory >= 2,
                 "memory budget too small to sort");
  const std::string base =
      options_.temp_dir.empty()
          ? target_path
          : options_.temp_dir + "/" + fs::path(target_path).filename().string();
  run_base_ = base + "." + std::to_string(getpid()) + "." +
              std::to_string(g_run_token.fetch_add(1));
  buffer_.reserve(std::min<size_t>(buffer_cap_, 1 << 20));
}

ExternalSorter::~ExternalSorter() {
  try {
    spill_stage_.finish();  // no run may still be mid-write when we unlink
  } catch (...) {
    // The error was already observable via push()/drain(); cleanup
    // proceeds regardless.
  }
  remove_runs();
}

void ExternalSorter::push(AlignmentRecord rec) {
  NGSX_CHECK_MSG(!drained_, "push on a drained ExternalSorter");
  buffer_.push_back(std::move(rec));
  ++total_;
  if (buffer_.size() >= buffer_cap_) {
    flush_run();
  }
}

void ExternalSorter::flush_run() {
  if (buffer_.empty()) {
    return;
  }
  // The run index is claimed synchronously (runs stay in input order, the
  // merge's stability tie-break); the sort + write happen on the stage.
  std::string run_path =
      run_base_ + ".run" + std::to_string(runs_created_) + ".tmp.bam";
  ++runs_created_;
  run_paths_.push_back(run_path);
  spilled_records_.fetch_add(buffer_.size(), std::memory_order_relaxed);
  std::vector<AlignmentRecord> spill_buffer;
  spill_buffer.reserve(std::min<size_t>(buffer_cap_, 1 << 20));
  buffer_.swap(spill_buffer);
  spill_stage_.submit([this, run_path = std::move(run_path),
                       records = std::move(spill_buffer)]() mutable {
    std::stable_sort(records.begin(), records.end(), less_);
    bam::BamFileWriter writer(run_path, header_, kSpillLevel);
    for (const auto& rec : records) {
      writer.write(rec);
    }
    writer.close();
    spilled_bytes_.fetch_add(file_size(run_path), std::memory_order_relaxed);
  });
}

void ExternalSorter::drain(
    const std::function<void(AlignmentRecord&&)>& emit) {
  NGSX_CHECK_MSG(!drained_, "ExternalSorter drained twice");
  drained_ = true;

  if (run_paths_.empty()) {
    // Fast path: everything fit in memory.
    spill_stage_.finish();
    std::stable_sort(buffer_.begin(), buffer_.end(), less_);
    for (auto& rec : buffer_) {
      emit(std::move(rec));
    }
    buffer_.clear();
    return;
  }

  flush_run();  // the final partial buffer becomes the last run
  spill_stage_.finish();  // every run committed (or the first error throws)

  // K-way merge. Ties break by run index, which — because runs are created
  // in input order and each run is stably sorted — makes the whole sort
  // stable under any key.
  struct Head {
    AlignmentRecord rec;
    size_t run;
  };
  auto head_greater = [this](const Head& a, const Head& b) {
    if (less_(a.rec, b.rec)) {
      return false;
    }
    if (less_(b.rec, a.rec)) {
      return true;
    }
    return a.run > b.run;
  };
  std::vector<std::unique_ptr<bam::BamFileReader>> readers;
  readers.reserve(run_paths_.size());
  std::priority_queue<Head, std::vector<Head>, decltype(head_greater)> heap(
      head_greater);
  for (size_t r = 0; r < run_paths_.size(); ++r) {
    readers.push_back(std::make_unique<bam::BamFileReader>(run_paths_[r]));
    AlignmentRecord rec;
    if (readers.back()->next(rec)) {
      heap.push(Head{std::move(rec), r});
    }
  }

  uint64_t merged = 0;
  while (!heap.empty()) {
    Head head = heap.top();
    heap.pop();
    emit(std::move(head.rec));
    ++merged;
    AlignmentRecord rec;
    if (readers[head.run]->next(rec)) {
      heap.push(Head{std::move(rec), head.run});
    }
  }
  NGSX_CHECK_MSG(merged == total_, "merge lost records");
  readers.clear();
  remove_runs();
}

void ExternalSorter::remove_runs() noexcept {
  for (const auto& run : run_paths_) {
    std::error_code ec;
    fs::remove(run, ec);  // best effort; missing (never-written) runs are fine
  }
  run_paths_.clear();
}

}  // namespace ngsx::core
