#include "formats/bgzf_parallel.h"

#include <algorithm>
#include <cstring>
#include <optional>

#include "exec/pipeline.h"
#include "formats/bgzf.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ngsx::bgzf {

namespace {

// Parallel-path observability (docs/OBSERVABILITY.md, layer "bgzf"): the
// per-block codec metrics live in bgzf.cpp; here we only track what is
// unique to the parallel reader — readahead-buffer occupancy and pipeline
// restarts forced by seeks.
struct ParallelReaderMetrics {
  obs::Gauge& readahead_depth = obs::gauge("bgzf.decode.readahead_depth");
  obs::Counter& seek_restarts = obs::counter("bgzf.decode.seek_restarts");
};

ParallelReaderMetrics& reader_metrics() {
  static ParallelReaderMetrics m;
  return m;
}

int checked_threads(int threads) {
  NGSX_CHECK_MSG(threads >= 1, "need at least one decode worker");
  return threads;
}

}  // namespace

// ---------------------------------------------------------- ParallelReader

namespace {

/// Thrown by the committer's sink when the output channel was closed by a
/// seek invalidation or destruction: not an error, just "stop committing".
/// Deliberately not an ngsx::Error so it can never leak to consumers.
struct PipelineCancelled {};

}  // namespace

int resolve_decode_threads(int requested) {
  if (requested < 0) {
    throw UsageError("decode threads must be >= 0 (0 = auto)");
  }
  return requested == 0 ? exec::hardware_threads() : requested;
}

std::unique_ptr<ReaderBase> open_reader(const std::string& path,
                                        int decode_threads) {
  int threads = resolve_decode_threads(decode_threads);
  if (threads <= 1) {
    return std::make_unique<Reader>(path);
  }
  return std::make_unique<ParallelReader>(path, threads);
}

ParallelReader::ParallelReader(const std::string& path, int threads,
                               size_t readahead_blocks)
    : file_(path), threads_(checked_threads(threads)),
      readahead_(std::max<size_t>(readahead_blocks, 1)),
      pool_(threads_) {
  start(0);
}

ParallelReader::~ParallelReader() { stop(); }

void ParallelReader::start(uint64_t coffset) {
  cancel_.store(false, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    error_ = nullptr;
  }
  blocks_ = std::make_unique<exec::Channel<Decoded>>(readahead_);
  drained_ = false;
  have_block_ = false;
  block_pos_ = 0;
  current_ = Decoded{};
  current_.coffset = coffset;  // tell() anchor until the first block lands
  driver_ = std::thread([this, coffset] { drive(coffset); });
}

void ParallelReader::stop() {
  cancel_.store(true, std::memory_order_relaxed);
  if (blocks_ != nullptr) {
    blocks_->close();  // unblocks a committer stalled on readahead room
  }
  if (driver_.joinable()) {
    driver_.join();
  }
  // Blocks still buffered at a restart are discarded; account for them so
  // the readahead-depth gauge returns to zero.
  if (blocks_ != nullptr && obs::metrics_enabled()) {
    while (blocks_->pop().has_value()) {
      reader_metrics().readahead_depth.sub(1);
    }
  }
}

void ParallelReader::drive(uint64_t start_coffset) {
  // One raw compressed block, scanned off the file in order.
  struct RawBlock {
    std::string raw;
    uint64_t coffset = 0;
  };

  uint64_t cursor = start_coffset;
  exec::PipelineOptions opt;
  opt.workers = threads_;
  opt.window = readahead_;
  opt.cancel = &cancel_;

  try {
    exec::ordered_pipeline<RawBlock, Decoded>(
        pool_,
        // Framing scan: serial, cheap (header peek + one read per block).
        [&](RawBlock& item) {
          if (cursor >= file_.size()) {
            return false;
          }
          char header[kBlockHeaderSize];
          size_t got = file_.pread(header, sizeof(header), cursor);
          if (got < sizeof(header)) {
            throw FormatError("truncated BGZF block header at offset " +
                              std::to_string(cursor));
          }
          size_t total =
              peek_block_size(std::string_view(header, sizeof(header)));
          item.raw = file_.read_at(cursor, total);
          if (item.raw.size() != total) {
            throw FormatError("truncated BGZF block at offset " +
                              std::to_string(cursor));
          }
          item.coffset = cursor;
          cursor += total;
          return true;
        },
        // Parallel inflate: one long-lived z_stream per worker thread.
        [](RawBlock&& item, uint64_t) {
          thread_local Inflater inflater;
          Decoded out;
          out.coffset = item.coffset;
          out.csize = item.raw.size();
          inflater.decompress(item.raw, out.payload, item.coffset);
          return out;
        },
        // Ordered commit: publish in file order; channel capacity is the
        // readahead bound (backpressures the whole pipeline).
        [&](Decoded&& block, uint64_t) {
          if (!blocks_->push(std::move(block))) {
            throw PipelineCancelled{};
          }
          if (obs::metrics_enabled()) {
            reader_metrics().readahead_depth.add(1);
          }
        },
        opt);
  } catch (const PipelineCancelled&) {
    return;  // seek invalidation or destruction; channel already closed
  } catch (...) {
    std::lock_guard<std::mutex> lock(error_mu_);
    error_ = std::current_exception();
  }
  blocks_->close();  // consumer drains the remainder, then sees the end
}

bool ParallelReader::fetch_next() {
  if (drained_) {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (error_ != nullptr) {
      std::rethrow_exception(error_);  // sticky until the next seek
    }
    return false;
  }
  std::optional<Decoded> block = blocks_->pop();
  if (block.has_value() && obs::metrics_enabled()) {
    reader_metrics().readahead_depth.sub(1);
  }
  if (!block.has_value()) {
    drained_ = true;
    have_block_ = false;
    {
      std::lock_guard<std::mutex> lock(error_mu_);
      if (error_ != nullptr) {
        std::rethrow_exception(error_);  // current_.coffset = last good block
      }
    }
    // Clean end of stream: park the cursor one past the last scanned
    // block, so tell() == (file size, 0) exactly like the sequential
    // reader's failed load_block.
    current_.coffset += current_.csize;
    current_.csize = 0;
    current_.payload.clear();
    block_pos_ = 0;
    return false;
  }
  current_ = std::move(*block);
  have_block_ = true;
  block_pos_ = 0;
  return true;
}

bool ParallelReader::ensure_data() {
  // Skip empty blocks (e.g. the EOF marker) but keep consuming: BGZF
  // permits empty blocks mid-stream — same policy as the sequential
  // reader's load loop, so tell() stays offset-identical.
  while (!have_block_ || block_pos_ >= current_.payload.size()) {
    if (!fetch_next()) {
      return false;
    }
  }
  return true;
}

size_t ParallelReader::read(void* buf, size_t n) {
  char* out = static_cast<char*>(buf);
  size_t total = 0;
  while (total < n) {
    if (!ensure_data()) {
      break;
    }
    size_t take = std::min(n - total, current_.payload.size() - block_pos_);
    std::memcpy(out + total, current_.payload.data() + block_pos_, take);
    block_pos_ += take;
    total += take;
  }
  return total;
}

uint64_t ParallelReader::tell() {
  if (!have_block_) {
    return make_voffset(current_.coffset, 0);
  }
  if (block_pos_ >= current_.payload.size()) {
    return make_voffset(current_.coffset + current_.csize, 0);
  }
  return make_voffset(current_.coffset, static_cast<uint32_t>(block_pos_));
}

void ParallelReader::seek(uint64_t voffset) {
  uint64_t coffset = voffset_coffset(voffset);
  uint32_t uoffset = voffset_uoffset(voffset);
  if (have_block_ && current_.coffset == coffset) {
    // Repositioning within the delivered block: no pipeline restart.
    if (uoffset > current_.payload.size()) {
      throw FormatError("BGZF seek offset beyond block payload");
    }
    block_pos_ = uoffset;
    return;
  }
  // Seek invalidation: discard the in-flight readahead and rescan from the
  // target block (its framing is revalidated by the scanner, exactly as
  // the sequential reader's load_block would).
  if (obs::metrics_enabled()) {
    reader_metrics().seek_restarts.add(1);
  }
  stop();
  start(coffset);
  if (!fetch_next()) {
    if (uoffset == 0) {
      return;  // seeking to EOF is legal; tell() anchors at coffset
    }
    throw FormatError("BGZF seek past end of file");
  }
  if (uoffset > current_.payload.size()) {
    throw FormatError("BGZF seek offset beyond block payload");
  }
  block_pos_ = uoffset;
}

bool ParallelReader::eof() {
  if (have_block_ && block_pos_ < current_.payload.size()) {
    return false;
  }
  // Advancing to the next non-empty block consumes only exhausted or
  // empty blocks, mirroring the sequential reader's peek-by-load.
  return !ensure_data();
}

}  // namespace ngsx::bgzf
