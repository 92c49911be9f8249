// ngsx/formats/bgzf_parallel.h
//
// Multi-threaded BGZF reader, htslib's `--threads` idea applied to the
// decode side (the write side is bgzf::Writer's `threads` argument): BGZF
// blocks are independent gzip members, so inflation parallelizes once the
// block framing is known. The paper accepts BAM reading as inherently
// sequential; block-level inflation is the part that is not. A framing
// scanner walks BSIZE headers to produce compressed-block extents, worker
// threads inflate blocks concurrently (each holding a long-lived z_stream
// recycled via inflateReset), and an ordered committer hands the payloads
// back in file order through the same ReaderBase API as the sequential
// reader — byte-identical output, with a bounded readahead window and
// seek invalidation so virtual-offset random access still works.

#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "exec/channel.h"
#include "exec/pool.h"
#include "formats/bgzf.h"
#include "util/binio.h"
#include "util/common.h"

namespace ngsx::bgzf {

/// Default number of decompressed blocks buffered ahead of the consumer
/// (the readahead window; also the pipeline's uncommitted-ticket window).
constexpr size_t kDefaultReadahead = 32;

/// Resolves a decode-thread request: 0 means auto (hardware width),
/// negative throws UsageError, anything else passes through.
int resolve_decode_threads(int requested);

/// Multi-threaded BGZF reader (see file comment). Construction starts the
/// decode pipeline at offset 0; read()/tell()/seek()/eof() behave exactly
/// like the sequential Reader (byte-identical stream, identical virtual
/// offsets, identical FormatError messages including compressed offsets).
/// A seek outside the currently delivered block cancels the in-flight
/// pipeline and restarts it at the target block. Errors raised by worker
/// threads surface from the consumer's next read()/seek()/eof() call.
/// Not thread-safe: one consumer thread, like the sequential Reader.
class ParallelReader final : public ReaderBase {
 public:
  explicit ParallelReader(const std::string& path, int threads,
                          size_t readahead_blocks = kDefaultReadahead);
  ~ParallelReader() override;

  ParallelReader(const ParallelReader&) = delete;
  ParallelReader& operator=(const ParallelReader&) = delete;

  size_t read(void* buf, size_t n) override;
  uint64_t tell() override;
  void seek(uint64_t voffset) override;
  bool eof() override;
  uint64_t compressed_size() const override { return file_.size(); }

 private:
  /// One decompressed block in file order.
  struct Decoded {
    std::string payload;
    uint64_t coffset = 0;  // compressed offset of the block
    size_t csize = 0;      // compressed size of the block
  };

  /// (Re)starts the scan/inflate/commit pipeline at compressed offset
  /// `coffset`; resets all consumer-side cursor state.
  void start(uint64_t coffset);
  /// Cancels the pipeline and joins the driver thread.
  void stop();
  /// Driver-thread body: runs the ordered pipeline, publishes blocks into
  /// `blocks_`, records the first error, closes the channel on exit.
  void drive(uint64_t start_coffset);
  /// Pops the next block in file order into `current_`; false at end of
  /// stream (rethrows a recorded pipeline error first).
  bool fetch_next();
  /// Advances until `current_` has unread bytes, skipping empty blocks;
  /// false at end of stream.
  bool ensure_data();

  InputFile file_;
  int threads_;
  size_t readahead_;
  exec::Pool pool_;

  // Pipeline plumbing; rebuilt on every start().
  std::unique_ptr<exec::Channel<Decoded>> blocks_;
  std::thread driver_;
  std::atomic<bool> cancel_{false};
  std::mutex error_mu_;
  std::exception_ptr error_;  // first scan/inflate error; sticky until seek

  // Consumer-side cursor (single-threaded, like the sequential Reader).
  Decoded current_;
  bool have_block_ = false;
  bool drained_ = false;   // channel returned end-of-stream
  size_t block_pos_ = 0;   // read cursor within current_.payload
};

/// Opens `path` with `decode_threads` inflate workers (0 = auto, negative
/// rejected); <= 1 resolves to the sequential Reader, so callers pay for
/// a thread pool only when they asked for one.
std::unique_ptr<ReaderBase> open_reader(const std::string& path,
                                        int decode_threads);

}  // namespace ngsx::bgzf
