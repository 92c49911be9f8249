#include "formats/bgzf.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <thread>

#include "exec/channel.h"
#include "exec/pipeline.h"
#include "exec/pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/simd.h"

namespace ngsx::bgzf {

namespace {

// Fixed 12-byte gzip header prefix for a BGZF member (before BSIZE):
//   ID1 ID2 CM FLG      MTIME(4)    XFL OS  XLEN(2)
//   1f  8b  08 04       00000000    00  ff  0600
// then the extra subfield: 'B' 'C' 02 00 BSIZE(2).
constexpr size_t kHeaderSize = kBlockHeaderSize;
constexpr size_t kFooterSize = 8;  // CRC32 + ISIZE

const unsigned char kEofBlock[28] = {
    0x1f, 0x8b, 0x08, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff,
    0x06, 0x00, 0x42, 0x43, 0x02, 0x00, 0x1b, 0x00, 0x03, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};

/// Decorates a block-level error message with the compressed file offset
/// when one is known, so a decoder reports *where* the stream broke.
[[noreturn]] void block_error(const std::string& msg, uint64_t coffset) {
  if (coffset == kNoOffset) {
    throw FormatError(msg);
  }
  throw FormatError(msg + " at compressed offset " + std::to_string(coffset));
}

// Block-codec observability (docs/OBSERVABILITY.md, layer "bgzf").
// Instrumented here, in the per-block codec, so the Reader and Writer are
// covered by the same hooks at every thread count;
// each hook is gated on obs::metrics_enabled() (one relaxed load when
// disarmed).
struct DecodeMetrics {
  obs::Counter& blocks = obs::counter("bgzf.decode.blocks");
  obs::Counter& bytes_in = obs::counter("bgzf.decode.bytes_in");
  obs::Counter& bytes_out = obs::counter("bgzf.decode.bytes_out");
  obs::Histogram& inflate_us = obs::histogram("bgzf.decode.inflate_us");
};

struct EncodeMetrics {
  obs::Counter& blocks = obs::counter("bgzf.encode.blocks");
  obs::Counter& bytes_in = obs::counter("bgzf.encode.bytes_in");
  obs::Counter& bytes_out = obs::counter("bgzf.encode.bytes_out");
  obs::Histogram& deflate_us = obs::histogram("bgzf.encode.deflate_us");
};

DecodeMetrics& decode_metrics() {
  static DecodeMetrics m;
  return m;
}

EncodeMetrics& encode_metrics() {
  static EncodeMetrics m;
  return m;
}

}  // namespace

std::string_view eof_marker() {
  return std::string_view(reinterpret_cast<const char*>(kEofBlock),
                          sizeof(kEofBlock));
}

uint32_t crc32(uint32_t crc, const void* data, size_t n) {
  return simd::crc32_ieee(crc, data, n);
}

// ----------------------------------------------------------------- Deflater

Deflater::Deflater(int level, Backend backend)
    : codec_(make_codec(backend)), level_(level) {}

Deflater::~Deflater() = default;

const char* Deflater::backend() const { return codec_->name(); }

void Deflater::compress(std::string_view input, std::string& out, int level) {
  NGSX_CHECK_MSG(input.size() <= kMaxBlockInput,
                 "BGZF block input too large");
  obs::Span span("bgzf", "deflate_block");
  const bool recording = obs::metrics_enabled();
  const uint64_t start_ns = recording ? obs::detail::monotonic_ns() : 0;
  const size_t out_start = out.size();
  // Raw deflate: we write the gzip wrapper ourselves so we can place the
  // BC extra field. The codec stream is recycled across blocks; a level
  // change (rare) pays a backend reinit.
  codec_->deflate_raw(input, body_, level);
  level_ = level;

  size_t total = kHeaderSize + body_.size() + kFooterSize;
  if (total - 1 > 0xFFFF) {
    throw FormatError("BGZF compressed block exceeds 64 KiB");
  }

  // Header.
  static const unsigned char prefix[16] = {0x1f, 0x8b, 0x08, 0x04, 0x00, 0x00,
                                           0x00, 0x00, 0x00, 0xff, 0x06, 0x00,
                                           0x42, 0x43, 0x02, 0x00};
  out.append(reinterpret_cast<const char*>(prefix), sizeof(prefix));
  binio::put_le<uint16_t>(out, static_cast<uint16_t>(total - 1));  // BSIZE
  out += body_;

  binio::put_le<uint32_t>(out, crc32(0, input.data(), input.size()));
  binio::put_le<uint32_t>(out, static_cast<uint32_t>(input.size()));
  if (recording) {
    EncodeMetrics& m = encode_metrics();
    m.blocks.add(1);
    m.bytes_in.add(input.size());
    m.bytes_out.add(out.size() - out_start);
    m.deflate_us.record((obs::detail::monotonic_ns() - start_ns) / 1000);
  }
}

void compress_block(std::string_view input, std::string& out, int level) {
  Deflater deflater(level);
  deflater.compress(input, out);
}

size_t peek_block_size(std::string_view data) {
  if (data.size() < kHeaderSize) {
    throw FormatError("truncated BGZF block header");
  }
  const auto* b = reinterpret_cast<const unsigned char*>(data.data());
  if (b[0] != 0x1f || b[1] != 0x8b || b[2] != 0x08 || (b[3] & 0x04) == 0) {
    throw FormatError("bad BGZF magic");
  }
  uint16_t xlen = binio::get_le<uint16_t>(data, 10);
  // Scan extra subfields for SI1='B', SI2='C'.
  size_t pos = 12;
  size_t extra_end = 12 + xlen;
  if (extra_end > data.size()) {
    throw FormatError("truncated BGZF extra field");
  }
  while (pos + 4 <= extra_end) {
    uint8_t si1 = static_cast<uint8_t>(data[pos]);
    uint8_t si2 = static_cast<uint8_t>(data[pos + 1]);
    uint16_t slen = binio::get_le<uint16_t>(data, pos + 2);
    if (si1 == 'B' && si2 == 'C') {
      if (slen != 2) {
        throw FormatError("BGZF BC subfield has wrong length");
      }
      uint16_t bsize = binio::get_le<uint16_t>(data, pos + 4);
      return static_cast<size_t>(bsize) + 1;
    }
    pos += 4 + slen;
  }
  throw FormatError("BGZF BC subfield not found");
}

// ----------------------------------------------------------------- Inflater

Inflater::Inflater(Backend backend) : codec_(make_codec(backend)) {}

Inflater::~Inflater() = default;

const char* Inflater::backend() const { return codec_->name(); }

size_t Inflater::decompress(std::string_view block, std::string& out,
                            uint64_t coffset) {
  obs::Span span("bgzf", "inflate_block");
  const bool recording = obs::metrics_enabled();
  const uint64_t start_ns = recording ? obs::detail::monotonic_ns() : 0;
  size_t total = peek_block_size(block);
  if (block.size() != total) {
    block_error("BGZF block size mismatch: header says " +
                    std::to_string(total) + ", got " +
                    std::to_string(block.size()),
                coffset);
  }
  uint16_t xlen = binio::get_le<uint16_t>(block, 10);
  size_t body_begin = 12 + xlen;
  if (total < body_begin + kFooterSize) {
    block_error("BGZF block too small", coffset);
  }
  size_t body_size = total - body_begin - kFooterSize;
  uint32_t expect_crc = binio::get_le<uint32_t>(block, total - 8);
  uint32_t isize = binio::get_le<uint32_t>(block, total - 4);

  size_t out_start = out.size();
  out.resize(out_start + isize);

  if (!codec_->inflate_raw(block.substr(body_begin, body_size),
                           out.data() + out_start, isize)) {
    out.resize(out_start);
    block_error("BGZF inflate failed or ISIZE mismatch", coffset);
  }

  if (crc32(0, out.data() + out_start, isize) != expect_crc) {
    out.resize(out_start);
    block_error("BGZF CRC mismatch", coffset);
  }
  if (recording) {
    DecodeMetrics& m = decode_metrics();
    m.blocks.add(1);
    m.bytes_in.add(block.size());
    m.bytes_out.add(isize);
    m.inflate_us.record((obs::detail::monotonic_ns() - start_ns) / 1000);
  }
  return isize;
}

size_t decompress_block(std::string_view block, std::string& out) {
  Inflater inflater;
  return inflater.decompress(block, out);
}

// -------------------------------------------------------------------- Writer

struct Writer::Workers {
  Workers(Writer& owner, int threads, int level)
      : pool(threads),
        pipeline(
            pool,
            [level](std::string&& raw) {
              // One long-lived codec stream per worker thread.
              thread_local Deflater deflater;
              std::string block;
              deflater.compress(raw, block, level);
              return block;
            },
            [&owner](std::string&& block) { owner.commit(block); }) {}

  exec::Pool pool;
  exec::Pipeline<std::string, std::string> pipeline;
};

Writer::Writer(const std::string& path, int level, int threads)
    : out_(std::make_unique<OutputFile>(path)), deflater_(level) {
  NGSX_CHECK_MSG(threads >= 1, "need at least one compression worker");
  if (threads > 1) {
    workers_ = std::make_unique<Workers>(*this, threads, level);
  }
  pending_.reserve(kMaxBlockInput);
}

Writer::~Writer() {
  // Destruction without close() is a rollback, not a commit: flushing the
  // tail and publishing the file here would turn an unwinding error path
  // into a silently truncated-but-committed BGZF stream.
  if (!closed_) {
    closed_ = true;
    abandon();
  }
}

void Writer::abandon() noexcept {
  if (workers_ != nullptr) {
    // The sink writes out_ from the pipeline's driver thread: join it
    // before discarding.
    try {
      workers_->pipeline.finish();
    } catch (...) {
      // Already rolling back; the first error was or will be reported.
    }
  }
  out_->discard();
}

void Writer::write(std::string_view data) {
  NGSX_CHECK_MSG(!closed_, "write on closed BGZF writer");
  while (!data.empty()) {
    size_t room = kMaxBlockInput - pending_.size();
    size_t take = std::min(room, data.size());
    pending_.append(data.data(), take);
    data.remove_prefix(take);
    if (pending_.size() == kMaxBlockInput) {
      emit_block();
    }
  }
}

void Writer::flush_block() {
  if (!pending_.empty()) {
    emit_block();
  }
}

void Writer::emit_block() {
  try {
    if (workers_ != nullptr) {
      std::string raw = std::move(pending_);
      pending_.clear();
      pending_.reserve(kMaxBlockInput);
      // Blocks while the pipeline is full; rethrows its first error.
      workers_->pipeline.push(std::move(raw));
      return;
    }
    scratch_.clear();
    deflater_.compress(pending_, scratch_);
    commit(scratch_);
    pending_.clear();
  } catch (...) {
    // A failed block leaves a hole in the stream: roll back now, so a
    // later close() cannot publish the file without it.
    closed_ = true;
    abandon();
    throw;
  }
}

void Writer::commit(std::string_view block) {
  out_->write(block);
  compressed_bytes_ += block.size();
}

void Writer::close() {
  if (closed_) {
    return;
  }
  closed_ = true;
  try {
    flush_block();
    if (workers_ != nullptr) {
      workers_->pipeline.finish();  // drain; rethrows the first error
    }
    commit(eof_marker());
    out_->close();
  } catch (...) {
    abandon();
    throw;
  }
}

// -------------------------------------------------------------------- Reader

namespace {

// Threaded-reader observability: readahead occupancy and the pipeline
// restarts forced by seeks (Reader at threads > 1).
struct ReadaheadMetrics {
  obs::Gauge& depth = obs::gauge("bgzf.decode.readahead_depth");
  obs::Counter& seek_restarts = obs::counter("bgzf.decode.seek_restarts");
};

ReadaheadMetrics& readahead_metrics() {
  static ReadaheadMetrics m;
  return m;
}

/// Decoded blocks a threaded Reader buffers ahead of its consumer (2 MiB
/// of payload), also used as the inflate pipeline's window. A BAM
/// consumer drains blocks in bursts (one preprocessing chunk is about 20
/// blocks); at the pipeline's default of 2 * threads + 4, perfbench
/// bam_region's 4-thread preprocessing (setup_s) ran 9% slower.
constexpr size_t kReadaheadBlocks = 32;

/// Reads the compressed block that starts at `coffset` into `raw`
/// (replaced). Returns false at physical end of file; throws FormatError
/// on a bad header or a truncated block. The one framing step of every
/// Reader width.
bool frame_block(const InputFile& file, uint64_t coffset, std::string& raw) {
  if (coffset >= file.size()) {
    return false;
  }
  char header[kHeaderSize];
  if (file.pread(header, sizeof(header), coffset) < sizeof(header)) {
    throw FormatError("truncated BGZF block header at offset " +
                      std::to_string(coffset));
  }
  const size_t total =
      peek_block_size(std::string_view(header, sizeof(header)));
  raw.resize(total);
  if (file.pread(raw.data(), total, coffset) != total) {
    throw FormatError("truncated BGZF block at offset " +
                      std::to_string(coffset));
  }
  return true;
}

/// Thrown by the ordered sink to end delivery: the consumer closed the
/// channel (seek or destruction), or a bad block was just delivered. Not
/// an ngsx::Error, so it never reaches a consumer.
struct StopDelivery {};

}  // namespace

struct Reader::Workers {
  explicit Workers(int threads) : pool(threads) {}
  ~Workers() { stop(); }

  /// (Re)starts framing and inflating at compressed offset `coffset`.
  void start(const InputFile& file, uint64_t coffset) {
    cancel.store(false, std::memory_order_relaxed);
    blocks = std::make_unique<exec::Channel<Block>>(kReadaheadBlocks);
    driver = std::thread([this, &file, coffset] { drive(file, coffset); });
  }

  /// Cancels the pipeline, joins the driver and drops the readahead.
  void stop() {
    cancel.store(true, std::memory_order_relaxed);
    if (blocks != nullptr) {
      blocks->close();  // unblocks a sink stalled on readahead room
    }
    if (driver.joinable()) {
      driver.join();
    }
    while (blocks != nullptr && blocks->pop().has_value()) {
      readahead_metrics().depth.sub(1);
    }
  }

  /// Driver-thread body: frames, inflates and commits blocks from
  /// `coffset` into `blocks` until the stream ends, a bad block has been
  /// delivered, or stop() cancels it; then closes the channel.
  void drive(const InputFile& file, uint64_t coffset) {
    struct RawBlock {
      std::string bytes;
      uint64_t coffset = 0;
      std::exception_ptr error;  // framing failure at `coffset`
    };
    bool framing_failed = false;
    exec::PipelineOptions opt;
    opt.window = kReadaheadBlocks;
    opt.cancel = &cancel;
    try {
      exec::ordered_pipeline<RawBlock, Block>(
          pool,
          // Framing scan: serial, cheap. A framing failure is the last
          // item, at its position in the file.
          [&](RawBlock& item) {
            if (framing_failed) {
              return false;
            }
            item.coffset = coffset;
            try {
              if (!frame_block(file, coffset, item.bytes)) {
                return false;
              }
            } catch (...) {
              item.error = std::current_exception();
              framing_failed = true;
              return true;
            }
            coffset += item.bytes.size();
            return true;
          },
          // Parallel inflate, one long-lived codec stream per worker. A
          // bad block carries its error in band, so it cannot fail the
          // pipeline and discard the good blocks before it.
          [](RawBlock&& item, uint64_t) {
            thread_local Inflater inflater;
            Block block;
            block.coffset = item.coffset;
            block.error = item.error;
            if (block.error == nullptr) {
              try {
                inflater.decompress(item.bytes, block.payload, item.coffset);
                block.csize = item.bytes.size();
              } catch (...) {
                block.error = std::current_exception();
              }
            }
            return block;
          },
          // Ordered commit; the channel's capacity bounds the readahead.
          [&](Block&& block, uint64_t) {
            const bool bad = block.error != nullptr;
            if (!blocks->push(std::move(block))) {
              throw StopDelivery{};
            }
            readahead_metrics().depth.add(1);
            if (bad) {
              throw StopDelivery{};  // nothing past a bad block is read
            }
          },
          opt);
    } catch (const StopDelivery&) {
    }
    blocks->close();  // the consumer drains the rest, then sees the end
  }

  exec::Pool pool;
  std::unique_ptr<exec::Channel<Block>> blocks;  // rebuilt on every start
  std::atomic<bool> cancel{false};
  std::thread driver;
};

Reader::Reader(const std::string& path, int threads) : file_(path) {
  NGSX_CHECK_MSG(threads >= 1, "need at least one decode worker");
  if (threads > 1) {
    workers_ = std::make_unique<Workers>(threads);
    workers_->start(file_, 0);
  }
}

Reader::~Reader() = default;

void Reader::park(uint64_t coffset) {
  block_.payload.clear();
  block_.coffset = coffset;
  block_.csize = 0;
  block_.error = nullptr;
  have_block_ = false;
  block_pos_ = 0;
}

bool Reader::next_block() {
  if (error_ != nullptr) {
    std::rethrow_exception(error_);  // sticky until the next seek()
  }
  const uint64_t next =
      have_block_ ? block_.coffset + block_.csize : block_.coffset;
  if (workers_ == nullptr) {
    // Inline: frame and inflate on the caller's thread.
    park(next);
    try {
      if (frame_block(file_, next, raw_)) {
        inflater_.decompress(raw_, block_.payload, next);
        block_.csize = raw_.size();
      }
    } catch (...) {
      block_.error = std::current_exception();
    }
  } else if (std::optional<Block> block = workers_->blocks->pop()) {
    readahead_metrics().depth.sub(1);
    block_ = std::move(*block);
  } else {
    park(next);  // the channel ended cleanly
  }
  if (block_.error != nullptr) {
    error_ = block_.error;
    park(next);  // tell() reports the bad block's offset
    std::rethrow_exception(error_);
  }
  if (block_.csize == 0) {
    // End of stream: the cursor stays one past the last block.
    park(next);
    return false;
  }
  have_block_ = true;
  block_pos_ = 0;
  return true;
}

bool Reader::ensure_data() {
  while (!have_block_ || block_pos_ >= block_.payload.size()) {
    if (!next_block()) {
      return false;
    }
  }
  return true;
}

size_t Reader::read(void* buf, size_t n) {
  char* out = static_cast<char*>(buf);
  size_t total = 0;
  while (total < n && ensure_data()) {
    const size_t take =
        std::min(n - total, block_.payload.size() - block_pos_);
    std::memcpy(out + total, block_.payload.data() + block_pos_, take);
    block_pos_ += take;
    total += take;
  }
  return total;
}

void Reader::read_exact(void* buf, size_t n) {
  size_t got = read(buf, n);
  if (got != n) {
    throw FormatError("truncated BGZF stream: wanted " + std::to_string(n) +
                      " bytes, got " + std::to_string(got));
  }
}

uint64_t Reader::tell() {
  if (!have_block_) {
    return make_voffset(block_.coffset, 0);
  }
  if (block_pos_ >= block_.payload.size()) {
    return make_voffset(block_.coffset + block_.csize, 0);
  }
  return make_voffset(block_.coffset, static_cast<uint32_t>(block_pos_));
}

void Reader::seek(uint64_t voffset) {
  const uint64_t coffset = voffset_coffset(voffset);
  const uint32_t uoffset = voffset_uoffset(voffset);
  if (!have_block_ || block_.coffset != coffset) {
    error_ = nullptr;
    park(coffset);
    if (workers_ != nullptr) {
      // Drop the readahead and rescan from the target block.
      readahead_metrics().seek_restarts.add(1);
      workers_->stop();
      workers_->start(file_, coffset);
    }
    if (!next_block()) {
      if (uoffset == 0) {
        return;  // seeking to EOF is legal
      }
      throw FormatError("BGZF seek past end of file");
    }
  }
  if (uoffset > block_.payload.size()) {
    throw FormatError("BGZF seek offset beyond block payload");
  }
  block_pos_ = uoffset;
}

bool Reader::eof() { return !ensure_data(); }

}  // namespace ngsx::bgzf
