// ngsx/formats/bgzf.h
//
// BGZF (Blocked GNU Zip Format) codec, implemented from scratch on zlib's
// raw-deflate primitives per SAM spec §4.1. BGZF is the block compression
// layer underneath BAM: a BGZF file is a sequence of gzip members, each at
// most 64 KiB of uncompressed payload, carrying the compressed block size in
// a gzip extra field ("BC") so readers can hop between blocks without
// inflating them. This is what makes BAM indexable: a 64-bit *virtual file
// offset* ((compressed_block_offset << 16) | within_block_offset) addresses
// any byte.

#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <string_view>

#include "formats/bgzf_codec.h"
#include "util/binio.h"
#include "util/common.h"

namespace ngsx::bgzf {

/// Maximum uncompressed payload per BGZF block. The spec caps the
/// *compressed* block at 64 KiB; capping input at 0xff00 bytes leaves room
/// for incompressible data plus headers, matching htslib's choice.
constexpr size_t kMaxBlockInput = 0xff00;

/// Size of the fixed BGZF member header up to and including the BC extra
/// subfield (the minimum prefix peek_block_size() needs).
constexpr size_t kBlockHeaderSize = 18;

/// Sentinel for "no compressed offset known" in block error messages.
constexpr uint64_t kNoOffset = ~0ull;

/// The 28-byte empty block that marks end-of-file (SAM spec §4.1.2).
std::string_view eof_marker();

/// CRC-32 (gzip polynomial) with zlib call semantics; the checksum seam
/// for every BGZF block written or verified. Dispatches to a
/// carry-less-multiply (x86 PCLMULQDQ) or ARMv8 CRC kernel when the CPU
/// has one, slice-by-8 otherwise (util/simd.h); all paths are bit-exact
/// with zlib's crc32().
uint32_t crc32(uint32_t crc, const void* data, size_t n);

/// Packs a virtual offset from a compressed block start and an offset into
/// the uncompressed block payload.
constexpr uint64_t make_voffset(uint64_t compressed_offset,
                                uint32_t within_block) {
  return (compressed_offset << 16) | (within_block & 0xFFFFu);
}
constexpr uint64_t voffset_coffset(uint64_t v) { return v >> 16; }
constexpr uint32_t voffset_uoffset(uint64_t v) {
  return static_cast<uint32_t>(v & 0xFFFFu);
}

/// Reusable BGZF block compressor: one raw-deflate codec (bgzf_codec.h)
/// held across blocks and recycled, so steady-state compression skips the
/// per-block stream setup the free function pays. With the default zlib
/// backend, output is byte-identical to compress_block at the same level
/// (deflate is deterministic for fixed parameters). Not thread-safe; use
/// one per thread (a multi-threaded Writer keeps one per worker).
class Deflater {
 public:
  explicit Deflater(int level = 6, Backend backend = Backend::kAuto);
  ~Deflater();

  Deflater(const Deflater&) = delete;
  Deflater& operator=(const Deflater&) = delete;

  /// Compresses `input` (<= kMaxBlockInput bytes) into one complete BGZF
  /// block appended to `out`. Changing `level` between calls may
  /// reinitialize the backend stream; a stable level is cheap.
  void compress(std::string_view input, std::string& out, int level);
  void compress(std::string_view input, std::string& out) {
    compress(input, out, level_);
  }

  /// Active raw-deflate backend ("zlib" or "libdeflate").
  const char* backend() const;

 private:
  std::unique_ptr<Codec> codec_;
  std::string body_;  // compressed-body scratch, reused across blocks
  int level_;
};

/// Reusable BGZF block decompressor: one raw-deflate codec recycled
/// across blocks (a Reader holds one, or one per worker thread). Not
/// thread-safe.
class Inflater {
 public:
  explicit Inflater(Backend backend = Backend::kAuto);
  ~Inflater();

  Inflater(const Inflater&) = delete;
  Inflater& operator=(const Inflater&) = delete;

  /// Inflates the single complete BGZF block at `block` (exactly the bytes
  /// of one gzip member) and appends the payload to `out`. Verifies CRC32
  /// and ISIZE. Returns the payload size. When `coffset` is not kNoOffset,
  /// error messages carry the block's compressed file offset.
  size_t decompress(std::string_view block, std::string& out,
                    uint64_t coffset = kNoOffset);

  /// Active raw-deflate backend ("zlib" or "libdeflate").
  const char* backend() const;

 private:
  std::unique_ptr<Codec> codec_;
};

/// Compresses `input` (<= kMaxBlockInput bytes) into one complete BGZF
/// block appended to `out`. `level` is a zlib level (1-9, or 0 for stored).
/// Convenience wrapper over a throwaway Deflater.
void compress_block(std::string_view input, std::string& out, int level = 6);

/// Inspects the BGZF block header at `data` and returns the total size of
/// the compressed block (BSIZE+1). Throws FormatError if the magic or the
/// BC extra field is wrong. `data` must hold at least kBlockHeaderSize
/// bytes.
size_t peek_block_size(std::string_view data);

/// Inflates the single complete BGZF block at `block` (exactly the bytes of
/// one gzip member) and appends the payload to `out`. Verifies CRC32 and
/// ISIZE. Returns the payload size. Convenience wrapper over a throwaway
/// Inflater.
size_t decompress_block(std::string_view block, std::string& out);

/// Streaming BGZF writer: buffers appended bytes, cuts them into blocks of
/// kMaxBlockInput (or at flush_block()), and appends the EOF marker on
/// close(). At one thread each block is deflated inline on the caller's
/// thread. With `threads` > 1, blocks are deflated on that many pool
/// workers and committed in file order through an exec::Pipeline; its
/// default window and input capacity (2 * threads + 4 blocks each) bound
/// the memory in flight. The block boundaries come from the same
/// write()/flush_block()/close() code either way, and deflate is
/// deterministic at a fixed level, so the file bytes do not depend on
/// `threads`.
///
/// Errors: the first deflate or write error surfaces from the call that
/// observes it (write()/flush_block(), or close() for errors still in
/// flight) and rolls the output back. Destruction without close() is a
/// rollback too: nothing is published.
class Writer {
 public:
  explicit Writer(const std::string& path, int level = 6, int threads = 1);
  ~Writer();

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void write(std::string_view data);
  void write(const void* data, size_t n) {
    write(std::string_view(static_cast<const char*>(data), n));
  }

  /// Ends the current block (if non-empty), so the next byte written
  /// starts a fresh block.
  void flush_block();

  /// Drains the workers, appends the EOF marker and publishes the file;
  /// rethrows the first compression or write error. Idempotent.
  void close();

  /// Compressed bytes committed to the file so far (excludes the open
  /// block and blocks still deflating); exact after close().
  uint64_t compressed_bytes() const { return compressed_bytes_; }

 private:
  struct Workers;  // pool + ordered deflate pipeline (threads > 1 only)

  void emit_block();
  /// Appends one finished block to the file (the pipeline's ordered sink
  /// at threads > 1).
  void commit(std::string_view block);
  /// Joins the workers and discards the output. Never throws.
  void abandon() noexcept;

  std::unique_ptr<OutputFile> out_;
  std::string pending_;  // uncompressed bytes of the open block
  std::string scratch_;  // compressed block scratch (inline path)
  Deflater deflater_;    // inline path; workers keep one per thread
  std::atomic<uint64_t> compressed_bytes_{0};
  std::unique_ptr<Workers> workers_;  // declared last: joined first
  bool closed_ = false;
};

/// Random-access BGZF reader: byte-stream read() plus virtual-offset
/// tell()/seek(); BAM layers record framing on top. At one thread each
/// block is framed and inflated inline on the caller's thread, with no
/// pool and no extra thread. With `threads` > 1 a driver thread frames
/// blocks ahead of the consumer, that many pool workers inflate them, and
/// an exec::ordered_pipeline hands them back in file order through a
/// channel of 32 blocks (the readahead; also the pipeline's window). A
/// seek outside the current block cancels that pipeline and restarts it
/// at the target block. The cursor code is the same at every width, so
/// bytes, tell() values and error messages do not depend on `threads`.
///
/// Errors travel in file order: the consumer receives every byte of every
/// block before the first bad one, then the FormatError for that block
/// (with its compressed offset). The error stays sticky: every later
/// read()/eof() rethrows it until the next seek(). Not thread-safe: one
/// consumer thread.
class Reader {
 public:
  explicit Reader(const std::string& path, int threads = 1);
  ~Reader();

  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  /// Reads up to `n` decompressed bytes; returns bytes read (short only at
  /// EOF).
  size_t read(void* buf, size_t n);

  /// Reads exactly `n` bytes or throws FormatError (truncated file).
  void read_exact(void* buf, size_t n);

  /// Current virtual offset (next byte to be read).
  uint64_t tell();

  /// Repositions to a virtual offset previously obtained from tell() (or an
  /// index).
  void seek(uint64_t voffset);

  /// True when the underlying file is exhausted.
  bool eof();

  /// Total compressed file size.
  uint64_t compressed_size() const { return file_.size(); }

 private:
  /// One decoded block in file order.
  struct Block {
    std::string payload;
    uint64_t coffset = 0;      // compressed offset of the block
    size_t csize = 0;          // compressed size; 0 = end of stream
    std::exception_ptr error;  // why the stream stops at `coffset`
  };
  struct Workers;  // pool + ordered inflate pipeline (threads > 1 only)

  /// Replaces `block_` with the next block in file order. Returns false
  /// at end of stream; throws (and keeps) the block's decode error.
  bool next_block();
  /// Advances until the current block has unread bytes, skipping empty
  /// blocks (BGZF permits them mid-stream); false at end of stream.
  bool ensure_data();
  /// Moves the cursor to the start of the block at `coffset`, with nothing
  /// loaded; the next next_block() call fetches that block.
  void park(uint64_t coffset);

  InputFile file_;
  Inflater inflater_;  // inline path; workers keep one per thread
  std::string raw_;    // compressed block scratch (inline path)
  Block block_;        // current block
  bool have_block_ = false;
  size_t block_pos_ = 0;      // read cursor within block_.payload
  std::exception_ptr error_;  // sticky until the next seek()
  std::unique_ptr<Workers> workers_;  // declared last: joined first
};

}  // namespace ngsx::bgzf
