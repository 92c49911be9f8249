// ngsx/util/binio.h
//
// Little-endian binary encoding/decoding and positioned file I/O.
//
// All on-disk integers in BAM/BGZF/BAMX/BAIX are little-endian regardless of
// host endianness (SAM spec §4.1); these helpers make that explicit and keep
// the format code free of casts.
//
// The file classes are also the system's fault boundary: every physical
// operation consults the process-global io::IoPolicy (util/iopolicy.h), so
// tests can inject short reads, ENOSPC, fsync/close failures and transient
// errors deterministically. OutputFile defaults to *atomic commit*: bytes
// land in "<path>.tmp.<pid>" and only a successful close() renames the file
// into place, so a crash or error can never leave a partially written file
// under its final name. See docs/ROBUSTNESS.md for the full contract.

#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/common.h"

namespace ngsx {

// ---------------------------------------------------------------------------
// In-memory little-endian primitives.
// ---------------------------------------------------------------------------

namespace binio {

/// Appends `v` to `out` in little-endian byte order.
template <typename T>
inline void put_le(std::string& out, T v) {
  static_assert(std::is_arithmetic_v<T>);
  char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  out.append(bytes, sizeof(T));
}

/// Writes `v` at `out[pos]` (must be in range) in little-endian byte order.
template <typename T>
inline void poke_le(std::string& out, size_t pos, T v) {
  static_assert(std::is_arithmetic_v<T>);
  NGSX_CHECK(pos + sizeof(T) <= out.size());
  std::memcpy(out.data() + pos, &v, sizeof(T));
}

/// Reads a little-endian value of type T from `data` at `pos`.
/// Throws FormatError if out of range.
template <typename T>
inline T get_le(std::string_view data, size_t pos) {
  static_assert(std::is_arithmetic_v<T>);
  if (pos + sizeof(T) > data.size()) {
    throw FormatError("truncated read of " + std::to_string(sizeof(T)) +
                      " bytes at offset " + std::to_string(pos));
  }
  T v;
  std::memcpy(&v, data.data() + pos, sizeof(T));
  return v;
}

}  // namespace binio

// ---------------------------------------------------------------------------
// Cursor over an in-memory buffer; used by the BAM/BAMX decoders.
// ---------------------------------------------------------------------------

/// A bounds-checked forward reader over a byte buffer.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  template <typename T>
  T read() {
    T v = binio::get_le<T>(data_, pos_);
    pos_ += sizeof(T);
    return v;
  }

  /// Reads `n` raw bytes. Compares against remaining() so a huge `n`
  /// (e.g. a negative length field cast to size_t) cannot wrap the check.
  std::string_view read_bytes(size_t n) {
    if (n > remaining()) {
      throw FormatError("truncated read of " + std::to_string(n) +
                        " bytes at offset " + std::to_string(pos_));
    }
    std::string_view v = data_.substr(pos_, n);
    pos_ += n;
    return v;
  }

  /// Reads a NUL-terminated string (consumes the NUL).
  std::string_view read_cstr() {
    size_t end = data_.find('\0', pos_);
    if (end == std::string_view::npos) {
      throw FormatError("unterminated string at offset " +
                        std::to_string(pos_));
    }
    std::string_view v = data_.substr(pos_, end - pos_);
    pos_ = end + 1;
    return v;
  }

  void skip(size_t n) {
    if (n > remaining()) {
      throw FormatError("skip past end of buffer");
    }
    pos_ += n;
  }

  size_t pos() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool eof() const { return pos_ >= data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Positioned (pread-style) file access.
// ---------------------------------------------------------------------------

/// Read-only random-access view of a file. Thread-compatible: concurrent
/// reads through distinct InputFile instances (or pread on the same
/// instance) are safe, which is what the per-rank converter loops rely on.
class InputFile {
 public:
  explicit InputFile(const std::string& path);
  ~InputFile();

  InputFile(const InputFile&) = delete;
  InputFile& operator=(const InputFile&) = delete;
  InputFile(InputFile&& other) noexcept;
  InputFile& operator=(InputFile&& other) noexcept;

  /// Total file size in bytes.
  uint64_t size() const { return size_; }
  const std::string& path() const { return path_; }

  /// Reads up to `n` bytes at absolute `offset` into `buf`; returns the
  /// number of bytes read. Short returns happen only when the request
  /// crosses EOF; a short read *inside* the known file extent (truncation
  /// underneath us, or an injected short-read fault) throws IoError so a
  /// reader can never mistake a damaged file for a complete one.
  size_t pread(void* buf, size_t n, uint64_t offset) const;

  /// Reads exactly `n` bytes at `offset`; throws IoError on short read.
  void pread_exact(void* buf, size_t n, uint64_t offset) const;

  /// Convenience: reads [offset, offset+n) into a string (short at EOF).
  std::string read_at(uint64_t offset, size_t n) const;

 private:
  int fd_ = -1;
  uint64_t size_ = 0;
  std::string path_;
};

/// Buffered sequential file writer (append-only).
///
/// Commit::kAtomic (the default) makes the output crash-safe: bytes are
/// written to "<path>.tmp.<pid>" and close() publishes them with
/// flush + fsync + close + rename. Until close() succeeds, nothing is ever
/// visible under the final name; on any failure (or on destruction without
/// close()) the staging file is removed. Commit::kDirect writes `path`
/// in place for callers that explicitly do not want the rename step.
class OutputFile {
 public:
  enum class Commit { kDirect, kAtomic };

  explicit OutputFile(const std::string& path, size_t buffer_bytes = 1 << 20,
                      Commit commit = Commit::kAtomic);

  /// Unclosed destruction is a rollback, not a commit: atomic-mode staging
  /// files are unlinked (a crash mid-write leaves nothing behind). In
  /// debug builds, destroying an OutputFile that saw no error without
  /// calling close() or discard() trips an assert — close() is mandatory.
  ~OutputFile();

  OutputFile(const OutputFile&) = delete;
  OutputFile& operator=(const OutputFile&) = delete;

  void write(std::string_view data);
  void write(const void* data, size_t n);

  /// Flushes the userspace buffer to the OS.
  void flush();

  /// Overwrites already-written bytes at `offset` (flushes first). Used by
  /// writers that finalize a header field (record counts) before commit,
  /// so the patch lands in the staging file and the rename publishes a
  /// complete, internally consistent file.
  void patch_at(uint64_t offset, std::string_view data);

  /// Flushes, fsyncs (atomic mode), closes, and renames the staging file
  /// into place (atomic mode). Throws IoError on any failure — and in that
  /// case removes the staging file first, so a failed close never leaks a
  /// temp or a partial final file. Idempotent after success or failure.
  void close();

  /// Abandons the output: closes the descriptor and removes the file
  /// (staging or in-place). Never throws. Idempotent.
  void discard() noexcept;

  /// Bytes written so far (including still-buffered bytes).
  uint64_t bytes_written() const { return bytes_written_; }

  /// Final destination path (what close() publishes).
  const std::string& path() const { return path_; }

  /// Where bytes physically land before commit (equals path() in kDirect).
  const std::string& staging_path() const { return staging_; }

 private:
  void write_physical(const char* data, size_t n);

  int fd_ = -1;
  std::string buffer_;
  size_t buffer_cap_;
  uint64_t bytes_written_ = 0;
  uint64_t physical_bytes_ = 0;  // bytes handed to the OS (ENOSPC accounting)
  std::string path_;     // final destination
  std::string staging_;  // open file ( == path_ in kDirect mode)
  Commit commit_;
  bool finalized_ = false;   // close() or discard() completed
  bool error_seen_ = false;  // a write/close failed; destructor stays quiet
};

/// Reads an entire file into a string. Throws IoError on failure.
std::string read_file(const std::string& path);

/// Writes `data` to `path`, replacing any existing contents atomically.
void write_file(const std::string& path, std::string_view data);

/// Returns the size of the file at `path` in bytes.
uint64_t file_size(const std::string& path);

}  // namespace ngsx
