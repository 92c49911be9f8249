// ngsx/formats/bam.h
//
// BAM (Binary Alignment/Map) codec per SAM spec v1.4-r985 §4: the
// little-endian binary record layout layered on BGZF. Provides record-level
// encode/decode plus streaming reader/writer classes. Like the BamTools
// library the paper used, the reader is inherently sequential — record
// boundaries are only discoverable by decoding lengths — which is exactly
// the constraint that motivates the paper's BAMX preprocessing.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "formats/bgzf.h"
#include "formats/sam.h"

namespace ngsx::bam {

/// UCSC binning scheme (SAM spec §4.2.1): bin number for the half-open
/// zero-based interval [beg, end).
int32_t reg2bin(int32_t beg, int32_t end);

/// Appends the BAM wire encoding of `tags` (SAM spec §4.2.4) to `out`.
/// Every integer value is written as type 'i' (int32). BAMX stores its aux
/// section in this same encoding.
void encode_aux(const std::vector<sam::AuxField>& tags, std::string& out);

/// Replaces `tags` with the aux fields BAM-encoded in `bytes` (all of it).
void decode_aux(std::string_view bytes, std::vector<sam::AuxField>& tags);

/// Encodes `rec` as a BAM record (including the leading block_size field)
/// appended to `out`.
void encode_record(const sam::AlignmentRecord& rec, std::string& out);

/// Decodes one BAM record from `data` (the record body, *without* the
/// block_size field) into `rec`.
void decode_record(std::string_view body, sam::AlignmentRecord& rec);

/// Serializes the BAM header section (magic, text, reference dictionary).
void encode_header(const sam::SamHeader& header, std::string& out);

/// Streaming BAM writer over BGZF. `threads` > 1 deflates BGZF blocks on
/// that many workers (bgzf::Writer); the file bytes do not depend on it.
class BamFileWriter {
 public:
  BamFileWriter(const std::string& path, const sam::SamHeader& header,
                int compression_level = 6, int threads = 1);

  void write(const sam::AlignmentRecord& rec);

  void close();

  /// Compressed bytes committed so far; exact after close().
  uint64_t compressed_bytes() const { return out_.compressed_bytes(); }

 private:
  bgzf::Writer out_;
  std::string scratch_;
};

/// Streaming BAM reader over BGZF. Record framing is sequential by
/// construction, but block *inflation* need not be: `decode_threads` > 1
/// inflates BGZF blocks on that many bgzf::Reader workers, overlapping
/// decompression with record decoding (0 = auto-detect hardware width,
/// 1 = inline decode, negative throws UsageError). seek() is only valid
/// with virtual offsets from tell() or a BAI index either way.
class BamFileReader {
 public:
  explicit BamFileReader(const std::string& path, int decode_threads = 1);

  const sam::SamHeader& header() const { return header_; }

  /// Virtual offset of the next record (valid to seek back to).
  uint64_t tell() { return in_.tell(); }

  void seek(uint64_t voffset) { in_.seek(voffset); }

  /// Decodes the next record; returns false at EOF.
  bool next(sam::AlignmentRecord& rec);

  /// Reads the next *raw* record body (without block_size) into `body`;
  /// returns false at EOF. Lets callers defer or skip decoding.
  bool next_raw(std::string& body);

 private:
  bgzf::Reader in_;
  sam::SamHeader header_;
  std::string body_;
};

}  // namespace ngsx::bam
