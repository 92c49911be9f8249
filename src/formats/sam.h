// ngsx/formats/sam.h
//
// SAM (Sequence Alignment/Map) data model and text codec, implemented from
// scratch against the SAM/BAM specification v1.4-r985 (the version the paper
// cites). The AlignmentRecord defined here is the converter framework's
// "alignment object": every input parser produces it and every target
// formatter consumes it.

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/binio.h"
#include "util/common.h"

namespace ngsx::sam {

// ---------------------------------------------------------------------------
// Flags (SAM spec §1.4, field 2).
// ---------------------------------------------------------------------------
enum Flag : uint16_t {
  kPaired = 0x1,
  kProperPair = 0x2,
  kUnmapped = 0x4,
  kMateUnmapped = 0x8,
  kReverse = 0x10,
  kMateReverse = 0x20,
  kRead1 = 0x40,
  kRead2 = 0x80,
  kSecondary = 0x100,
  kQcFail = 0x200,
  kDuplicate = 0x400,
  kSupplementary = 0x800,
};

// ---------------------------------------------------------------------------
// CIGAR.
// ---------------------------------------------------------------------------

/// One CIGAR operation. `op` is the SAM op character, one of "MIDNSHP=X".
struct CigarOp {
  char op = 'M';
  uint32_t len = 0;

  bool operator==(const CigarOp&) const = default;

  /// True if the op consumes reference bases (M, D, N, =, X).
  bool consumes_reference() const {
    return op == 'M' || op == 'D' || op == 'N' || op == '=' || op == 'X';
  }
  /// True if the op consumes query (read) bases (M, I, S, =, X).
  bool consumes_query() const {
    return op == 'M' || op == 'I' || op == 'S' || op == '=' || op == 'X';
  }
};

/// Index of `op` in the BAM encoding table "MIDNSHP=X"; throws FormatError
/// for an unknown op.
uint32_t cigar_op_code(char op);

/// Inverse of cigar_op_code.
char cigar_op_char(uint32_t code);

// ---------------------------------------------------------------------------
// Optional (auxiliary) fields.
// ---------------------------------------------------------------------------

/// One optional field TAG:TYPE:VALUE. SAM-level types are A (char),
/// i (integer), f (float), Z (string), H (hex string), B (numeric array).
/// For B, `subtype` is one of cCsSiIf and selects the array element type.
struct AuxField {
  std::array<char, 2> tag{{'X', 'X'}};
  char type = 'i';
  char subtype = 0;            // only for B
  int64_t int_value = 0;       // A (as char code) and i
  double float_value = 0.0;    // f
  std::string str_value;       // Z and H
  std::vector<int64_t> int_array;    // B with integer subtype
  std::vector<double> float_array;   // B with subtype f

  bool operator==(const AuxField&) const = default;
};

// ---------------------------------------------------------------------------
// Header.
// ---------------------------------------------------------------------------

/// One reference sequence from @SQ (or the BAM reference dictionary).
struct Reference {
  std::string name;
  int64_t length = 0;

  bool operator==(const Reference&) const = default;
};

/// Parsed SAM header: the raw text (comment lines, each starting with '@',
/// newline-terminated) plus the reference dictionary extracted from @SQ
/// lines. BAM stores both redundantly; we keep them consistent.
class SamHeader {
 public:
  SamHeader() = default;

  /// Builds a header from a reference dictionary, synthesizing @HD/@SQ text.
  static SamHeader from_references(std::vector<Reference> refs);

  /// Parses header text (every line must start with '@').
  static SamHeader from_text(std::string_view text);

  const std::string& text() const { return text_; }
  const std::vector<Reference>& references() const { return refs_; }

  /// Reference id for `name`, or -1 if unknown.
  int32_t ref_id(std::string_view name) const;

  /// Name of reference `id`; "*" for -1. Throws for other invalid ids.
  std::string_view ref_name(int32_t id) const;

  /// Length of reference `id`.
  int64_t ref_length(int32_t id) const;

  bool operator==(const SamHeader& o) const {
    return text_ == o.text_ && refs_ == o.refs_;
  }

 private:
  void index_refs();

  std::string text_;
  std::vector<Reference> refs_;
  std::unordered_map<std::string, int32_t> ref_ids_;
};

// ---------------------------------------------------------------------------
// Alignment record.
// ---------------------------------------------------------------------------

/// The in-memory alignment object shared by every converter. Positions are
/// 0-based internally (BAM convention); the SAM text codec applies the
/// 1-based shift. `ref_id`/`mate_ref_id` of -1 mean "*"; `pos`/`mate_pos`
/// of -1 mean unavailable. Empty `seq`/`qual` mean "*".
struct AlignmentRecord {
  std::string qname;
  uint16_t flag = 0;
  int32_t ref_id = -1;
  int32_t pos = -1;
  uint8_t mapq = 0;
  std::vector<CigarOp> cigar;
  int32_t mate_ref_id = -1;
  int32_t mate_pos = -1;
  int32_t tlen = 0;
  std::string seq;
  std::string qual;  // ASCII Phred+33, same length as seq when present
  std::vector<AuxField> tags;

  bool operator==(const AlignmentRecord&) const = default;

  bool is_unmapped() const { return (flag & kUnmapped) != 0; }
  bool is_reverse() const { return (flag & kReverse) != 0; }
  bool is_paired() const { return (flag & kPaired) != 0; }
  bool is_mate_unmapped() const { return (flag & kMateUnmapped) != 0; }
  bool is_read1() const { return (flag & kRead1) != 0; }
  bool is_read2() const { return (flag & kRead2) != 0; }
  bool is_secondary() const { return (flag & kSecondary) != 0; }
  bool is_supplementary() const { return (flag & kSupplementary) != 0; }
  /// Primary alignment line: neither secondary nor supplementary. Only
  /// primary lines participate in mate pairing (SAM spec §1.4: each read
  /// of a template has exactly one primary line).
  bool is_primary() const {
    return (flag & (kSecondary | kSupplementary)) == 0;
  }
  bool is_duplicate() const { return (flag & kDuplicate) != 0; }

  /// Number of reference bases consumed by the CIGAR (0 when unmapped or
  /// CIGAR is "*").
  int64_t reference_span() const;

  /// 0-based exclusive end position on the reference (pos + span, with a
  /// minimum span of 1 so unmapped-at-position records still bin sensibly).
  int32_t end_pos() const;

  /// Alignment start extended back through leading soft/hard clips — the
  /// position the read would start at had the aligner not clipped it. This
  /// (with unclipped_end) is the coordinate duplicate marking keys on: PCR
  /// duplicates of one fragment can differ in clipping but share unclipped
  /// 5' ends. May be negative for reads clipped past the reference start.
  int32_t unclipped_start() const;

  /// Exclusive alignment end extended through trailing soft/hard clips.
  int32_t unclipped_end() const;

  /// Pointer to the aux field with `tag`, or nullptr.
  const AuxField* find_tag(std::string_view tag) const;
};

// ---------------------------------------------------------------------------
// Text codec.
// ---------------------------------------------------------------------------

/// The one body-line rule every SAM reader applies after the header:
/// false for a whitespace-only line (skipped), true for a line to hand to
/// parse_record. A header line ('@') after the header is a FormatError:
/// SAM header lines must precede every alignment.
bool is_alignment_line(std::string_view line);

/// Parses one alignment line (no trailing newline) into `out`.
/// Throws FormatError on malformed input or unknown reference names.
void parse_record(std::string_view line, const SamHeader& header,
                  AlignmentRecord& out);

/// Formats `rec` as one SAM alignment line (no trailing newline) appended
/// to `out`.
void format_record(const AlignmentRecord& rec, const SamHeader& header,
                   std::string& out);

/// Parses a CIGAR string ("*" yields an empty vector).
std::vector<CigarOp> parse_cigar(std::string_view s);

/// Formats a CIGAR ("*" when empty).
void format_cigar(const std::vector<CigarOp>& cigar, std::string& out);

/// Parses one optional field "TAG:TYPE:VALUE".
AuxField parse_aux(std::string_view field);

/// Formats one optional field.
void format_aux(const AuxField& aux, std::string& out);

/// Reverse-complements a nucleotide sequence (ACGTN and IUPAC codes).
std::string reverse_complement(std::string_view seq);

// ---------------------------------------------------------------------------
// Whole-file helpers.
// ---------------------------------------------------------------------------

/// Streaming SAM reader over a text file: parses the header eagerly, then
/// yields records one at a time. Used by the sequential tools; the parallel
/// converter reads byte ranges directly instead.
class SamFileReader {
 public:
  explicit SamFileReader(const std::string& path);

  const SamHeader& header() const { return header_; }

  /// Reads the next record; returns false at EOF.
  bool next(AlignmentRecord& out);

  /// Byte offset where alignment lines begin (end of the header).
  uint64_t alignment_start_offset() const { return body_offset_; }

 private:
  bool fill();

  std::string path_;
  std::string buffer_;
  size_t buffer_pos_ = 0;
  uint64_t file_pos_ = 0;
  uint64_t body_offset_ = 0;
  uint64_t file_size_ = 0;
  SamHeader header_;
  std::unique_ptr<InputFile> file_;
};

/// Writes a complete SAM file: header text then one line per record.
class SamFileWriter {
 public:
  SamFileWriter(const std::string& path, const SamHeader& header);

  void write(const AlignmentRecord& rec);
  void close();
  uint64_t bytes_written() const;

 private:
  SamHeader header_;
  std::string line_;
  std::unique_ptr<OutputFile> out_;
};

}  // namespace ngsx::sam
