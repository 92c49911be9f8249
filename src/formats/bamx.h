// ngsx/formats/bamx.h
//
// BAMX (BAM eXtended) and BAIX (BAI eXtended): the two file formats
// *introduced by the paper* (§III-B). BAMX stores each alignment in a
// fixed-stride record whose varying-length fields (read name, CIGAR, bases,
// qualities, aux data) are padded to per-file maxima, so record i lives at
// a computable offset and can be fetched with one positioned read — this is
// what makes the parallel conversion phase embarrassingly parallel. BAIX is
// the companion index: (reference, starting position, record index) entries
// sorted by position, enabling *partial conversion* of a genomic region via
// binary search.
//
// The per-file maxima are discovered by a measuring pass (the paper's
// preprocessing); BamxLayout captures them and derives the field offsets.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "formats/sam.h"
#include "util/binio.h"

namespace ngsx::bamx {

/// Fixed per-file field capacities and the derived record stride/offsets.
struct BamxLayout {
  uint32_t max_qname = 0;   // name length, excluding NUL
  uint32_t max_cigar = 0;   // number of CIGAR operations
  uint32_t max_seq = 0;     // bases
  uint32_t max_aux = 0;     // encoded aux bytes

  /// Grows the capacities to accommodate `rec` (the measuring pass).
  void accommodate(const sam::AlignmentRecord& rec);

  /// Merges another layout (used when combining per-rank measurements).
  void merge(const BamxLayout& other);

  /// True if `rec` fits within the capacities.
  bool fits(const sam::AlignmentRecord& rec) const;

  // Derived geometry. The fixed-width scalar prefix is 36 bytes; see
  // bamx.cpp for the field map. Stride is rounded up to 8 bytes so records
  // stay naturally aligned (the "layout regularity" the paper credits for
  // its MPI-IO behaviour).
  uint64_t qname_offset() const { return 36; }
  uint64_t cigar_offset() const { return qname_offset() + max_qname; }
  uint64_t seq_offset() const { return cigar_offset() + 4ull * max_cigar; }
  uint64_t qual_offset() const { return seq_offset() + (max_seq + 1) / 2; }
  uint64_t aux_offset() const { return qual_offset() + max_seq; }
  uint64_t stride() const {
    uint64_t raw = aux_offset() + max_aux;
    return (raw + 7) / 8 * 8;
  }

  bool operator==(const BamxLayout&) const = default;
};

/// Encodes `rec` into exactly `layout.stride()` bytes appended to `out`.
/// Throws UsageError if `rec` does not fit the layout.
void encode_record(const sam::AlignmentRecord& rec, const BamxLayout& layout,
                   std::string& out);

/// Re-encodes the record bytes `src` (exactly `from.stride()` bytes, encoded
/// under layout `from`) as the byte sequence encode_record would have
/// produced under layout `to`, appending exactly `to.stride()` bytes to
/// `out`. Requires every capacity of `to` to be >= the corresponding
/// capacity of `from` (e.g. `to` obtained by merging `from` into it). This
/// is what lets a parallel preprocessor encode with chunk-local layouts and
/// cheaply re-stride to the global layout afterwards, without re-parsing:
/// each padded section is field bytes followed by zeros, so a section copy
/// into a zeroed destination reproduces the direct encoding bit-for-bit.
void restride_record(std::string_view src, const BamxLayout& from,
                     const BamxLayout& to, std::string& out);

/// Decodes the fixed-stride record at `body` (exactly stride bytes).
void decode_record(std::string_view body, const BamxLayout& layout,
                   sam::AlignmentRecord& rec);

/// Sequential BAMX writer. The layout must be known up front (from the
/// measuring pass); records are validated against it.
class BamxWriter {
 public:
  BamxWriter(const std::string& path, const sam::SamHeader& header,
             const BamxLayout& layout);

  void write(const sam::AlignmentRecord& rec);

  /// Appends one already-encoded record (exactly `layout.stride()` bytes,
  /// encoded under this writer's layout). The re-stride path of the
  /// parallel preprocessor uses this to avoid decode/encode round trips.
  void write_raw(std::string_view encoded);

  uint64_t records_written() const { return n_records_; }

  /// Finalizes the record count in the file header and closes.
  void close();

 private:
  std::string path_;
  BamxLayout layout_;
  std::unique_ptr<OutputFile> out_;
  std::string scratch_;
  uint64_t n_records_ = 0;
  uint64_t count_field_offset_ = 0;
  bool closed_ = false;
};

// ---------------------------------------------------------------------------
// Shard manifest (BAMXM)
// ---------------------------------------------------------------------------

/// One shard of a sharded BAMX dataset: a plain BAMX file holding the
/// contiguous global records [record_base, record_base + n_records).
struct ManifestShard {
  std::string path;  // relative to the manifest's directory on disk
  uint64_t n_records = 0;
  uint64_t record_base = 0;

  bool operator==(const ManifestShard&) const = default;
};

/// A BAMX shard manifest ("BAMXM\x01", docs/FILEFORMATS.md): the global
/// layout every shard was (re-)strided to, the total record count, and the
/// ordered shard list. Produced by the parallel single-pass preprocessor;
/// consumed by RecordSource.
struct BamxManifest {
  BamxLayout layout;
  uint64_t n_records = 0;
  std::vector<ManifestShard> shards;

  /// Atomic write. Shard paths are stored as given (they should be
  /// relative names of files living next to the manifest).
  void save(const std::string& path) const;

  /// Loads and validates: magic/version/stride, contiguous record bases
  /// summing to n_records. Shard paths stay relative; resolve against the
  /// manifest's directory (RecordSource does).
  static BamxManifest load(const std::string& path);

  bool operator==(const BamxManifest&) const = default;
};

/// Random-access view over preprocessed records: what the conversion phase
/// actually requires of its input. Opened from a path whose magic is
/// sniffed: a BAMXM manifest opens as its M shards, a lone BAMX file as a
/// one-shard set. Every shard carries the same layout, so global record i
/// lives at a computable offset inside its shard and is fetched with one
/// positioned read. Anything else throws FormatError naming the path and
/// the sniffed magic bytes (hex), so a truncated or mistyped input is
/// diagnosable from the message alone.
///
/// Thread-safety contract (relied on by the serving daemon, which issues
/// many concurrent region queries against ONE shared source): every method
/// is const, no mutable cursor or shared scratch is held, and all file
/// access is positioned (pread). Concurrent calls to any mix of methods on
/// the same instance are safe; the geometry accessors return references to
/// state that is immutable after construction.
class RecordSource {
 public:
  explicit RecordSource(const std::string& path);

  const sam::SamHeader& header() const { return header_; }
  const BamxLayout& layout() const { return layout_; }
  uint64_t num_records() const { return bases_.back(); }
  size_t num_shards() const { return shards_.size(); }

  /// Appends the still-encoded bytes of records [begin, end) — exactly
  /// (end - begin) * stride bytes, byte-identical to the concatenated
  /// on-disk record sections — to `out`. ConversionSession::fetch reads
  /// each run of consecutive records this way and decodes them one at a
  /// time, so a run costs one read per shard it crosses and holds no
  /// decoded objects. Record i alone is read_raw_range(i, i + 1) plus
  /// decode_record: random access, the property BAMX exists for.
  void read_raw_range(uint64_t begin, uint64_t end, std::string& out) const;

 private:
  struct Shard {
    InputFile file;
    uint64_t data_offset = 0;  // first record byte
  };

  /// Index of the shard holding global record `i`.
  size_t shard_of(uint64_t i) const;

  sam::SamHeader header_;  // the first shard's
  BamxLayout layout_;
  std::vector<Shard> shards_;
  std::vector<uint64_t> bases_;  // shards_[k] starts at bases_[k]; +1 sentinel
};

// ---------------------------------------------------------------------------
// BAIX
// ---------------------------------------------------------------------------

/// One BAIX entry: where an alignment starts and which BAMX record holds it.
struct BaixEntry {
  int32_t ref_id = -1;
  int32_t pos = -1;
  uint64_t record_index = 0;

  bool operator==(const BaixEntry&) const = default;
};

/// The BAIX index order: (ref_id compared as unsigned, pos), so unplaced
/// (-1) entries sort last, matching samtools. Exposed so parallel index
/// builders can merge pre-sorted runs under exactly this order.
bool baix_entry_less(const BaixEntry& a, const BaixEntry& b);

/// The BAIX index as built in memory: entries sorted by (ref_id, pos). The
/// preprocessor builds and saves it; region queries read the saved file
/// through BaixReader instead of loading it.
class BaixIndex {
 public:
  BaixIndex() = default;

  /// Builds the index from entries collected elsewhere (e.g. during a BAMX
  /// encode pass); sorts them by (ref_id, pos).
  static BaixIndex from_entries(std::vector<BaixEntry> entries);

  /// Adopts `entries` that are already in the index order from_entries
  /// would produce: (ref_id as unsigned, pos), ties in insertion order.
  /// Used by the parallel preprocessor, whose per-chunk sorted runs are
  /// merged on the execution pool instead of re-sorted here. Checks the
  /// ordering (O(n)) and throws UsageError if violated.
  static BaixIndex from_sorted_entries(std::vector<BaixEntry> entries);

  void save(const std::string& path) const;

  size_t size() const { return entries_.size(); }
  const BaixEntry& entry(size_t i) const { return entries_[i]; }
  const std::vector<BaixEntry>& entries() const { return entries_; }

  bool operator==(const BaixIndex&) const = default;

 private:
  std::vector<BaixEntry> entries_;
};

/// A saved BAIX v1 file, searched where it lies (the paper's
/// partial-conversion lookup): a region query is two binary searches over
/// the fixed 16-byte entries, which are read through a cache of 4 KiB pages
/// (256 entries each). A cold query reads the O(log n) pages its searches
/// touch plus the answer's pages; a long-lived reader ends up with every
/// page it needs cached and does no index I/O at all.
///
/// The constructor checks the magic, the version and that `n_entries`
/// fits the file, before anything is sized from it (FormatError
/// otherwise). Thread-safety: every method is const and safe to call
/// concurrently; each page is read once with pread_exact and published
/// with one atomic compare-exchange, so racing readers of a missing page
/// both read it and one copy wins.
class BaixReader {
 public:
  explicit BaixReader(const std::string& path);
  ~BaixReader();

  BaixReader(const BaixReader&) = delete;
  BaixReader& operator=(const BaixReader&) = delete;

  size_t size() const { return n_entries_; }

  /// Entry `i` (< size()).
  BaixEntry entry(size_t i) const;

  /// Entries [first, last) (last <= size()), in index order; the pages not
  /// cached yet are read with one positioned read.
  std::vector<BaixEntry> entries(size_t first, size_t last) const;

  /// [first, last) entry indices with ref_id == ref and pos in [beg, end):
  /// two lower bounds under baix_entry_less.
  std::pair<size_t, size_t> query(int32_t ref, int32_t beg, int32_t end) const;

 private:
  /// The cached page `k`, reading it first if needed.
  const BaixEntry* page(size_t k) const;

  /// Reads pages [first, last) with one positioned read and publishes each
  /// one that is still missing.
  void load_pages(size_t first, size_t last) const;

  InputFile file_;
  size_t n_entries_ = 0;
  size_t n_pages_ = 0;
  std::unique_ptr<std::atomic<const BaixEntry*>[]> pages_;
};

}  // namespace ngsx::bamx
