#include "formats/bamx.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <ranges>

#include "formats/bam.h"
#include "formats/seqcodec.h"

namespace ngsx::bamx {

using sam::AlignmentRecord;
using sam::AuxField;
using sam::SamHeader;

// Fixed-width scalar prefix of every BAMX record (36 bytes):
//   off  0  i32  ref_id
//   off  4  i32  pos
//   off  8  u16  flag
//   off 10  u8   mapq
//   off 11  u8   (reserved, zero)
//   off 12  i32  mate_ref_id
//   off 16  i32  mate_pos
//   off 20  i32  tlen
//   off 24  u16  qname_len   (excluding NUL)
//   off 26  u16  n_cigar
//   off 28  u32  seq_len
//   off 32  u32  aux_len
// Variable (padded) sections follow at layout-derived offsets:
//   qname[max_qname], cigar u32[max_cigar], seq 4-bit[(max_seq+1)/2],
//   qual u8[max_seq], aux u8[max_aux], zero pad to stride.

namespace {

constexpr std::string_view kBamxMagic{"BAMX\1", 5};
constexpr std::string_view kBaixMagic{"BAIX\1", 5};
constexpr std::string_view kManifestMagic{"BAMXM\1", 6};
constexpr uint16_t kVersion = 1;

size_t measure_aux_bytes(const std::vector<AuxField>& tags) {
  std::string tmp;
  bam::encode_aux(tags, tmp);
  return tmp.size();
}

}  // namespace

// -------------------------------------------------------------------- layout

void BamxLayout::accommodate(const AlignmentRecord& rec) {
  max_qname = std::max(max_qname, static_cast<uint32_t>(rec.qname.size()));
  max_cigar = std::max(max_cigar, static_cast<uint32_t>(rec.cigar.size()));
  max_seq = std::max(max_seq, static_cast<uint32_t>(rec.seq.size()));
  max_aux =
      std::max(max_aux, static_cast<uint32_t>(measure_aux_bytes(rec.tags)));
}

void BamxLayout::merge(const BamxLayout& other) {
  max_qname = std::max(max_qname, other.max_qname);
  max_cigar = std::max(max_cigar, other.max_cigar);
  max_seq = std::max(max_seq, other.max_seq);
  max_aux = std::max(max_aux, other.max_aux);
}

bool BamxLayout::fits(const AlignmentRecord& rec) const {
  return rec.qname.size() <= max_qname && rec.cigar.size() <= max_cigar &&
         rec.seq.size() <= max_seq && measure_aux_bytes(rec.tags) <= max_aux;
}

// -------------------------------------------------------------------- encode

void encode_record(const AlignmentRecord& rec, const BamxLayout& layout,
                   std::string& out) {
  if (!layout.fits(rec)) {
    throw UsageError("record '" + rec.qname + "' exceeds BAMX layout");
  }
  size_t base = out.size();
  out.resize(base + layout.stride(), '\0');
  char* p = out.data() + base;

  auto put = [&](size_t off, auto v) { std::memcpy(p + off, &v, sizeof(v)); };

  put(0, rec.ref_id);
  put(4, rec.pos);
  put(8, rec.flag);
  p[10] = static_cast<char>(rec.mapq);
  put(12, rec.mate_ref_id);
  put(16, rec.mate_pos);
  put(20, rec.tlen);
  put(24, static_cast<uint16_t>(rec.qname.size()));
  put(26, static_cast<uint16_t>(rec.cigar.size()));
  put(28, static_cast<uint32_t>(rec.seq.size()));

  std::memcpy(p + layout.qname_offset(), rec.qname.data(), rec.qname.size());

  char* cig = p + layout.cigar_offset();
  for (size_t i = 0; i < rec.cigar.size(); ++i) {
    uint32_t packed =
        (rec.cigar[i].len << 4) | sam::cigar_op_code(rec.cigar[i].op);
    std::memcpy(cig + 4 * i, &packed, 4);
  }

  seqcodec::pack_seq_into(rec.seq, p + layout.seq_offset());

  char* qual = p + layout.qual_offset();
  if (rec.qual.empty()) {
    std::memset(qual, 0xFF, rec.seq.size());
  } else {
    seqcodec::ascii_to_quals(rec.qual, qual);
  }

  std::string aux;
  bam::encode_aux(rec.tags, aux);
  put(32, static_cast<uint32_t>(aux.size()));
  std::memcpy(p + layout.aux_offset(), aux.data(), aux.size());
}

void restride_record(std::string_view src, const BamxLayout& from,
                     const BamxLayout& to, std::string& out) {
  NGSX_CHECK_MSG(src.size() == from.stride(),
                 "restride source is not one source-layout record");
  NGSX_CHECK_MSG(to.max_qname >= from.max_qname &&
                     to.max_cigar >= from.max_cigar &&
                     to.max_seq >= from.max_seq && to.max_aux >= from.max_aux,
                 "restride target layout does not cover source layout");
  size_t base = out.size();
  out.resize(base + to.stride(), '\0');
  char* p = out.data() + base;
  const char* s = src.data();
  // Each padded section of `src` is its field bytes followed by zeros (or
  // the qual section's 0xFF absent-quality fill, confined to seq_len <=
  // max_seq bytes), so copying whole source sections into the zeroed
  // destination reproduces encode_record's bytes under `to` exactly.
  std::memcpy(p, s, 36);
  std::memcpy(p + to.qname_offset(), s + from.qname_offset(), from.max_qname);
  std::memcpy(p + to.cigar_offset(), s + from.cigar_offset(),
              4ull * from.max_cigar);
  std::memcpy(p + to.seq_offset(), s + from.seq_offset(),
              (from.max_seq + 1) / 2);
  std::memcpy(p + to.qual_offset(), s + from.qual_offset(), from.max_seq);
  std::memcpy(p + to.aux_offset(), s + from.aux_offset(), from.max_aux);
}

// -------------------------------------------------------------------- decode

void decode_record(std::string_view body, const BamxLayout& layout,
                   AlignmentRecord& rec) {
  if (body.size() < layout.stride()) {
    throw FormatError("BAMX record shorter than stride");
  }
  const char* p = body.data();
  auto get = [&](size_t off, auto& v) { std::memcpy(&v, p + off, sizeof(v)); };

  get(0, rec.ref_id);
  get(4, rec.pos);
  get(8, rec.flag);
  rec.mapq = static_cast<uint8_t>(p[10]);
  get(12, rec.mate_ref_id);
  get(16, rec.mate_pos);
  get(20, rec.tlen);
  uint16_t qname_len;
  uint16_t n_cigar;
  uint32_t seq_len;
  uint32_t aux_len;
  get(24, qname_len);
  get(26, n_cigar);
  get(28, seq_len);
  get(32, aux_len);

  if (qname_len > layout.max_qname || n_cigar > layout.max_cigar ||
      seq_len > layout.max_seq || aux_len > layout.max_aux) {
    throw FormatError("BAMX record lengths exceed file layout");
  }

  rec.qname.assign(p + layout.qname_offset(), qname_len);

  rec.cigar.clear();
  rec.cigar.reserve(n_cigar);
  const char* cig = p + layout.cigar_offset();
  for (uint16_t i = 0; i < n_cigar; ++i) {
    uint32_t packed;
    std::memcpy(&packed, cig + 4 * i, 4);
    rec.cigar.push_back(
        sam::CigarOp{sam::cigar_op_char(packed & 0xF), packed >> 4});
  }

  seqcodec::unpack_seq(p + layout.seq_offset(), seq_len, rec.seq);

  const char* qual = p + layout.qual_offset();
  rec.qual.clear();
  if (seq_len > 0 && static_cast<uint8_t>(qual[0]) != 0xFF) {
    seqcodec::quals_to_ascii(qual, seq_len, rec.qual);
  }

  // The aux section uses BAM aux encoding.
  bam::decode_aux(std::string_view(p + layout.aux_offset(), aux_len),
                  rec.tags);
}

// ---------------------------------------------------------------- BamxWriter

BamxWriter::BamxWriter(const std::string& path, const SamHeader& header,
                       const BamxLayout& layout)
    : path_(path), layout_(layout), out_(std::make_unique<OutputFile>(path)) {
  std::string head;
  head += kBamxMagic;
  binio::put_le<uint16_t>(head, kVersion);
  binio::put_le<uint32_t>(head, layout.max_qname);
  binio::put_le<uint32_t>(head, layout.max_cigar);
  binio::put_le<uint32_t>(head, layout.max_seq);
  binio::put_le<uint32_t>(head, layout.max_aux);
  binio::put_le<uint64_t>(head, layout.stride());
  count_field_offset_ = head.size();
  binio::put_le<uint64_t>(head, 0);  // n_records, patched on close
  std::string blob;
  bam::encode_header(header, blob);
  binio::put_le<uint64_t>(head, blob.size());
  head += blob;
  out_->write(head);
}

void BamxWriter::write(const AlignmentRecord& rec) {
  NGSX_CHECK_MSG(!closed_, "write on closed BAMX writer");
  scratch_.clear();
  encode_record(rec, layout_, scratch_);
  out_->write(scratch_);
  ++n_records_;
}

void BamxWriter::write_raw(std::string_view encoded) {
  NGSX_CHECK_MSG(!closed_, "write on closed BAMX writer");
  NGSX_CHECK_MSG(encoded.size() == layout_.stride(),
                 "raw BAMX record does not match the writer's stride");
  out_->write(encoded);
  ++n_records_;
}

void BamxWriter::close() {
  if (closed_) {
    return;
  }
  closed_ = true;
  // Patch the record count into the staging file *before* commit, so the
  // rename can only ever publish a complete, internally consistent BAMX.
  // (The old reopen-and-patch-after-close left a window where a crash
  // committed a final-named file with n_records = 0.)
  try {
    std::string count;
    binio::put_le<uint64_t>(count, n_records_);
    out_->patch_at(count_field_offset_, count);
    out_->close();
  } catch (...) {
    out_->discard();
    throw;
  }
}

// -------------------------------------------------------------- BamxManifest

void BamxManifest::save(const std::string& path) const {
  std::string out;
  out += kManifestMagic;
  binio::put_le<uint16_t>(out, kVersion);
  binio::put_le<uint32_t>(out, layout.max_qname);
  binio::put_le<uint32_t>(out, layout.max_cigar);
  binio::put_le<uint32_t>(out, layout.max_seq);
  binio::put_le<uint32_t>(out, layout.max_aux);
  binio::put_le<uint64_t>(out, layout.stride());
  binio::put_le<uint64_t>(out, n_records);
  binio::put_le<uint32_t>(out, static_cast<uint32_t>(shards.size()));
  for (const ManifestShard& s : shards) {
    binio::put_le<uint64_t>(out, s.n_records);
    binio::put_le<uint64_t>(out, s.record_base);
    NGSX_CHECK_MSG(s.path.size() <= UINT16_MAX, "manifest shard path too long");
    binio::put_le<uint16_t>(out, static_cast<uint16_t>(s.path.size()));
    out += s.path;
  }
  write_file(path, out);
}

BamxManifest BamxManifest::load(const std::string& path) {
  std::string data = read_file(path);
  ByteReader r(data);
  if (r.read_bytes(6) != kManifestMagic) {
    throw FormatError("bad BAMXM magic in '" + path + "'");
  }
  uint16_t version = r.read<uint16_t>();
  if (version != kVersion) {
    throw FormatError("unsupported BAMXM version " + std::to_string(version));
  }
  BamxManifest m;
  m.layout.max_qname = r.read<uint32_t>();
  m.layout.max_cigar = r.read<uint32_t>();
  m.layout.max_seq = r.read<uint32_t>();
  m.layout.max_aux = r.read<uint32_t>();
  uint64_t stride = r.read<uint64_t>();
  if (stride != m.layout.stride()) {
    throw FormatError("BAMXM stride mismatch: header says " +
                      std::to_string(stride) + ", layout derives " +
                      std::to_string(m.layout.stride()));
  }
  m.n_records = r.read<uint64_t>();
  uint32_t n_shards = r.read<uint32_t>();
  uint64_t expect_base = 0;
  for (uint32_t k = 0; k < n_shards; ++k) {
    ManifestShard s;
    s.n_records = r.read<uint64_t>();
    s.record_base = r.read<uint64_t>();
    if (s.record_base != expect_base) {
      throw FormatError("BAMXM shard record bases are not contiguous in '" +
                        path + "'");
    }
    expect_base += s.n_records;
    uint16_t len = r.read<uint16_t>();
    s.path = std::string(r.read_bytes(len));
    m.shards.push_back(std::move(s));
  }
  if (expect_base != m.n_records) {
    throw FormatError("BAMXM shard record counts do not sum to n_records in '" +
                      path + "'");
  }
  if (m.shards.empty()) {
    throw FormatError("BAMXM manifest lists no shards in '" + path + "'");
  }
  return m;
}

// -------------------------------------------------------------- RecordSource

namespace {

std::string parent_dir(const std::string& path) {
  size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string(".")
                                    : path.substr(0, slash);
}

// Fixed BAMX file header: magic, version, four capacities, stride,
// n_records, blob_size.
constexpr uint64_t kBamxHeadBytes = 5 + 2 + 16 + 8 + 8 + 8;

/// What one BAMX file's header says, bounds-checked against the file size.
struct ShardHead {
  BamxLayout layout;
  uint64_t n_records = 0;
  uint64_t data_offset = 0;
  SamHeader header;
};

ShardHead read_shard_head(const InputFile& file) {
  const std::string& path = file.path();
  std::string head = file.read_at(0, kBamxHeadBytes);
  ByteReader r(head);
  if (r.read_bytes(5) != kBamxMagic) {
    throw FormatError("bad BAMX magic in '" + path + "'");
  }
  uint16_t version = r.read<uint16_t>();
  if (version != kVersion) {
    throw FormatError("unsupported BAMX version " + std::to_string(version));
  }
  ShardHead h;
  h.layout.max_qname = r.read<uint32_t>();
  h.layout.max_cigar = r.read<uint32_t>();
  h.layout.max_seq = r.read<uint32_t>();
  h.layout.max_aux = r.read<uint32_t>();
  uint64_t stride = r.read<uint64_t>();
  if (stride != h.layout.stride()) {
    throw FormatError("BAMX stride mismatch: header says " +
                      std::to_string(stride) + ", layout derives " +
                      std::to_string(h.layout.stride()));
  }
  h.n_records = r.read<uint64_t>();
  uint64_t blob_size = r.read<uint64_t>();
  // Bound both header-claimed sizes by the file before allocating for
  // either; the division form cannot overflow (stride >= 40).
  if (blob_size > file.size() - kBamxHeadBytes) {
    throw FormatError("BAMX header blob of " + std::to_string(blob_size) +
                      " bytes exceeds the file size in '" + path + "'");
  }
  h.data_offset = kBamxHeadBytes + blob_size;
  if (h.n_records > (file.size() - h.data_offset) / stride) {
    throw FormatError("BAMX file truncated: " + std::to_string(h.n_records) +
                      " records of " + std::to_string(stride) +
                      " bytes do not fit in '" + path + "'");
  }

  std::string blob = file.read_at(kBamxHeadBytes, blob_size);
  // Parse the embedded BAM-style header blob.
  ByteReader hr(blob);
  if (hr.read_bytes(4) != std::string_view("BAM\1", 4)) {
    throw FormatError("bad embedded header magic in BAMX '" + path + "'");
  }
  int32_t l_text = hr.read<int32_t>();
  std::string text(hr.read_bytes(static_cast<size_t>(l_text)));
  int32_t n_ref = hr.read<int32_t>();
  std::vector<sam::Reference> refs;
  for (int32_t i = 0; i < n_ref; ++i) {
    int32_t l_name = hr.read<int32_t>();
    std::string_view name = hr.read_bytes(static_cast<size_t>(l_name));
    int32_t l_ref = hr.read<int32_t>();
    refs.push_back(
        sam::Reference{std::string(name.substr(0, name.size() - 1)), l_ref});
  }
  SamHeader from_text = SamHeader::from_text(text);
  h.header = from_text.references().size() == refs.size()
                 ? std::move(from_text)
                 : SamHeader::from_references(std::move(refs));
  return h;
}

/// FormatError for a path that is neither BAMX nor BAMXM. A 0-byte file, a
/// truncated magic and a wrong magic are different failures; name the path
/// and hex-dump what was actually sniffed so the message alone identifies
/// the input.
FormatError not_a_record_source(const std::string& path,
                                const std::string& magic) {
  std::string detail;
  if (magic.empty()) {
    detail = "the file is empty";
  } else {
    static constexpr char kHex[] = "0123456789abcdef";
    std::string hex;
    for (unsigned char c : magic) {
      if (!hex.empty()) {
        hex += ' ';
      }
      hex += kHex[c >> 4];
      hex += kHex[c & 0xF];
    }
    detail = (magic.size() < kManifestMagic.size()
                  ? "truncated magic, only " + std::to_string(magic.size()) +
                        " byte(s): "
                  : "magic bytes: ") +
             hex;
  }
  return FormatError("'" + path + "' is neither a BAMX file nor a BAMXM "
                     "shard manifest (" + detail + ")");
}

}  // namespace

RecordSource::RecordSource(const std::string& path) {
  const std::string magic = InputFile(path).read_at(0, kManifestMagic.size());
  std::optional<BamxManifest> manifest;
  std::vector<std::string> shard_paths;
  if (magic == kManifestMagic) {
    manifest = BamxManifest::load(path);
    const std::string dir = parent_dir(path);
    for (const ManifestShard& s : manifest->shards) {
      shard_paths.push_back(dir + "/" + s.path);
    }
  } else if (std::string_view(magic).starts_with(kBamxMagic)) {
    shard_paths.push_back(path);  // a lone BAMX is a one-shard set
  } else {
    throw not_a_record_source(path, magic);
  }

  shards_.reserve(shard_paths.size());
  bases_.reserve(shard_paths.size() + 1);
  bases_.push_back(0);
  for (size_t k = 0; k < shard_paths.size(); ++k) {
    InputFile file(shard_paths[k]);
    ShardHead head = read_shard_head(file);
    if (manifest) {
      const ManifestShard& s = manifest->shards[k];
      if (head.layout != manifest->layout) {
        throw FormatError("shard '" + s.path +
                          "' layout disagrees with its manifest");
      }
      if (head.n_records != s.n_records) {
        throw FormatError("shard '" + s.path + "' holds " +
                          std::to_string(head.n_records) +
                          " records, manifest says " +
                          std::to_string(s.n_records));
      }
    }
    if (k == 0) {
      layout_ = head.layout;
      header_ = std::move(head.header);
    }
    shards_.push_back(Shard{std::move(file), head.data_offset});
    bases_.push_back(bases_.back() + head.n_records);
  }
}

size_t RecordSource::shard_of(uint64_t i) const {
  // bases_ is ascending with a sentinel; find the last base <= i. Empty
  // shards (possible when records < shards) contribute repeated bases, so
  // step past them to a shard that actually holds record i.
  size_t k = static_cast<size_t>(
      std::upper_bound(bases_.begin(), bases_.end() - 1, i) - bases_.begin());
  return k - 1;
}

void RecordSource::read_raw_range(uint64_t begin, uint64_t end,
                                  std::string& out) const {
  NGSX_CHECK_MSG(begin <= end && end <= num_records(),
                 "BAMX record range out of bounds");
  // One bulk positioned read per shard the range crosses, appended in
  // record order — byte-identical to one monolithic data section.
  const uint64_t stride = layout_.stride();
  for (uint64_t at = begin; at < end;) {
    const size_t k = shard_of(at);
    const uint64_t take = std::min(end, bases_[k + 1]) - at;
    const size_t base = out.size();
    out.resize(base + take * stride);
    shards_[k].file.pread_exact(out.data() + base, take * stride,
                                shards_[k].data_offset +
                                    (at - bases_[k]) * stride);
    at += take;
  }
}

// ----------------------------------------------------------------- BaixIndex

bool baix_entry_less(const BaixEntry& a, const BaixEntry& b) {
  if (a.ref_id != b.ref_id) {
    uint32_t ua = static_cast<uint32_t>(a.ref_id);
    uint32_t ub = static_cast<uint32_t>(b.ref_id);
    return ua < ub;
  }
  return a.pos < b.pos;
}

BaixIndex BaixIndex::from_entries(std::vector<BaixEntry> entries) {
  BaixIndex index;
  index.entries_ = std::move(entries);
  std::stable_sort(index.entries_.begin(), index.entries_.end(),
                   baix_entry_less);
  return index;
}

BaixIndex BaixIndex::from_sorted_entries(std::vector<BaixEntry> entries) {
  if (!std::is_sorted(entries.begin(), entries.end(), baix_entry_less)) {
    throw UsageError("from_sorted_entries given unsorted BAIX entries");
  }
  BaixIndex index;
  index.entries_ = std::move(entries);
  return index;
}

void BaixIndex::save(const std::string& path) const {
  std::string out;
  out += kBaixMagic;
  binio::put_le<uint16_t>(out, kVersion);
  binio::put_le<uint64_t>(out, entries_.size());
  for (const BaixEntry& e : entries_) {
    binio::put_le<int32_t>(out, e.ref_id);
    binio::put_le<int32_t>(out, e.pos);
    binio::put_le<uint64_t>(out, e.record_index);
  }
  write_file(path, out);
}

// ---------------------------------------------------------------- BaixReader

namespace {

// BAIX v1 file header: magic, version, n_entries; 16-byte entries follow.
constexpr uint64_t kBaixHeadBytes = 5 + 2 + 8;
constexpr uint64_t kBaixEntryBytes = 16;
constexpr size_t kBaixPageEntries = 256;  // one 4 KiB page

}  // namespace

BaixReader::BaixReader(const std::string& path) : file_(path) {
  const std::string head = file_.read_at(0, kBaixHeadBytes);
  if (!std::string_view(head).starts_with(kBaixMagic)) {
    throw FormatError("bad BAIX magic in '" + path + "'");
  }
  if (head.size() < kBaixHeadBytes) {
    throw FormatError("BAIX header truncated in '" + path + "'");
  }
  ByteReader r(head);
  r.skip(kBaixMagic.size());
  const uint16_t version = r.read<uint16_t>();
  if (version != kVersion) {
    throw FormatError("unsupported BAIX version " + std::to_string(version));
  }
  const uint64_t n = r.read<uint64_t>();
  if (n > (file_.size() - kBaixHeadBytes) / kBaixEntryBytes) {
    throw FormatError("BAIX entry count " + std::to_string(n) +
                      " exceeds the size of '" + path + "'");
  }
  n_entries_ = static_cast<size_t>(n);
  n_pages_ = (n_entries_ + kBaixPageEntries - 1) / kBaixPageEntries;
  pages_ = std::make_unique<std::atomic<const BaixEntry*>[]>(n_pages_);
}

BaixReader::~BaixReader() {
  for (size_t k = 0; k < n_pages_; ++k) {
    delete[] pages_[k].load(std::memory_order_relaxed);
  }
}

const BaixEntry* BaixReader::page(size_t k) const {
  const BaixEntry* p = pages_[k].load(std::memory_order_acquire);
  if (p == nullptr) {
    load_pages(k, k + 1);
    p = pages_[k].load(std::memory_order_acquire);
  }
  return p;
}

void BaixReader::load_pages(size_t first, size_t last) const {
  const size_t begin = first * kBaixPageEntries;
  const size_t end = std::min(n_entries_, last * kBaixPageEntries);
  std::string bytes((end - begin) * kBaixEntryBytes, '\0');
  file_.pread_exact(bytes.data(), bytes.size(),
                    kBaixHeadBytes + begin * kBaixEntryBytes);
  for (size_t k = first; k < last; ++k) {
    if (pages_[k].load(std::memory_order_acquire) != nullptr) {
      continue;
    }
    const size_t lo = k * kBaixPageEntries;
    const size_t hi = std::min(n_entries_, lo + kBaixPageEntries);
    auto decoded = std::make_unique<BaixEntry[]>(hi - lo);
    for (size_t i = lo; i < hi; ++i) {
      const size_t at = (i - begin) * kBaixEntryBytes;
      decoded[i - lo] = BaixEntry{binio::get_le<int32_t>(bytes, at),
                                  binio::get_le<int32_t>(bytes, at + 4),
                                  binio::get_le<uint64_t>(bytes, at + 8)};
    }
    const BaixEntry* expected = nullptr;
    if (pages_[k].compare_exchange_strong(expected, decoded.get(),
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
      decoded.release();  // owned by pages_ now
    }
  }
}

BaixEntry BaixReader::entry(size_t i) const {
  NGSX_CHECK(i < n_entries_);
  return page(i / kBaixPageEntries)[i % kBaixPageEntries];
}

std::vector<BaixEntry> BaixReader::entries(size_t first, size_t last) const {
  std::vector<BaixEntry> out;
  if (first >= last) {
    return out;
  }
  NGSX_CHECK(last <= n_entries_);
  // One read spans every missing page of the answer.
  const size_t page_lo = first / kBaixPageEntries;
  const size_t page_hi = (last - 1) / kBaixPageEntries + 1;
  size_t miss_lo = page_hi;
  size_t miss_hi = page_lo;
  for (size_t k = page_lo; k < page_hi; ++k) {
    if (pages_[k].load(std::memory_order_acquire) == nullptr) {
      miss_lo = std::min(miss_lo, k);
      miss_hi = k + 1;
    }
  }
  if (miss_lo < miss_hi) {
    load_pages(miss_lo, miss_hi);
  }
  out.reserve(last - first);
  for (size_t i = first; i < last;) {
    const size_t k = i / kBaixPageEntries;
    const size_t take = std::min(last, (k + 1) * kBaixPageEntries) - i;
    const BaixEntry* from = page(k) + i % kBaixPageEntries;
    out.insert(out.end(), from, from + take);
    i += take;
  }
  return out;
}

std::pair<size_t, size_t> BaixReader::query(int32_t ref, int32_t beg,
                                            int32_t end) const {
  const auto ids = std::views::iota(size_t{0}, n_entries_);
  auto lower_bound = [&](int32_t pos) {
    const BaixEntry key{ref, pos, 0};
    auto it = std::ranges::partition_point(
        ids, [&](size_t i) { return baix_entry_less(entry(i), key); });
    return static_cast<size_t>(it - ids.begin());
  };
  return {lower_bound(beg), lower_bound(end)};
}

}  // namespace ngsx::bamx
