#include "formats/bam.h"

#include <cstring>

#include "exec/pool.h"
#include "formats/seqcodec.h"

namespace ngsx::bam {

using sam::AlignmentRecord;
using sam::AuxField;
using sam::CigarOp;
using sam::SamHeader;

// ------------------------------------------------------------------ binning

int32_t reg2bin(int32_t beg, int32_t end) {
  --end;
  if (beg >> 14 == end >> 14) return ((1 << 15) - 1) / 7 + (beg >> 14);
  if (beg >> 17 == end >> 17) return ((1 << 12) - 1) / 7 + (beg >> 17);
  if (beg >> 20 == end >> 20) return ((1 << 9) - 1) / 7 + (beg >> 20);
  if (beg >> 23 == end >> 23) return ((1 << 6) - 1) / 7 + (beg >> 23);
  if (beg >> 26 == end >> 26) return ((1 << 3) - 1) / 7 + (beg >> 26);
  return 0;
}

// ---------------------------------------------------------------------- aux

void encode_aux(const std::vector<AuxField>& tags, std::string& out) {
  for (const AuxField& aux : tags) {
    out += aux.tag[0];
    out += aux.tag[1];
    switch (aux.type) {
      case 'A':
        out += 'A';
        out += static_cast<char>(aux.int_value);
        break;
      case 'i':
        // Always encoded as int32 ('i'); all integer widths decode back to
        // SAM type 'i' anyway.
        out += 'i';
        binio::put_le<int32_t>(out, static_cast<int32_t>(aux.int_value));
        break;
      case 'f':
        out += 'f';
        binio::put_le<float>(out, static_cast<float>(aux.float_value));
        break;
      case 'Z':
      case 'H':
        out += aux.type;
        out += aux.str_value;
        out += '\0';
        break;
      case 'B': {
        out += 'B';
        out += aux.subtype;
        size_t n = aux.subtype == 'f' ? aux.float_array.size()
                                      : aux.int_array.size();
        binio::put_le<int32_t>(out, static_cast<int32_t>(n));
        for (size_t i = 0; i < n; ++i) {
          switch (aux.subtype) {
            case 'c':
              binio::put_le<int8_t>(out,
                                    static_cast<int8_t>(aux.int_array[i]));
              break;
            case 'C':
              binio::put_le<uint8_t>(out,
                                     static_cast<uint8_t>(aux.int_array[i]));
              break;
            case 's':
              binio::put_le<int16_t>(out,
                                     static_cast<int16_t>(aux.int_array[i]));
              break;
            case 'S':
              binio::put_le<uint16_t>(
                  out, static_cast<uint16_t>(aux.int_array[i]));
              break;
            case 'i':
              binio::put_le<int32_t>(out,
                                     static_cast<int32_t>(aux.int_array[i]));
              break;
            case 'I':
              binio::put_le<uint32_t>(
                  out, static_cast<uint32_t>(aux.int_array[i]));
              break;
            case 'f':
              binio::put_le<float>(out,
                                   static_cast<float>(aux.float_array[i]));
              break;
            default:
              throw FormatError("unknown B subtype in encode");
          }
        }
        break;
      }
      default:
        throw FormatError(std::string("unknown aux type '") + aux.type +
                          "' in encode");
    }
  }
}

void decode_aux(std::string_view bytes, std::vector<AuxField>& tags) {
  tags.clear();
  ByteReader r(bytes);
  while (!r.eof()) {
    AuxField aux;
    std::string_view tag = r.read_bytes(2);
    aux.tag[0] = tag[0];
    aux.tag[1] = tag[1];
    char type = static_cast<char>(r.read<uint8_t>());
    switch (type) {
      case 'A':
        aux.type = 'A';
        aux.int_value = static_cast<char>(r.read<uint8_t>());
        break;
      case 'c':
        aux.type = 'i';
        aux.int_value = r.read<int8_t>();
        break;
      case 'C':
        aux.type = 'i';
        aux.int_value = r.read<uint8_t>();
        break;
      case 's':
        aux.type = 'i';
        aux.int_value = r.read<int16_t>();
        break;
      case 'S':
        aux.type = 'i';
        aux.int_value = r.read<uint16_t>();
        break;
      case 'i':
        aux.type = 'i';
        aux.int_value = r.read<int32_t>();
        break;
      case 'I':
        aux.type = 'i';
        aux.int_value = r.read<uint32_t>();
        break;
      case 'f':
        aux.type = 'f';
        aux.float_value = r.read<float>();
        break;
      case 'Z':
      case 'H':
        aux.type = type;
        aux.str_value = std::string(r.read_cstr());
        break;
      case 'B': {
        aux.type = 'B';
        aux.subtype = static_cast<char>(r.read<uint8_t>());
        int32_t n = r.read<int32_t>();
        for (int32_t i = 0; i < n; ++i) {
          switch (aux.subtype) {
            case 'c': aux.int_array.push_back(r.read<int8_t>()); break;
            case 'C': aux.int_array.push_back(r.read<uint8_t>()); break;
            case 's': aux.int_array.push_back(r.read<int16_t>()); break;
            case 'S': aux.int_array.push_back(r.read<uint16_t>()); break;
            case 'i': aux.int_array.push_back(r.read<int32_t>()); break;
            case 'I': aux.int_array.push_back(r.read<uint32_t>()); break;
            case 'f': aux.float_array.push_back(r.read<float>()); break;
            default:
              throw FormatError("unknown B subtype in decode");
          }
        }
        break;
      }
      default:
        throw FormatError(std::string("unknown aux type byte '") + type +
                          "' in decode");
    }
    tags.push_back(std::move(aux));
  }
}

// ------------------------------------------------------------------- encode

void encode_record(const AlignmentRecord& rec, std::string& out) {
  size_t block_size_pos = out.size();
  binio::put_le<int32_t>(out, 0);  // patched below

  size_t body_begin = out.size();
  size_t l_read_name = rec.qname.size() + 1;
  if (l_read_name > 255) {
    throw FormatError("read name too long for BAM: '" + rec.qname + "'");
  }
  int32_t end = rec.pos >= 0 ? rec.end_pos() : 0;
  uint32_t bin =
      rec.pos >= 0 ? static_cast<uint32_t>(reg2bin(rec.pos, end)) : 4680;
  binio::put_le<int32_t>(out, rec.ref_id);
  binio::put_le<int32_t>(out, rec.pos);
  binio::put_le<uint32_t>(
      out, (bin << 16) | (static_cast<uint32_t>(rec.mapq) << 8) |
               static_cast<uint32_t>(l_read_name));
  binio::put_le<uint32_t>(
      out, (static_cast<uint32_t>(rec.flag) << 16) |
               static_cast<uint32_t>(rec.cigar.size()));
  binio::put_le<int32_t>(out, static_cast<int32_t>(rec.seq.size()));
  binio::put_le<int32_t>(out, rec.mate_ref_id);
  binio::put_le<int32_t>(out, rec.mate_pos);
  binio::put_le<int32_t>(out, rec.tlen);

  out += rec.qname;
  out += '\0';

  for (const CigarOp& op : rec.cigar) {
    binio::put_le<uint32_t>(out, (op.len << 4) | sam::cigar_op_code(op.op));
  }

  // 4-bit packed sequence.
  seqcodec::pack_seq(rec.seq, out);

  // Qualities: raw Phred (ASCII - 33); 0xFF fill when absent.
  if (rec.qual.empty()) {
    out.append(rec.seq.size(), static_cast<char>(0xFF));
  } else {
    NGSX_CHECK_MSG(rec.qual.size() == rec.seq.size(),
                   "QUAL/SEQ length mismatch in encode");
    size_t base = out.size();
    out.resize(base + rec.qual.size());
    seqcodec::ascii_to_quals(rec.qual, out.data() + base);
  }

  encode_aux(rec.tags, out);

  binio::poke_le<int32_t>(out, block_size_pos,
                          static_cast<int32_t>(out.size() - body_begin));
}

// ------------------------------------------------------------------- decode

void decode_record(std::string_view body, AlignmentRecord& rec) {
  ByteReader r(body);
  rec.ref_id = r.read<int32_t>();
  rec.pos = r.read<int32_t>();
  uint32_t bin_mq_nl = r.read<uint32_t>();
  uint32_t flag_nc = r.read<uint32_t>();
  int32_t l_seq = r.read<int32_t>();
  rec.mate_ref_id = r.read<int32_t>();
  rec.mate_pos = r.read<int32_t>();
  rec.tlen = r.read<int32_t>();

  rec.mapq = static_cast<uint8_t>((bin_mq_nl >> 8) & 0xFF);
  uint32_t l_read_name = bin_mq_nl & 0xFF;
  rec.flag = static_cast<uint16_t>(flag_nc >> 16);
  uint32_t n_cigar = flag_nc & 0xFFFF;

  std::string_view name = r.read_bytes(l_read_name);
  if (name.empty() || name.back() != '\0') {
    throw FormatError("BAM read name not NUL-terminated");
  }
  rec.qname.assign(name.data(), name.size() - 1);

  rec.cigar.clear();
  rec.cigar.reserve(n_cigar);
  for (uint32_t i = 0; i < n_cigar; ++i) {
    uint32_t packed = r.read<uint32_t>();
    rec.cigar.push_back(
        CigarOp{sam::cigar_op_char(packed & 0xF), packed >> 4});
  }

  std::string_view packed_seq =
      r.read_bytes(static_cast<size_t>((l_seq + 1) / 2));
  seqcodec::unpack_seq(packed_seq.data(), static_cast<size_t>(l_seq),
                       rec.seq);

  std::string_view quals = r.read_bytes(static_cast<size_t>(l_seq));
  rec.qual.clear();
  if (l_seq > 0 && static_cast<uint8_t>(quals[0]) != 0xFF) {
    seqcodec::quals_to_ascii(quals.data(), quals.size(), rec.qual);
  }

  // Aux fields to end of body.
  decode_aux(body.substr(r.pos()), rec.tags);
}

// ------------------------------------------------------------------- header

void encode_header(const SamHeader& header, std::string& out) {
  out += "BAM\1";
  binio::put_le<int32_t>(out, static_cast<int32_t>(header.text().size()));
  out += header.text();
  binio::put_le<int32_t>(out,
                         static_cast<int32_t>(header.references().size()));
  for (const auto& ref : header.references()) {
    binio::put_le<int32_t>(out, static_cast<int32_t>(ref.name.size() + 1));
    out += ref.name;
    out += '\0';
    binio::put_le<int32_t>(out, static_cast<int32_t>(ref.length));
  }
}

// ------------------------------------------------------------ BamFileWriter

BamFileWriter::BamFileWriter(const std::string& path,
                             const SamHeader& header, int compression_level,
                             int threads)
    : out_(path, compression_level, threads) {
  scratch_.clear();
  encode_header(header, scratch_);
  out_.write(scratch_);
}

void BamFileWriter::write(const sam::AlignmentRecord& rec) {
  scratch_.clear();
  encode_record(rec, scratch_);
  out_.write(scratch_);
}

void BamFileWriter::close() { out_.close(); }

// ------------------------------------------------------------ BamFileReader

namespace {

/// Resolves a decode-thread request: 0 means the hardware width, negative
/// is a usage error.
int decode_width(int requested) {
  if (requested < 0) {
    throw UsageError("decode threads must be >= 0 (0 = auto)");
  }
  return requested == 0 ? exec::hardware_threads() : requested;
}

}  // namespace

BamFileReader::BamFileReader(const std::string& path, int decode_threads)
    : in_(path, decode_width(decode_threads)) {
  char magic[4];
  in_.read_exact(magic, 4);
  if (std::memcmp(magic, "BAM\1", 4) != 0) {
    throw FormatError("bad BAM magic in '" + path + "'");
  }
  int32_t l_text;
  in_.read_exact(&l_text, 4);
  if (l_text < 0 || l_text > (256 << 20)) {
    throw FormatError("implausible l_text in '" + path + "'");
  }
  std::string text(static_cast<size_t>(l_text), '\0');
  in_.read_exact(text.data(), text.size());

  int32_t n_ref;
  in_.read_exact(&n_ref, 4);
  if (n_ref < 0) {
    throw FormatError("negative n_ref in '" + path + "'");
  }
  // No reserve from n_ref: the count is untrusted until its entries have
  // been read, and a truncated header must end in FormatError.
  std::vector<sam::Reference> refs;
  for (int32_t i = 0; i < n_ref; ++i) {
    int32_t l_name;
    in_.read_exact(&l_name, 4);
    if (l_name <= 0 || l_name > (1 << 20)) {
      throw FormatError("bad reference name length in '" + path + "'");
    }
    std::string name(static_cast<size_t>(l_name), '\0');
    in_.read_exact(name.data(), name.size());
    name.pop_back();  // trailing NUL
    int32_t l_ref;
    in_.read_exact(&l_ref, 4);
    refs.push_back(sam::Reference{std::move(name), l_ref});
  }
  // Prefer the parsed text (keeps user @PG/@RG lines); fall back to the
  // binary dictionary if the text lacks @SQ lines.
  SamHeader from_text = SamHeader::from_text(text);
  if (from_text.references().size() == refs.size()) {
    header_ = std::move(from_text);
  } else {
    header_ = SamHeader::from_references(std::move(refs));
  }
}

bool BamFileReader::next_raw(std::string& body) {
  int32_t block_size;
  size_t got = in_.read(&block_size, 4);
  if (got == 0) {
    return false;
  }
  if (got != 4) {
    throw FormatError("truncated BAM block_size");
  }
  // Real records are a few KB; a multi-hundred-MB block_size means the
  // stream is corrupt, and resizing first would be an allocation bomb.
  if (block_size <= 0 || block_size > (256 << 20)) {
    throw FormatError("bad BAM block_size " + std::to_string(block_size));
  }
  body.resize(static_cast<size_t>(block_size));
  in_.read_exact(body.data(), body.size());
  return true;
}

bool BamFileReader::next(sam::AlignmentRecord& rec) {
  if (!next_raw(body_)) {
    return false;
  }
  decode_record(body_, rec);
  return true;
}

}  // namespace ngsx::bam
