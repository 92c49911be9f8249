#include "formats/sam.h"

#include <algorithm>
#include <cstring>

#include "util/simd.h"
#include "util/strutil.h"

namespace ngsx::sam {

using strutil::parse_int;

// ----------------------------------------------------------------- CIGAR ops

namespace {
constexpr std::string_view kCigarOps = "MIDNSHP=X";

// 256-entry char -> op-code LUT (0xFF = invalid), replacing the linear
// kCigarOps.find() on the per-op parse path.
constexpr std::array<uint8_t, 256> kCigarCode = [] {
  std::array<uint8_t, 256> t{};
  for (auto& v : t) {
    v = 0xFF;
  }
  for (size_t i = 0; i < kCigarOps.size(); ++i) {
    t[static_cast<unsigned char>(kCigarOps[i])] = static_cast<uint8_t>(i);
  }
  return t;
}();
}  // namespace

uint32_t cigar_op_code(char op) {
  uint8_t code = kCigarCode[static_cast<unsigned char>(op)];
  if (code == 0xFF) {
    throw FormatError(std::string("unknown CIGAR op '") + op + "'");
  }
  return code;
}

char cigar_op_char(uint32_t code) {
  if (code >= kCigarOps.size()) {
    throw FormatError("CIGAR op code " + std::to_string(code) +
                      " out of range");
  }
  return kCigarOps[code];
}

// -------------------------------------------------------------------- Header

SamHeader SamHeader::from_references(std::vector<Reference> refs) {
  SamHeader h;
  h.refs_ = std::move(refs);
  h.text_ = "@HD\tVN:1.4\tSO:coordinate\n";
  for (const auto& ref : h.refs_) {
    h.text_ += "@SQ\tSN:" + ref.name + "\tLN:" + std::to_string(ref.length) +
               "\n";
  }
  h.index_refs();
  return h;
}

SamHeader SamHeader::from_text(std::string_view text) {
  SamHeader h;
  h.text_ = std::string(text);
  size_t pos = 0;
  std::vector<std::string_view> fields;
  while (pos < text.size()) {
    size_t nl = pos + simd::find_byte(text.data() + pos, text.size() - pos,
                                      '\n');
    std::string_view line = text.substr(pos, nl - pos);
    pos = nl == text.size() ? text.size() : nl + 1;
    if (line.empty()) {
      continue;
    }
    if (line[0] != '@') {
      throw FormatError("header line does not start with '@': '" +
                        std::string(line.substr(0, 40)) + "'");
    }
    if (!strutil::starts_with(line, "@SQ")) {
      continue;
    }
    strutil::split(line, '\t', fields);
    Reference ref;
    bool have_name = false;
    bool have_len = false;
    for (std::string_view f : fields) {
      if (strutil::starts_with(f, "SN:")) {
        ref.name = std::string(f.substr(3));
        have_name = true;
      } else if (strutil::starts_with(f, "LN:")) {
        ref.length = parse_int<int64_t>(f.substr(3), "@SQ LN");
        have_len = true;
      }
    }
    if (!have_name || !have_len) {
      throw FormatError("@SQ line missing SN or LN: '" + std::string(line) +
                        "'");
    }
    h.refs_.push_back(std::move(ref));
  }
  h.index_refs();
  return h;
}

void SamHeader::index_refs() {
  ref_ids_.clear();
  ref_ids_.reserve(refs_.size());
  for (size_t i = 0; i < refs_.size(); ++i) {
    ref_ids_[refs_[i].name] = static_cast<int32_t>(i);
  }
}

int32_t SamHeader::ref_id(std::string_view name) const {
  auto it = ref_ids_.find(std::string(name));
  return it == ref_ids_.end() ? -1 : it->second;
}

std::string_view SamHeader::ref_name(int32_t id) const {
  if (id == -1) {
    return "*";
  }
  NGSX_CHECK_MSG(id >= 0 && static_cast<size_t>(id) < refs_.size(),
                 "reference id out of range");
  return refs_[static_cast<size_t>(id)].name;
}

int64_t SamHeader::ref_length(int32_t id) const {
  NGSX_CHECK_MSG(id >= 0 && static_cast<size_t>(id) < refs_.size(),
                 "reference id out of range");
  return refs_[static_cast<size_t>(id)].length;
}

// ----------------------------------------------------------- AlignmentRecord

int64_t AlignmentRecord::reference_span() const {
  int64_t span = 0;
  for (const CigarOp& op : cigar) {
    if (op.consumes_reference()) {
      span += op.len;
    }
  }
  return span;
}

int32_t AlignmentRecord::end_pos() const {
  int64_t span = reference_span();
  if (span == 0) {
    span = 1;
  }
  return pos + static_cast<int32_t>(span);
}

int32_t AlignmentRecord::unclipped_start() const {
  int64_t clip = 0;
  for (const CigarOp& op : cigar) {
    if (op.op != 'S' && op.op != 'H') {
      break;
    }
    clip += op.len;
  }
  return static_cast<int32_t>(pos - clip);
}

int32_t AlignmentRecord::unclipped_end() const {
  int64_t clip = 0;
  for (auto it = cigar.rbegin(); it != cigar.rend(); ++it) {
    if (it->op != 'S' && it->op != 'H') {
      break;
    }
    clip += it->len;
  }
  return static_cast<int32_t>(end_pos() + clip);
}

const AuxField* AlignmentRecord::find_tag(std::string_view tag) const {
  for (const AuxField& t : tags) {
    if (tag.size() == 2 && t.tag[0] == tag[0] && t.tag[1] == tag[1]) {
      return &t;
    }
  }
  return nullptr;
}

// --------------------------------------------------------------------- CIGAR

std::vector<CigarOp> parse_cigar(std::string_view s) {
  std::vector<CigarOp> out;
  if (s == "*") {
    return out;
  }
  uint64_t len = 0;
  bool have_len = false;
  for (char c : s) {
    if (c >= '0' && c <= '9') {
      len = len * 10 + static_cast<uint64_t>(c - '0');
      have_len = true;
      if (len > 0xFFFFFFFFull) {
        throw FormatError("CIGAR length overflow in '" + std::string(s) + "'");
      }
    } else {
      if (!have_len) {
        throw FormatError("CIGAR op without length in '" + std::string(s) +
                          "'");
      }
      cigar_op_code(c);  // validates
      out.push_back(CigarOp{c, static_cast<uint32_t>(len)});
      len = 0;
      have_len = false;
    }
  }
  if (have_len) {
    throw FormatError("trailing CIGAR length in '" + std::string(s) + "'");
  }
  return out;
}

void format_cigar(const std::vector<CigarOp>& cigar, std::string& out) {
  if (cigar.empty()) {
    out += '*';
    return;
  }
  for (const CigarOp& op : cigar) {
    strutil::append_uint(out, op.len);
    out += op.op;
  }
}

// ----------------------------------------------------------------- Aux tags

AuxField parse_aux(std::string_view field) {
  // TAG:TYPE:VALUE with TAG exactly 2 chars and TYPE exactly 1.
  if (field.size() < 5 || field[2] != ':' || field[4] != ':') {
    throw FormatError("malformed optional field '" + std::string(field) + "'");
  }
  AuxField aux;
  aux.tag[0] = field[0];
  aux.tag[1] = field[1];
  aux.type = field[3];
  std::string_view value = field.substr(5);
  switch (aux.type) {
    case 'A':
      if (value.size() != 1) {
        throw FormatError("type A value must be one char in '" +
                          std::string(field) + "'");
      }
      aux.int_value = value[0];
      break;
    case 'i':
      aux.int_value = parse_int<int64_t>(value, "aux i");
      break;
    case 'f':
      aux.float_value = strutil::parse_double(value, "aux f");
      break;
    case 'Z':
    case 'H':
      aux.str_value = std::string(value);
      break;
    case 'B': {
      if (value.empty()) {
        throw FormatError("empty B array in '" + std::string(field) + "'");
      }
      aux.subtype = value[0];
      std::string_view rest = value.substr(1);
      if (!rest.empty() && rest.front() == ',') {
        rest.remove_prefix(1);
      }
      std::vector<std::string_view> items;
      if (!rest.empty()) {
        strutil::split(rest, ',', items);
      }
      if (aux.subtype == 'f') {
        for (auto item : items) {
          aux.float_array.push_back(strutil::parse_double(item, "aux B,f"));
        }
      } else if (std::strchr("cCsSiI", aux.subtype) != nullptr) {
        for (auto item : items) {
          aux.int_array.push_back(parse_int<int64_t>(item, "aux B,int"));
        }
      } else {
        throw FormatError("unknown B subtype in '" + std::string(field) + "'");
      }
      break;
    }
    default:
      throw FormatError(std::string("unknown optional field type '") +
                        aux.type + "'");
  }
  return aux;
}

void format_aux(const AuxField& aux, std::string& out) {
  out += aux.tag[0];
  out += aux.tag[1];
  out += ':';
  out += aux.type;
  out += ':';
  switch (aux.type) {
    case 'A':
      out += static_cast<char>(aux.int_value);
      break;
    case 'i':
      strutil::append_int(out, aux.int_value);
      break;
    case 'f':
      strutil::append_double(out, aux.float_value);
      break;
    case 'Z':
    case 'H':
      out += aux.str_value;
      break;
    case 'B':
      out += aux.subtype;
      if (aux.subtype == 'f') {
        for (double v : aux.float_array) {
          out += ',';
          strutil::append_double(out, v);
        }
      } else {
        for (int64_t v : aux.int_array) {
          out += ',';
          strutil::append_int(out, v);
        }
      }
      break;
    default:
      throw FormatError(std::string("unknown optional field type '") +
                        aux.type + "'");
  }
}

// ----------------------------------------------------------------- Sequences

std::string reverse_complement(std::string_view seq) {
  static constexpr auto table = [] {
    std::array<char, 256> t{};
    for (size_t i = 0; i < t.size(); ++i) {
      t[i] = 'N';
    }
    auto set = [&t](char a, char b) {
      t[static_cast<unsigned char>(a)] = b;
      t[static_cast<unsigned char>(
          a - 'A' + 'a')] = static_cast<char>(b - 'A' + 'a');
    };
    set('A', 'T');
    set('T', 'A');
    set('C', 'G');
    set('G', 'C');
    set('N', 'N');
    set('R', 'Y');
    set('Y', 'R');
    set('S', 'S');
    set('W', 'W');
    set('K', 'M');
    set('M', 'K');
    set('B', 'V');
    set('V', 'B');
    set('D', 'H');
    set('H', 'D');
    return t;
  }();
  std::string out(seq.size(), '\0');
  for (size_t i = 0; i < seq.size(); ++i) {
    out[seq.size() - 1 - i] =
        table[static_cast<unsigned char>(seq[i])];
  }
  return out;
}

// ----------------------------------------------------------------- Text line

bool is_alignment_line(std::string_view line) {
  if (strutil::trim(line).empty()) {
    return false;
  }
  if (line[0] == '@') {
    throw FormatError("SAM header line among alignment lines: '" +
                      std::string(line) + "'");
  }
  return true;
}

void parse_record(std::string_view line, const SamHeader& header,
                  AlignmentRecord& out) {
  if (!line.empty() && line.back() == '\r') {
    line.remove_suffix(1);
  }
  thread_local std::vector<std::string_view> fields;
  strutil::split(line, '\t', fields);
  if (fields.size() < 11) {
    throw FormatError("SAM line has " + std::to_string(fields.size()) +
                      " fields, need >= 11: '" +
                      std::string(line.substr(0, 60)) + "'");
  }

  out.qname = std::string(fields[0]);
  out.flag = parse_int<uint16_t>(fields[1], "FLAG");

  std::string_view rname = fields[2];
  if (rname == "*") {
    out.ref_id = -1;
  } else {
    out.ref_id = header.ref_id(rname);
    if (out.ref_id < 0) {
      throw FormatError("unknown reference '" + std::string(rname) + "'");
    }
  }

  int64_t pos1 = parse_int<int64_t>(fields[3], "POS");
  out.pos = static_cast<int32_t>(pos1 - 1);  // 0 (unavailable) becomes -1
  out.mapq = parse_int<uint8_t>(fields[4], "MAPQ");
  out.cigar = parse_cigar(fields[5]);

  std::string_view rnext = fields[6];
  if (rnext == "*") {
    out.mate_ref_id = -1;
  } else if (rnext == "=") {
    out.mate_ref_id = out.ref_id;
  } else {
    out.mate_ref_id = header.ref_id(rnext);
    if (out.mate_ref_id < 0) {
      throw FormatError("unknown mate reference '" + std::string(rnext) + "'");
    }
  }
  out.mate_pos = static_cast<int32_t>(
      parse_int<int64_t>(fields[7], "PNEXT") - 1);
  out.tlen = parse_int<int32_t>(fields[8], "TLEN");

  out.seq = fields[9] == "*" ? std::string() : std::string(fields[9]);
  out.qual = fields[10] == "*" ? std::string() : std::string(fields[10]);
  if (!out.seq.empty() && !out.qual.empty() &&
      out.seq.size() != out.qual.size()) {
    throw FormatError("SEQ and QUAL length mismatch for read '" + out.qname +
                      "'");
  }

  out.tags.clear();
  for (size_t i = 11; i < fields.size(); ++i) {
    out.tags.push_back(parse_aux(fields[i]));
  }
}

void format_record(const AlignmentRecord& rec, const SamHeader& header,
                   std::string& out) {
  out += rec.qname;
  out += '\t';
  strutil::append_uint(out, rec.flag);
  out += '\t';
  out += header.ref_name(rec.ref_id);
  out += '\t';
  strutil::append_int(out, static_cast<int64_t>(rec.pos) + 1);
  out += '\t';
  strutil::append_uint(out, rec.mapq);
  out += '\t';
  format_cigar(rec.cigar, out);
  out += '\t';
  if (rec.mate_ref_id == -1) {
    out += '*';
  } else if (rec.mate_ref_id == rec.ref_id && rec.ref_id != -1) {
    out += '=';
  } else {
    out += header.ref_name(rec.mate_ref_id);
  }
  out += '\t';
  strutil::append_int(out, static_cast<int64_t>(rec.mate_pos) + 1);
  out += '\t';
  strutil::append_int(out, rec.tlen);
  out += '\t';
  out += rec.seq.empty() ? std::string_view("*") : std::string_view(rec.seq);
  out += '\t';
  out += rec.qual.empty() ? std::string_view("*") : std::string_view(rec.qual);
  for (const AuxField& aux : rec.tags) {
    out += '\t';
    format_aux(aux, out);
  }
}

// ------------------------------------------------------------- SamFileReader

SamFileReader::SamFileReader(const std::string& path)
    : path_(path), file_(std::make_unique<InputFile>(path)) {
  file_size_ = file_->size();
  // Read header lines: consecutive leading lines starting with '@'.
  std::string header_text;
  std::string chunk;
  uint64_t offset = 0;
  bool done = false;
  while (!done && offset < file_size_) {
    chunk = file_->read_at(offset, 1 << 20);
    size_t line_start = 0;
    while (line_start < chunk.size()) {
      if (chunk[line_start] != '@') {
        done = true;
        break;
      }
      size_t nl = line_start + simd::find_byte(chunk.data() + line_start,
                                               chunk.size() - line_start,
                                               '\n');
      if (nl == chunk.size()) {
        break;  // header line spans chunk boundary; reread from line_start
      }
      header_text.append(chunk, line_start, nl - line_start + 1);
      line_start = nl + 1;
    }
    offset += line_start;
    if (line_start == 0 && !done) {
      throw FormatError("header line longer than 1 MiB in '" + path + "'");
    }
  }
  body_offset_ = offset;
  file_pos_ = offset;
  header_ = SamHeader::from_text(header_text);
}

bool SamFileReader::fill() {
  // Shift the unread tail down and append the next chunk.
  buffer_.erase(0, buffer_pos_);
  buffer_pos_ = 0;
  if (file_pos_ >= file_size_) {
    return !buffer_.empty();
  }
  size_t want = 4 << 20;
  std::string chunk = file_->read_at(file_pos_, want);
  file_pos_ += chunk.size();
  buffer_ += chunk;
  return !buffer_.empty();
}

bool SamFileReader::next(AlignmentRecord& out) {
  while (true) {
    size_t nl = buffer_pos_ + simd::find_byte(buffer_.data() + buffer_pos_,
                                              buffer_.size() - buffer_pos_,
                                              '\n');
    if (nl == buffer_.size()) {
      bool more_possible = file_pos_ < file_size_;
      if (!more_possible) {
        // Final line without trailing newline.
        if (buffer_pos_ < buffer_.size()) {
          std::string_view line(buffer_.data() + buffer_pos_,
                                buffer_.size() - buffer_pos_);
          buffer_pos_ = buffer_.size();
          if (!is_alignment_line(line)) {
            return false;
          }
          parse_record(line, header_, out);
          return true;
        }
        return false;
      }
      if (!fill()) {
        return false;
      }
      continue;
    }
    std::string_view line(buffer_.data() + buffer_pos_, nl - buffer_pos_);
    buffer_pos_ = nl + 1;
    if (!is_alignment_line(line)) {
      continue;
    }
    parse_record(line, header_, out);
    return true;
  }
}

// ------------------------------------------------------------- SamFileWriter

SamFileWriter::SamFileWriter(const std::string& path, const SamHeader& header)
    : header_(header), out_(std::make_unique<OutputFile>(path)) {
  out_->write(header_.text());
}

void SamFileWriter::write(const AlignmentRecord& rec) {
  line_.clear();
  format_record(rec, header_, line_);
  line_ += '\n';
  out_->write(line_);
}

void SamFileWriter::close() { out_->close(); }

uint64_t SamFileWriter::bytes_written() const { return out_->bytes_written(); }

}  // namespace ngsx::sam
