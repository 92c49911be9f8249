#include "core/target.h"

#include "formats/bam.h"
#include "formats/textfmt.h"
#include "util/binio.h"

namespace ngsx::core {

using sam::AlignmentRecord;
using sam::SamHeader;

TargetFormat parse_target_format(std::string_view name) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) {
    lower += c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
  }
  if (lower == "sam") return TargetFormat::kSam;
  if (lower == "bam") return TargetFormat::kBam;
  if (lower == "bed") return TargetFormat::kBed;
  if (lower == "bedgraph" || lower == "bdg") return TargetFormat::kBedgraph;
  if (lower == "fasta" || lower == "fa") return TargetFormat::kFasta;
  if (lower == "fastq" || lower == "fq") return TargetFormat::kFastq;
  if (lower == "json") return TargetFormat::kJson;
  if (lower == "yaml" || lower == "yml") return TargetFormat::kYaml;
  throw UsageError("unknown target format '" + std::string(name) + "'");
}

std::string_view target_format_name(TargetFormat format) {
  switch (format) {
    case TargetFormat::kSam: return "sam";
    case TargetFormat::kBam: return "bam";
    case TargetFormat::kBed: return "bed";
    case TargetFormat::kBedgraph: return "bedgraph";
    case TargetFormat::kFasta: return "fasta";
    case TargetFormat::kFastq: return "fastq";
    case TargetFormat::kJson: return "json";
    case TargetFormat::kYaml: return "yaml";
  }
  throw UsageError("invalid target format enum");
}

std::string_view target_extension(TargetFormat format) {
  switch (format) {
    case TargetFormat::kSam: return ".sam";
    case TargetFormat::kBam: return ".bam";
    case TargetFormat::kBed: return ".bed";
    case TargetFormat::kBedgraph: return ".bedgraph";
    case TargetFormat::kFasta: return ".fasta";
    case TargetFormat::kFastq: return ".fastq";
    case TargetFormat::kJson: return ".jsonl";
    case TargetFormat::kYaml: return ".yaml";
  }
  throw UsageError("invalid target format enum");
}

namespace {

/// Text targets: record -> line(s) appended to a write buffer backed by an
/// OutputFile (the runtime's "write buffer" from Figure 2).
class TextTargetWriter final : public TargetWriter {
 public:
  using FormatFn = bool (*)(const AlignmentRecord&, const SamHeader&,
                            std::string&);

  TextTargetWriter(const std::string& path, const SamHeader& header,
                   FormatFn fn, std::string_view prologue)
      : out_(path), header_(header), fn_(fn) {
    if (!prologue.empty()) {
      out_.write(prologue);
    }
  }

  bool write(const AlignmentRecord& rec) override {
    line_.clear();
    bool emitted = fn_(rec, header_, line_);
    if (emitted) {
      out_.write(line_);
    }
    return emitted;
  }

  void close() override { out_.close(); }

  uint64_t bytes_written() const override { return out_.bytes_written(); }

 private:
  OutputFile out_;
  SamHeader header_;
  FormatFn fn_;
  std::string line_;
};

bool format_sam_line(const AlignmentRecord& rec, const SamHeader& header,
                     std::string& out) {
  sam::format_record(rec, header, out);
  out += '\n';
  return true;
}

/// BAM target on BGZF. Each rank writes its own part file, so the P ranks
/// already fill the cores: one deflate thread per writer.
class BamTargetWriter final : public TargetWriter {
 public:
  BamTargetWriter(const std::string& path, const SamHeader& header)
      : writer_(path, header) {}

  bool write(const AlignmentRecord& rec) override {
    writer_.write(rec);
    return true;
  }

  void close() override { writer_.close(); }

  uint64_t bytes_written() const override {
    return writer_.compressed_bytes();
  }

 private:
  bam::BamFileWriter writer_;
};

/// The per-record serializer behind each text target; nullptr for kBam.
TextTargetWriter::FormatFn text_format_fn(TargetFormat format) {
  switch (format) {
    case TargetFormat::kSam: return &format_sam_line;
    case TargetFormat::kBam: return nullptr;
    case TargetFormat::kBed: return &textfmt::append_bed;
    case TargetFormat::kBedgraph: return &textfmt::append_bedgraph;
    case TargetFormat::kFasta: return &textfmt::append_fasta;
    case TargetFormat::kFastq: return &textfmt::append_fastq;
    case TargetFormat::kJson: return &textfmt::append_json;
    case TargetFormat::kYaml: return &textfmt::append_yaml;
  }
  throw UsageError("invalid target format enum");
}

}  // namespace

bool is_text_target(TargetFormat format) {
  return text_format_fn(format) != nullptr;
}

std::string target_prologue(TargetFormat format, const SamHeader& header,
                            bool include_header) {
  if (format == TargetFormat::kBam) {
    throw UsageError("BAM is not a text target (no per-record byte form)");
  }
  if (format == TargetFormat::kSam && include_header) {
    return header.text();
  }
  return {};
}

bool format_target_record(TargetFormat format, const AlignmentRecord& rec,
                          const SamHeader& header, std::string& out) {
  TextTargetWriter::FormatFn fn = text_format_fn(format);
  if (fn == nullptr) {
    throw UsageError("BAM is not a text target (no per-record byte form)");
  }
  return fn(rec, header, out);
}

std::unique_ptr<TargetWriter> make_target_writer(TargetFormat format,
                                                 const std::string& path,
                                                 const SamHeader& header,
                                                 bool include_header) {
  if (format == TargetFormat::kBam) {
    return std::make_unique<BamTargetWriter>(path, header);
  }
  return std::make_unique<TextTargetWriter>(
      path, header, text_format_fn(format),
      target_prologue(format, header, include_header));
}

}  // namespace ngsx::core
