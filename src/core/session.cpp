#include "core/session.h"

#include <string_view>

namespace ngsx::core {

using sam::AlignmentRecord;

namespace {

/// Most records one read of ConversionSession::fetch covers.
constexpr uint64_t kFetchBatch = 4096;

}  // namespace

ConversionSession::ConversionSession(SessionOptions options)
    : options_(std::move(options)),
      source_(options_.bamx_path) {}

const bamx::BaixReader& ConversionSession::baix() const {
  // call_once retries after an exception, so a failed load is reported to
  // every caller rather than leaving later ones with an empty index.
  std::call_once(baix_once_, [this] {
    if (options_.baix_path.empty()) {
      throw UsageError("session has no BAIX index (partial conversion "
                       "requires one)");
    }
    baix_.emplace(options_.baix_path);
  });
  return *baix_;
}

const baix2::Baix2Index& ConversionSession::baix2() const {
  std::call_once(baix2_once_, [this] {
    if (options_.baix2_path.empty()) {
      throw UsageError("session has no BAIXv2 index (filtered conversion "
                       "requires one)");
    }
    baix2_.emplace(baix2::Baix2Index::load(options_.baix2_path));
  });
  return *baix2_;
}

std::vector<uint64_t> ConversionSession::plan(const Region& region,
                                              baix2::RegionMode mode,
                                              const baix2::Filter& filter) const {
  std::vector<uint64_t> indices;
  if (has_baix2()) {
    indices = baix2().query(region.ref_id, region.begin, region.end, mode,
                            filter);
  } else {
    const bool default_filter = filter.min_mapq == 0 &&
                                !filter.reverse_strand.has_value() &&
                                filter.include_duplicates;
    if (mode != baix2::RegionMode::kStartWithin || !default_filter) {
      throw UsageError(
          "overlap regions and filters require a BAIXv2 index (session only "
          "has a v1 BAIX)");
    }
    auto [first, last] =
        baix().query(region.ref_id, region.begin, region.end);
    for (const bamx::BaixEntry& e : baix().entries(first, last)) {
      indices.push_back(e.record_index);
    }
  }
  // An entry past the source's records means a damaged or mismatched
  // index: name the index file before any record is read.
  const std::string& index_path =
      has_baix2() ? options_.baix2_path : options_.baix_path;
  for (uint64_t record : indices) {
    if (record >= num_records()) {
      throw FormatError("BAIX '" + index_path + "' points at record " +
                        std::to_string(record) + ", but '" +
                        options_.bamx_path + "' holds " +
                        std::to_string(num_records()) + " records");
    }
  }
  return indices;
}

void ConversionSession::fetch(
    const std::vector<uint64_t>* plan, uint64_t begin, uint64_t end,
    const std::function<void(AlignmentRecord&)>& emit) const {
  // One read_raw_range per run of consecutive record indices (a
  // whole-source fetch is one long run), capped at kFetchBatch records;
  // the buffer and the record are reused across runs.
  auto index_at = [plan](uint64_t k) {
    return plan == nullptr ? k : (*plan)[static_cast<size_t>(k)];
  };
  const uint64_t record_bytes = stride();
  std::string bytes;
  AlignmentRecord rec;
  for (uint64_t k = begin; k < end;) {
    const uint64_t first = index_at(k);
    uint64_t run = 1;
    while (k + run < end && run < kFetchBatch &&
           index_at(k + run) == first + run) {
      ++run;
    }
    bytes.clear();
    source_.read_raw_range(first, first + run, bytes);
    const std::string_view view(bytes);
    for (uint64_t i = 0; i < run; ++i) {
      bamx::decode_record(view.substr(i * record_bytes, record_bytes),
                          source_.layout(), rec);
      emit(rec);
    }
    k += run;
  }
}

ConversionSession::FormatResult ConversionSession::format_records(
    const std::vector<uint64_t>& indices, TargetFormat format,
    bool include_header, std::string& out) const {
  const size_t start = out.size();
  FormatResult result;
  out += target_prologue(format, header(), include_header);
  fetch(&indices, 0, indices.size(), [&](AlignmentRecord& rec) {
    ++result.records_in;
    if (format_target_record(format, rec, header(), out)) {
      ++result.records_out;
    }
  });
  result.bytes = out.size() - start;
  return result;
}

}  // namespace ngsx::core
