#include "core/convert.h"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <iterator>

#include "core/partition.h"
#include "core/session.h"
#include "exec/pipeline.h"
#include "exec/pool.h"
#include "formats/bam.h"
#include "mpi/minimpi.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/simd.h"
#include "util/strutil.h"
#include "util/timer.h"

namespace fs = std::filesystem;

namespace ngsx::core {

using sam::AlignmentRecord;
using sam::SamHeader;

// ------------------------------------------------------------------- region

Region parse_region(std::string_view text, const SamHeader& header) {
  Region region;
  size_t colon = text.rfind(':');
  std::string_view chrom = text;
  if (colon != std::string_view::npos &&
      text.find('-', colon) != std::string_view::npos) {
    chrom = text.substr(0, colon);
    std::string_view range = text.substr(colon + 1);
    size_t dash = range.find('-');
    int64_t beg1 =
        strutil::parse_int<int64_t>(range.substr(0, dash), "region begin");
    int64_t end1 =
        strutil::parse_int<int64_t>(range.substr(dash + 1), "region end");
    if (beg1 < 1 || end1 < beg1) {
      throw UsageError("bad region range in '" + std::string(text) + "'");
    }
    region.begin = static_cast<int32_t>(beg1 - 1);  // 1-based incl -> 0-based
    region.end = static_cast<int32_t>(end1);        // inclusive -> half-open
  }
  region.ref_id = header.ref_id(chrom);
  if (region.ref_id < 0) {
    throw UsageError("unknown chromosome '" + std::string(chrom) +
                     "' in region '" + std::string(text) + "'");
  }
  if (colon == std::string_view::npos ||
      text.find('-', colon) == std::string_view::npos) {
    region.begin = 0;
    region.end = static_cast<int32_t>(header.ref_length(region.ref_id));
  }
  return region;
}

// ----------------------------------------------------------------- internals

namespace {

struct LocalStats {
  uint64_t records_in = 0;
  uint64_t records_out = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
};

/// The runtime's read buffer per rank (Figure 2).
constexpr size_t kReadBufferBytes = 4 << 20;

/// Iterates complete lines over a byte range of a file, reading
/// `buffer_bytes` at a time.
class LineRangeReader {
 public:
  LineRangeReader(const InputFile& file, ByteRange range, size_t buffer_bytes)
      : file_(file), range_(range), cursor_(range.begin),
        buffer_bytes_(std::max<size_t>(buffer_bytes, 64 << 10)) {}

  /// Next complete line (without '\n'); false when the range is exhausted.
  bool next(std::string_view& line) {
    while (true) {
      size_t nl = pos_ + simd::find_byte(buffer_.data() + pos_,
                                         buffer_.size() - pos_, '\n');
      if (nl != buffer_.size()) {
        line = std::string_view(buffer_.data() + pos_, nl - pos_);
        pos_ = nl + 1;
        return true;
      }
      if (cursor_ >= range_.end) {
        if (pos_ < buffer_.size()) {
          // Trailing line without newline (can only be the file's last).
          line = std::string_view(buffer_.data() + pos_,
                                  buffer_.size() - pos_);
          pos_ = buffer_.size();
          return true;
        }
        return false;
      }
      buffer_.erase(0, pos_);
      pos_ = 0;
      size_t want = static_cast<size_t>(
          std::min<uint64_t>(buffer_bytes_, range_.end - cursor_));
      std::string chunk = file_.read_at(cursor_, want);
      if (chunk.empty()) {
        cursor_ = range_.end;
        continue;
      }
      cursor_ += chunk.size();
      buffer_ += chunk;
    }
  }

 private:
  const InputFile& file_;
  ByteRange range_;
  uint64_t cursor_;
  size_t buffer_bytes_;
  std::string buffer_;
  size_t pos_ = 0;
};

/// Parses every alignment line of `range`, handing each record to `emit`;
/// lines follow sam::is_alignment_line. The record object is reused across
/// lines, so `emit` may keep its capacity or move it out.
template <class Emit>
void for_each_sam_record(const InputFile& file, ByteRange range,
                         size_t buffer_bytes, const SamHeader& header,
                         Emit&& emit) {
  LineRangeReader lines(file, range, buffer_bytes);
  AlignmentRecord rec;
  std::string_view line;
  while (lines.next(line)) {
    if (!sam::is_alignment_line(line)) {
      continue;
    }
    sam::parse_record(line, header, rec);
    emit(rec);
  }
}

/// Algorithm-1 forward sub-chunks of `range` of about `target_bytes` each,
/// empty ones dropped.
std::vector<ByteRange> sam_chunks(const InputFile& file, ByteRange range,
                                  uint64_t target_bytes) {
  std::vector<ByteRange> chunks;
  if (range.size() == 0) {
    return chunks;
  }
  const int k = static_cast<int>(std::clamp<uint64_t>(
      range.size() / std::max<uint64_t>(target_bytes, 1), 1, 1 << 14));
  for (const ByteRange& sub : partition_sam_forward(file, range, k)) {
    if (sub.size() != 0) {
      chunks.push_back(sub);
    }
  }
  return chunks;
}

std::string part_path(const std::string& out_dir, int rank,
                      TargetFormat format) {
  return out_dir + "/part-" + std::to_string(rank) +
         std::string(target_extension(format));
}

// Converter observability (docs/OBSERVABILITY.md, layer "convert").
// Stage wall time comes from obs::StageScope (registered only when the
// stage actually runs); these record the merged record/byte totals, once
// per conversion.
void record_convert_stats(const ConvertStats& stats) {
  if (!obs::metrics_enabled()) {
    return;
  }
  obs::counter("convert.records.in").add(stats.records_in);
  obs::counter("convert.records.out").add(stats.records_out);
  obs::counter("convert.bytes.in").add(stats.bytes_in);
  obs::counter("convert.bytes.out").add(stats.bytes_out);
}

void record_preprocess_stats(const PreprocessStats& stats) {
  if (!obs::metrics_enabled()) {
    return;
  }
  obs::counter("convert.preprocess.records").add(stats.records);
  obs::counter("convert.preprocess.bytes_in").add(stats.bytes_in);
  obs::counter("convert.preprocess.bytes_out").add(stats.bytes_out);
}

/// Reads the SAM header and the offset where alignment lines begin.
std::pair<SamHeader, uint64_t> read_sam_header(const std::string& path) {
  sam::SamFileReader reader(path);
  return {reader.header(), reader.alignment_start_offset()};
}

/// One part file being written, with its running totals.
struct Part {
  std::unique_ptr<TargetWriter> writer;
  LocalStats stats;

  void write(const AlignmentRecord& rec) {
    ++stats.records_in;
    if (writer->write(rec)) {
      ++stats.records_out;
    }
  }

  void close() {
    writer->close();
    stats.bytes_out = writer->bytes_written();
  }
};

// --------------------------------------------------------------- the driver

/// The conversion driver, the paper's scheme: one mpi rank per part file.
/// `fill` writes the rank's whole part and sets its bytes_in; ranks
/// coordinate only inside `fill` (Algorithm 1's boundary exchange for SAM)
/// and in the closing allgather of the per-part totals.
ConvertStats run_static(const std::string& out_dir,
                        const ConvertOptions& options, const SamHeader& header,
                        const std::function<void(mpi::Comm&, Part&)>& fill) {
  static_assert(std::is_trivially_copyable_v<LocalStats>);
  std::vector<LocalStats> locals(static_cast<size_t>(options.ranks));
  WallTimer timer;
  mpi::run(options.ranks, [&](mpi::Comm& comm) {
    Part part{make_target_writer(
                  options.format,
                  part_path(out_dir, comm.rank(), options.format), header,
                  options.include_header),
              {}};
    fill(comm, part);
    part.close();
    // Publishes every rank's totals into `locals` on every transport. Under
    // threads one writer (rank 0) fills the shared vector; under tcp
    // each process owns a private copy, so every rank fills its own, which
    // gives correct totals on all ranks of a launched world.
    const std::vector<LocalStats> all =
        comm.allgather_values<LocalStats>(part.stats);
    if (comm.rank() == 0 || !mpi::ranks_share_address_space()) {
      std::copy(all.begin(), all.end(), locals.begin());
    }
  });

  // Part paths are a pure function of the part index, so they need no
  // communication even when the ranks are separate processes.
  ConvertStats stats;
  for (size_t p = 0; p < locals.size(); ++p) {
    stats.records_in += locals[p].records_in;
    stats.records_out += locals[p].records_out;
    stats.bytes_in += locals[p].bytes_in;
    stats.bytes_out += locals[p].bytes_out;
    stats.outputs.push_back(
        part_path(out_dir, static_cast<int>(p), options.format));
  }
  stats.seconds = timer.seconds();
  record_convert_stats(stats);
  return stats;
}

// ------------------------------------------------ the BAMX conversion executor

/// Converts a plan: `plan` lists the record indices to emit, in order (a
/// region plan), or is null for every record of the session's source. Each
/// of the `options.ranks` parts gets an even share of the plan, which its
/// rank fetches through the session, formats and writes.
ConvertStats execute_plan(const ConversionSession& session,
                          const std::vector<uint64_t>* plan,
                          const std::string& out_dir,
                          const ConvertOptions& options) {
  const uint64_t size =
      plan != nullptr ? plan->size() : session.num_records();
  const uint64_t stride = session.stride();
  const auto shares = split_records(size, options.ranks);
  return run_static(
      out_dir, options, session.header(), [&](mpi::Comm& comm, Part& part) {
        const auto [begin, end] = shares[static_cast<size_t>(comm.rank())];
        part.stats.bytes_in = (end - begin) * stride;
        session.fetch(plan, begin, end,
                      [&](AlignmentRecord& rec) { part.write(rec); });
      });
}

// ---------------------------------------------------------- the preprocessor

/// Target chunk size of the SAM preprocessing front-end.
constexpr uint64_t kSamChunkBytes = 1 << 20;

/// The one preprocessor: input -> `n_shards` BAMX shards + BAMXM manifest
/// + merged BAIX. A format front-end supplies the per-input parts: `next`,
/// the serial source framing the next raw chunk in input order (false at
/// the end), and `decode`, which turns one raw chunk into records on a
/// pipeline worker. The rest is shared:
///   1. workers encode each chunk under a chunk-local layout, plus the
///      chunk's sorted BAIX run; the ordered committer (ticket order ==
///      input order) stages the blobs and merges the global layout;
///   2. a parallel pass re-strides the staged records into the shards,
///      while the per-chunk runs are pairwise merged on the pool;
///   3. the manifest is published last.
template <class Raw>
PreprocessStats run_preprocessor(
    const std::string& input_path, const SamHeader& header,
    const std::string& manifest_path, const std::string& baix_path,
    int threads, int n_shards, const WallTimer& timer,
    const std::function<bool(Raw&)>& next,
    const std::function<void(Raw&&, std::vector<AlignmentRecord>&)>& decode) {
  PreprocessStats stats;
  stats.bytes_in = ngsx::file_size(input_path);
  const std::string stem =
      strutil::ends_with(manifest_path, ".bamxm")
          ? manifest_path.substr(0, manifest_path.size() - 6)
          : manifest_path;
  const fs::path stem_path(stem);
  const std::string shard_dir = stem_path.has_parent_path()
                                    ? stem_path.parent_path().string()
                                    : std::string(".");
  const std::string shard_stem = stem_path.filename().string();

  /// One encoded chunk: its records under a chunk-local layout, plus the
  /// chunk's sorted BAIX run.
  struct EncodedChunk {
    bamx::BamxLayout layout;
    std::string blob;
    std::vector<bamx::BaixEntry> entries;
  };
  /// A committed chunk inside the staging file, still on its local layout.
  struct Segment {
    bamx::BamxLayout layout;
    uint64_t n_records = 0;
    uint64_t offset = 0;
  };

  // The staging file holds the local-layout chunk blobs between the
  // pipeline and the re-stride pass; it is scratch, never published, and
  // removed on every exit path. `published` lists the final names
  // committed so far (shards, then the BAIX): until the manifest is out, a
  // failure removes them again, so an error publishes nothing.
  struct Cleanup {
    std::string staging;
    std::vector<std::string> published;
    ~Cleanup() {
      std::error_code ec;
      fs::remove(staging, ec);
      for (const std::string& path : published) {
        if (!path.empty()) {
          fs::remove(path, ec);
        }
      }
    }
  } cleanup{stem + ".segs.tmp",
            std::vector<std::string>(static_cast<size_t>(n_shards) + 1)};

  exec::Pool pool(threads);
  std::vector<Segment> segments;
  std::vector<std::vector<bamx::BaixEntry>> runs;
  bamx::BamxLayout global;
  uint64_t total_records = 0;
  uint64_t staging_bytes = 0;

  // Stage 1 — the single pass: serial framing source, parallel
  // decode+encode workers, ordered committer (ticket order == input order,
  // so record bases and the staged byte order equal a sequential pass).
  {
    obs::Span span("convert", "preprocess.pipeline");
    OutputFile staging(cleanup.staging, 1 << 20, OutputFile::Commit::kDirect);
    try {
      exec::PipelineOptions popt;
      popt.workers = threads;
      exec::ordered_pipeline<Raw, EncodedChunk>(
          pool,
          [&](Raw& raw) {
            obs::Span frame_span("convert", "preprocess.frame");
            return next(raw);
          },
          [&](Raw&& raw, uint64_t) {
            obs::Span encode_span("convert", "preprocess.encode");
            std::vector<AlignmentRecord> recs;
            decode(std::move(raw), recs);
            EncodedChunk out;
            for (const AlignmentRecord& rec : recs) {
              out.layout.accommodate(rec);
            }
            out.blob.reserve(recs.size() * out.layout.stride());
            out.entries.reserve(recs.size());
            for (size_t k = 0; k < recs.size(); ++k) {
              bamx::encode_record(recs[k], out.layout, out.blob);
              out.entries.push_back(
                  bamx::BaixEntry{recs[k].ref_id, recs[k].pos, k});
            }
            std::stable_sort(out.entries.begin(), out.entries.end(),
                             bamx::baix_entry_less);
            return out;
          },
          [&](EncodedChunk&& chunk, uint64_t) {
            obs::Span commit_span("convert", "preprocess.commit");
            const uint64_t n = chunk.entries.size();
            for (bamx::BaixEntry& e : chunk.entries) {
              e.record_index += total_records;
            }
            runs.push_back(std::move(chunk.entries));
            segments.push_back(Segment{chunk.layout, n, staging_bytes});
            staging.write(chunk.blob);
            staging_bytes += chunk.blob.size();
            global.merge(chunk.layout);
            total_records += n;
          },
          popt);
      staging.close();
    } catch (...) {
      staging.discard();
      throw;
    }
  }
  stats.records = total_records;
  if (obs::metrics_enabled()) {
    obs::counter("convert.preprocess.chunks").add(segments.size());
    obs::counter("convert.preprocess.shards").add(n_shards);
  }

  // Stage 2a — parallel re-stride: each shard owner copies its record
  // range out of the staging segments into a final atomic-commit BAMX
  // carrying the merged global layout. Per-section byte copies — no
  // re-parse; restride_record output is bit-identical to a direct encode
  // under the global layout.
  std::vector<uint64_t> seg_bases(segments.size() + 1, 0);
  for (size_t s = 0; s < segments.size(); ++s) {
    seg_bases[s + 1] = seg_bases[s] + segments[s].n_records;
  }
  auto shard_ranges = split_records(total_records, n_shards);
  bamx::BamxManifest manifest;
  manifest.layout = global;
  manifest.n_records = total_records;
  manifest.shards.resize(static_cast<size_t>(n_shards));
  {
    obs::Span span("convert", "preprocess.restride");
    InputFile staged(cleanup.staging);
    exec::TaskGroup group(pool);
    for (int s = 0; s < n_shards; ++s) {
      group.spawn([&, s] {
        auto [lo, hi] = shard_ranges[static_cast<size_t>(s)];
        const std::string shard_name =
            shard_stem + "-shard-" + std::to_string(s) + ".bamx";
        const std::string shard_path = shard_dir + "/" + shard_name;
        bamx::BamxWriter writer(shard_path, header, global);
        size_t seg = static_cast<size_t>(
            std::upper_bound(seg_bases.begin(), seg_bases.end() - 1, lo) -
            seg_bases.begin() - 1);
        std::string bytes;
        std::string rec_out;
        for (uint64_t at = lo; at < hi;) {
          while (seg_bases[seg + 1] <= at) {
            ++seg;
          }
          const Segment& segment = segments[seg];
          const uint64_t from_stride = segment.layout.stride();
          const uint64_t take =
              std::min<uint64_t>(hi, seg_bases[seg + 1]) - at;
          bytes = staged.read_at(
              segment.offset + (at - seg_bases[seg]) * from_stride,
              static_cast<size_t>(take * from_stride));
          for (uint64_t k = 0; k < take; ++k) {
            rec_out.clear();
            bamx::restride_record(
                std::string_view(bytes).substr(
                    static_cast<size_t>(k * from_stride),
                    static_cast<size_t>(from_stride)),
                segment.layout, global, rec_out);
            writer.write_raw(rec_out);
          }
          at += take;
        }
        writer.close();
        cleanup.published[static_cast<size_t>(s)] = shard_path;
        manifest.shards[static_cast<size_t>(s)] =
            bamx::ManifestShard{shard_name, hi - lo, lo};
      });
    }
    group.wait();
  }

  // Stage 2b — parallel BAIX merge: pairwise-merge the per-chunk sorted
  // runs on the pool. std::merge takes the left run on ties and runs are
  // in ticket (= record) order, so the result equals from_entries'
  // stable_sort over all entries.
  {
    obs::Span span("convert", "preprocess.index");
    while (runs.size() > 1) {
      std::vector<std::vector<bamx::BaixEntry>> merged_runs(
          (runs.size() + 1) / 2);
      exec::TaskGroup group(pool);
      for (size_t i = 0; i + 1 < runs.size(); i += 2) {
        group.spawn([&, i] {
          std::vector<bamx::BaixEntry> merged;
          merged.reserve(runs[i].size() + runs[i + 1].size());
          std::merge(runs[i].begin(), runs[i].end(), runs[i + 1].begin(),
                     runs[i + 1].end(), std::back_inserter(merged),
                     bamx::baix_entry_less);
          merged_runs[i / 2] = std::move(merged);
        });
      }
      if (runs.size() % 2 != 0) {
        merged_runs.back() = std::move(runs.back());
      }
      group.wait();
      runs = std::move(merged_runs);
    }
    std::vector<bamx::BaixEntry> entries =
        runs.empty() ? std::vector<bamx::BaixEntry>{} : std::move(runs[0]);
    bamx::BaixIndex::from_sorted_entries(std::move(entries)).save(baix_path);
    cleanup.published.back() = baix_path;
  }

  // The manifest is published last: readers can never observe a manifest
  // whose shards are not all committed under their final names.
  manifest.save(manifest_path);
  cleanup.published.clear();

  stats.bytes_out = ngsx::file_size(manifest_path) + ngsx::file_size(baix_path);
  for (const bamx::ManifestShard& s : manifest.shards) {
    stats.bytes_out += ngsx::file_size(shard_dir + "/" + s.path);
  }
  stats.seconds = timer.seconds();
  record_preprocess_stats(stats);
  return stats;
}

}  // namespace

// ------------------------------------------------------- 1. SAM converter

ConvertStats convert_sam(const std::string& sam_path,
                         const std::string& out_dir,
                         const ConvertOptions& options) {
  NGSX_CHECK_MSG(options.ranks >= 1, "ranks must be >= 1");
  obs::StageScope stage("convert.stage.convert", "convert", "convert");
  fs::create_directories(out_dir);
  auto [header, body_offset] = read_sam_header(sam_path);
  const ByteRange body{body_offset, ngsx::file_size(sam_path)};

  return run_static(
      out_dir, options, header, [&](mpi::Comm& comm, Part& part) {
        InputFile file(sam_path);  // each rank opens the input independently
        const ByteRange range = partition_sam_distributed(file, body, comm);
        part.stats.bytes_in = range.size();
        for_each_sam_record(file, range, kReadBufferBytes, header,
                            [&](AlignmentRecord& rec) { part.write(rec); });
      });
}

// ------------------------------------------------------- 2. BAM converter

PreprocessStats preprocess_bam_parallel(const std::string& bam_path,
                                        const std::string& manifest_path,
                                        const std::string& baix_path,
                                        const PreprocessOptions& options) {
  obs::StageScope stage("convert.stage.preprocess", "convert", "preprocess");
  WallTimer timer;
  const int threads =
      options.threads > 0 ? options.threads : exec::hardware_threads();
  const size_t chunk_records = std::max<size_t>(options.chunk_records, 1);

  // BAM front-end: record framing is the serial part (BAM offers no random
  // access into records). One raw chunk is the framed but undecoded bodies
  // of up to chunk_records records.
  struct RawChunk {
    std::string bytes;
    std::vector<uint32_t> sizes;
  };
  bam::BamFileReader reader(bam_path, options.decode_threads);
  return run_preprocessor<RawChunk>(
      bam_path, reader.header(), manifest_path, baix_path, threads,
      options.shards > 0 ? options.shards : threads, timer,
      [&](RawChunk& chunk) {
        std::string body;
        while (chunk.sizes.size() < chunk_records && reader.next_raw(body)) {
          chunk.sizes.push_back(static_cast<uint32_t>(body.size()));
          chunk.bytes += body;
        }
        return !chunk.sizes.empty();
      },
      [](RawChunk&& chunk, std::vector<AlignmentRecord>& recs) {
        recs.resize(chunk.sizes.size());
        size_t off = 0;
        for (size_t k = 0; k < recs.size(); ++k) {
          bam::decode_record(
              std::string_view(chunk.bytes).substr(off, chunk.sizes[k]),
              recs[k]);
          off += chunk.sizes[k];
        }
      });
}

ConvertStats convert_bamx(const std::string& bamx_path,
                          const std::string& baix_path,
                          const std::string& out_dir,
                          const ConvertOptions& options,
                          std::optional<Region> region) {
  NGSX_CHECK_MSG(options.ranks >= 1, "ranks must be >= 1");
  obs::StageScope stage("convert.stage.convert", "convert", "convert");
  fs::create_directories(out_dir);

  // Session setup: sniff and open the source (monolithic .bamx or .bamxm
  // shard manifest), lazily load the BAIX. One-shot here; ngsx_serve keeps
  // a session resident across requests.
  ConversionSession session(SessionOptions{bamx_path, baix_path, {}});
  if (!region.has_value()) {
    return execute_plan(session, nullptr, out_dir, options);
  }
  // Partial conversion: the region's records in BAIX order, located by
  // binary search (paper §III-B).
  const std::vector<uint64_t> plan =
      session.plan(*region, baix2::RegionMode::kStartWithin);
  return execute_plan(session, &plan, out_dir, options);
}

void build_baix2(const std::string& bamx_path,
                 const std::string& baix2_path) {
  obs::StageScope stage("convert.stage.index", "convert", "build_baix2");
  const ConversionSession session(SessionOptions{bamx_path, {}, {}});
  std::vector<baix2::Entry> entries;
  entries.reserve(session.num_records());
  session.fetch(nullptr, 0, session.num_records(), [&](AlignmentRecord& rec) {
    entries.push_back(baix2::Entry{rec.ref_id, rec.pos,
                                   rec.pos >= 0 ? rec.end_pos() : -1, rec.flag,
                                   rec.mapq, entries.size()});
  });
  baix2::Baix2Index::from_entries(std::move(entries)).save(baix2_path);
}

ConvertStats convert_bamx_filtered(const std::string& bamx_path,
                                   const std::string& baix2_path,
                                   const std::string& out_dir,
                                   const ConvertOptions& options,
                                   const Region& region,
                                   baix2::RegionMode mode,
                                   const baix2::Filter& filter) {
  NGSX_CHECK_MSG(options.ranks >= 1, "ranks must be >= 1");
  obs::StageScope stage("convert.stage.convert", "convert", "convert");
  fs::create_directories(out_dir);

  // The matching record set is resolved on the index alone; its indices
  // ascend, so each part's share stays I/O-local.
  ConversionSession session(SessionOptions{bamx_path, {}, baix2_path});
  const std::vector<uint64_t> plan = session.plan(region, mode, filter);
  return execute_plan(session, &plan, out_dir, options);
}

ConvertStats convert_bam_sequential(const std::string& bam_path,
                                    const std::string& out_path,
                                    TargetFormat format,
                                    int decode_threads) {
  obs::StageScope stage("convert.stage.convert", "convert", "convert");
  WallTimer timer;
  bam::BamFileReader reader(bam_path, decode_threads);
  auto writer = make_target_writer(format, out_path, reader.header(),
                                   /*include_header=*/true);
  ConvertStats stats;
  stats.bytes_in = ngsx::file_size(bam_path);
  AlignmentRecord rec;
  while (reader.next(rec)) {
    ++stats.records_in;
    if (writer->write(rec)) {
      ++stats.records_out;
    }
  }
  writer->close();
  stats.bytes_out = writer->bytes_written();
  stats.outputs = {out_path};
  stats.seconds = timer.seconds();
  record_convert_stats(stats);
  return stats;
}

// ------------------------------------- 3. preprocessing-optimized SAM

PreprocessStats preprocess_sam_parallel(const std::string& sam_path,
                                        const std::string& manifest_path,
                                        const std::string& baix_path, int m) {
  NGSX_CHECK_MSG(m >= 1, "m must be >= 1");
  obs::StageScope stage("convert.stage.preprocess", "convert", "preprocess");
  WallTimer timer;
  auto [header, body_offset] = read_sam_header(sam_path);

  // SAM front-end: Algorithm 1 cuts the alignment body into line-aligned
  // chunks up front; the workers read and parse them.
  const InputFile file(sam_path);
  const std::vector<ByteRange> chunks =
      sam_chunks(file, ByteRange{body_offset, ngsx::file_size(sam_path)},
                 kSamChunkBytes);
  size_t cursor = 0;
  return run_preprocessor<ByteRange>(
      sam_path, header, manifest_path, baix_path, m, m, timer,
      [&](ByteRange& chunk) {
        if (cursor >= chunks.size()) {
          return false;
        }
        chunk = chunks[cursor++];
        return true;
      },
      [&](ByteRange&& chunk, std::vector<AlignmentRecord>& recs) {
        for_each_sam_record(file, chunk, kSamChunkBytes, header,
                            [&](AlignmentRecord& rec) {
                              recs.push_back(std::move(rec));
                            });
      });
}

ConvertStats convert_bamx_shards(const std::string& manifest_path,
                                 const std::string& out_dir,
                                 const ConvertOptions& options) {
  const bamx::BamxManifest manifest = bamx::BamxManifest::load(manifest_path);
  const fs::path dir = fs::path(manifest_path).parent_path();
  fs::create_directories(out_dir);
  ConvertStats total;
  WallTimer timer;
  for (size_t m = 0; m < manifest.shards.size(); ++m) {
    ConvertStats s = convert_bamx((dir / manifest.shards[m].path).string(),
                                  /*baix_path=*/"",
                                  out_dir + "/shard-" + std::to_string(m),
                                  options);
    total.records_in += s.records_in;
    total.records_out += s.records_out;
    total.bytes_in += s.bytes_in;
    total.bytes_out += s.bytes_out;
    total.outputs.insert(total.outputs.end(), s.outputs.begin(),
                         s.outputs.end());
  }
  total.seconds = timer.seconds();
  return total;
}

}  // namespace ngsx::core
