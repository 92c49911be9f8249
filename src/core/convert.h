// ngsx/core/convert.h
//
// The three converter instances of the paper's framework (§III):
//
//   1. SAM format converter           — Algorithm-1 byte partitioning, then
//                                       independent parse + convert + write
//                                       per rank (Figure 2).
//   2. BAM format converter           — preprocessing into BAMX shards +
//                                       BAIX, then parallel conversion by
//                                       record-range partitioning
//                                       (Figure 3); supports *partial
//                                       conversion* of a genomic region via
//                                       BAIX binary search.
//   3. Preprocessing-optimized SAM
//      format converter               — the same preprocessing fed by
//                                       Algorithm-1 chunks of the SAM text,
//                                       producing M BAMX shards that the
//                                       conversion phase then consumes
//                                       (Figure 5; M x N output files).
//
// Both preprocessors are one pipeline behind a per-format front-end, and
// every BAMX conversion is a plan (every record, or a region's record
// list) run by one executor. Every conversion runs on one driver, the
// paper's scheme: minimpi ranks (threads standing in for MPI processes,
// or real processes under ngsx_mpirun), each converting one fixed byte or
// record range into its own part file with no communication after
// partitioning.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/target.h"
#include "formats/baix2.h"
#include "formats/bamx.h"

namespace ngsx::core {

/// A genomic region for partial conversion, zero-based half-open.
struct Region {
  int32_t ref_id = -1;
  int32_t begin = 0;
  int32_t end = 0;
};

/// Parses "chr1", "chr1:1000-2000" (1-based inclusive, samtools style)
/// against `header`. Throws UsageError on unknown chromosome / bad syntax.
Region parse_region(std::string_view text, const sam::SamHeader& header);

/// Options shared by the converters.
struct ConvertOptions {
  TargetFormat format = TargetFormat::kBed;
  int ranks = 1;               // parallel conversion width (N)
  bool include_header = true;  // SAM/BAM part files carry a header
};

/// Aggregate statistics of one conversion run.
struct ConvertStats {
  uint64_t records_in = 0;    // alignment objects parsed
  uint64_t records_out = 0;   // target objects emitted
  uint64_t bytes_in = 0;      // input bytes consumed
  uint64_t bytes_out = 0;     // output bytes produced
  double seconds = 0.0;       // wall time of the timed phase

  /// Paths of the part files produced (one per conversion rank).
  std::vector<std::string> outputs;
};

/// Statistics of a preprocessing phase.
struct PreprocessStats {
  uint64_t records = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;  // shards + manifest + BAIX
  double seconds = 0.0;
};

// ---------------------------------------------------------------------------
// 1. SAM format converter (§III-A).
// ---------------------------------------------------------------------------

/// Converts `sam_path` into `options.format`, writing
/// `<out_dir>/part-<rank><ext>` per rank. The input is partitioned with
/// Algorithm 1 (forward variant) executed collectively by the ranks.
ConvertStats convert_sam(const std::string& sam_path,
                         const std::string& out_dir,
                         const ConvertOptions& options);

// ---------------------------------------------------------------------------
// 2. BAM format converter (§III-B).
// ---------------------------------------------------------------------------

/// Options for the BAM preprocessor.
struct PreprocessOptions {
  int threads = 0;         // parse+encode pipeline workers; 0 => hardware
  int decode_threads = 0;  // BGZF inflate workers; 0 => auto
  int shards = 0;          // M output shards; 0 => threads
  size_t chunk_records = 4096;  // records per pipeline ticket
};

/// Single-pass parallel preprocessing: BAM -> M BAMX shards + BAMXM
/// manifest + merged BAIX. Record framing stays serial (the §III-B
/// constraint) but runs once, feeding an exec::ordered_pipeline whose
/// workers decode and encode chunks under chunk-local layouts; the ordered
/// committer stages the chunk blobs and merges the global layout, and a
/// final parallel pass re-strides the staged records into M shards carrying
/// the global layout while the per-chunk sorted BAIX runs are merged on the
/// pool. For any thread, shard and chunk count the shards concatenate to a
/// direct encode of every record under the global layout, and the BAIX
/// equals BaixIndex::from_entries over all records; `threads = 1` is the
/// sequential baseline.
///
/// Writes `manifest_path` (must end in ".bamxm"), shards named
/// "<manifest stem>-shard-<k>.bamx" next to it, and `baix_path`. The
/// manifest is published last, and a failure removes the shards and BAIX
/// already committed, so an error never publishes anything under a final
/// name.
PreprocessStats preprocess_bam_parallel(const std::string& bam_path,
                                        const std::string& manifest_path,
                                        const std::string& baix_path,
                                        const PreprocessOptions& options = {});

/// Parallel conversion phase over a preprocessed BAMX file — either a
/// monolithic .bamx or a .bamxm shard manifest (`bamx_path` is sniffed by
/// magic). With `region`, performs partial conversion: the BAIX is
/// binary-searched for the region and only the matching records are
/// fetched (random access) and converted.
ConvertStats convert_bamx(const std::string& bamx_path,
                          const std::string& baix_path,
                          const std::string& out_dir,
                          const ConvertOptions& options,
                          std::optional<Region> region = std::nullopt);

/// Extended partial conversion over a BAIX v2 index (the paper's
/// future-work "more partial conversion types"): overlap or start-within
/// region semantics plus index-resolvable filters (min MAPQ, strand,
/// duplicate exclusion). Non-matching records are never fetched.
ConvertStats convert_bamx_filtered(const std::string& bamx_path,
                                   const std::string& baix2_path,
                                   const std::string& out_dir,
                                   const ConvertOptions& options,
                                   const Region& region,
                                   baix2::RegionMode mode,
                                   const baix2::Filter& filter = {});

/// Builds the v2 index next to an existing BAMX file.
void build_baix2(const std::string& bamx_path, const std::string& baix2_path);

/// Convenience: the paper's "conversion without preprocessing" baseline —
/// a purely sequential BAM -> target stream (what Table I's ours-without-
/// preprocessing column for BAM measures).
ConvertStats convert_bam_sequential(const std::string& bam_path,
                                    const std::string& out_path,
                                    TargetFormat format,
                                    int decode_threads = 1);

// ---------------------------------------------------------------------------
// 3. Preprocessing-optimized SAM format converter (§III-C).
// ---------------------------------------------------------------------------

/// Parallel preprocessing of SAM: preprocess_bam_parallel's pipeline with
/// a SAM front-end — the alignment body is cut into Algorithm-1 forward
/// chunks that `m` workers parse — writing `m` shards behind the BAMXM
/// manifest `manifest_path` plus one merged BAIX, named and committed as
/// preprocess_bam_parallel does.
PreprocessStats preprocess_sam_parallel(const std::string& sam_path,
                                        const std::string& manifest_path,
                                        const std::string& baix_path, int m);

/// Conversion phase over the M shards of `manifest_path`: each shard is
/// converted with `options.ranks` (N) ranks into `<out_dir>/shard-<m>`,
/// producing the paper's M x N target files.
ConvertStats convert_bamx_shards(const std::string& manifest_path,
                                 const std::string& out_dir,
                                 const ConvertOptions& options);

}  // namespace ngsx::core
