// Ablation: the BAMX fixed-stride padded layout (§III-B).
//
// Quantifies both sides of the paper's central trade-off:
//   + decode speed: fixed-offset field access vs SAM text parsing vs
//     BAM inflate+decode vs BamTools-style decode+adapt (real, measured);
//   - space: padding amplifies the file vs BAM (and vs SAM), the cost the
//     paper proposes to attack with compression in future work.

#include <cstdio>
#include <string>
#include <string_view>

#include "baseline/picardlike.h"
#include "bench_util.h"
#include "core/convert.h"
#include "formats/bam.h"
#include "formats/bamx.h"
#include "simdata/readsim.h"
#include "util/cli.h"
#include "util/tempdir.h"
#include "util/timer.h"

using namespace ngsx;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const uint64_t pairs = static_cast<uint64_t>(args.get_int("pairs", 25000));

  bench::print_header("Ablation: BAMX layout regularity");
  TempDir tmp("ablate-bamx");
  auto genome = simdata::ReferenceGenome::simulate(
      simdata::mouse_like_references(2'000'000), 77);
  simdata::ReadSimConfig cfg;
  cfg.seed = 77;
  const std::string sam_path = tmp.file("d.sam");
  const std::string bam_path = tmp.file("d.bam");
  simdata::write_sam_dataset(sam_path, genome, pairs, cfg);
  simdata::write_bam_dataset(bam_path, genome, pairs, cfg);
  // One shard, so the whole dataset is one monolithic BAMX file.
  core::PreprocessOptions popt;
  popt.shards = 1;
  auto pre = core::preprocess_bam_parallel(bam_path, tmp.file("d.bamxm"),
                                           tmp.file("d.baix"), popt);
  const std::string bamx_path = tmp.file("d-shard-0.bamx");
  const double n = static_cast<double>(pre.records);

  // Space amplification.
  uint64_t sam_size = file_size(sam_path);
  uint64_t bam_size = file_size(bam_path);
  uint64_t bamx_size = file_size(bamx_path);
  std::printf("space: SAM %.1f MB, BAM %.1f MB, BAMX %.1f MB "
              "(padding amplification vs BAM: %.2fx, vs SAM: %.2fx)\n",
              sam_size / 1e6, bam_size / 1e6, bamx_size / 1e6,
              static_cast<double>(bamx_size) / bam_size,
              static_cast<double>(bamx_size) / sam_size);

  // Decode throughput of each access path (records/s, full scan).
  {
    WallTimer t;
    sam::SamFileReader reader(sam_path);
    sam::AlignmentRecord rec;
    uint64_t count = 0;
    while (reader.next(rec)) {
      ++count;
    }
    std::printf("scan SAM text parse:        %8.2f s (%6.0f krec/s)\n",
                t.seconds(), count / t.seconds() / 1e3);
  }
  {
    WallTimer t;
    bam::BamFileReader reader(bam_path);
    sam::AlignmentRecord rec;
    uint64_t count = 0;
    while (reader.next(rec)) {
      ++count;
    }
    std::printf("scan BAM native decode:     %8.2f s (%6.0f krec/s)\n",
                t.seconds(), count / t.seconds() / 1e3);
  }
  {
    WallTimer t;
    baseline::BamToolsStyleReader reader(bam_path);
    baseline::BamToolsAlignment a;
    uint64_t count = 0;
    while (reader.GetNextAlignment(a)) {
      sam::AlignmentRecord rec = baseline::adapt(a, reader.header());
      ++count;
    }
    std::printf("scan BamTools-style + adapt:%8.2f s (%6.0f krec/s)\n",
                t.seconds(), count / t.seconds() / 1e3);
  }
  {
    WallTimer t;
    // The conversion phase's fetch: one read per 4096-record run, each
    // record decoded into one reused AlignmentRecord.
    bamx::RecordSource reader(bamx_path);
    const uint64_t stride = reader.layout().stride();
    std::string bytes;
    sam::AlignmentRecord rec;
    for (uint64_t at = 0; at < reader.num_records();) {
      uint64_t take = std::min<uint64_t>(4096, reader.num_records() - at);
      bytes.clear();
      reader.read_raw_range(at, at + take, bytes);
      for (uint64_t i = 0; i < take; ++i) {
        bamx::decode_record(std::string_view(bytes).substr(i * stride, stride),
                            reader.layout(), rec);
      }
      at += take;
    }
    std::printf("scan BAMX fixed-stride:     %8.2f s (%6.0f krec/s)\n",
                t.seconds(), n / t.seconds() / 1e3);
  }

  // Random access: only BAMX supports it without an index walk.
  {
    bamx::RecordSource reader(bamx_path);
    sam::AlignmentRecord rec;
    std::string body;
    WallTimer t;
    const uint64_t probes = 20000;
    uint64_t state = 88172645463325252ull;
    for (uint64_t i = 0; i < probes; ++i) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      const uint64_t at = state % reader.num_records();
      body.clear();
      reader.read_raw_range(at, at + 1, body);
      bamx::decode_record(body, reader.layout(), rec);
    }
    std::printf("BAMX random access:         %8.2f us/record\n",
                t.seconds() * 1e6 / probes);
  }
  return 0;
}
