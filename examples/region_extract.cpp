// Region extraction: the paper's *partial conversion* workflow (§III-B).
//
// Scenario: a lab has a large coordinate-sorted BAM and repeatedly needs
// small genomic windows in other formats (a SAM slice for a viewer, a BED
// track for annotation). Instead of converting the whole file every time,
// preprocess once into BAMX + BAIX, then answer each region request with a
// binary search plus random-access reads.
//
// Build & run:  ./build/examples/region_extract [--pairs N]
//               [--region chr1:100001-400000] [--ranks R]

#include <cstdio>

#include "core/convert.h"
#include "simdata/readsim.h"
#include "util/cli.h"
#include "util/tempdir.h"
#include "util/timer.h"

using namespace ngsx;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const uint64_t pairs = static_cast<uint64_t>(args.get_int("pairs", 20000));
  const int ranks = static_cast<int>(args.get_int("ranks", 4));
  const std::string region_text = args.get("region", "chr1:100001-400000");

  TempDir workspace("ngsx-region");

  // The "input from the sequencing core": a sorted BAM.
  auto genome = simdata::ReferenceGenome::simulate(
      simdata::mouse_like_references(2'000'000), /*seed=*/7);
  simdata::ReadSimConfig sim_config;
  sim_config.seed = 7;
  const std::string bam_path = workspace.file("cohort.bam");
  simdata::write_bam_dataset(bam_path, genome, pairs, sim_config);
  std::printf("input BAM: %.1f MB, %llu records\n", file_size(bam_path) / 1e6,
              static_cast<unsigned long long>(2 * pairs));

  // One-time preprocessing: BAM -> BAMX shards (fixed-stride records) +
  // BAIX (position-sorted index). Record framing is sequential by
  // necessity — BAM offers no way to find record boundaries without
  // decoding (§III-B) — but decoding and encoding run in parallel.
  const std::string bamx_path = workspace.file("cohort.bamxm");
  const std::string baix_path = workspace.file("cohort.baix");
  auto pre = core::preprocess_bam_parallel(bam_path, bamx_path, baix_path);
  std::printf("preprocessed once in %.2f s -> BAMX shards + BAIX %.1f MB\n",
              pre.seconds, pre.bytes_out / 1e6);

  // Region requests are now cheap. Convert the requested window to SAM
  // and to BED, in parallel, touching only matching records.
  core::Region region =
      core::parse_region(region_text, bamx::RecordSource(bamx_path).header());
  std::printf("\nregion %s -> [%d, %d) on ref %d\n", region_text.c_str(),
              region.begin, region.end, region.ref_id);

  for (auto format : {core::TargetFormat::kSam, core::TargetFormat::kBed}) {
    core::ConvertOptions options;
    options.format = format;
    options.ranks = ranks;
    WallTimer timer;
    auto stats = core::convert_bamx(
        bamx_path, baix_path,
        workspace.subdir(std::string(core::target_format_name(format))),
        options, region);
    std::printf("  -> %-4s: %6llu records in %.3f s (%zu part files)\n",
                std::string(core::target_format_name(format)).c_str(),
                static_cast<unsigned long long>(stats.records_in),
                timer.seconds(), stats.outputs.size());
  }

  // The extended index (BAIX v2): overlap semantics plus filters, so a
  // request like "high-confidence reverse-strand reads overlapping the
  // window, no duplicates" is resolved on the index alone.
  const std::string baix2_path = workspace.file("cohort.baix2");
  core::build_baix2(bamx_path, baix2_path);
  baix2::Filter filter;
  filter.min_mapq = 30;
  filter.include_duplicates = false;
  filter.reverse_strand = true;
  core::ConvertOptions options;
  options.format = core::TargetFormat::kBed;
  options.ranks = ranks;
  auto filtered = core::convert_bamx_filtered(
      bamx_path, baix2_path, workspace.subdir("filtered"), options, region,
      baix2::RegionMode::kOverlap, filter);
  std::printf("\nfiltered overlap query (mapq>=30, reverse strand, no dups):"
              " %llu records\n",
              static_cast<unsigned long long>(filtered.records_in));

  // Contrast with the naive alternative: a full sequential conversion.
  WallTimer full_timer;
  core::convert_bam_sequential(bam_path, workspace.file("full.sam"),
                               core::TargetFormat::kSam);
  std::printf("full sequential BAM -> SAM for comparison: %.3f s\n",
              full_timer.seconds());
  return 0;
}
