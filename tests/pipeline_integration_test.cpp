// Grand integration test: the complete paper workflow plus the extension
// modules, chained end-to-end on one synthetic experiment.
//
//   simulate genome + enriched reads
//     -> write SAM                      (simdata, formats/sam)
//     -> coordinate-sort to BAM         (the upstream samtools-sort step)
//     -> validate                       (formats/validate)
//     -> preprocess to BAMXM/BAIX       (core, paper III-B)
//     -> parallel conversion to BED     (core, paper III-A/B)
//     -> BED read + merge               (formats/bed)
//     -> coverage histogram             (stats, paper IV)
//     -> NL-means + FDR + peak calling  (stats, paper IV-A/B)
//     -> peaks intersect planted truth  (formats/bed)
//
// Every stage's output feeds the next; the final assertion closes the
// loop against the planted ground truth.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/convert.h"
#include "formats/bam.h"
#include "formats/bed.h"
#include "formats/validate.h"
#include "simdata/histsim.h"
#include "simdata/readsim.h"
#include "stats/histogram.h"
#include "stats/peaks.h"
#include "testutil.h"
#include "util/tempdir.h"

namespace ngsx {
namespace {

TEST(PipelineIntegration, EndToEnd) {
  TempDir tmp("pipeline");
  const int bin_size = 25;
  const int ranks = 4;

  // ---- 1. Simulate an experiment with planted enriched regions.
  auto genome = simdata::ReferenceGenome::simulate(
      {sam::Reference{"chr1", 600'000}}, 2026);
  simdata::ReadSimConfig cfg;
  cfg.seed = 2026;
  auto records = simdata::simulate_alignments(genome, 8000, cfg);
  const std::vector<std::pair<int, int>> truth = {
      {100'000, 103'000}, {250'000, 253'000}, {450'000, 453'000}};
  {
    simdata::ReadSimConfig peak_cfg = cfg;
    peak_cfg.seed = 2027;
    auto extra = simdata::simulate_alignments(genome, 2400, peak_cfg);
    size_t k = 0;
    for (auto& rec : extra) {
      if (rec.ref_id < 0) {
        continue;
      }
      const auto& [beg, end] = truth[k % truth.size()];
      rec.pos = beg + static_cast<int>((k * 199) % (end - beg - 200));
      rec.mate_pos = rec.pos + 150;
      records.push_back(rec);
      ++k;
    }
  }
  // Deliberately unsorted: the SAM is what an aligner emits, and the
  // coordinate sort happens upstream (samtools sort), as in the paper.
  std::reverse(records.begin(), records.end());
  const std::string unsorted_sam = tmp.file("a.sam");
  {
    sam::SamFileWriter w(unsorted_sam, genome.header());
    for (const auto& rec : records) {
      w.write(rec);
    }
    w.close();
  }

  // ---- 2. Sort to BAM: re-read the SAM, sort in memory, write the BAM.
  const std::string sorted_bam = tmp.file("a.bam");
  {
    sam::SamFileReader reader(unsorted_sam);
    std::vector<sam::AlignmentRecord> sorted;
    sam::AlignmentRecord rec;
    while (reader.next(rec)) {
      sorted.push_back(rec);
    }
    ASSERT_EQ(sorted.size(), records.size());
    std::stable_sort(sorted.begin(), sorted.end(), testutil::coordinate_less);
    bam::BamFileWriter w(sorted_bam, reader.header());
    for (const auto& r : sorted) {
      w.write(r);
    }
    w.close();
  }

  // ---- 3. Validate the sorted BAM, sort order included; the unsorted
  //         SAM fails the same check.
  validate::Options validate_options;
  validate_options.check_sort_order = true;
  auto report = validate::validate_file(sorted_bam, validate_options);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report.records_checked, records.size());
  ASSERT_FALSE(validate::validate_file(unsorted_sam, validate_options).ok());

  // ---- 4. Preprocess (paper III-B) and convert in parallel.
  const std::string bamx = tmp.file("a.bamxm");
  const std::string baix = tmp.file("a.baix");
  core::PreprocessOptions preprocess_options;
  preprocess_options.threads = ranks;
  auto pre = core::preprocess_bam_parallel(sorted_bam, bamx, baix,
                                           preprocess_options);
  ASSERT_EQ(pre.records, records.size());

  core::ConvertOptions convert_options;
  convert_options.format = core::TargetFormat::kBed;
  convert_options.ranks = ranks;
  auto stats = core::convert_bamx(bamx, baix, tmp.subdir("bed"),
                                  convert_options);
  ASSERT_EQ(stats.records_in, records.size());

  // ---- 5. BED algebra over the converted rows: merged alignment
  //         footprint must cover each planted region.
  std::vector<bed::BedInterval> rows;
  for (const auto& part : stats.outputs) {
    auto part_rows = bed::read_bed(part);
    rows.insert(rows.end(), part_rows.begin(), part_rows.end());
  }
  ASSERT_EQ(rows.size(), stats.records_out);
  auto footprint = bed::merge_intervals(rows, /*max_gap=*/100);
  for (const auto& [beg, end] : truth) {
    bed::BedInterval probe;
    probe.chrom = "chr1";
    probe.begin = beg;
    probe.end = end;
    bool covered = false;
    for (const auto& m : footprint) {
      if (m.overlaps(probe) && m.begin <= beg && m.end >= end) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "planted region " << beg << "-" << end;
  }

  // ---- 6. Coverage histogram, built the way ngsx_stats builds it.
  auto hist = stats::histogram_from_bam(sorted_bam, bin_size);
  std::vector<double> signal = hist.flatten();

  // ---- 7. Peak calling recovers the planted regions.
  double background =
      std::accumulate(signal.begin(), signal.end(), 0.0) / signal.size();
  auto nulls =
      simdata::simulate_null_batch(signal.size(), 24, background, 2028);
  stats::PeakCallParams peak_params;
  peak_params.ranks = ranks;
  peak_params.min_bins = 20;
  peak_params.merge_gap = 4;
  auto result = stats::call_peaks(signal, nulls, peak_params);
  ASSERT_GE(result.p_t, 0);
  ASSERT_EQ(result.regions.size(), truth.size());

  // ---- 8. Close the loop: called peaks vs planted truth, via BED
  //         interval intersection.
  std::vector<bed::BedInterval> called;
  for (const auto& region : result.regions) {
    bed::BedInterval interval;
    interval.chrom = "chr1";
    interval.begin = static_cast<int64_t>(region.begin_bin) * bin_size;
    interval.end = static_cast<int64_t>(region.end_bin) * bin_size;
    called.push_back(interval);
  }
  std::vector<bed::BedInterval> planted;
  for (const auto& [beg, end] : truth) {
    bed::BedInterval interval;
    interval.chrom = "chr1";
    interval.begin = beg;
    interval.end = end;
    planted.push_back(interval);
  }
  auto overlap_counts = bed::count_overlaps(planted, called);
  for (size_t i = 0; i < overlap_counts.size(); ++i) {
    EXPECT_GE(overlap_counts[i], 1u) << "planted region " << i << " missed";
  }
  // Precision: every called peak hits some planted region.
  auto reverse_counts = bed::count_overlaps(called, planted);
  for (size_t i = 0; i < reverse_counts.size(); ++i) {
    EXPECT_GE(reverse_counts[i], 1u) << "called peak " << i << " is a false positive";
  }
}

}  // namespace
}  // namespace ngsx
