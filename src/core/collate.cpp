#include "core/collate.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "exec/pipeline.h"
#include "exec/pool.h"
#include "formats/bam.h"
#include "formats/fastq.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/strutil.h"
#include "util/timer.h"

namespace ngsx::core {

using sam::AlignmentRecord;
using sam::SamHeader;

namespace {

// Collate observability (docs/OBSERVABILITY.md, layer "collate"). Stats
// are mirrored here once per program run; the live-bucket gauge tracks
// the pending-mate count as the stage runs.
struct CollateMetrics {
  obs::Counter& records = obs::counter("collate.records");
  obs::Counter& pairs = obs::counter("collate.pairs");
  obs::Counter& orphans = obs::counter("collate.orphans");
  obs::Counter& singles = obs::counter("collate.singles");
  obs::Counter& passthrough = obs::counter("collate.passthrough");
  obs::Counter& spills = obs::counter("collate.spills");
  obs::Counter& spilled_records = obs::counter("collate.spilled_records");
  obs::Counter& spilled_bytes = obs::counter("collate.spilled_bytes");
  obs::Counter& dups_marked = obs::counter("collate.dups_marked");
  obs::Gauge& live_records = obs::gauge("collate.live_records");
};

CollateMetrics& collate_metrics() {
  static CollateMetrics m;
  return m;
}

void mirror_metrics(const CollateStats& s) {
  if (!obs::metrics_enabled()) {
    return;
  }
  CollateMetrics& m = collate_metrics();
  m.records.add(s.records);
  m.pairs.add(s.pairs);
  m.orphans.add(s.orphans);
  m.singles.add(s.singles);
  m.passthrough.add(s.passthrough);
  m.spills.add(s.spill_runs);
  m.spilled_records.add(s.spilled_records);
  m.spilled_bytes.add(s.spilled_bytes);
  m.dups_marked.add(s.dup_records);
}

/// options.parse_threads resolved: 0 = hardware width, at least 1.
int parse_width(const CollateOptions& options) {
  return options.parse_threads == 0 ? exec::hardware_threads()
                                    : std::max(1, options.parse_threads);
}

SortOptions to_sort_options(const CollateOptions& options) {
  SortOptions out;
  out.max_records_in_memory = options.max_records_in_memory;
  out.temp_dir = options.temp_dir;
  return out;
}

/// Drains a name-collated sorter as whole name groups. Within a group,
/// records arrive in (pairing_rank, input order): primary R1, primary
/// R2, primary unpaired, then secondary/supplementary lines.
void drain_groups(
    ExternalSorter& sorter,
    const std::function<void(std::vector<AlignmentRecord>&&)>& fn) {
  std::vector<AlignmentRecord> group;
  sorter.drain([&](AlignmentRecord&& rec) {
    if (!group.empty() && group.front().qname != rec.qname) {
      fn(std::move(group));
      group.clear();
    }
    group.push_back(std::move(rec));
  });
  if (!group.empty()) {
    fn(std::move(group));
  }
}

/// The primary mates of a name group, if the group has exactly one of
/// each; group order puts them first (see drain_groups).
std::pair<const AlignmentRecord*, const AlignmentRecord*> primary_pair(
    const std::vector<AlignmentRecord>& group) {
  const AlignmentRecord* r1 = nullptr;
  const AlignmentRecord* r2 = nullptr;
  for (const auto& rec : group) {
    if (!rec.is_primary() || !rec.is_paired()) {
      continue;
    }
    const AlignmentRecord*& slot = rec.is_read2() ? r2 : r1;
    if (slot != nullptr) {
      return {nullptr, nullptr};  // malformed: two primaries of one rank
    }
    slot = &rec;
  }
  if (r1 == nullptr || r2 == nullptr) {
    return {nullptr, nullptr};
  }
  return {r1, r2};
}

// ------------------------------------------------------- pair signatures

/// One fragment end for duplicate detection: reference, strand, and the
/// 5'-most aligned base extended through clipping — reverse-strand reads
/// key on their unclipped END, forward on their unclipped START, so two
/// copies of a fragment collide however the aligner clipped them.
/// Unmapped ends are all-default.
struct FragmentEnd {
  int32_t ref = -1;
  int32_t pos = -1;
  bool reverse = false;

  bool operator==(const FragmentEnd&) const = default;
  bool operator<(const FragmentEnd& o) const {
    if (ref != o.ref) {
      return ref < o.ref;
    }
    if (pos != o.pos) {
      return pos < o.pos;
    }
    return reverse < o.reverse;
  }
};

FragmentEnd end_of(const AlignmentRecord& rec) {
  if (rec.is_unmapped() || rec.ref_id < 0) {
    return {};
  }
  return {rec.ref_id,
          rec.is_reverse() ? rec.unclipped_end() : rec.unclipped_start(),
          rec.is_reverse()};
}

/// Canonically ordered pair of fragment ends — R1/R2 labelling does not
/// matter, so a flipped copy of the fragment still collides.
struct PairSignature {
  FragmentEnd a;
  FragmentEnd b;

  bool operator==(const PairSignature&) const = default;
};

struct PairSignatureHash {
  size_t operator()(const PairSignature& s) const {
    uint64_t h = 0x9e3779b97f4a7c15ull;
    auto mix = [&h](uint64_t v) {
      v *= 0xff51afd7ed558ccdull;
      v ^= v >> 33;
      h = (h ^ v) * 0xc4ceb9fe1a85ec53ull;
    };
    mix(static_cast<uint64_t>(static_cast<uint32_t>(s.a.ref)) << 32 |
        static_cast<uint32_t>(s.a.pos));
    mix(static_cast<uint64_t>(static_cast<uint32_t>(s.b.ref)) << 32 |
        static_cast<uint32_t>(s.b.pos));
    mix(static_cast<uint64_t>(s.a.reverse) << 1 |
        static_cast<uint64_t>(s.b.reverse));
    return static_cast<size_t>(h);
  }
};

/// Signature of a complete pair; nullopt when both ends are unmapped
/// (placement-free records cannot be positional duplicates).
std::optional<PairSignature> pair_signature(const AlignmentRecord& r1,
                                            const AlignmentRecord& r2) {
  FragmentEnd a = end_of(r1);
  FragmentEnd b = end_of(r2);
  if (a.ref < 0 && b.ref < 0) {
    return std::nullopt;
  }
  if (b < a) {
    std::swap(a, b);
  }
  return PairSignature{a, b};
}

/// Picard's scoring rule: the sum of base qualities >= 15. Records
/// without stored qualities score 0 (the read-name tie-break keeps the
/// choice deterministic).
int64_t base_quality_score(const AlignmentRecord& rec) {
  int64_t score = 0;
  for (char c : rec.qual) {
    int q = c - 33;
    if (q >= 15) {
      score += q;
    }
  }
  return score;
}

/// The winner for one signature: best score, ties to the smallest read
/// name. Content-based, so the table is identical whatever order pairs
/// arrive in — the root of mark_duplicates' budget independence.
struct BestPair {
  int64_t score = -1;
  std::string qname;

  void offer(int64_t s, const std::string& name) {
    if (s > score || (s == score && name < qname)) {
      score = s;
      qname = name;
    }
  }
};

using BestBySignature =
    std::unordered_map<PairSignature, BestPair, PairSignatureHash>;

}  // namespace

// -------------------------------------------------------------- streaming

SamHeader read_header(const std::string& path) {
  AlignmentInput in(path);
  return in.header();
}

void for_each_record(const std::string& path, const CollateOptions& options,
                     const std::function<void(AlignmentRecord&&)>& fn) {
  const int workers = parse_width(options);
  if (workers <= 1 || !strutil::ends_with(path, ".bam")) {
    AlignmentInput in(path, options.decode_threads);
    AlignmentRecord rec;
    while (in.next(rec)) {
      fn(std::move(rec));
    }
    return;
  }

  // Parallel BAM record decode: batches of raw record bodies fan out to
  // the pool, decoded batches commit strictly in file order.
  bam::BamFileReader reader(path, options.decode_threads);
  exec::Pool pool(workers);
  const size_t batch = std::max<size_t>(1, options.record_batch);
  exec::ordered_pipeline<std::vector<std::string>,
                         std::vector<AlignmentRecord>>(
      pool,
      [&](std::vector<std::string>& bodies) {
        bodies.clear();
        std::string body;
        while (bodies.size() < batch && reader.next_raw(body)) {
          bodies.push_back(std::move(body));
        }
        return !bodies.empty();
      },
      [](std::vector<std::string>&& bodies, uint64_t) {
        std::vector<AlignmentRecord> recs(bodies.size());
        for (size_t i = 0; i < bodies.size(); ++i) {
          bam::decode_record(bodies[i], recs[i]);
        }
        return recs;
      },
      [&](std::vector<AlignmentRecord>&& recs, uint64_t) {
        for (auto& rec : recs) {
          fn(std::move(rec));
        }
      });
}

// ------------------------------------------------------------ CollateStage

CollateStage::CollateStage(SamHeader header, const std::string& spill_target,
                           CollateEvents events, const CollateOptions& options)
    : events_(std::move(events)),
      // Half the budget for the pending bucket, half for the sorter's
      // spill buffer (which drains to a run every time the bucket does).
      bucket_cap_(std::max<size_t>(1, options.max_records_in_memory / 2)),
      sorter_(std::move(header), spill_target, name_collate_less,
              to_sort_options(options)) {}

void CollateStage::push(AlignmentRecord rec) {
  NGSX_CHECK_MSG(!finished_, "push on a finished CollateStage");
  ++stats_.records;
  if (!rec.is_primary()) {
    ++stats_.passthrough;
    if (events_.on_passthrough) {
      events_.on_passthrough(std::move(rec));
    }
    return;
  }
  if (!rec.is_paired()) {
    ++stats_.singles;
    if (events_.on_single) {
      events_.on_single(std::move(rec));
    }
    return;
  }

  auto it = pending_.find(rec.qname);
  if (it != pending_.end()) {
    if (it->second.is_read2() == rec.is_read2()) {
      // Malformed: two primaries of the same rank under one name. Shunt
      // the newcomer to the spill path; finish() emits it as an orphan.
      sorter_.push(std::move(rec));
      return;
    }
    auto node = pending_.extract(it);
    if (obs::metrics_enabled()) {
      collate_metrics().live_records.sub(1);
    }
    ++stats_.pairs;
    if (events_.on_pair) {
      if (rec.is_read2()) {
        events_.on_pair(std::move(node.mapped()), std::move(rec));
      } else {
        events_.on_pair(std::move(rec), std::move(node.mapped()));
      }
    }
    return;
  }

  pending_.emplace(rec.qname, std::move(rec));
  if (obs::metrics_enabled()) {
    collate_metrics().live_records.add(1);
  }
  if (pending_.size() >= bucket_cap_) {
    spill_pending();
  }
}

void CollateStage::spill_pending() {
  // Bucket-iteration order is unspecified, but every spilled record goes
  // through the stable name sort before anything downstream sees it.
  for (auto& [name, rec] : pending_) {
    sorter_.push(std::move(rec));
  }
  if (obs::metrics_enabled()) {
    collate_metrics().live_records.sub(static_cast<int64_t>(pending_.size()));
  }
  pending_.clear();
  sorter_.flush_run();
}

void CollateStage::finish() {
  NGSX_CHECK_MSG(!finished_, "CollateStage finished twice");
  finished_ = true;
  for (auto& [name, rec] : pending_) {
    sorter_.push(std::move(rec));
  }
  if (obs::metrics_enabled()) {
    collate_metrics().live_records.sub(static_cast<int64_t>(pending_.size()));
  }
  pending_.clear();

  // Everything in the sorter is a paired primary: pending survivors plus
  // spilled records. Groups reuniting exactly R1 + R2 become pairs; any
  // other shape is orphaned.
  drain_groups(sorter_, [&](std::vector<AlignmentRecord>&& group) {
    if (group.size() == 2 && !group[0].is_read2() && group[1].is_read2()) {
      ++stats_.pairs;
      if (events_.on_pair) {
        events_.on_pair(std::move(group[0]), std::move(group[1]));
      }
      return;
    }
    for (auto& rec : group) {
      ++stats_.orphans;
      if (events_.on_orphan) {
        events_.on_orphan(std::move(rec));
      }
    }
  });

  stats_.spill_runs = sorter_.runs();
  stats_.spilled_records = sorter_.spilled_records();
  stats_.spilled_bytes = sorter_.spilled_bytes();
}

// ---------------------------------------------------------- the programs

CollateStats collate_to_bam(const std::string& in_path,
                            const std::string& out_bam,
                            const CollateOptions& options) {
  obs::StageScope stage("convert.stage.collate", "collate", "to_bam");
  WallTimer timer;
  CollateStats stats;

  SamHeader header = read_header(in_path);
  ExternalSorter sorter(header, out_bam, name_collate_less,
                        to_sort_options(options));
  for_each_record(in_path, options,
                  [&](AlignmentRecord&& rec) { sorter.push(std::move(rec)); });
  stats.records = sorter.total();

  bam::BamFileWriter writer(out_bam, header, options.compression_level,
                            parse_width(options));
  drain_groups(sorter, [&](std::vector<AlignmentRecord>&& group) {
    auto [r1, r2] = primary_pair(group);
    if (r1 != nullptr) {
      ++stats.pairs;
    }
    for (const auto& rec : group) {
      if (!rec.is_primary()) {
        ++stats.passthrough;
      } else if (!rec.is_paired()) {
        ++stats.singles;
      } else if (r1 == nullptr) {
        ++stats.orphans;
      }
      writer.write(rec);
      ++stats.written;
    }
  });
  stats.spill_runs = sorter.runs();
  stats.spilled_records = sorter.spilled_records();
  stats.spilled_bytes = sorter.spilled_bytes();
  writer.close();
  stats.outputs.push_back(out_bam);
  stats.seconds = timer.seconds();
  mirror_metrics(stats);
  return stats;
}

CollateStats collate_to_fastq(const std::string& in_path,
                              const std::string& out_prefix,
                              const CollateOptions& options) {
  obs::StageScope stage("convert.stage.collate", "collate", "to_fastq");
  WallTimer timer;

  fastq::FastqWriter r1_out(out_prefix + "_R1.fastq");
  fastq::FastqWriter r2_out(out_prefix + "_R2.fastq");
  std::unique_ptr<fastq::FastqWriter> orphans_out;
  std::unique_ptr<fastq::FastqWriter> singles_out;
  auto lazy = [](std::unique_ptr<fastq::FastqWriter>& writer,
                 std::string path) -> fastq::FastqWriter& {
    if (!writer) {
      writer = std::make_unique<fastq::FastqWriter>(std::move(path));
    }
    return *writer;
  };

  CollateEvents events;
  events.on_pair = [&](AlignmentRecord&& r1, AlignmentRecord&& r2) {
    r1_out.write(r1);
    r2_out.write(r2);
  };
  if (options.keep_orphans) {
    events.on_orphan = [&](AlignmentRecord&& rec) {
      lazy(orphans_out, out_prefix + "_orphans.fastq").write(rec);
    };
  }
  events.on_single = [&](AlignmentRecord&& rec) {
    lazy(singles_out, out_prefix + "_singles.fastq").write(rec);
  };
  // on_passthrough stays unset: secondary/supplementary lines re-render
  // bases the primary line already exported.

  CollateStage stage_impl(read_header(in_path), out_prefix + ".collate",
                          std::move(events), options);
  for_each_record(in_path, options, [&](AlignmentRecord&& rec) {
    stage_impl.push(std::move(rec));
  });
  stage_impl.finish();

  CollateStats stats = stage_impl.stats();
  stats.written = r1_out.records() + r2_out.records();
  r1_out.close();
  r2_out.close();
  stats.outputs.push_back(out_prefix + "_R1.fastq");
  stats.outputs.push_back(out_prefix + "_R2.fastq");
  if (orphans_out) {
    stats.written += orphans_out->records();
    orphans_out->close();
    stats.outputs.push_back(out_prefix + "_orphans.fastq");
  }
  if (singles_out) {
    stats.written += singles_out->records();
    singles_out->close();
    stats.outputs.push_back(out_prefix + "_singles.fastq");
  }
  stats.seconds = timer.seconds();
  mirror_metrics(stats);
  return stats;
}

CollateStats mark_duplicates(const std::string& in_path,
                             const std::string& out_bam, DuplicateMode mode,
                             const CollateOptions& options) {
  obs::StageScope stage("convert.stage.collate", "collate", "mark_duplicates");
  WallTimer timer;

  SamHeader header = read_header(in_path);

  // Pass A: stream pairs, keep the best pair per signature. The table is
  // content-addressed, so neither arrival order nor spilling changes it.
  BestBySignature best;
  CollateStats stats;
  {
    CollateEvents events;
    events.on_pair = [&](AlignmentRecord&& r1, AlignmentRecord&& r2) {
      std::optional<PairSignature> sig = pair_signature(r1, r2);
      if (!sig.has_value()) {
        return;
      }
      best[*sig].offer(base_quality_score(r1) + base_quality_score(r2),
                       r1.qname);
    };
    CollateStage scan(header, out_bam + ".pairscan", std::move(events),
                      options);
    for_each_record(in_path, options, [&](AlignmentRecord&& rec) {
      scan.push(std::move(rec));
    });
    scan.finish();
    stats = scan.stats();
  }

  // Pass B: re-read in name-collation order; a group whose primary pair
  // lost its signature slot is marked (or dropped) whole.
  ExternalSorter sorter(header, out_bam, name_collate_less,
                        to_sort_options(options));
  for_each_record(in_path, options, [&](AlignmentRecord&& rec) {
    rec.flag &= static_cast<uint16_t>(~sam::kDuplicate);
    sorter.push(std::move(rec));
  });

  bam::BamFileWriter writer(out_bam, header, options.compression_level,
                            parse_width(options));
  drain_groups(sorter, [&](std::vector<AlignmentRecord>&& group) {
    bool duplicate = false;
    auto [r1, r2] = primary_pair(group);
    if (r1 != nullptr) {
      std::optional<PairSignature> sig = pair_signature(*r1, *r2);
      if (sig.has_value()) {
        auto it = best.find(*sig);
        duplicate = it != best.end() && it->second.qname != r1->qname;
      }
    }
    if (duplicate) {
      ++stats.dup_pairs;
      stats.dup_records += group.size();
      if (mode == DuplicateMode::kDrop) {
        return;
      }
    }
    for (auto& rec : group) {
      if (duplicate) {
        rec.flag |= sam::kDuplicate;
      }
      writer.write(rec);
      ++stats.written;
    }
  });
  stats.spill_runs += sorter.runs();
  stats.spilled_records += sorter.spilled_records();
  stats.spilled_bytes += sorter.spilled_bytes();
  writer.close();
  stats.outputs.push_back(out_bam);
  stats.seconds = timer.seconds();
  mirror_metrics(stats);
  return stats;
}

}  // namespace ngsx::core
