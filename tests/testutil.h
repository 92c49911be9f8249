// tests/testutil.h
//
// Shared test helpers: a randomized AlignmentRecord generator that covers
// far more of the codec state space than simulator output (degenerate
// fields, every aux type, extreme values), used by the round-trip property
// suites; the reference BAM preprocessor the parallel one is checked
// against; BAMX record reads; and the coordinate order sorted fixtures are
// built with.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "formats/bam.h"
#include "formats/bamx.h"
#include "formats/sam.h"
#include "util/rng.h"

namespace ngsx::testutil {

/// The v1 BAIX of `records` stored in order (record i at BAMX index i),
/// built the way the preprocessor builds it: from_entries over (ref, pos).
inline bamx::BaixIndex baix_of(
    const std::vector<sam::AlignmentRecord>& records) {
  std::vector<bamx::BaixEntry> entries;
  entries.reserve(records.size());
  for (uint64_t i = 0; i < records.size(); ++i) {
    entries.push_back(bamx::BaixEntry{records[i].ref_id, records[i].pos, i});
  }
  return bamx::BaixIndex::from_entries(std::move(entries));
}

/// Saves baix_of(records) to `path` and opens it with the reader region
/// queries use.
inline bamx::BaixReader saved_baix_of(
    const std::vector<sam::AlignmentRecord>& records,
    const std::string& path) {
  baix_of(records).save(path);
  return bamx::BaixReader(path);
}

/// Records [begin, end) of `source`, read the one way the library reads
/// them: one read_raw_range, then decode_record per stride.
inline std::vector<sam::AlignmentRecord> read_records(
    const bamx::RecordSource& source, uint64_t begin, uint64_t end) {
  std::string bytes;
  source.read_raw_range(begin, end, bytes);
  const uint64_t stride = source.layout().stride();
  std::vector<sam::AlignmentRecord> out(end - begin);
  for (uint64_t i = 0; i < end - begin; ++i) {
    bamx::decode_record(std::string_view(bytes).substr(i * stride, stride),
                        source.layout(), out[i]);
  }
  return out;
}

/// Reference BAM -> BAMX + BAIX: read every record, measure the layout,
/// then encode directly into one monolithic BAMX and index it with
/// baix_of. Independent of the preprocessing pipeline, so
/// its bytes are the oracle for the pipeline's shards and BAIX. Returns
/// the record count.
inline uint64_t reference_preprocess(const std::string& bam_path,
                                     const std::string& bamx_path,
                                     const std::string& baix_path) {
  bam::BamFileReader reader(bam_path);
  std::vector<sam::AlignmentRecord> records;
  bamx::BamxLayout layout;
  sam::AlignmentRecord rec;
  while (reader.next(rec)) {
    layout.accommodate(rec);
    records.push_back(rec);
  }
  bamx::BamxWriter writer(bamx_path, reader.header(), layout);
  for (const sam::AlignmentRecord& rec : records) {
    writer.write(rec);
  }
  writer.close();
  baix_of(records).save(baix_path);
  return records.size();
}

/// samtools' coordinate order: reference id as unsigned (so unplaced
/// records, id -1, sort last), then position. The library does not sort by
/// coordinate — its input arrives sorted — so tests that need a sorted
/// fixture std::stable_sort with this and check it with validate_file.
inline bool coordinate_less(const sam::AlignmentRecord& a,
                            const sam::AlignmentRecord& b) {
  const auto ra = static_cast<uint32_t>(a.ref_id);
  const auto rb = static_cast<uint32_t>(b.ref_id);
  return ra != rb ? ra < rb : a.pos < b.pos;
}

inline std::string random_name(Rng& rng, size_t max_len) {
  static constexpr std::string_view alphabet =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
      ".:/#-_|!";
  size_t len = 1 + rng.below(max_len);
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    s += alphabet[rng.below(alphabet.size())];
  }
  return s;
}

inline std::string random_seq(Rng& rng, size_t len) {
  // Canonical uppercase nibble codes only: the BAM/BAMX 4-bit encoding
  // cannot represent case, so lowercase input would not round-trip (it is
  // normalized to uppercase, per the spec's encoding table).
  static constexpr std::string_view bases = "ACGTNRYSWKMBDHV=";
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    // Mostly plain bases, occasionally IUPAC codes.
    s += rng.chance(0.95) ? "ACGTN"[rng.below(5)]
                          : bases[rng.below(bases.size())];
  }
  return s;
}

inline sam::AuxField random_aux(Rng& rng) {
  sam::AuxField aux;
  aux.tag[0] = static_cast<char>('A' + rng.below(26));
  aux.tag[1] = static_cast<char>(rng.chance(0.5)
                                     ? 'A' + rng.below(26)
                                     : '0' + rng.below(10));
  switch (rng.below(6)) {
    case 0:
      aux.type = 'A';
      aux.int_value = static_cast<char>('!' + rng.below(93));
      break;
    case 1:
      aux.type = 'i';
      // Full int32 range, including the extremes.
      aux.int_value = rng.chance(0.1)
                          ? (rng.chance(0.5) ? 2147483647LL : -2147483648LL)
                          : rng.range(-100000, 100000);
      break;
    case 2:
      aux.type = 'f';
      // Values exactly representable as float so equality survives.
      aux.float_value = static_cast<float>(rng.range(-4096, 4096)) / 4.0f;
      break;
    case 3:
      aux.type = 'Z';
      aux.str_value = rng.chance(0.1) ? "" : random_name(rng, 40);
      break;
    case 4:
      aux.type = 'H';
      for (size_t i = 0; i < 2 * (1 + rng.below(8)); ++i) {
        aux.str_value += "0123456789ABCDEF"[rng.below(16)];
      }
      break;
    default: {
      aux.type = 'B';
      static constexpr char subtypes[] = {'c', 'C', 's', 'S', 'i', 'I', 'f'};
      aux.subtype = subtypes[rng.below(7)];
      size_t n = rng.below(6);  // includes empty arrays
      for (size_t i = 0; i < n; ++i) {
        switch (aux.subtype) {
          case 'c': aux.int_array.push_back(rng.range(-128, 127)); break;
          case 'C': aux.int_array.push_back(rng.range(0, 255)); break;
          case 's': aux.int_array.push_back(rng.range(-32768, 32767)); break;
          case 'S': aux.int_array.push_back(rng.range(0, 65535)); break;
          case 'i':
            aux.int_array.push_back(rng.range(-2147483648LL, 2147483647LL));
            break;
          case 'I': aux.int_array.push_back(rng.range(0, 4294967295LL)); break;
          case 'f':
            aux.float_array.push_back(
                static_cast<float>(rng.range(-1024, 1024)) / 8.0f);
            break;
          default: break;
        }
      }
      break;
    }
  }
  return aux;
}

/// A random but wire-legal alignment record against `header`.
inline sam::AlignmentRecord random_record(Rng& rng,
                                          const sam::SamHeader& header) {
  sam::AlignmentRecord rec;
  rec.qname = random_name(rng, rng.chance(0.02) ? 254 : 24);
  rec.flag = static_cast<uint16_t>(rng.below(1 << 12));

  const auto n_refs = static_cast<int64_t>(header.references().size());
  bool unmapped = rng.chance(0.1);
  if (unmapped) {
    rec.flag |= sam::kUnmapped;
    rec.ref_id = -1;
    rec.pos = -1;
    rec.mapq = 0;
  } else {
    rec.flag &= static_cast<uint16_t>(~sam::kUnmapped);
    rec.ref_id = static_cast<int32_t>(rng.below(
        static_cast<uint64_t>(n_refs)));
    int64_t ref_len = header.ref_length(rec.ref_id);
    rec.pos = static_cast<int32_t>(rng.below(
        static_cast<uint64_t>(std::max<int64_t>(1, ref_len - 200))));
    rec.mapq = static_cast<uint8_t>(rng.below(255));  // 255 = unavailable
  }

  // Sequence: occasionally absent, occasionally long.
  size_t seq_len = rng.chance(0.05) ? 0
                   : rng.chance(0.05)
                       ? 150 + rng.below(400)
                       : 20 + rng.below(130);
  rec.seq = random_seq(rng, seq_len);
  if (!rec.seq.empty() && rng.chance(0.85)) {
    rec.qual.reserve(rec.seq.size());
    for (size_t i = 0; i < rec.seq.size(); ++i) {
      rec.qual += static_cast<char>('!' + rng.below(70));
    }
  }

  // CIGAR: empty, or ops whose query consumption matches the sequence.
  if (!unmapped && !rec.seq.empty() && rng.chance(0.9)) {
    size_t remaining = rec.seq.size();
    bool leading_clip = rng.chance(0.2);
    if (leading_clip && remaining > 4) {
      uint32_t clip = static_cast<uint32_t>(1 + rng.below(remaining / 4));
      rec.cigar.push_back({'S', clip});
      remaining -= clip;
    }
    while (remaining > 0) {
      uint32_t run = static_cast<uint32_t>(1 + rng.below(remaining));
      char op = "MI=X"[rng.below(4)];
      rec.cigar.push_back({op, run});
      remaining -= run;
      if (remaining > 0 && rng.chance(0.3)) {
        rec.cigar.push_back({rng.chance(0.5) ? 'D' : 'N',
                             static_cast<uint32_t>(1 + rng.below(50))});
      }
    }
    if (rng.chance(0.1)) {
      rec.cigar.push_back({'H', static_cast<uint32_t>(1 + rng.below(20))});
    }
  }

  // Mate.
  if (rng.chance(0.7)) {
    rec.mate_ref_id = static_cast<int32_t>(rng.below(
        static_cast<uint64_t>(n_refs)));
    rec.mate_pos = static_cast<int32_t>(rng.below(
        static_cast<uint64_t>(
            std::max<int64_t>(1, header.ref_length(rec.mate_ref_id)))));
    rec.tlen = static_cast<int32_t>(rng.range(-100000, 100000));
  }

  size_t n_tags = rng.below(5);
  for (size_t i = 0; i < n_tags; ++i) {
    rec.tags.push_back(random_aux(rng));
  }
  return rec;
}

}  // namespace ngsx::testutil
