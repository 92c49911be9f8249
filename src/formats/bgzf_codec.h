// ngsx/formats/bgzf_codec.h
//
// Pluggable raw-deflate backend behind the BGZF block codec. Every BGZF
// producer/consumer (Reader and Writer at any thread count,
// preprocess_bam_parallel) compresses and inflates through a Codec, so a
// faster deflate implementation lifts all of them at once.
//
// Backends:
//   - kZlib: always present, and the default. BGZF output stays
//     byte-identical to the pre-seam code paths (deflate is deterministic
//     for fixed parameters), which is the repo's byte-identity contract.
//   - kLibdeflate: a libdeflate-class whole-buffer codec, loaded from the
//     system's libdeflate shared library at runtime when present (no
//     build-time dependency; compiled out entirely with
//     -DNGSX_ENABLE_LIBDEFLATE=OFF). Decompression is byte-identical by
//     construction; compression produces different — still spec-valid —
//     BGZF bytes, so it is opt-in via NGSX_BGZF_BACKEND=libdeflate or an
//     explicit Backend argument, never the silent default.
//
// docs/PERF.md describes the selection rules and the byte-identity
// contract in full.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace ngsx::bgzf {

enum class Backend {
  kAuto = 0,    // NGSX_BGZF_BACKEND env var, else zlib
  kZlib,
  kLibdeflate,  // only if the shared library can be loaded
};

/// Raw-deflate codec: one instance per thread (not thread-safe), reused
/// across blocks so steady-state compression pays no per-block setup.
class Codec {
 public:
  virtual ~Codec() = default;

  /// Backend name ("zlib", "libdeflate"); surfaced in benches and tests.
  virtual const char* name() const = 0;

  /// Compresses `input` as a raw deflate stream into `body` (replaced).
  /// `level` follows zlib conventions (1-9; changing it between calls is
  /// allowed but may cost a stream reinit). Throws FormatError on
  /// internal codec failure.
  virtual void deflate_raw(std::string_view input, std::string& body,
                           int level) = 0;

  /// Inflates the raw deflate stream `input` into exactly `out_size`
  /// bytes at `out`. Returns false if the stream is corrupt or does not
  /// decode to exactly `out_size` bytes; throws FormatError only on
  /// internal codec failure (e.g. stream (re)initialization).
  virtual bool inflate_raw(std::string_view input, char* out,
                           size_t out_size) = 0;
};

/// True if `backend` can actually be used in this process (kZlib always;
/// kLibdeflate only when the shared library loaded; kAuto always).
bool backend_available(Backend backend);

/// Resolves kAuto against NGSX_BGZF_BACKEND ("zlib" or "libdeflate").
/// An unavailable or unknown request falls back to zlib, so setting the
/// env var on a machine without libdeflate degrades instead of failing.
Backend resolve_backend(Backend backend);

const char* backend_name(Backend backend);

/// Creates a fresh codec for `backend` (resolved first if kAuto).
std::unique_ptr<Codec> make_codec(Backend backend = Backend::kAuto);

}  // namespace ngsx::bgzf
