// Versioned binary serialization for the pipeline's heavy intermediates.
//
// The artifact store (artifact_store.h) persists two expensive artifact
// families across processes -- exactly what a warm pass reads: scan-record
// vectors and the per-world batch of xi-independent OPTICS plots (one
// IspPlot per hosting ISP). Each family has an explicit little-endian wire
// encoding and a per-type schema version (bump the constant whenever the
// struct or its encoding changes -- stale artifacts then miss instead of
// decoding garbage). Doubles travel as raw IEEE-754 bit patterns, so
// infinite reachabilities and every last ulp survive the round trip: a warm
// start is bit-identical to a cold compute.
//
// Stage-health records ride along with each artifact so a warm run reports
// the same degraded/ok verdicts the cold run earned.
//
// See docs/PERSISTENCE.md for the format and versioning rules.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/colocation.h"
#include "fault/stage_health.h"
#include "tls/certificate.h"
#include "util/error.h"

namespace repro::store {

/// Thrown by ByteReader on truncated or malformed input. The store treats
/// it as artifact corruption: recompute, never crash.
class SerdeError : public Error {
 public:
  explicit SerdeError(const std::string& what) : Error("serde: " + what) {}
};

// --- per-type schema versions (see docs/PERSISTENCE.md for bump rules) ---
inline constexpr std::uint32_t kScanRecordsSchema = 3;
inline constexpr std::uint32_t kPlotSchema = 1;
/// Header version of the .mmx latency-matrix spill format
/// (store/matrix_file.h), which only perfbench's clustering replay still
/// writes; no .bin artifact carries a latency matrix, and the Pipeline
/// keeps every matrix in memory.
inline constexpr std::uint32_t kLatencyMatrixSchema = 1;

/// Append-only little-endian byte sink.
class ByteWriter {
 public:
  void u8(std::uint8_t value);
  void u32(std::uint32_t value);
  void u64(std::uint64_t value);
  void i32(std::int32_t value);
  /// Raw IEEE-754 bit pattern (NaN-preserving).
  void f64(double value);
  /// u32 length prefix + raw bytes.
  void str(std::string_view value);

  const std::vector<std::uint8_t>& bytes() const noexcept { return bytes_; }
  std::vector<std::uint8_t> take() noexcept { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian reader over a byte span. Every read throws
/// SerdeError once the input runs out.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32();
  double f64();
  std::string str();

  std::size_t remaining() const noexcept { return bytes_.size() - cursor_; }
  bool exhausted() const noexcept { return remaining() == 0; }

 private:
  void need(std::size_t count) const;

  std::span<const std::uint8_t> bytes_;
  std::size_t cursor_ = 0;
};

/// FNV-1a 64-bit hasher for artifact key derivation (mixes scalar config
/// fields, strings and doubles into one digest) and for the store's payload
/// checksums (raw bytes). Not cryptographic -- it only needs to make
/// distinct configurations land on distinct file names and catch torn or
/// flipped bytes.
class Fnv1a {
 public:
  Fnv1a& mix(std::uint64_t value) noexcept;
  Fnv1a& mix(std::int64_t value) noexcept {
    return mix(static_cast<std::uint64_t>(value));
  }
  Fnv1a& mix(std::uint32_t value) noexcept {
    return mix(static_cast<std::uint64_t>(value));
  }
  Fnv1a& mix(int value) noexcept {
    return mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(value)));
  }
  Fnv1a& mix(bool value) noexcept { return mix(std::uint64_t{value}); }
  /// Raw bit pattern, so -0.0 != +0.0 and NaNs mix deterministically.
  Fnv1a& mix(double value) noexcept;
  /// Length-prefixed, so ("ab", "c") and ("a", "bc") differ.
  Fnv1a& mix(std::string_view value) noexcept;
  /// Exactly `size` raw bytes, no length prefix: the plain FNV-1a of a
  /// byte range (payload checksums, chaos keys).
  Fnv1a& mix_bytes(const void* data, std::size_t size) noexcept;

  std::uint64_t digest() const noexcept { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;  // FNV offset basis
};

// --- artifact encodings (encode appends to the writer; decode throws
// --- SerdeError on malformed input) ---

void encode(ByteWriter& out, const TlsCertificate& cert);
TlsCertificate decode_certificate(ByteReader& in);

/// Scan records (schema 3): the certificate table, then the endpoint
/// count and the ip, cert-id and serial columns. Decoding also throws
/// SerdeError when a cert id does not index the table.
void encode(ByteWriter& out, const TlsEndpoints& records);
TlsEndpoints decode_scan_records(ByteReader& in);

void encode(ByteWriter& out, const IspPlot& plot);
/// Also throws SerdeError when the plot's shape is inconsistent: an
/// ordering that is not a permutation of [0, n), a registry-index or
/// reachability array whose length is not n, or an unusable ISP with points.
IspPlot decode_plot(ByteReader& in);

void encode(ByteWriter& out, const std::vector<IspPlot>& plots);
std::vector<IspPlot> decode_plots(ByteReader& in);

void encode(ByteWriter& out, const fault::StageHealth& health);
fault::StageHealth decode_stage_health(ByteReader& in);

}  // namespace repro::store
