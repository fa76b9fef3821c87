// Memory-mapped spill format for per-ISP latency matrices (.mmx files).
//
// The .bin artifact container prefixes its payload with a variable-length
// header, which leaves the f64 block misaligned for direct SIMD loads; the
// spill format instead lays every array out at an 8-byte-aligned offset so
// a MappedLatencyMatrix can hand kernel code raw pointers into the mapping.
// Layout (little-endian, offsets in bytes):
//
//   0   u64  magic "RPROMMX1"
//   8   u32  container version (kMatrixFileVersion)
//   12  u32  schema (kLatencyMatrixSchema from serde.h)
//   16  u64  rows
//   24  u64  vp_count
//   32       u32 ips[rows], padded to the next 8-byte boundary
//   ...      u64 server_indices[rows]
//   ...      f64 rtt[rows * vp_count]   raw IEEE-754 bit patterns; NaN
//                                       markers and every ulp survive
//   ...  u64 FNV-1a checksum over all preceding bytes
//
// Durability mirrors the artifact store: writes go to a temp file in the
// same directory and one rename() publishes them, so readers never see a
// half-written matrix; open() validates magic, version, schema, exact file
// size and the trailing checksum, throwing SerdeError on any mismatch --
// truncation at every cut and bit flips are detected, never crash.
//
// Only perfbench's clustering replay writes and maps these files (in its own
// temp directory, when a scenario sets the legacy stream_matrices knob);
// the Pipeline clusters every ISP on one in-memory matrix path. The format
// goes with that replay in a later benchmark change. See docs/SCALING.md.
#pragma once

#include <cstdint>
#include <string>

#include "mlab/ping_mesh.h"
#include "store/serde.h"

namespace repro::store {

inline constexpr std::uint64_t kMatrixFileMagic = 0x31584d4d4f525052ULL;  // "RPROMMX1"
inline constexpr std::uint32_t kMatrixFileVersion = 1;

/// Exact on-disk size of a spill holding `rows` x `vp_count` measurements.
std::uint64_t matrix_file_size(std::uint64_t rows, std::uint64_t vp_count) noexcept;

/// Writes `matrix` to `path` atomically (temp file + rename). Throws
/// repro::Error when the file cannot be written.
void write_matrix_file(const std::string& path, const LatencyMatrix& matrix);

/// Read-only mmap view over a .mmx spill file, exposed through the
/// LatencyRows interface so the cleaning/clustering layers stream rows
/// straight out of the page cache. The mapping is validated up front
/// (magic, version, schema, size, checksum), so row() is an unchecked
/// pointer into clean bytes. Move-only; the mapping lives until
/// destruction. Concurrent const access is safe (the pages are immutable).
class MappedLatencyMatrix final : public LatencyRows {
 public:
  /// Maps and fully validates `path`. Throws SerdeError for malformed or
  /// truncated content and repro::Error when the file cannot be opened.
  static MappedLatencyMatrix open(const std::string& path);

  MappedLatencyMatrix(MappedLatencyMatrix&& other) noexcept;
  MappedLatencyMatrix& operator=(MappedLatencyMatrix&& other) noexcept;
  MappedLatencyMatrix(const MappedLatencyMatrix&) = delete;
  MappedLatencyMatrix& operator=(const MappedLatencyMatrix&) = delete;
  ~MappedLatencyMatrix() override;

  std::size_t row_count() const noexcept override { return rows_; }
  std::size_t vp_count() const noexcept override { return vp_count_; }
  Ipv4 ip(std::size_t row) const override;
  std::size_t server_index(std::size_t row) const override;
  const double* row(std::size_t row) const override;

  /// Full in-memory copy, bit-identical to the matrix that was written
  /// (tests compare it against the original ulp-for-ulp).
  LatencyMatrix to_matrix() const;

 private:
  MappedLatencyMatrix() = default;

  void* base_ = nullptr;  // whole-file mapping
  std::uint64_t mapped_bytes_ = 0;
  std::size_t rows_ = 0;
  std::size_t vp_count_ = 0;
  const std::uint32_t* ips_ = nullptr;
  const std::uint64_t* server_indices_ = nullptr;
  const double* rtt_ = nullptr;
};

}  // namespace repro::store
