// The latency-vector distance from Calder et al. (IMC '13), used by the
// paper's clustering: for a pair of IPs, exclude the 20% of vantage points
// with the largest latency discrepancy between the two, then take the
// normalized Manhattan distance over the rest.
//
// Canonical ordering contract: the trimmed mean is defined as the
// *ascending-order sequential sum* of the kept |a_i - b_i| values, divided
// by the kept count. An earlier version summed the nth_element prefix in
// whatever order the host stdlib's partition left it, so results silently
// depended on the stdlib; the canonical definition is stdlib-independent
// and every implementation here (slow oracle, scalar kernel, each SIMD
// level) matches it bit-for-bit. See docs/PERFORMANCE.md for the rationale
// and the one-time golden-baseline bump this change required.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "util/error.h"

namespace repro {

/// Number of values kept after trimming: max(1, n - floor(trim * n)).
std::size_t trim_keep_count(std::size_t n, double trim_fraction) noexcept;

/// Normalized trimmed Manhattan distance between two equally-sized latency
/// vectors: mean |a_i - b_i| after discarding the `trim_fraction` largest
/// absolute differences, summed in canonical ascending order. Requires equal
/// non-zero sizes and 0 <= trim_fraction < 1.
double trimmed_manhattan(std::span<const double> a, std::span<const double> b,
                         double trim_fraction = 0.2);

/// Deliberately naive reference for the canonical contract: |a_i - b_i|
/// into a fresh buffer, full std::sort ascending, sequential sum of the
/// first keep values, divide by keep. The fast kernels must match this
/// bit-for-bit at every SIMD level (tests/test_perf_kernel.cpp).
double trimmed_manhattan_oracle(std::span<const double> a,
                                std::span<const double> b,
                                double trim_fraction = 0.2);

/// Dense symmetric distance matrix, stored as the packed upper triangle.
class DistanceMatrix {
 public:
  explicit DistanceMatrix(std::size_t n);

  std::size_t size() const noexcept { return n_; }

  double at(std::size_t i, std::size_t j) const;
  void set(std::size_t i, std::size_t j, double value);

  /// Packed index of cell (i, j), i != j, in an n-point matrix:
  /// min(i,j) * n - min(i,j) * (min(i,j) + 1) / 2 + (max(i,j) - min(i,j) - 1).
  /// Exposed for the layout property tests.
  static std::size_t packed_offset(std::size_t n, std::size_t i,
                                   std::size_t j);

  /// The contiguous cells (i, j) for j in (i, n): length n - 1 - i. Writing
  /// through the mutable span skips the per-cell require() checks, which is
  /// what pairwise_distances uses on its hot path (every cell is written by
  /// exactly one worker, indices proven in the loop structure).
  std::span<double> row_span(std::size_t i);
  std::span<const double> row_span(std::size_t i) const;

  /// Copies row p -- distance from p to every point, diagonal included as
  /// 0.0 -- into out[0..n). Row-wise walk of the packed triangle: one
  /// strided pass for the column part (o < p) and one memcpy for the
  /// contiguous part (o > p). Replaces per-element at() calls in OPTICS.
  void copy_row(std::size_t p, double* out) const;

  /// Same but skips the diagonal: out[0..n-1) holds distances to the n - 1
  /// other points (order: o < p first, then o > p).
  void copy_row_without_self(std::size_t p, double* out) const;

 private:
  std::size_t n_;
  std::vector<double> values_;  // upper triangle, row-major
  std::size_t offset(std::size_t i, std::size_t j) const;
  std::size_t row_start(std::size_t i) const noexcept {
    return i * n_ - i * (i + 1) / 2;
  }
};

/// Builds the pairwise trimmed-Manhattan matrix over row vectors of a
/// row-major `rows x cols` latency table.
///
/// Single-core hot path: each worker processes its rows in lane-sized
/// batches (row i against `lanes` rows j at once) through the SIMD kernel
/// selected at runtime (util/simd.h; REPRO_SIMD caps the level). Argument
/// checks and matrix bounds checks are hoisted out of the loops; results
/// are written through unchecked row spans. The upper triangle is sharded
/// into row blocks and fanned across the shared thread pool exactly as
/// before (default_thread_count() workers, serial at 1 thread). Every cell
/// is computed independently and written to its own slot, so the result is
/// bit-identical for every thread count and every SIMD level.
DistanceMatrix pairwise_distances(std::span<const double> table,
                                  std::size_t rows, std::size_t cols,
                                  double trim_fraction = 0.2);

/// Fills `out[0..cols)` with row `row` of the virtual latency table.
/// Must be safe to call concurrently from several pool workers (const
/// reads of the backing storage only).
using RowFiller = std::function<void(std::size_t row, double* out)>;

/// Block-streamed variant of pairwise_distances for tables that never exist
/// contiguously in memory (mmap spills, lazily reconstructed compact rows).
/// The upper triangle is tiled into `block_rows` x `block_rows` block pairs;
/// each pool worker stages the two blocks it needs into thread-local
/// buffers via `fill_row` and runs the exact same SIMD kernel path as the
/// one-shot function. Peak staging memory is 2 * block_rows * cols doubles
/// per worker regardless of `rows`.
///
/// Bit-identity: every (i, j) pair flows through fill_diffs/run_select/
/// reduce_mean in its own lane, and lanes never interact, so cell values do
/// not depend on how pairs are grouped into batches or blocks -- the result
/// matches pairwise_distances bit-for-bit for every block size, SIMD level
/// and thread count (tests/test_perf_kernel.cpp, tests/test_parallel.cpp).
/// `block_rows` of 0 means "whole matrix" (one block, one staging pass).
DistanceMatrix pairwise_distances_streamed(const RowFiller& fill_row,
                                           std::size_t rows, std::size_t cols,
                                           double trim_fraction = 0.2,
                                           std::size_t block_rows = 0);

/// Per-phase kernel timings for bench/perf_micro: median-free best-of-run
/// ns per pair for the |a-b| fill, the select phase, and the ascending-sum
/// reduce, at the active SIMD level. The select phase is the rank-select
/// program (cluster/select_program.h).
struct KernelPhaseProfile {
  std::string simd_level;
  double diff_ns_op = 0.0;
  double select_ns_op = 0.0;
  double sum_ns_op = 0.0;
};

/// Times each kernel phase over `iterations` batched invocations on a
/// deterministic pseudo-random vector pair of length n. Requires n >= 1,
/// 0 <= trim_fraction < 1, iterations >= 1.
KernelPhaseProfile profile_kernel_phases(std::size_t n, double trim_fraction,
                                         std::size_t iterations);

}  // namespace repro
