// Internal lane-parallel kernel interface for pairwise_distances.
//
// One kernel invocation computes `lanes` trimmed-Manhattan distances at
// once: a fixed row `a` against `lanes` other rows. The kernel works on a
// transposed scratch of shape [n][lanes] (64-byte aligned), in three phases
// matching the bench's per-phase timings:
//
//   fill_diffs   scratch[d][l] = |a[d] - bs[l][d]|
//   run_select   rank-select program pass (select_program.h): each lane's
//                kept prefix ends ascending
//   reduce_mean  per lane, sequential sum of rows [0, keep) ascending,
//                divided by keep
//
// Scratch rows live at the *padded* row index (padded_row_index in
// select_program.h): one pad row per 4 KiB alias period keeps comparators
// a power-of-two stride apart from ever being exactly one page apart,
// which otherwise serializes the select phase on false store-forwarding
// conflicts. fill_diffs, run_select and reduce_mean all address rows
// through the same mapping; callers size the scratch with
// kernel_scratch_doubles. Pad rows are never read or written.
//
// Every instruction-set level implements the same three phases and is
// bit-identical by contract: |a-b| is exact sign-bit clearing everywhere,
// min/max on distinct values pick the same value, on ties the operand bits
// are identical, and the ascending sequence of kept values is unique as a
// value sequence -- so the sequential IEEE sum matches no matter how the
// sort was carried out. The slow oracle (trimmed_manhattan_oracle) anchors
// the contract; tests/test_perf_kernel.cpp enforces it per level.
//
// Levels above what a translation unit was compiled for return nullptr from
// their accessor; kernel_ops() falls back down the chain, so a kernel is
// only ever reached through a pointer obtained after the runtime check and
// no illegal instruction can leak onto an older CPU.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>

#include "util/simd.h"

namespace repro::cluster {

/// Widest lane count any level uses (AVX-512: 8 doubles).
inline constexpr std::size_t kMaxKernelLanes = 8;

struct KernelOps {
  simd::SimdLevel level;
  std::size_t lanes;
  /// scratch is [n][lanes]; bs holds `lanes` row pointers (callers duplicate
  /// the last row to pad a tail batch).
  void (*fill_diffs)(const double* a, const double* const* bs, std::size_t n,
                     double* scratch);
  /// Runs a rank-select program stream (select_program_for(n, keep,
  /// lanes).code); its byte offsets are pre-scaled and pad-mapped for this
  /// lane count.
  void (*run_select)(double* scratch, const std::uint32_t* code,
                     std::size_t code_len);
  /// Writes `lanes` means to out.
  void (*reduce_mean)(const double* scratch, std::size_t keep, double* out);
};

/// Per-level accessors; nullptr when the level was not compiled in (non-x86
/// builds, or a toolchain without the ISA).
const KernelOps* scalar_ops() noexcept;
const KernelOps* sse2_ops() noexcept;
const KernelOps* avx2_ops() noexcept;
const KernelOps* avx512_ops() noexcept;

/// Best available ops at or below `level` (scalar always exists).
const KernelOps& kernel_ops(simd::SimdLevel level) noexcept;

/// Reusable 64-byte-aligned buffer for the kernel scratch; one per worker
/// thread, grown monotonically like the old thread_local diff vector.
class AlignedScratch {
 public:
  AlignedScratch() = default;
  AlignedScratch(const AlignedScratch&) = delete;
  AlignedScratch& operator=(const AlignedScratch&) = delete;
  ~AlignedScratch() { release(); }

  double* ensure(std::size_t count) {
    if (count > capacity_) {
      release();
      data_ = static_cast<double*>(
          ::operator new[](count * sizeof(double), std::align_val_t{64}));
      capacity_ = count;
    }
    return data_;
  }

 private:
  void release() noexcept {
    if (data_ != nullptr) {
      ::operator delete[](data_, std::align_val_t{64});
      data_ = nullptr;
    }
  }
  double* data_ = nullptr;
  std::size_t capacity_ = 0;
};

}  // namespace repro::cluster
