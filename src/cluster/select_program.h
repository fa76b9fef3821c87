// Rank-select programs for the trimmed-distance kernel's select phase.
//
// The kernel only needs the k smallest |a-b| values per lane, in ascending
// order, so their sequential IEEE sum is canonical (k = the trim keep
// count). A SelectProgram is a keep-pruned Batcher odd-even network --
// fully data-independent, so every lane runs the same instruction stream --
// structured around what actually costs time on real cores:
//
//   * rank pruning with one-sided comparators: per-wire liveness is
//     tracked backward from the keep boundary. A comparator whose high
//     (max) output is never read again and lies past the k-th rank stores
//     only its min; symmetrically for a dead low output. The classic
//     pruning (both outputs dead => drop) is kept; one-sided ops cut the
//     store traffic of the survivors near the rank boundary.
//   * anti-aliasing row padding: a [n][lanes] scratch has rows of
//     lanes * 8 bytes, so comparators whose row distance is the 4 KiB
//     alias period (64 rows at 8 lanes) hit the same store-buffer set and
//     serialize on false store-forwarding conflicts. One pad row is
//     inserted every period-1 rows; all byte offsets (and the fill /
//     reduce phases, see distance_kernel.h) use the padded mapping. Pure
//     layout -- values and their order are untouched.
//   * register tiling: Batcher's recursion decomposes into sort-16 leaves
//     and merge-16 chains whose 16 rows fit in registers; those run as
//     fully unrolled in-register tiles (2 ops per comparator instead of a
//     load/min/max/store round trip through memory per comparator). The
//     irreducible cross-chain fixups remain flat compare-exchanges.
//
// The program is encoded as a run-length opcode stream so the interpreter
// dispatches once per run, not once per comparator. See docs/PERFORMANCE.md
// for the full argument and the measurements behind each choice.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace repro::cluster {

/// Opcodes of the run-length-encoded select program stream. Layout:
///   kFlat      count, then count (lo, hi) byte-offset pairs
///   kFlatMin   count, then count (lo, hi) pairs; stores min(lo,hi) to lo
///              only (the max output is provably dead)
///   kFlatMax   count, then count (lo, hi) pairs; stores max to hi only
///   kSort16    live row count (1..16), then 16 byte offsets (dead slots 0)
///   kMerge16   16 byte offsets (always fully live)
/// All offsets are padded-row byte offsets into the kernel scratch.
enum SelectOp : std::uint32_t {
  kSelectFlat = 0,
  kSelectFlatMin = 1,
  kSelectFlatMax = 2,
  kSelectSort16 = 3,
  kSelectMerge16 = 4,
};

struct SelectProgram {
  std::size_t n = 0;
  std::size_t keep = 0;
  std::size_t lanes = 0;
  /// Compare-exchange counts by kind, for the structure tests.
  std::size_t full_comparators = 0;
  std::size_t min_only_comparators = 0;
  std::size_t max_only_comparators = 0;
  std::size_t sort16_tiles = 0;
  std::size_t merge16_tiles = 0;
  std::vector<std::uint32_t> code;
};

/// Anti-alias padded row index for a scratch with `lanes` doubles per row:
/// one pad row is inserted every (4096 / (lanes * 8)) - 1 data rows, so no
/// two rows a power-of-two Batcher stride apart are ever exactly 4 KiB
/// apart. Monotone, identity until the first alias period.
constexpr std::size_t padded_row_index(std::size_t row,
                                       std::size_t lanes) noexcept {
  const std::size_t period = 4096 / (lanes * sizeof(double));
  return row + row / (period - 1);
}

/// Doubles a kernel scratch must hold for n rows at `lanes` lanes,
/// including pad rows.
constexpr std::size_t kernel_scratch_doubles(std::size_t n,
                                             std::size_t lanes) noexcept {
  return n == 0 ? 0 : (padded_row_index(n - 1, lanes) + 1) * lanes;
}

/// Builds the rank-select program for (n, keep); offsets scaled and padded
/// for `lanes`. Exposed for the structure tests; hot paths use the cache.
SelectProgram build_select_program(std::size_t n, std::size_t keep,
                                   std::size_t lanes);

/// Cached program for (n, keep, lanes). Thread-safe; the reference lives
/// for the process lifetime.
const SelectProgram& select_program_for(std::size_t n, std::size_t keep,
                                        std::size_t lanes);

}  // namespace repro::cluster
