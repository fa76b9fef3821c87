// Contract tests for the single-core hot path (ISSUE 5): the fast
// lane-parallel distance kernel must match the sorted-sum oracle
// bit-for-bit at every SIMD dispatch level and across an adversarial
// tie/denormal corpus, the select programs must decode and execute
// correctly, and the DistanceMatrix packed layout must agree with its row
// accessors.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "cluster/distance.h"
#include "cluster/distance_kernel.h"
#include "cluster/select_program.h"
#include "util/rng.h"
#include "util/simd.h"

namespace repro {
namespace {

/// Levels actually reachable on this machine: distinct KernelOps at or
/// below highest_supported(). On a machine without AVX-512 the kAvx512
/// request dispatches to the same ops as kAvx2; deduplicate so each test
/// runs once per distinct implementation.
std::vector<simd::SimdLevel> reachable_levels() {
  std::vector<simd::SimdLevel> levels;
  const cluster::KernelOps* last = nullptr;
  for (simd::SimdLevel level :
       {simd::SimdLevel::kScalar, simd::SimdLevel::kSse2,
        simd::SimdLevel::kAvx2, simd::SimdLevel::kAvx512}) {
    if (level > simd::highest_supported()) break;
    const cluster::KernelOps* ops = &cluster::kernel_ops(level);
    if (ops != last) levels.push_back(level);
    last = ops;
  }
  return levels;
}

/// RAII guard so a failing ASSERT cannot leak a pinned level into later
/// tests.
struct LevelGuard {
  explicit LevelGuard(simd::SimdLevel level) { simd::set_level_override(level); }
  ~LevelGuard() { simd::clear_level_override(); }
};

std::vector<double> random_table(Rng& rng, std::size_t rows, std::size_t cols,
                                 bool tie_heavy) {
  std::vector<double> table(rows * cols);
  for (double& v : table) {
    // Tie-heavy tables draw from a handful of values, so many |a-b| diffs
    // collide exactly -- the adversarial case for ordering contracts.
    v = tie_heavy ? static_cast<double>(rng.uniform_int(0, 4)) * 25.0
                  : rng.uniform(10.0, 200.0);
  }
  return table;
}

TEST(TrimKeepCount, MatchesDefinition) {
  EXPECT_EQ(trim_keep_count(1, 0.2), 1u);
  EXPECT_EQ(trim_keep_count(10, 0.0), 10u);
  EXPECT_EQ(trim_keep_count(10, 0.2), 8u);
  EXPECT_EQ(trim_keep_count(163, 0.2), 131u);
  EXPECT_EQ(trim_keep_count(5, 0.99), 1u);   // floor(4.95) = 4 -> keep 1
  EXPECT_EQ(trim_keep_count(2, 0.9), 1u);    // clamped to >= 1
}

TEST(TrimmedManhattan, MatchesOracleBitForBit) {
  Rng rng(0xd157);
  for (const std::size_t n : {1u, 2u, 3u, 4u, 7u, 10u, 16u, 40u, 163u, 200u}) {
    for (const double trim : {0.0, 0.1, 0.2, 0.5, 0.9, 0.99}) {
      for (int trial = 0; trial < 8; ++trial) {
        const auto a = random_table(rng, 1, n, trial % 2 == 1);
        const auto b = random_table(rng, 1, n, trial % 2 == 1);
        const double oracle = trimmed_manhattan_oracle(a, b, trim);
        const double fast = trimmed_manhattan(a, b, trim);
        ASSERT_EQ(oracle, fast) << "n=" << n << " trim=" << trim;
      }
    }
  }
}

TEST(PairwiseDistances, MatchesOracleBitForBitAtEveryLevel) {
  Rng rng(0xace5);
  for (const simd::SimdLevel level : reachable_levels()) {
    LevelGuard guard(level);
    for (const std::size_t rows : {2u, 3u, 9u, 17u}) {
      for (const std::size_t cols : {1u, 2u, 5u, 8u, 40u, 163u}) {
        for (const double trim : {0.0, 0.2, 0.5}) {
          const bool tie_heavy = cols % 2 == 0;
          const auto table = random_table(rng, rows, cols, tie_heavy);
          const DistanceMatrix matrix =
              pairwise_distances(table, rows, cols, trim);
          for (std::size_t i = 0; i < rows; ++i) {
            for (std::size_t j = i + 1; j < rows; ++j) {
              const std::span<const double> a(table.data() + i * cols, cols);
              const std::span<const double> b(table.data() + j * cols, cols);
              ASSERT_EQ(matrix.at(i, j), trimmed_manhattan_oracle(a, b, trim))
                  << simd::to_string(level) << " rows=" << rows
                  << " cols=" << cols << " trim=" << trim << " (" << i << ","
                  << j << ")";
            }
          }
        }
      }
    }
  }
}

TEST(PairwiseDistances, AllLevelsBitIdenticalOnLargeTable) {
  Rng rng(0xbeef);
  const std::size_t rows = 37, cols = 163;
  const auto table = random_table(rng, rows, cols, false);

  std::vector<std::vector<double>> flattened;
  for (const simd::SimdLevel level : reachable_levels()) {
    LevelGuard guard(level);
    const DistanceMatrix matrix = pairwise_distances(table, rows, cols, 0.2);
    std::vector<double> flat;
    for (std::size_t i = 0; i < rows; ++i) {
      const auto row = matrix.row_span(i);
      flat.insert(flat.end(), row.begin(), row.end());
    }
    flattened.push_back(std::move(flat));
  }
  ASSERT_FALSE(flattened.empty());
  for (std::size_t k = 1; k < flattened.size(); ++k) {
    ASSERT_EQ(flattened[k].size(), flattened[0].size());
    for (std::size_t v = 0; v < flattened[0].size(); ++v) {
      ASSERT_EQ(flattened[k][v], flattened[0][v])
          << "level index " << k << " value " << v;
    }
  }
}

TEST(PairwiseDistancesStreamed, EveryBlockSizeMatchesOneShotAtEveryLevel) {
  // The block-streamed pass visits cell (i, j) exactly once with the same
  // kernel call the one-shot pass uses, so any block height -- degenerate
  // single-row blocks, a prime that never divides the row count, blocks
  // larger than the matrix, and 0 (whole matrix in one block) -- must
  // reproduce pairwise_distances bit-for-bit at every dispatch level.
  Rng rng(0x57ea);
  for (const simd::SimdLevel level : reachable_levels()) {
    LevelGuard guard(level);
    for (const std::size_t rows : {3u, 17u, 40u}) {
      for (const std::size_t cols : {5u, 40u, 163u}) {
        const bool tie_heavy = cols % 2 == 0;
        const auto table = random_table(rng, rows, cols, tie_heavy);
        const DistanceMatrix oneshot =
            pairwise_distances(table, rows, cols, 0.2);
        const RowFiller fill = [&](std::size_t row, double* out) {
          std::copy_n(table.data() + row * cols, cols, out);
        };
        for (const std::size_t block : {1u, 7u, 64u, 0u}) {
          const DistanceMatrix streamed =
              pairwise_distances_streamed(fill, rows, cols, 0.2, block);
          for (std::size_t i = 0; i < rows; ++i) {
            for (std::size_t j = i + 1; j < rows; ++j) {
              ASSERT_EQ(streamed.at(i, j), oneshot.at(i, j))
                  << simd::to_string(level) << " rows=" << rows
                  << " cols=" << cols << " block=" << block << " (" << i
                  << "," << j << ")";
            }
          }
        }
      }
    }
  }
}

TEST(PairwiseDistancesStreamed, FillerSeesEachBlockRowOnDemand) {
  // The streamed pass may stage a row more than once (a row participates
  // in every block pair that touches its block) but must always ask for
  // whole valid rows; the filler is the only data source, so out-of-range
  // requests would read garbage.
  Rng rng(0xb10c);
  const std::size_t rows = 11, cols = 8;
  const auto table = random_table(rng, rows, cols, false);
  std::vector<std::atomic<int>> requests(rows);
  const RowFiller fill = [&](std::size_t row, double* out) {
    ASSERT_LT(row, rows);
    requests[row].fetch_add(1);
    std::copy_n(table.data() + row * cols, cols, out);
  };
  const DistanceMatrix streamed =
      pairwise_distances_streamed(fill, rows, cols, 0.2, 4);
  const DistanceMatrix oneshot = pairwise_distances(table, rows, cols, 0.2);
  for (std::size_t i = 0; i < rows; ++i) {
    EXPECT_GE(requests[i].load(), 1) << "row " << i << " never staged";
    for (std::size_t j = i + 1; j < rows; ++j) {
      ASSERT_EQ(streamed.at(i, j), oneshot.at(i, j));
    }
  }
}

TEST(DistanceMatrix, PackedOffsetProperties) {
  for (const std::size_t n : {2u, 3u, 5u, 17u, 64u}) {
    // Bijection: every (i, j < i) pair maps to a distinct offset in
    // [0, n(n-1)/2), symmetric in its arguments, and row-major contiguous.
    std::vector<char> seen(n * (n - 1) / 2, 0);
    std::size_t expected = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const std::size_t off = DistanceMatrix::packed_offset(n, i, j);
        ASSERT_EQ(off, expected) << "n=" << n;  // row-major, no gaps
        ASSERT_EQ(off, DistanceMatrix::packed_offset(n, j, i));
        ASSERT_LT(off, seen.size());
        ASSERT_FALSE(seen[off]);
        seen[off] = 1;
        ++expected;
      }
    }
    EXPECT_EQ(expected, seen.size());
  }
}

TEST(DistanceMatrix, RowSpanAliasesPackedCells) {
  const std::size_t n = 9;
  DistanceMatrix matrix(n);
  double next = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) matrix.set(i, j, next++);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = matrix.row_span(i);
    ASSERT_EQ(row.size(), n - 1 - i);
    for (std::size_t j = i + 1; j < n; ++j) {
      EXPECT_EQ(row[j - i - 1], matrix.at(i, j));
    }
  }
  // Writes through the span land in the same cells at() reads.
  matrix.row_span(3)[2] = 999.0;
  EXPECT_EQ(matrix.at(3, 6), 999.0);
}

TEST(DistanceMatrix, CopyRowMatchesAt) {
  Rng rng(0xc0de);
  const std::size_t n = 23;
  DistanceMatrix matrix(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      matrix.set(i, j, rng.uniform(0.0, 10.0));
    }
  }
  std::vector<double> full(n);
  std::vector<double> others(n - 1);
  for (std::size_t p = 0; p < n; ++p) {
    matrix.copy_row(p, full.data());
    matrix.copy_row_without_self(p, others.data());
    for (std::size_t o = 0; o < n; ++o) {
      ASSERT_EQ(full[o], matrix.at(p, o)) << "p=" << p << " o=" << o;
    }
    std::size_t k = 0;
    for (std::size_t o = 0; o < n; ++o) {
      if (o == p) continue;
      ASSERT_EQ(others[k++], matrix.at(p, o)) << "p=" << p << " o=" << o;
    }
  }
}

TEST(SimdDispatch, OverrideClampsAndParses) {
  EXPECT_EQ(simd::parse_level("avx2"), simd::SimdLevel::kAvx2);
  EXPECT_EQ(simd::parse_level("bogus"), std::nullopt);
  {
    LevelGuard guard(simd::SimdLevel::kScalar);
    EXPECT_EQ(simd::active_level(), simd::SimdLevel::kScalar);
  }
  // Requests above hardware support clamp down.
  {
    LevelGuard guard(simd::SimdLevel::kAvx512);
    EXPECT_LE(simd::active_level(), simd::highest_supported());
  }
  EXPECT_LE(simd::active_level(), simd::highest_supported());
}

TEST(KernelPhaseProfile, ReportsActiveLevelAndPositiveTimings) {
  const KernelPhaseProfile profile = profile_kernel_phases(163, 0.2, 50);
  EXPECT_EQ(profile.simd_level, simd::to_string(simd::active_level()));
  EXPECT_GT(profile.diff_ns_op, 0.0);
  EXPECT_GT(profile.select_ns_op, 0.0);
  EXPECT_GT(profile.sum_ns_op, 0.0);
}

TEST(SelectProgram, StreamDecodesCleanlyAndStaysOnRealRows) {
  // Structural validation of the RLE opcode stream for every (n, keep)
  // shape the Batcher generator supported: runs have sane lengths, every
  // byte offset is row-aligned, inside the sized scratch, and never a pad
  // row, and the stream ends exactly at code.size().
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{2},
                                  std::size_t{4}, std::size_t{8}}) {
    const std::size_t row_bytes = lanes * sizeof(double);
    const std::size_t period = 4096 / row_bytes;
    for (const std::size_t n : {1u, 2u, 3u, 5u, 8u, 13u, 16u, 40u, 163u}) {
      for (const std::size_t keep : {std::size_t{1}, (n + 1) / 2, n}) {
        const cluster::SelectProgram program =
            cluster::build_select_program(n, keep, lanes);
        EXPECT_EQ(program.n, n);
        EXPECT_EQ(program.keep, keep);
        EXPECT_EQ(program.lanes, lanes);
        const std::size_t scratch_bytes =
            cluster::kernel_scratch_doubles(n, lanes) * sizeof(double);
        const auto check_offset = [&](std::uint32_t off) {
          ASSERT_EQ(off % row_bytes, 0u);
          ASSERT_LT(off, scratch_bytes);
          ASSERT_NE((off / row_bytes) % period, period - 1) << "pad row hit";
        };
        std::size_t full = 0, min_only = 0, max_only = 0;
        std::size_t sort16 = 0, merge16 = 0;
        const std::vector<std::uint32_t>& code = program.code;
        std::size_t pc = 0;
        while (pc < code.size()) {
          ASSERT_LT(pc, code.size());
          const std::uint32_t op = code[pc++];
          switch (op) {
            case cluster::kSelectFlat:
            case cluster::kSelectFlatMin:
            case cluster::kSelectFlatMax: {
              ASSERT_LT(pc, code.size());
              const std::uint32_t count = code[pc++];
              ASSERT_GE(count, 1u);
              ASSERT_LE(pc + 2 * count, code.size());
              for (std::uint32_t c = 0; c < count; ++c) {
                check_offset(code[pc]);
                check_offset(code[pc + 1]);
                ASSERT_NE(code[pc + 1] - code[pc], 4096u) << "page alias";
                pc += 2;
              }
              (op == cluster::kSelectFlat
                   ? full
                   : op == cluster::kSelectFlatMin ? min_only : max_only) +=
                  count;
              break;
            }
            case cluster::kSelectSort16: {
              ASSERT_LE(pc + 17, code.size());
              const std::uint32_t live = code[pc++];
              ASSERT_GE(live, 1u);
              ASSERT_LE(live, 16u);
              for (int s = 0; s < 16; ++s) {
                if (static_cast<std::uint32_t>(s) < live) check_offset(code[pc]);
                ++pc;
              }
              ++sort16;
              break;
            }
            case cluster::kSelectMerge16: {
              ASSERT_LE(pc + 16, code.size());
              for (int s = 0; s < 16; ++s) check_offset(code[pc++]);
              ++merge16;
              break;
            }
            default:
              FAIL() << "unknown opcode " << op << " at pc " << pc - 1;
          }
        }
        EXPECT_EQ(pc, code.size());
        EXPECT_EQ(full, program.full_comparators);
        EXPECT_EQ(min_only, program.min_only_comparators);
        EXPECT_EQ(max_only, program.max_only_comparators);
        EXPECT_EQ(sort16, program.sort16_tiles);
        EXPECT_EQ(merge16, program.merge16_tiles);
      }
    }
  }
  // The paper shape actually uses the tiled forms (otherwise the register
  // tiling is dead code), and the cache hands back a stable reference.
  const cluster::SelectProgram& paper = cluster::select_program_for(163, 131, 8);
  EXPECT_GT(paper.sort16_tiles, 0u);
  EXPECT_GT(paper.merge16_tiles, 0u);
  EXPECT_GT(paper.min_only_comparators, 0u);
  EXPECT_EQ(&cluster::select_program_for(163, 131, 8), &paper);
}

TEST(SelectProgramExec, KeptPrefixMatchesSortEveryLevel) {
  // Direct execution of run_select on a hand-filled padded
  // scratch: for every reachable level and every (n, keep) shape, the kept
  // prefix must equal the per-lane ascending sort of the inputs,
  // bit-for-bit, for random, tie-heavy, and denormal lane columns.
  Rng rng(0x3e1e);
  const double denormals[] = {0.0,
                              std::numeric_limits<double>::denorm_min(),
                              1e-310,
                              std::numeric_limits<double>::min(),
                              1.0};
  cluster::AlignedScratch scratch_buf;
  for (const simd::SimdLevel level : reachable_levels()) {
    const cluster::KernelOps& ops = cluster::kernel_ops(level);
    const std::size_t lanes = ops.lanes;
    for (const std::size_t n : {1u, 2u, 3u, 5u, 8u, 13u, 16u, 40u, 64u, 163u}) {
      for (const std::size_t keep : {std::size_t{1}, (n + 1) / 2, n}) {
        const cluster::SelectProgram& program =
            cluster::select_program_for(n, keep, lanes);
        double* scratch =
            scratch_buf.ensure(cluster::kernel_scratch_doubles(n, lanes));
        for (int trial = 0; trial < 6; ++trial) {
          std::vector<double> values(n * lanes);
          for (double& v : values) {
            v = trial % 3 == 0   ? rng.uniform(0.0, 1.0)
                : trial % 3 == 1 ? static_cast<double>(rng.uniform_int(0, 3))
                                 : denormals[rng.uniform_int(0, 4)];
          }
          for (std::size_t d = 0; d < n; ++d) {
            for (std::size_t l = 0; l < lanes; ++l) {
              scratch[cluster::padded_row_index(d, lanes) * lanes + l] =
                  values[d * lanes + l];
            }
          }
          std::vector<double> expected(values);
          for (std::size_t l = 0; l < lanes; ++l) {
            std::vector<double> column(n);
            for (std::size_t d = 0; d < n; ++d) column[d] = values[d * lanes + l];
            std::sort(column.begin(), column.end());
            for (std::size_t d = 0; d < n; ++d) expected[d * lanes + l] = column[d];
          }
          ops.run_select(scratch, program.code.data(), program.code.size());
          for (std::size_t k = 0; k < keep; ++k) {
            for (std::size_t l = 0; l < lanes; ++l) {
              ASSERT_EQ(
                  scratch[cluster::padded_row_index(k, lanes) * lanes + l],
                  expected[k * lanes + l])
                  << simd::to_string(level) << " n=" << n << " keep=" << keep
                  << " trial=" << trial << " k=" << k << " lane=" << l;
            }
          }
        }
      }
    }
  }
}

/// Adversarial latency-vector pairs for the rank-select corpus. Each kind
/// stresses a different failure mode of a selection that must keep the
/// *exact* kept set and its ascending order:
///   0  all |a-b| equal (every comparator is a tie)
///   1  two distinct diff values, duplicates straddling every rank boundary
///   2  denormal / zero / min-normal mixes (gradual-underflow arithmetic)
///   3  duplicate plateaus of three around the k-th rank
///   4  random control
void adversarial_pair(int kind, std::size_t n, Rng& rng,
                      std::vector<double>& a, std::vector<double>& b) {
  a.resize(n);
  b.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (kind) {
      case 0:
        a[i] = 7.5;
        b[i] = 3.5;
        break;
      case 1:
        a[i] = rng.uniform_int(0, 1) == 0 ? 1.0 : 2.0;
        b[i] = 0.0;
        break;
      case 2: {
        const double pool[] = {0.0,
                               std::numeric_limits<double>::denorm_min(),
                               4.5e-320,
                               std::numeric_limits<double>::min(),
                               1.5e-308};
        a[i] = pool[rng.uniform_int(0, 4)];
        b[i] = pool[rng.uniform_int(0, 4)];
        break;
      }
      case 3:
        a[i] = static_cast<double>(i / 3);
        b[i] = 0.0;
        break;
      default:
        a[i] = rng.uniform(10.0, 200.0);
        b[i] = rng.uniform(10.0, 200.0);
        break;
    }
  }
  if (kind == 3) {
    // Shuffle so the plateaus are not pre-sorted.
    for (std::size_t i = n; i > 1; --i) {
      std::swap(a[i - 1], a[static_cast<std::size_t>(
                              rng.uniform_int(0, static_cast<int>(i) - 1))]);
    }
  }
}

TEST(RankSelectCorpus, AdversarialPairsMatchOracleEveryLevel) {
  Rng rng(0xc0a5);
  for (const simd::SimdLevel level : reachable_levels()) {
    LevelGuard level_guard(level);
    for (const std::size_t n : {1u, 2u, 3u, 5u, 8u, 13u, 16u, 40u, 163u}) {
      for (const double trim : {0.0, 0.2, 0.5, 0.9}) {
        for (int kind = 0; kind < 5; ++kind) {
          std::vector<double> a, b;
          adversarial_pair(kind, n, rng, a, b);
          const double oracle = trimmed_manhattan_oracle(a, b, trim);
          // Single-pair scalar path.
          ASSERT_EQ(trimmed_manhattan(a, b, trim), oracle)
              << simd::to_string(level) << " n=" << n << " trim=" << trim
              << " kind=" << kind;
          // Batched kernel path (2-row table through pairwise_distances).
          std::vector<double> table(a);
          table.insert(table.end(), b.begin(), b.end());
          const DistanceMatrix matrix = pairwise_distances(table, 2, n, trim);
          ASSERT_EQ(matrix.at(0, 1), oracle)
              << simd::to_string(level) << " n=" << n << " trim=" << trim
              << " kind=" << kind;
        }
      }
    }
  }
}

}  // namespace
}  // namespace repro
