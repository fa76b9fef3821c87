#include "cluster/distance.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "cluster/distance_kernel.h"
#include "cluster/select_program.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace repro {

namespace {

void check_trimmed_manhattan_args(std::span<const double> a,
                                  std::span<const double> b,
                                  double trim_fraction) {
  require(a.size() == b.size(), "trimmed_manhattan: size mismatch");
  require(!a.empty(), "trimmed_manhattan: empty vectors");
  require(trim_fraction >= 0.0 && trim_fraction < 1.0,
          "trimmed_manhattan: trim_fraction outside [0, 1)");
}

}  // namespace

std::size_t trim_keep_count(std::size_t n, double trim_fraction) noexcept {
  return std::max<std::size_t>(
      1, n - static_cast<std::size_t>(
                 std::floor(trim_fraction * static_cast<double>(n))));
}

double trimmed_manhattan(std::span<const double> a, std::span<const double> b,
                         double trim_fraction) {
  check_trimmed_manhattan_args(a, b, trim_fraction);
  std::vector<double> diffs(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    diffs[i] = std::fabs(a[i] - b[i]);
  }
  // partial_sort leaves the kept prefix in ascending order, so the
  // sequential sum below is the canonical ascending-order sum (bit-identical
  // to the full std::sort of the oracle: the sorted value sequence is
  // unique, ties carry identical bit patterns).
  const std::size_t keep = trim_keep_count(a.size(), trim_fraction);
  std::partial_sort(diffs.begin(),
                    diffs.begin() + static_cast<std::ptrdiff_t>(keep),
                    diffs.end());
  double total = 0.0;
  for (std::size_t i = 0; i < keep; ++i) total += diffs[i];
  return total / static_cast<double>(keep);
}

double trimmed_manhattan_oracle(std::span<const double> a,
                                std::span<const double> b,
                                double trim_fraction) {
  check_trimmed_manhattan_args(a, b, trim_fraction);
  std::vector<double> diffs(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    diffs[i] = std::fabs(a[i] - b[i]);
  }
  std::sort(diffs.begin(), diffs.end());
  const std::size_t keep = trim_keep_count(a.size(), trim_fraction);
  double total = 0.0;
  for (std::size_t i = 0; i < keep; ++i) total += diffs[i];
  return total / static_cast<double>(keep);
}

DistanceMatrix::DistanceMatrix(std::size_t n) : n_(n) {
  require(n >= 1, "DistanceMatrix: need at least one point");
  values_.assign(n * (n - 1) / 2, 0.0);
}

std::size_t DistanceMatrix::packed_offset(std::size_t n, std::size_t i,
                                          std::size_t j) {
  require(i < n && j < n && i != j, "DistanceMatrix: bad indices");
  if (i > j) std::swap(i, j);
  // Upper-triangle packed index for (i, j), i < j.
  return i * n - i * (i + 1) / 2 + (j - i - 1);
}

std::size_t DistanceMatrix::offset(std::size_t i, std::size_t j) const {
  return packed_offset(n_, i, j);
}

double DistanceMatrix::at(std::size_t i, std::size_t j) const {
  if (i == j) return 0.0;
  return values_[offset(i, j)];
}

void DistanceMatrix::set(std::size_t i, std::size_t j, double value) {
  require(value >= 0.0, "DistanceMatrix: negative distance");
  values_[offset(i, j)] = value;
}

std::span<double> DistanceMatrix::row_span(std::size_t i) {
  require(i < n_, "DistanceMatrix: bad row");
  return {values_.data() + row_start(i), n_ - 1 - i};
}

std::span<const double> DistanceMatrix::row_span(std::size_t i) const {
  require(i < n_, "DistanceMatrix: bad row");
  return {values_.data() + row_start(i), n_ - 1 - i};
}

void DistanceMatrix::copy_row(std::size_t p, double* out) const {
  require(p < n_, "DistanceMatrix: bad row");
  // Cells (o, p) for o < p live one per packed row; successive rows shrink
  // by one, so the stride from row o to o + 1 is n_ - o - 2.
  std::size_t off = p >= 1 ? p - 1 : 0;  // packed_offset(0, p)
  for (std::size_t o = 0; o < p; ++o) {
    out[o] = values_[off];
    off += n_ - o - 2;
  }
  out[p] = 0.0;
  if (p + 1 < n_) {
    const double* row = values_.data() + row_start(p);
    std::copy(row, row + (n_ - 1 - p), out + p + 1);
  }
}

void DistanceMatrix::copy_row_without_self(std::size_t p, double* out) const {
  require(p < n_, "DistanceMatrix: bad row");
  std::size_t off = p >= 1 ? p - 1 : 0;  // packed_offset(0, p)
  for (std::size_t o = 0; o < p; ++o) {
    out[o] = values_[off];
    off += n_ - o - 2;
  }
  if (p + 1 < n_) {
    const double* row = values_.data() + row_start(p);
    std::copy(row, row + (n_ - 1 - p), out + p);
  }
}

DistanceMatrix pairwise_distances(std::span<const double> table,
                                  std::size_t rows, std::size_t cols,
                                  double trim_fraction) {
  require(rows >= 1 && cols >= 1, "pairwise_distances: empty table");
  require(table.size() == rows * cols, "pairwise_distances: size mismatch");
  require(trim_fraction >= 0.0 && trim_fraction < 1.0,
          "pairwise_distances: trim_fraction outside [0, 1)");
  DistanceMatrix matrix(rows);
  if (rows == 1) return matrix;
  // Stage-level span: the row-block tasks below propagate it as their
  // parent, so kernels account to the right subtree in the trace.
  obs::ScopedSpan span("cluster.pairwise_distances");

  // Everything loop-invariant is resolved here, once: kernel level, lane
  // count, trim boundary, and the select program for (cols, keep, lanes).
  const cluster::KernelOps& ops = cluster::kernel_ops(simd::active_level());
  const std::size_t lanes = ops.lanes;
  const std::size_t keep = trim_keep_count(cols, trim_fraction);
  const cluster::SelectProgram& program =
      cluster::select_program_for(cols, keep, lanes);
  const double* data = table.data();

  // Row-block sharding: a worker owning rows [begin, end) computes every
  // (i, j > i) pair for its rows, so row i stays cache-hot across its whole
  // j sweep and no two workers ever touch the same matrix cell. Small
  // blocks + the dynamic scheduler in parallel_for_blocks balance the
  // shrinking upper-triangle cost of later rows.
  const std::size_t threads =
      std::min(default_thread_count(), std::max<std::size_t>(rows / 2, 1));
  const std::size_t block = std::max<std::size_t>(1, rows / (threads * 8));
  parallel_for_blocks(
      rows, block,
      [&matrix, &ops, &program, data, rows, cols, keep,
       lanes](std::size_t begin, std::size_t end) {
        // One aligned scratch per worker thread for the whole shard.
        thread_local cluster::AlignedScratch scratch_owner;
        double* scratch =
            scratch_owner.ensure(cluster::kernel_scratch_doubles(cols, lanes));
        const double* batch[cluster::kMaxKernelLanes];
        double results[cluster::kMaxKernelLanes];
        for (std::size_t i = begin; i < end; ++i) {
          const double* row_i = data + i * cols;
          const std::span<double> out_row = matrix.row_span(i);
          const std::size_t count = rows - 1 - i;
          for (std::size_t jb = 0; jb < count; jb += lanes) {
            const std::size_t live = std::min(lanes, count - jb);
            // Tail batches pad the spare lanes with the last live row; the
            // duplicate results are simply not written back.
            for (std::size_t l = 0; l < lanes; ++l) {
              const std::size_t j = i + 1 + jb + (l < live ? l : live - 1);
              batch[l] = data + j * cols;
            }
            ops.fill_diffs(row_i, batch, cols, scratch);
            ops.run_select(scratch, program.code.data(), program.code.size());
            ops.reduce_mean(scratch, keep, results);
            for (std::size_t l = 0; l < live; ++l) {
              out_row[jb + l] = results[l];
            }
          }
        }
      },
      threads);
  return matrix;
}

DistanceMatrix pairwise_distances_streamed(const RowFiller& fill_row,
                                           std::size_t rows, std::size_t cols,
                                           double trim_fraction,
                                           std::size_t block_rows) {
  require(rows >= 1 && cols >= 1, "pairwise_distances_streamed: empty table");
  require(static_cast<bool>(fill_row),
          "pairwise_distances_streamed: null fill_row");
  require(trim_fraction >= 0.0 && trim_fraction < 1.0,
          "pairwise_distances_streamed: trim_fraction outside [0, 1)");
  DistanceMatrix matrix(rows);
  if (rows == 1) return matrix;
  obs::ScopedSpan span("cluster.pairwise_distances_streamed");

  const cluster::KernelOps& ops = cluster::kernel_ops(simd::active_level());
  const std::size_t lanes = ops.lanes;
  const std::size_t keep = trim_keep_count(cols, trim_fraction);
  const cluster::SelectProgram& program =
      cluster::select_program_for(cols, keep, lanes);

  const std::size_t block =
      block_rows == 0 ? rows : std::min(block_rows, rows);
  const std::size_t blocks = (rows + block - 1) / block;
  // Upper-triangle block pairs (bi, bj), bi <= bj, flattened in row-major
  // order so task t maps back to its pair with one scan (blocks is small).
  const std::size_t tasks = blocks * (blocks + 1) / 2;

  const std::size_t threads = std::min(default_thread_count(), tasks);
  parallel_for_blocks(
      tasks, 1,
      [&](std::size_t task_begin, std::size_t task_end) {
        // Per-worker staging: the two blocks under the current task plus
        // the kernel scratch. Reused across every task the worker drains.
        thread_local std::vector<double> stage_i;
        thread_local std::vector<double> stage_j;
        thread_local cluster::AlignedScratch scratch_owner;
        double* scratch =
            scratch_owner.ensure(cluster::kernel_scratch_doubles(cols, lanes));
        const double* batch[cluster::kMaxKernelLanes];
        double results[cluster::kMaxKernelLanes];

        for (std::size_t task = task_begin; task < task_end; ++task) {
          // Invert the row-major flattening: task -> (bi, bj).
          std::size_t bi = 0;
          std::size_t remaining = task;
          while (remaining >= blocks - bi) {
            remaining -= blocks - bi;
            ++bi;
          }
          const std::size_t bj = bi + remaining;

          const std::size_t i_begin = bi * block;
          const std::size_t i_end = std::min(i_begin + block, rows);
          const std::size_t j_begin = bj * block;
          const std::size_t j_end = std::min(j_begin + block, rows);

          stage_i.resize((i_end - i_begin) * cols);
          for (std::size_t i = i_begin; i < i_end; ++i) {
            fill_row(i, stage_i.data() + (i - i_begin) * cols);
          }
          const double* rows_j = stage_i.data();
          std::size_t rows_j_base = i_begin;
          if (bj != bi) {
            stage_j.resize((j_end - j_begin) * cols);
            for (std::size_t j = j_begin; j < j_end; ++j) {
              fill_row(j, stage_j.data() + (j - j_begin) * cols);
            }
            rows_j = stage_j.data();
            rows_j_base = j_begin;
          }

          for (std::size_t i = i_begin; i < i_end; ++i) {
            const double* row_i = stage_i.data() + (i - i_begin) * cols;
            const std::size_t lo = std::max(i + 1, j_begin);
            if (lo >= j_end) continue;
            const std::span<double> out_row = matrix.row_span(i);
            const std::size_t count = j_end - lo;
            for (std::size_t jb = 0; jb < count; jb += lanes) {
              const std::size_t live = std::min(lanes, count - jb);
              for (std::size_t l = 0; l < lanes; ++l) {
                const std::size_t j = lo + jb + (l < live ? l : live - 1);
                batch[l] = rows_j + (j - rows_j_base) * cols;
              }
              ops.fill_diffs(row_i, batch, cols, scratch);
              ops.run_select(scratch, program.code.data(), program.code.size());
              ops.reduce_mean(scratch, keep, results);
              for (std::size_t l = 0; l < live; ++l) {
                // Cell (i, lo + jb + l) belongs to exactly this block pair,
                // so no other worker ever writes this slot.
                out_row[lo + jb + l - (i + 1)] = results[l];
              }
            }
          }
        }
      },
      threads);
  return matrix;
}

KernelPhaseProfile profile_kernel_phases(std::size_t n, double trim_fraction,
                                         std::size_t iterations) {
  require(n >= 1, "profile_kernel_phases: empty vectors");
  require(trim_fraction >= 0.0 && trim_fraction < 1.0,
          "profile_kernel_phases: trim_fraction outside [0, 1)");
  require(iterations >= 1, "profile_kernel_phases: need iterations");

  const cluster::KernelOps& ops = cluster::kernel_ops(simd::active_level());
  const std::size_t lanes = ops.lanes;
  const std::size_t keep = trim_keep_count(n, trim_fraction);
  const cluster::SelectProgram& program =
      cluster::select_program_for(n, keep, lanes);

  Rng rng(0x9d15);
  std::vector<double> a(n);
  std::vector<double> b(n * lanes);
  for (double& v : a) v = rng.uniform(10.0, 200.0);
  for (double& v : b) v = rng.uniform(10.0, 200.0);
  const double* batch[cluster::kMaxKernelLanes];
  for (std::size_t l = 0; l < lanes; ++l) batch[l] = b.data() + l * n;

  cluster::AlignedScratch scratch_owner;
  double* scratch =
      scratch_owner.ensure(cluster::kernel_scratch_doubles(n, lanes));
  double results[cluster::kMaxKernelLanes];

  const auto time_phase = [&](auto&& body) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t it = 0; it < iterations; ++it) body();
    const auto stop = std::chrono::steady_clock::now();
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
            .count());
    // Per pair: each invocation covers `lanes` pairs.
    return ns / (static_cast<double>(iterations) * static_cast<double>(lanes));
  };

  KernelPhaseProfile profile;
  profile.simd_level = std::string(simd::to_string(ops.level));
  profile.diff_ns_op =
      time_phase([&] { ops.fill_diffs(a.data(), batch, n, scratch); });
  // The select program is a data-independent compare-exchange sequence,
  // so re-running it on the already sorted scratch exercises the exact same
  // instruction stream.
  profile.select_ns_op = time_phase([&] {
    ops.run_select(scratch, program.code.data(), program.code.size());
  });
  profile.sum_ns_op =
      time_phase([&] { ops.reduce_mean(scratch, keep, results); });
  return profile;
}

}  // namespace repro
