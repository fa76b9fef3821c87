// AVX2 kernel (lanes = 4). Compiled with -mavx2 (set per-file in CMake) and
// only ever reached through the dispatch table after a runtime cpuid check.
#include "cluster/distance_kernel.h"

#if (defined(__x86_64__) || defined(_M_X64)) && defined(__AVX2__)

#include <immintrin.h>

#include <cmath>
#include <limits>

#include "cluster/select_program.h"

namespace repro::cluster {

namespace {

void fill_diffs(const double* a, const double* const* bs, std::size_t n,
                double* scratch) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  std::size_t d = 0;
  // 4x4 blocks: four |a-b| row vectors, transposed into four scratch rows
  // (one dimension each, all four lanes) with unpacks + 128-bit permutes.
  for (; d + 4 <= n; d += 4) {
    const __m256d av = _mm256_loadu_pd(a + d);
    const __m256d r0 =
        _mm256_andnot_pd(sign, _mm256_sub_pd(av, _mm256_loadu_pd(bs[0] + d)));
    const __m256d r1 =
        _mm256_andnot_pd(sign, _mm256_sub_pd(av, _mm256_loadu_pd(bs[1] + d)));
    const __m256d r2 =
        _mm256_andnot_pd(sign, _mm256_sub_pd(av, _mm256_loadu_pd(bs[2] + d)));
    const __m256d r3 =
        _mm256_andnot_pd(sign, _mm256_sub_pd(av, _mm256_loadu_pd(bs[3] + d)));
    const __m256d t0 = _mm256_unpacklo_pd(r0, r1);
    const __m256d t1 = _mm256_unpackhi_pd(r0, r1);
    const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
    const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
    _mm256_store_pd(scratch + padded_row_index(d + 0, 4) * 4,
                    _mm256_permute2f128_pd(t0, t2, 0x20));
    _mm256_store_pd(scratch + padded_row_index(d + 1, 4) * 4,
                    _mm256_permute2f128_pd(t1, t3, 0x20));
    _mm256_store_pd(scratch + padded_row_index(d + 2, 4) * 4,
                    _mm256_permute2f128_pd(t0, t2, 0x31));
    _mm256_store_pd(scratch + padded_row_index(d + 3, 4) * 4,
                    _mm256_permute2f128_pd(t1, t3, 0x31));
  }
  for (; d < n; ++d) {
    double* row = scratch + padded_row_index(d, 4) * 4;
    for (std::size_t l = 0; l < 4; ++l) {
      row[l] = std::fabs(a[d] - bs[l][d]);
    }
  }
}

#define REPRO_LANE_VEC __m256d
#define REPRO_LANE_LOAD(p) _mm256_load_pd(p)
#define REPRO_LANE_STORE(p, v) _mm256_store_pd((p), (v))
#define REPRO_LANE_MIN(x, y) _mm256_min_pd((x), (y))
#define REPRO_LANE_MAX(x, y) _mm256_max_pd((x), (y))
#define REPRO_LANE_INF \
  _mm256_set1_pd(std::numeric_limits<double>::infinity())
#include "cluster/kernel_select.inl"
#undef REPRO_LANE_VEC
#undef REPRO_LANE_LOAD
#undef REPRO_LANE_STORE
#undef REPRO_LANE_MIN
#undef REPRO_LANE_MAX
#undef REPRO_LANE_INF

void reduce_mean(const double* scratch, std::size_t keep, double* out) {
  __m256d acc = _mm256_setzero_pd();
  for (std::size_t r = 0; r < keep; ++r) {
    acc = _mm256_add_pd(acc,
                        _mm256_load_pd(scratch + padded_row_index(r, 4) * 4));
  }
  acc = _mm256_div_pd(acc, _mm256_set1_pd(static_cast<double>(keep)));
  _mm256_storeu_pd(out, acc);
}

const KernelOps kOps{simd::SimdLevel::kAvx2, 4, &fill_diffs, &run_select,
                     &reduce_mean};

}  // namespace

const KernelOps* avx2_ops() noexcept { return &kOps; }

}  // namespace repro::cluster

#else  // ISA not compiled in: dispatch falls through to the next level down.

namespace repro::cluster {
const KernelOps* avx2_ops() noexcept { return nullptr; }
}  // namespace repro::cluster

#endif
