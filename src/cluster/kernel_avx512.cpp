// AVX-512 kernel (lanes = 8). Compiled with -mavx512f (set per-file in
// CMake); only AVX512F intrinsics are used, and the code is only reached
// through the dispatch table after a runtime cpuid check for avx512f.
#include "cluster/distance_kernel.h"

#if (defined(__x86_64__) || defined(_M_X64)) && defined(__AVX512F__)

#include <immintrin.h>

#include <limits>

#include "cluster/select_program.h"

namespace repro::cluster {

namespace {

/// In-register 8x8 double transpose: unpack pairs within 128-bit halves,
/// then two rounds of 128-bit-chunk shuffles.
inline void transpose8(__m512d r[8]) {
  const __m512d t0 = _mm512_unpacklo_pd(r[0], r[1]);
  const __m512d t1 = _mm512_unpackhi_pd(r[0], r[1]);
  const __m512d t2 = _mm512_unpacklo_pd(r[2], r[3]);
  const __m512d t3 = _mm512_unpackhi_pd(r[2], r[3]);
  const __m512d t4 = _mm512_unpacklo_pd(r[4], r[5]);
  const __m512d t5 = _mm512_unpackhi_pd(r[4], r[5]);
  const __m512d t6 = _mm512_unpacklo_pd(r[6], r[7]);
  const __m512d t7 = _mm512_unpackhi_pd(r[6], r[7]);
  const __m512d u0 = _mm512_shuffle_f64x2(t0, t2, 0x88);
  const __m512d u1 = _mm512_shuffle_f64x2(t1, t3, 0x88);
  const __m512d u2 = _mm512_shuffle_f64x2(t0, t2, 0xdd);
  const __m512d u3 = _mm512_shuffle_f64x2(t1, t3, 0xdd);
  const __m512d u4 = _mm512_shuffle_f64x2(t4, t6, 0x88);
  const __m512d u5 = _mm512_shuffle_f64x2(t5, t7, 0x88);
  const __m512d u6 = _mm512_shuffle_f64x2(t4, t6, 0xdd);
  const __m512d u7 = _mm512_shuffle_f64x2(t5, t7, 0xdd);
  r[0] = _mm512_shuffle_f64x2(u0, u4, 0x88);
  r[1] = _mm512_shuffle_f64x2(u1, u5, 0x88);
  r[2] = _mm512_shuffle_f64x2(u2, u6, 0x88);
  r[3] = _mm512_shuffle_f64x2(u3, u7, 0x88);
  r[4] = _mm512_shuffle_f64x2(u0, u4, 0xdd);
  r[5] = _mm512_shuffle_f64x2(u1, u5, 0xdd);
  r[6] = _mm512_shuffle_f64x2(u2, u6, 0xdd);
  r[7] = _mm512_shuffle_f64x2(u3, u7, 0xdd);
}

void fill_diffs(const double* a, const double* const* bs, std::size_t n,
                double* scratch) {
  // _mm512_abs_pd (AVX512F; plain andnot_pd needs DQ) clears the sign bit,
  // bit-identical to std::fabs.
  std::size_t d = 0;
  for (; d + 8 <= n; d += 8) {
    const __m512d av = _mm512_loadu_pd(a + d);
    __m512d rows[8];
    for (std::size_t l = 0; l < 8; ++l) {
      rows[l] = _mm512_abs_pd(_mm512_sub_pd(av, _mm512_loadu_pd(bs[l] + d)));
    }
    transpose8(rows);
    for (std::size_t r = 0; r < 8; ++r) {
      _mm512_store_pd(scratch + padded_row_index(d + r, 8) * 8, rows[r]);
    }
  }
  if (d < n) {
    // Dimension tail: masked loads zero the missing elements; only the
    // first n - d transposed rows are real, so only those are stored.
    const __mmask8 mask =
        static_cast<__mmask8>((1u << (n - d)) - 1u);
    const __m512d av = _mm512_maskz_loadu_pd(mask, a + d);
    __m512d rows[8];
    for (std::size_t l = 0; l < 8; ++l) {
      rows[l] = _mm512_abs_pd(
          _mm512_sub_pd(av, _mm512_maskz_loadu_pd(mask, bs[l] + d)));
    }
    transpose8(rows);
    for (std::size_t r = 0; d + r < n; ++r) {
      _mm512_store_pd(scratch + padded_row_index(d + r, 8) * 8, rows[r]);
    }
  }
}

#define REPRO_LANE_VEC __m512d
#define REPRO_LANE_LOAD(p) _mm512_load_pd(p)
#define REPRO_LANE_STORE(p, v) _mm512_store_pd((p), (v))
#define REPRO_LANE_MIN(x, y) _mm512_min_pd((x), (y))
#define REPRO_LANE_MAX(x, y) _mm512_max_pd((x), (y))
#define REPRO_LANE_INF \
  _mm512_set1_pd(std::numeric_limits<double>::infinity())
#include "cluster/kernel_select.inl"
#undef REPRO_LANE_VEC
#undef REPRO_LANE_LOAD
#undef REPRO_LANE_STORE
#undef REPRO_LANE_MIN
#undef REPRO_LANE_MAX
#undef REPRO_LANE_INF

void reduce_mean(const double* scratch, std::size_t keep, double* out) {
  // One independent sequential-ascending chain per lane; the vector adds
  // run eight chains in parallel while each lane's order stays canonical.
  __m512d acc = _mm512_setzero_pd();
  for (std::size_t r = 0; r < keep; ++r) {
    acc = _mm512_add_pd(acc,
                        _mm512_load_pd(scratch + padded_row_index(r, 8) * 8));
  }
  acc = _mm512_div_pd(acc, _mm512_set1_pd(static_cast<double>(keep)));
  _mm512_storeu_pd(out, acc);
}

const KernelOps kOps{simd::SimdLevel::kAvx512, 8, &fill_diffs, &run_select,
                     &reduce_mean};

}  // namespace

const KernelOps* avx512_ops() noexcept { return &kOps; }

}  // namespace repro::cluster

#else  // ISA not compiled in: dispatch falls through to the next level down.

namespace repro::cluster {
const KernelOps* avx512_ops() noexcept { return nullptr; }
}  // namespace repro::cluster

#endif
