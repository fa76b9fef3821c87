// SSE2 kernel (lanes = 2). SSE2 is the x86-64 baseline, so this is the
// guaranteed vector floor on any x86-64 host; no extra compile flags needed.
#include "cluster/distance_kernel.h"

#if defined(__x86_64__) || defined(_M_X64)

#include <emmintrin.h>

#include <cmath>
#include <limits>

#include "cluster/select_program.h"

namespace repro::cluster {

namespace {

void fill_diffs(const double* a, const double* const* bs, std::size_t n,
                double* scratch) {
  const double* b0 = bs[0];
  const double* b1 = bs[1];
  for (std::size_t d = 0; d < n; ++d) {
    double* row = scratch + padded_row_index(d, 2) * 2;
    row[0] = std::fabs(a[d] - b0[d]);
    row[1] = std::fabs(a[d] - b1[d]);
  }
}

#define REPRO_LANE_VEC __m128d
#define REPRO_LANE_LOAD(p) _mm_load_pd(p)
#define REPRO_LANE_STORE(p, v) _mm_store_pd((p), (v))
#define REPRO_LANE_MIN(x, y) _mm_min_pd((x), (y))
#define REPRO_LANE_MAX(x, y) _mm_max_pd((x), (y))
#define REPRO_LANE_INF \
  _mm_set1_pd(std::numeric_limits<double>::infinity())
#include "cluster/kernel_select.inl"
#undef REPRO_LANE_VEC
#undef REPRO_LANE_LOAD
#undef REPRO_LANE_STORE
#undef REPRO_LANE_MIN
#undef REPRO_LANE_MAX
#undef REPRO_LANE_INF

void reduce_mean(const double* scratch, std::size_t keep, double* out) {
  __m128d acc = _mm_setzero_pd();
  for (std::size_t r = 0; r < keep; ++r) {
    acc = _mm_add_pd(acc, _mm_load_pd(scratch + padded_row_index(r, 2) * 2));
  }
  acc = _mm_div_pd(acc, _mm_set1_pd(static_cast<double>(keep)));
  _mm_storeu_pd(out, acc);
}

const KernelOps kOps{simd::SimdLevel::kSse2, 2, &fill_diffs, &run_select,
                     &reduce_mean};

}  // namespace

const KernelOps* sse2_ops() noexcept { return &kOps; }

}  // namespace repro::cluster

#else  // non-x86 build: level unavailable, dispatch falls through to scalar.

namespace repro::cluster {
const KernelOps* sse2_ops() noexcept { return nullptr; }
}  // namespace repro::cluster

#endif
