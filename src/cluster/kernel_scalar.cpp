// Scalar reference kernel (lanes = 1). Always compiled; the floor of the
// dispatch chain and the portable path on non-x86 builds.
#include <cmath>
#include <limits>

#include "cluster/distance_kernel.h"
#include "cluster/select_program.h"

namespace repro::cluster {

namespace {

void fill_diffs(const double* a, const double* const* bs, std::size_t n,
                double* scratch) {
  const double* b = bs[0];
  for (std::size_t d = 0; d < n; ++d) {
    scratch[padded_row_index(d, 1)] = std::fabs(a[d] - b[d]);
  }
}

#define REPRO_LANE_VEC double
#define REPRO_LANE_LOAD(p) (*(p))
#define REPRO_LANE_STORE(p, v) (void)(*(p) = (v))
#define REPRO_LANE_MIN(x, y) ((y) < (x) ? (y) : (x))
#define REPRO_LANE_MAX(x, y) ((y) < (x) ? (x) : (y))
#define REPRO_LANE_INF (std::numeric_limits<double>::infinity())
#include "cluster/kernel_select.inl"
#undef REPRO_LANE_VEC
#undef REPRO_LANE_LOAD
#undef REPRO_LANE_STORE
#undef REPRO_LANE_MIN
#undef REPRO_LANE_MAX
#undef REPRO_LANE_INF

void reduce_mean(const double* scratch, std::size_t keep, double* out) {
  double total = 0.0;
  for (std::size_t r = 0; r < keep; ++r) {
    total += scratch[padded_row_index(r, 1)];
  }
  out[0] = total / static_cast<double>(keep);
}

const KernelOps kOps{simd::SimdLevel::kScalar, 1, &fill_diffs, &run_select,
                     &reduce_mean};

}  // namespace

const KernelOps* scalar_ops() noexcept { return &kOps; }

}  // namespace repro::cluster
