#include "mlab/vantage_points.h"

#include "util/error.h"
#include "util/geo.h"
#include "util/rng.h"

namespace repro {

VantagePointSet::VantagePointSet(const Internet& internet, std::size_t count,
                                 std::uint64_t seed) {
  require(!internet.metros.empty(), "VantagePointSet: empty internet");
  Rng rng(seed);
  std::vector<double> weights;
  weights.reserve(internet.metros.size());
  for (const auto& metro : internet.metros) weights.push_back(metro.users);

  points_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto metro_index =
        static_cast<MetroIndex>(rng.weighted_index(weights));
    const Metro& metro = internet.metros[metro_index];
    VantagePoint vp;
    vp.index = i;
    vp.name = "mlab" + std::to_string(i + 1) + "-" + metro.iata;
    vp.metro = metro_index;
    vp.location = jitter_point(metro.location, 20.0, rng.uniform(), rng.uniform());
    points_.push_back(std::move(vp));
  }

  light_bound_ms_.reserve(count * count);
  for (const VantagePoint& a : points_) {
    for (const VantagePoint& b : points_) {
      light_bound_ms_.push_back(
          propagation_ms(haversine_km(a.location, b.location)));
    }
  }
}

}  // namespace repro
