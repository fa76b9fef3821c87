// The measurement platform: a set of M-Lab-style vantage points with known
// locations, spread across the world's metros (the paper uses the 163 M-Lab
// sites).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topology/internet.h"

namespace repro {

struct VantagePoint {
  std::size_t index = 0;
  std::string name;           // e.g. "mlab1-usa"
  MetroIndex metro = kInvalidIndex;
  GeoPoint location;
};

/// Builds `count` vantage points, at most a few per metro, weighted towards
/// populous metros (like the real M-Lab deployment). Deterministic in seed.
/// The geometry is fixed per world, so the constructor also tabulates the
/// speed-of-light bound of every ordered VP pair for Appendix-A cleaning.
class VantagePointSet {
 public:
  VantagePointSet(const Internet& internet, std::size_t count,
                  std::uint64_t seed);

  const std::vector<VantagePoint>& points() const noexcept { return points_; }
  std::size_t size() const noexcept { return points_.size(); }
  const VantagePoint& operator[](std::size_t i) const { return points_.at(i); }

  /// propagation_ms(haversine_km(points()[i].location, points()[j].location)),
  /// bit for bit. The table holds the full square, so a lookup never
  /// depends on whether haversine is bit-symmetric in its arguments.
  double light_bound_ms(std::size_t i, std::size_t j) const noexcept {
    return light_bound_ms_[i * points_.size() + j];
  }

 private:
  std::vector<VantagePoint> points_;
  std::vector<double> light_bound_ms_;  // size() x size(), row-major
};

}  // namespace repro
