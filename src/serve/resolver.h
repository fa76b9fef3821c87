// ArtifactResolver: pipeline residency for the report service.
//
// The batch pipeline answers one (Scenario, FaultPlan) world per process.
// The resident service answers many: each query names a world, and the
// resolver keeps a bounded LRU set of Pipeline instances alive over one
// shared ArtifactStore, constructing them on demand with single-flight
// coordination (N concurrent queries for a brand-new world cost one
// construction, not N).
//
// Residency is keyed by (measurement_digest(scenario), plan.to_json()) --
// the FULL fault-plan JSON, not just measurement_json(). Two plans that
// share measurement_json() (e.g. the clean baseline and a route-flap-only
// plan) still get distinct resident pipelines, because route/rdns knobs
// change live-engine results (the S4.2.1 peering study) even though every
// persisted artifact is shared byte-for-byte between them through the
// store's world_digest keying. In other words: the store deduplicates
// measurement, the resolver deduplicates residency, and the two keys are
// deliberately different widths.
//
// Eviction is safe at any moment: callers hold shared_ptr<Pipeline>, so an
// evicted-but-in-use pipeline stays alive until its last query finishes;
// only the resolver's reference is dropped. Everything the pipeline had
// published persists in the store, so a re-resolved world starts warm.
#pragma once

#include <cstdint>
#include <memory>

#include "core/pipeline.h"
#include "core/single_flight_lru.h"

namespace repro::serve {

class ArtifactResolver {
 public:
  /// `artifacts` may be nullptr (no persistence: every cold world computes
  /// in memory, warm reuse then only spans the resident pipelines).
  /// `max_resident` bounds the LRU set; at least 1.
  ArtifactResolver(std::shared_ptr<store::ArtifactStore> artifacts,
                   std::size_t max_resident);

  /// Residency key: measurement digest of the scenario mixed with the full
  /// fault-plan JSON (see the header comment for why it is wider than the
  /// store's world digest).
  static std::uint64_t world_key(const Scenario& scenario,
                                 const fault::FaultPlan& plan);

  /// The resident pipeline for this world, constructing it on demand.
  /// Single-flight: concurrent callers for one missing world park until the
  /// builder publishes (or fails, in which case a waiter takes over the
  /// build). Counters: serve.pipeline_hit / serve.pipeline_built /
  /// serve.pipeline_evicted, gauge serve.pipelines_resident.
  std::shared_ptr<Pipeline> pipeline(const Scenario& scenario,
                                     const fault::FaultPlan& plan);

  std::size_t resident_count() const { return pipelines_.size(); }
  store::ArtifactStore* artifact_store() const noexcept {
    return artifacts_.get();
  }

  ArtifactResolver(const ArtifactResolver&) = delete;
  ArtifactResolver& operator=(const ArtifactResolver&) = delete;

 private:
  std::shared_ptr<store::ArtifactStore> artifacts_;
  SingleFlightLru<std::shared_ptr<Pipeline>> pipelines_;
};

}  // namespace repro::serve
