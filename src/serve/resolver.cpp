#include "serve/resolver.h"

#include <algorithm>

#include "obs/metrics.h"
#include "store/artifact_store.h"

namespace repro::serve {

ArtifactResolver::ArtifactResolver(
    std::shared_ptr<store::ArtifactStore> artifacts, std::size_t max_resident)
    : artifacts_(std::move(artifacts)),
      pipelines_(std::max<std::size_t>(max_resident, 1),
                 {.hit = "serve.pipeline_hit",
                  .evicted = "serve.pipeline_evicted",
                  .resident = "serve.pipelines_resident"}) {}

std::uint64_t ArtifactResolver::world_key(const Scenario& scenario,
                                          const fault::FaultPlan& plan) {
  return store::Fnv1a()
      .mix(measurement_digest(scenario))
      .mix(plan.to_json())
      .digest();
}

std::shared_ptr<Pipeline> ArtifactResolver::pipeline(
    const Scenario& scenario, const fault::FaultPlan& plan) {
  // Built outside the cache lock: a cold world takes seconds, and other
  // worlds' queries keep flowing. Eviction spares in-use pipelines.
  return pipelines_.get(world_key(scenario, plan), [&] {
    auto built = std::make_shared<Pipeline>(scenario, plan, artifacts_);
    obs::metrics().counter("serve.pipeline_built").add(1);
    return built;
  });
}

}  // namespace repro::serve
