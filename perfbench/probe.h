// The layer probe: forces every Pipeline stage in dependency order, renders
// every study of the paper, and replays the clustering stage's per-ISP work
// through the public mlab/cluster functions, timing each call from outside.
// Shared by the paper workloads (paper scale) and the serve workload (one
// what-if world of the running service).
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "core/pipeline.h"
#include "perfbench.h"
#include "store/artifact_store.h"

namespace perfbench {

/// The 12 studies of the paper, rendered in examples/full_report order.
/// With `layers` non-null each study's analysis and render times are
/// recorded as `core.<study>_wall_s` (and validation's analysis as
/// `rdns.validate_wall_s`); `step_sum_s` accumulates the timed parts.
std::string render_report(const repro::Pipeline& pipeline, Json* layers,
                          double* step_sum_s);

/// `store.*` layer metrics: the store's counters since `before`, its hit
/// ratio and its size. A null store (no persistence) reads as all zeros.
void add_store_layers(Json& layers, const repro::store::ArtifactStore* store,
                      const repro::store::StoreStats& before);

/// True when every stage the pipeline ran reports StageStatus::kOk.
bool all_stages_ok(const repro::Pipeline& pipeline);

struct ProbeResult {
  std::shared_ptr<repro::Pipeline> pipeline;
  Json layers;
  std::string report_hash;
  /// Wall time of construction + forced stages + studies.
  double pass_wall_s = 0.0;
  /// Sum of the individually timed parts of that pass.
  double step_sum_s = 0.0;
  /// The replay's labels equal clusterings(0.1) and clusterings(0.9).
  bool labels_match = false;
};

/// Runs the probe over the pipeline `make` constructs (timed as the
/// topology layer).
ProbeResult probe_layers(
    const std::function<std::shared_ptr<repro::Pipeline>()>& make);

}  // namespace perfbench
