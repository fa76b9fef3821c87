// One knob object for the whole reproduction: topology, deployment,
// measurement and inference settings. Presets scale the world from unit-test
// size to the paper's scale.
#pragma once

#include <optional>
#include <string_view>

#include "hypergiant/background.h"
#include "hypergiant/deployment.h"
#include "mlab/filters.h"
#include "mlab/ping_mesh.h"
#include "rdns/ptr_store.h"
#include "route/ixp_registry.h"
#include "route/peering_inference.h"
#include "route/traceroute.h"
#include "scan/scanner.h"
#include "topology/generator.h"
#include "traffic/capacity.h"

namespace repro {

/// Preset size of the world a Scenario describes: unit-test (`tiny`),
/// integration (`small`), the paper's real input size (`paper`: ~9-10k
/// access ISPs, 163 vantage points), and a 10x stress world beyond it.
/// The tag is metadata for reports and benches -- scenarios are compared by
/// their config fields, never by the label (see docs/SCALING.md).
enum class Scale { kTiny, kSmall, kPaper, k10x };

std::string_view to_string(Scale scale) noexcept;

/// Inverse of to_string ("tiny"/"small"/"paper"/"10x"); nullopt otherwise.
std::optional<Scale> parse_scale(std::string_view name) noexcept;

struct Scenario {
  GeneratorConfig topology;
  DeploymentConfig deployment;
  PopulationConfig population;
  ScannerConfig scanner;
  PingConfig ping;
  FilterConfig filter;
  PtrConfig ptr;
  IxpRegistryConfig ixp;
  TracerouteConfig traceroute;
  PeeringStudyConfig peering;
  CapacityConfig capacity;

  /// Number of M-Lab-style vantage points (the paper uses 163).
  std::size_t vantage_points = 163;
  std::uint64_t vantage_seed = 163163;

  /// Which preset built this scenario. Execution metadata, deliberately
  /// excluded from measurement_digest: the digest already covers every
  /// field the label implies.
  Scale scale = Scale::kTiny;

  /// Legacy knobs of the streamed .mmx matrix substrate
  /// (store/matrix_file.h). Nothing in src/ reads them any more: the
  /// Pipeline clusters every ISP on one in-memory matrix path, and no
  /// preset sets them. Only perfbench's clustering replay still reads them
  /// (to spill to .mmx and block-stream the distances when set); they go
  /// with the .mmx substrate in a later benchmark change. Excluded from
  /// measurement_digest, like thread counts. See docs/SCALING.md.
  bool stream_matrices = false;
  std::size_t stream_block_rows = 0;

  /// Smallest world that exercises every code path; for unit tests.
  static Scenario tiny();
  /// Mid-size world for integration tests and quick examples.
  static Scenario small();
  /// Paper-scale world (used by the benchmark harnesses).
  static Scenario paper();
  /// 10x the paper's access-ISP population: the north-star stress preset.
  static Scenario tenx();
  /// The preset for a Scale tag.
  static Scenario at_scale(Scale scale);
};

/// 64-bit digest over every scenario field that determines the persistent
/// pipeline artifacts (topology, deployment, population, scanner, ping and
/// filter configs plus the vantage-point campaign). Two scenarios with the
/// same digest produce bit-identical scan records, latency matrices and
/// clusterings, so the artifact store keys on it. When you add a field to
/// one of these configs, mix it in here (and see the versioning rules in
/// docs/PERSISTENCE.md). Thread counts are deliberately excluded:
/// parallel execution is bit-identical to serial (docs/PARALLELISM.md), so
/// a warm start is valid across any REPRO_THREADS setting. The Scale tag
/// and the unread stream_matrices/stream_block_rows knobs are excluded
/// too: neither changes what the pipeline computes.
std::uint64_t measurement_digest(const Scenario& scenario);

}  // namespace repro
