// paper_cold / paper_warm: one full pass of the paper (every study of
// examples/full_report rendered at xi 0.1 and 0.9) in this process, over
// an optional artifact store. Untraced, the pass runs exactly as a batch
// user's would; traced, it runs the layer probe, which forces every stage
// in dependency order and replays the clustering stage (probe.h). With
// --startup 1 the process stops once the Pipeline is built.
#include <cstdio>
#include <memory>
#include <string>

#include "core/pipeline.h"
#include "perfbench.h"
#include "probe.h"
#include "store/artifact_store.h"

namespace perfbench {

int run_paper(const Args& args) {
  const repro::Scenario scenario = scenario_for(
      args.get("scale", "paper"),
      static_cast<std::uint64_t>(args.number("seed", 0)));
  const std::string root = args.get("store", "");
  const bool trace = args.get("trace", "0") == "1";

  std::shared_ptr<repro::store::ArtifactStore> store;
  if (!root.empty()) {
    repro::store::StoreConfig config;
    config.root = root;
    store = std::make_shared<repro::store::ArtifactStore>(config);
  }
  const repro::store::StoreStats store_before =
      store == nullptr ? repro::store::StoreStats{} : store->stats();
  const auto make = [&] {
    return std::make_shared<repro::Pipeline>(
        scenario, repro::fault::FaultPlan::none(), store);
  };

  Json out;
  if (args.get("startup", "0") == "1") {
    // Start-up probe: build the world and stop. run.py subtracts the moment
    // it spawned this process from this monotonic reading.
    const std::shared_ptr<repro::Pipeline> built = make();
    out.num("ready_s", now_s());
    std::printf("%s\n", out.dump().c_str());
    return 0;
  }
  std::shared_ptr<repro::Pipeline> pipeline;
  if (trace) {
    ProbeResult probe = probe_layers(make);
    pipeline = probe.pipeline;
    add_store_layers(probe.layers, store.get(), store_before);
    out.num("wall_s", probe.pass_wall_s)
        .num("step_sum_s", probe.step_sum_s)
        .str("hash", probe.report_hash)
        .flag("labels_match", probe.labels_match)
        .raw("layers", probe.layers.dump());
  } else {
    const Interval pass;
    pipeline = make();
    const std::string report = render_report(*pipeline, nullptr, nullptr);
    out.num("wall_s", pass.wall())
        .num("cpu_s", pass.cpu())
        .str("hash", digest_hex(report));
  }
  out.flag("health_ok", all_stages_ok(*pipeline))
      .num("peak_rss_mb", peak_rss_mb());
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace perfbench
