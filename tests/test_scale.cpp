// The scale fence (docs/SCALING.md): the streamed matrix substrate (spill
// to .mmx, mmap back, block-streamed pairwise distances) produces the same
// pipeline run as the plain in-memory substrate -- clusterings, StageHealth,
// Table 1/2 renders and every run-report domain counter -- for any block
// height, and its spills persist under an attached store.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/colocation.h"
#include "core/analyses.h"
#include "core/pipeline.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "store/artifact_store.h"
#include "util/table.h"

namespace repro {
namespace {

namespace fs = std::filesystem;

class ScaleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // PID-unique so concurrent invocations of this suite (e.g. two CI jobs
    // on one host) can never tear down each other's stores mid-test.
    root_ = fs::temp_directory_path() /
            ("repro-scale-" + std::to_string(::getpid()) + "-" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(root_);
  }
  void TearDown() override {
    obs::metrics().reset();
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  /// Fresh store handle over a subdirectory of the test root -- one handle
  /// per Pipeline.
  std::shared_ptr<store::ArtifactStore> open_store(const std::string& sub) {
    store::StoreConfig config;
    config.root = (root_ / sub).string();
    return std::make_shared<store::ArtifactStore>(config);
  }

  fs::path root_;
};

/// Domain counters only: store.* and pipeline.* describe persistence
/// bookkeeping (hits, spills), which legitimately differs between
/// substrates; everything else must not.
std::map<std::string, std::uint64_t> domain_counters() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : obs::metrics().snapshot().counters) {
    if (name.rfind("store.", 0) == 0 || name.rfind("pipeline.", 0) == 0) {
      continue;
    }
    out[name] = value;
  }
  return out;
}

struct PipelineRun {
  std::vector<IspClustering> xi01;
  std::vector<IspClustering> xi09;
  std::map<std::string, fault::StageHealth> health;
  std::map<std::string, std::uint64_t> counters;
  std::string table1;
  std::string table2;
};

PipelineRun collect(const Pipeline& pipeline) {
  PipelineRun run;
  run.xi01 = pipeline.clusterings(0.1);
  run.xi09 = pipeline.clusterings(0.9);
  run.health = pipeline.stage_health();
  run.table1 = render(table1_study(pipeline));
  const double xis[] = {0.1, 0.9};
  run.table2 = render(table2_study(pipeline, xis));
  run.counters = domain_counters();
  return run;
}

void expect_identical(const IspClustering& a, const IspClustering& b,
                      const std::string& context) {
  EXPECT_EQ(a.isp, b.isp) << context;
  EXPECT_EQ(a.usable, b.usable) << context;
  EXPECT_EQ(a.registry_indices, b.registry_indices) << context;
  EXPECT_EQ(a.labels, b.labels) << context;
  EXPECT_EQ(a.cluster_count, b.cluster_count) << context;
  EXPECT_EQ(a.dropped_unresponsive, b.dropped_unresponsive) << context;
  EXPECT_EQ(a.dropped_impossible, b.dropped_impossible) << context;
  EXPECT_EQ(a.usable_sites, b.usable_sites) << context;
}

void expect_identical_outputs(const PipelineRun& a, const PipelineRun& b,
                              const std::string& context) {
  ASSERT_EQ(a.xi01.size(), b.xi01.size()) << context;
  ASSERT_EQ(a.xi09.size(), b.xi09.size()) << context;
  for (std::size_t i = 0; i < a.xi01.size(); ++i) {
    expect_identical(a.xi01[i], b.xi01[i],
                     context + " xi=0.1 #" + std::to_string(i));
  }
  for (std::size_t i = 0; i < a.xi09.size(); ++i) {
    expect_identical(a.xi09[i], b.xi09[i],
                     context + " xi=0.9 #" + std::to_string(i));
  }
  ASSERT_EQ(a.health.size(), b.health.size()) << context;
  for (const auto& [stage, health] : a.health) {
    ASSERT_TRUE(b.health.count(stage)) << context << " stage " << stage;
    const fault::StageHealth& other = b.health.at(stage);
    EXPECT_EQ(health.status, other.status) << context << " " << stage;
    EXPECT_EQ(health.dropped, other.dropped) << context << " " << stage;
    EXPECT_EQ(health.total, other.total) << context << " " << stage;
    EXPECT_EQ(health.reasons, other.reasons) << context << " " << stage;
  }
  EXPECT_EQ(a.table1, b.table1) << context;
  EXPECT_EQ(a.table2, b.table2) << context;
}

void expect_identical_runs(const PipelineRun& a, const PipelineRun& b,
                           const std::string& context) {
  expect_identical_outputs(a, b, context);
  EXPECT_EQ(a.counters, b.counters) << context;
}

using StreamedSubstrateTest = ScaleTest;

TEST_F(StreamedSubstrateTest, StreamedPipelineBitIdenticalToInMemory) {
  // The streamed substrate spills each per-ISP matrix to an .mmx file,
  // maps it back, and block-streams the pairwise pass; every output and
  // domain counter must match the in-memory run, at any block height
  // (1 = degenerate single-row blocks, 3 = partial tail, 0 = whole
  // matrix in one block).
  obs::metrics().reset();
  Pipeline inmem(Scenario::tiny());
  const PipelineRun baseline = collect(inmem);
  ASSERT_FALSE(baseline.xi01.empty());

  for (const std::size_t block_rows : {std::size_t{1}, std::size_t{3},
                                       std::size_t{0}}) {
    obs::metrics().reset();
    Scenario scenario = Scenario::tiny();
    scenario.stream_matrices = true;
    scenario.stream_block_rows = block_rows;
    Pipeline streamed(scenario);
    expect_identical_runs(baseline, collect(streamed),
                          "block_rows=" + std::to_string(block_rows));
  }
}

TEST_F(StreamedSubstrateTest, StreamedSpillsPersistUnderStore) {
  // With a writable store attached the spill directory lives under the
  // store root and survives the pipeline; the rerun reuses the .mmx files
  // (no respill) and still matches bit-exactly.
  Scenario scenario = Scenario::tiny();
  scenario.stream_matrices = true;

  obs::metrics().reset();
  Pipeline first(scenario, fault::FaultPlan::none(), open_store("store"));
  const PipelineRun cold = collect(first);
  const fs::path stream_dir = root_ / "store" / "stream";
  ASSERT_TRUE(fs::exists(stream_dir));
  std::size_t spills = 0;
  for (const auto& entry : fs::directory_iterator(stream_dir)) {
    if (entry.path().extension() == ".mmx") ++spills;
  }
  EXPECT_GT(spills, 0u);

  // Drop the plot artifact so the rerun actually re-clusters -- now
  // reading the persisted spills instead of measuring and respilling.
  for (const auto& entry : fs::directory_iterator(root_ / "store")) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("plot-v", 0) == 0) fs::remove(entry.path());
  }

  obs::metrics().reset();
  Pipeline second(scenario, fault::FaultPlan::none(), open_store("store"));
  const PipelineRun warm = collect(second);
  // A warm run reports health only for the stages it actually replayed, so
  // compare the result surfaces: clusterings and the rendered tables.
  ASSERT_EQ(warm.xi01.size(), cold.xi01.size());
  for (std::size_t i = 0; i < cold.xi01.size(); ++i) {
    expect_identical(warm.xi01[i], cold.xi01[i],
                     "streamed warm xi=0.1 #" + std::to_string(i));
  }
  for (std::size_t i = 0; i < cold.xi09.size(); ++i) {
    expect_identical(warm.xi09[i], cold.xi09[i],
                     "streamed warm xi=0.9 #" + std::to_string(i));
  }
  EXPECT_EQ(warm.table1, cold.table1);
  EXPECT_EQ(warm.table2, cold.table2);
}

}  // namespace
}  // namespace repro
