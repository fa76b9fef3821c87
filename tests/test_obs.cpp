// Tests for the observability layer: span nesting/ordering (including
// cross-thread stitching through the thread pool), log-linear histogram
// percentile accuracy, counter thread-safety under a std::thread fan-out,
// the run_report.json / trace.json round-trips
// through the bundled JSON parser, and the bench-trend diff logic.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/perfetto.h"
#include "obs/report.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "obs/trend.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace repro::obs {
namespace {

/// Enables tracing and clears global state around each test.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_tracing(true);
    tracer().reset();
    metrics().reset();
  }
  void TearDown() override {
    set_tracing(false);
    tracer().reset();
    metrics().reset();
  }
};

TEST_F(ObsTest, SpanNestingAndOrdering) {
  {
    ScopedSpan outer("outer");
    {
      ScopedSpan first("first-child");
      ScopedSpan grandchild("grandchild");
    }
    ScopedSpan second("second-child");
  }
  ScopedSpan root2("second-root");

  const std::vector<Span> spans = tracer().spans();
  ASSERT_EQ(spans.size(), 5u);

  // Ids are assigned in open order and parents always precede children.
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent, kNoSpan);
  EXPECT_EQ(spans[0].depth, 0);

  EXPECT_EQ(spans[1].name, "first-child");
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_EQ(spans[1].depth, 1);

  EXPECT_EQ(spans[2].name, "grandchild");
  EXPECT_EQ(spans[2].parent, 1u);
  EXPECT_EQ(spans[2].depth, 2);

  EXPECT_EQ(spans[3].name, "second-child");
  EXPECT_EQ(spans[3].parent, 0u);
  EXPECT_EQ(spans[3].depth, 1);

  EXPECT_EQ(spans[4].name, "second-root");
  EXPECT_EQ(spans[4].parent, kNoSpan);

  // The first four spans are closed with sane timings; the fifth is open.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(spans[i].closed) << i;
    EXPECT_GE(spans[i].wall_ms, 0.0) << i;
  }
  EXPECT_FALSE(spans[4].closed);
  // A child cannot outlast its parent.
  EXPECT_LE(spans[1].wall_ms, spans[0].wall_ms + 1e-6);
  EXPECT_LE(spans[2].wall_ms, spans[1].wall_ms + 1e-6);
  // Siblings are ordered in time.
  EXPECT_LE(spans[1].start_ms, spans[3].start_ms);
}

TEST_F(ObsTest, DisabledTracingRecordsNothing) {
  set_tracing(false);
  {
    ScopedSpan span("invisible");
    ScopedTimer timer("invisible_ms");
  }
  EXPECT_TRUE(tracer().spans().empty());
  EXPECT_EQ(metrics().snapshot().histograms.size(), 0u);
}

TEST_F(ObsTest, SpanDurationsFeedHistogramApi) {
  for (int i = 0; i < 5; ++i) {
    ScopedSpan span("repeated-stage");
  }
  Histogram& h = metrics().histogram("span.repeated-stage");
  EXPECT_EQ(h.count(), 5u);
  EXPECT_GE(h.p50(), 0.0);
  EXPECT_GE(h.p99(), h.p50());
}

TEST_F(ObsTest, HistogramPercentilesUniform) {
  // 1..1000 ms uniform: percentiles must land within one (~3% log-linear)
  // bucket width of the exact values.
  Histogram h;
  for (int v = 1; v <= 1000; ++v) h.record(static_cast<double>(v));

  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.sum(), 1000.0 * 1001.0 / 2.0, 1e-6);
  for (const double p : {50.0, 90.0, 99.0}) {
    const double exact = p * 10.0;  // percentile p of 1..1000
    const std::size_t idx = Histogram::bucket_index(exact);
    const double width =
        Histogram::bucket_upper_ms(idx) - Histogram::bucket_lower_ms(idx);
    EXPECT_NEAR(h.percentile(p), exact, width) << "p" << p;
  }
  // The extremes are exact (clamped to observed min/max).
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 1000.0);
}

TEST_F(ObsTest, HistogramPercentilesConstantAndEmpty) {
  Histogram h;
  EXPECT_EQ(h.percentile(50.0), 0.0);  // empty

  for (int i = 0; i < 50; ++i) h.record(42.0);
  // All mass in one bucket, min == max == 42: every percentile is exact.
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 42.0);
}

TEST_F(ObsTest, HistogramBucketIndexIsConsistent) {
  // Every recorded value must fall inside its bucket's [lo, hi) range, and
  // bucket boundaries must tile the axis without gaps or overlaps.
  const double values[] = {0.0, -3.0,   1e-7, 1e-6,    5e-5, 0.001, 0.5,
                           1.0, 42.0, 1000.0, 12345.6, 1e7,  3.7e11};
  for (const double v : values) {
    const std::size_t idx = Histogram::bucket_index(v);
    ASSERT_LT(idx, Histogram::kBucketCount) << v;
    const double lo = Histogram::bucket_lower_ms(idx);
    const double hi = Histogram::bucket_upper_ms(idx);
    EXPECT_LT(lo, hi) << v;
    if (v > 0.0) {
      EXPECT_GE(v, lo - 1e-12) << v;
      EXPECT_LT(v, hi * (1.0 + 1e-12)) << v;
    }
  }
  // Values beyond ~104 days saturate into the last reachable bucket rather
  // than overflow; everything larger shares that bucket.
  const std::size_t last =
      Histogram::bucket_index(std::numeric_limits<double>::infinity());
  ASSERT_LT(last, Histogram::kBucketCount);
  EXPECT_EQ(Histogram::bucket_index(9e15), last);
  for (std::size_t i = 0; i + 1 < Histogram::kBucketCount; ++i) {
    EXPECT_DOUBLE_EQ(Histogram::bucket_upper_ms(i),
                     Histogram::bucket_lower_ms(i + 1))
        << i;
    // A bucket midpoint maps back to the same index (bijection check, valid
    // up to the saturation bucket).
    if (i >= last) continue;
    const double mid =
        0.5 * (Histogram::bucket_lower_ms(i) + Histogram::bucket_upper_ms(i));
    EXPECT_EQ(Histogram::bucket_index(mid), i) << i;
  }
}

TEST_F(ObsTest, HistogramRandomizedPercentilesMonotoneAndAccurate) {
  // Lognormal latencies spanning several decades, fixed seed. Percentiles
  // must be monotone in p and within one containing-bucket width of the
  // exact order statistics.
  Rng rng(0xC0FFEE);
  std::vector<double> values;
  values.reserve(5000);
  Histogram h;
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.lognormal(1.0, 2.0);  // ~e^1 ms median, heavy tail
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());

  double previous = -1.0;
  for (double p = 0.0; p <= 100.0; p += 0.5) {
    const double estimate = h.percentile(p);
    EXPECT_GE(estimate, previous) << "non-monotone at p=" << p;
    previous = estimate;

    const std::size_t rank = static_cast<std::size_t>(std::min(
        static_cast<double>(values.size()) - 1.0,
        std::max(0.0, std::ceil(p / 100.0 * values.size()) - 1.0)));
    const double exact = values[rank];
    const std::size_t idx = Histogram::bucket_index(exact);
    const double width =
        Histogram::bucket_upper_ms(idx) - Histogram::bucket_lower_ms(idx);
    EXPECT_NEAR(estimate, exact, width + 1e-9) << "p=" << p;
  }
}

TEST_F(ObsTest, CountersAndHistogramsAreThreadSafe) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Lookup through the registry on purpose: the lookup path must be
        // thread-safe too, not just the increment.
        metrics().counter("threads.ops").add(1);
        metrics().histogram("threads.latency_ms").record(0.5);
      }
      metrics().gauge("threads.done").set(1.0);
    });
  }
  for (std::thread& worker : workers) worker.join();

  EXPECT_EQ(metrics().counter("threads.ops").value(),
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(metrics().histogram("threads.latency_ms").count(),
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_DOUBLE_EQ(metrics().gauge("threads.done").value(), 1.0);
}

TEST_F(ObsTest, CachedCounterSurvivesResetAndThreads) {
  CachedCounter cached("cached.hits");
  cached.add(2);
  EXPECT_EQ(metrics().counter("cached.hits").value(), 2u);

  // reset() drops the underlying counter; the handle must re-resolve into
  // the new one instead of writing through the stale pointer.
  metrics().reset();
  cached.add(3);
  EXPECT_EQ(metrics().counter("cached.hits").value(), 3u);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cached] {
      for (int i = 0; i < kOpsPerThread; ++i) cached.add(1);
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(metrics().counter("cached.hits").value(),
            3u + static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
}

TEST_F(ObsTest, ProductionCountersExactUnderParallelFor) {
  // Regression test for the counters bumped on thread-pool workers during
  // the clustering fan-out (mlab/filters and the ping-mesh reprobe path):
  // concurrent increments through CachedCounter handles must never lose an
  // add, so the totals are invariant under any interleaving.
  CachedCounter nonfinite("filters.nonfinite_leaked");
  CachedCounter reprobe_rounds("mlab.reprobe_rounds");
  CachedCounter reprobe_recovered("mlab.reprobe_recovered");

  constexpr std::size_t kTasks = 64;
  constexpr std::uint64_t kOpsPerTask = 5000;
  parallel_for(
      kTasks,
      [&](std::size_t) {
        for (std::uint64_t i = 0; i < kOpsPerTask; ++i) {
          nonfinite.add(1);
          reprobe_rounds.add(2);
        }
        reprobe_recovered.add(1);
      },
      8);

  EXPECT_EQ(metrics().counter("filters.nonfinite_leaked").value(),
            kTasks * kOpsPerTask);
  EXPECT_EQ(metrics().counter("mlab.reprobe_rounds").value(),
            2 * kTasks * kOpsPerTask);
  EXPECT_EQ(metrics().counter("mlab.reprobe_recovered").value(), kTasks);
}

TEST_F(ObsTest, BenchJsonLineCarriesHealthVerdicts) {
  // The bench harness footer splices StageHealth verdicts into every
  // BENCH_<name>.json line; the line must stay parseable and the fields
  // must reflect the worst stage.
  std::map<std::string, fault::StageHealth> stages;
  stages["ping_mesh"] = fault::StageHealth{};
  fault::StageHealth degraded;
  degraded.status = fault::StageStatus::kDegraded;
  degraded.dropped = 3;
  degraded.total = 10;
  stages["clustering"] = degraded;

  const std::string line =
      bench::bench_json_line("smoke", 1.25, bench::health_json_fields(stages));
  const JsonValue doc = parse_json(line);
  EXPECT_EQ(doc.at("bench").str(), "smoke");
  ASSERT_TRUE(doc.contains("health"));
  EXPECT_EQ(doc.at("health").str(), "degraded");
  ASSERT_TRUE(doc.contains("stages"));
  EXPECT_EQ(doc.at("stages").at("ping_mesh").str(), "ok");
  EXPECT_EQ(doc.at("stages").at("clustering").str(), "degraded");

  // An empty map (harness without a pipeline) reads as a clean run.
  const JsonValue clean =
      parse_json(bench::bench_json_line("smoke", 0.5, bench::health_json_fields({})));
  EXPECT_EQ(clean.at("health").str(), "ok");
  EXPECT_EQ(clean.at("stages").size(), 0u);
}

TEST_F(ObsTest, SpansAcrossThreadsBecomeRoots) {
  {
    ScopedSpan main_span("main-thread");
    std::thread([] { ScopedSpan worker("worker-thread"); }).join();
  }
  const std::vector<Span> spans = tracer().spans();
  ASSERT_EQ(spans.size(), 2u);
  // The worker did not inherit the main thread's open span.
  EXPECT_EQ(spans[1].name, "worker-thread");
  EXPECT_EQ(spans[1].parent, kNoSpan);
}

TEST_F(ObsTest, JsonParserHandlesTheBasics) {
  const JsonValue doc = parse_json(
      R"({"a": [1, 2.5, -3e2], "b": {"nested": "va\"l\nue"}, "t": true,
          "f": false, "n": null})");
  EXPECT_EQ(doc.at("a").size(), 3u);
  EXPECT_DOUBLE_EQ(doc.at("a").at(1).number(), 2.5);
  EXPECT_DOUBLE_EQ(doc.at("a").at(2).number(), -300.0);
  EXPECT_EQ(doc.at("b").at("nested").str(), "va\"l\nue");
  EXPECT_TRUE(doc.at("t").boolean());
  EXPECT_FALSE(doc.at("f").boolean());
  EXPECT_TRUE(doc.at("n").is_null());
  EXPECT_FALSE(doc.contains("missing"));

  EXPECT_THROW(parse_json("{"), ParseError);
  EXPECT_THROW(parse_json("[1,]"), ParseError);
  EXPECT_THROW(parse_json("{} trailing"), ParseError);
  EXPECT_THROW(parse_json("nul"), ParseError);

  // Escape round-trip through our own emitter.
  const std::string ugly = "quote\" slash\\ newline\n tab\t ctrl\x01";
  const JsonValue echoed =
      parse_json("{\"s\": \"" + json_escape(ugly) + "\"}");
  EXPECT_EQ(echoed.at("s").str(), ugly);
}

TEST_F(ObsTest, RunReportJsonRoundTrip) {
  {
    ScopedSpan stage("report-stage");
    ScopedSpan inner("report-inner");
  }
  metrics().counter("report.widgets").add(7);
  metrics().gauge("report.level").set(2.5);
  Histogram& h = metrics().histogram("report.latency_ms");
  h.record(5.0);
  h.record(50.0);

  const std::string json = run_report_json();
  const JsonValue doc = parse_json(json);

  EXPECT_EQ(doc.at("schema").str(), "repro.run_report.v1");

  ASSERT_EQ(doc.at("spans").size(), 2u);
  EXPECT_EQ(doc.at("spans").at(0).at("name").str(), "report-stage");
  EXPECT_DOUBLE_EQ(doc.at("spans").at(0).at("parent").number(), -1.0);
  EXPECT_EQ(doc.at("spans").at(1).at("name").str(), "report-inner");
  EXPECT_DOUBLE_EQ(doc.at("spans").at(1).at("parent").number(), 0.0);
  EXPECT_GE(doc.at("spans").at(0).at("wall_ms").number(), 0.0);

  EXPECT_DOUBLE_EQ(doc.at("counters").at("report.widgets").number(), 7.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("report.level").number(), 2.5);

  const JsonValue& hist = doc.at("histograms").at("report.latency_ms");
  EXPECT_DOUBLE_EQ(hist.at("count").number(), 2.0);
  EXPECT_DOUBLE_EQ(hist.at("sum").number(), 55.0);
  EXPECT_DOUBLE_EQ(hist.at("min").number(), 5.0);
  EXPECT_DOUBLE_EQ(hist.at("max").number(), 50.0);
  EXPECT_GT(hist.at("p99").number(), hist.at("p50").number());
  // Sparse buckets: the two distinct values land in two distinct buckets,
  // each serialized with its index and [lo, le) bounds.
  ASSERT_EQ(hist.at("buckets").size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const JsonValue& bucket = hist.at("buckets").at(i);
    EXPECT_DOUBLE_EQ(bucket.at("count").number(), 1.0);
    EXPECT_LT(bucket.at("lo").number(), bucket.at("le").number());
  }
  EXPECT_DOUBLE_EQ(
      hist.at("buckets").at(0).at("index").number(),
      static_cast<double>(Histogram::bucket_index(5.0)));

  // The span histograms written by end_span are also in the report.
  EXPECT_TRUE(doc.at("histograms").contains("span.report-stage"));
}

TEST_F(ObsTest, ReportSectionsAppearAsTopLevelKeys) {
  clear_report_sections();
  set_report_section("fault", "{\"overall\":\"degraded\"}");
  set_report_section("extra", "[1,2,3]");
  set_report_section("fault", "{\"overall\":\"ok\"}");  // replaces, not appends

  const JsonValue doc = parse_json(run_report_json());
  EXPECT_EQ(doc.at("schema").str(), "repro.run_report.v1");
  EXPECT_EQ(doc.at("fault").at("overall").str(), "ok");
  ASSERT_EQ(doc.at("extra").size(), 3u);
  EXPECT_DOUBLE_EQ(doc.at("extra").at(2).number(), 3.0);

  clear_report_sections();
  const JsonValue clean = parse_json(run_report_json());
  EXPECT_FALSE(clean.contains("fault"));
  EXPECT_FALSE(clean.contains("extra"));
}

TEST_F(ObsTest, TablesRenderEveryEntry) {
  {
    ScopedSpan outer("table-stage");
    ScopedSpan inner("table-inner");
  }
  metrics().counter("table.count").add(3);
  const std::string spans = span_table();
  EXPECT_NE(spans.find("table-stage"), std::string::npos);
  EXPECT_NE(spans.find("  table-inner"), std::string::npos);  // indented
  const std::string table = metrics_table();
  EXPECT_NE(table.find("table.count"), std::string::npos);
  EXPECT_NE(table.find("span.table-inner"), std::string::npos);
}

TEST_F(ObsTest, ResetInvalidatesOpenSpans) {
  auto orphan = std::make_unique<ScopedSpan>("pre-reset");
  tracer().reset();
  {
    ScopedSpan fresh("post-reset");
  }
  orphan.reset();  // closes a span from a dead generation: must be ignored
  const std::vector<Span> spans = tracer().spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "post-reset");
  EXPECT_TRUE(spans[0].closed);
  // The stale close is a checked no-op, and it is counted.
  EXPECT_EQ(metrics().counter("trace.dropped_spans").value(), 1u);
}

// ---------------------------------------------------------------------------
// Cross-thread span stitching through the thread pool.
// ---------------------------------------------------------------------------

/// Waits until every submitted pool task has been adopted and its
/// "pool.task" span closed. parallel_for returns once the work is done, so
/// a helper still queued then adopts its context -- and a running one
/// closes its span -- a beat later.
void wait_for_pool_spans_to_close() {
  for (int i = 0; i < 2000; ++i) {
    std::size_t submits = 0;
    std::size_t adoptions = 0;
    for (const FlowEvent& flow : tracer().flow_events()) {
      (flow.phase == 's' ? submits : adoptions) += 1;
    }
    bool open = false;
    for (const Span& span : tracer().spans()) {
      if (span.name == "pool.task" && !span.closed) open = true;
    }
    if (submits == adoptions && !open) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST_F(ObsTest, ParallelForStitchesWorkerSpansUnderSubmitter) {
  {
    ScopedSpan stage("stitch-stage");
    parallel_for(
        64, [](std::size_t) { ScopedSpan work("work"); }, 8);
  }
  wait_for_pool_spans_to_close();

  const std::vector<Span> spans = tracer().spans();
  std::size_t stage_id = kNoSpan;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "stitch-stage") stage_id = static_cast<std::size_t>(i);
  }
  ASSERT_NE(stage_id, kNoSpan);

  const auto chain_reaches_stage = [&](std::size_t id) {
    for (int hops = 0; hops < 64 && id != kNoSpan; ++hops) {
      if (id == stage_id) return true;
      id = spans[id].parent;
    }
    return id == stage_id;
  };

  std::size_t work_spans = 0;
  std::size_t task_spans = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "work") {
      ++work_spans;
      EXPECT_TRUE(chain_reaches_stage(static_cast<std::size_t>(i)))
          << "orphan work span " << i;
    } else if (spans[i].name == "pool.task") {
      ++task_spans;
      EXPECT_TRUE(chain_reaches_stage(static_cast<std::size_t>(i)))
          << "orphan pool.task span " << i;
    }
  }
  EXPECT_EQ(work_spans, 64u);
  EXPECT_GE(task_spans, 1u);  // pool tasks adopted the submitter's context

  // Flow events pair a submit ('s') with an adoption ('f') by shared id.
  std::map<std::uint64_t, int> submits;
  std::map<std::uint64_t, int> adopts;
  for (const FlowEvent& flow : tracer().flow_events()) {
    if (flow.phase == 's') ++submits[flow.id];
    else if (flow.phase == 'f') ++adopts[flow.id];
  }
  EXPECT_GE(adopts.size(), 1u);
  for (const auto& [id, n] : adopts) {
    EXPECT_EQ(n, 1) << "flow id " << id;
    EXPECT_EQ(submits[id], 1) << "flow id " << id;
  }
}

TEST_F(ObsTest, TaskContextSurvivesOnlyWithinGeneration) {
  // A task context captured before reset() must not stitch after it: the
  // adoption is a counted no-op instead of a crash or a wrong parent.
  std::uint64_t token = 0;
  {
    ScopedSpan stage("doomed-stage");
    token = tracer().capture_task_context();
    ASSERT_NE(token, 0u);
  }
  tracer().reset();
  EXPECT_EQ(tracer().adopt_task_context(token), kNoSpan);
  EXPECT_EQ(metrics().counter("trace.dropped_spans").value(), 1u);
}

// ---------------------------------------------------------------------------
// Perfetto trace export.
// ---------------------------------------------------------------------------

TEST_F(ObsTest, TraceEventsJsonHasSlicesFlowsAndCounters) {
  {
    ScopedSpan stage("export-stage");
    parallel_for(
        16, [](std::size_t) { ScopedSpan work("export-work"); }, 4);
  }
  ScopedSpan open_root("still-open");
  wait_for_pool_spans_to_close();

  std::vector<ResourceSample> samples;
  samples.push_back(read_resource_sample());
  samples.push_back(read_resource_sample());

  const std::string json =
      trace_events_json(tracer().spans(), tracer().flow_events(), samples);
  const JsonValue doc = parse_json(json);
  EXPECT_EQ(doc.at("displayTimeUnit").str(), "ms");

  std::size_t complete = 0, begins = 0, flow_s = 0, flow_f = 0, counters = 0,
              metadata = 0;
  std::set<std::string> counter_names;
  const JsonValue& events = doc.at("traceEvents");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const JsonValue& event = events.at(i);
    const std::string& ph = event.at("ph").str();
    if (ph == "X") {
      ++complete;
      EXPECT_GE(event.at("dur").number(), 0.0);
    } else if (ph == "B") {
      ++begins;
    } else if (ph == "s") {
      ++flow_s;
    } else if (ph == "f") {
      ++flow_f;
      EXPECT_EQ(event.at("bp").str(), "e");
    } else if (ph == "C") {
      ++counters;
      counter_names.insert(event.at("name").str());
    } else if (ph == "M") {
      ++metadata;
    }
  }
  EXPECT_GE(complete, 17u);  // stage + 16 work spans at least
  EXPECT_EQ(begins, 1u);     // the still-open root
  EXPECT_GE(flow_s, 1u);
  EXPECT_GE(flow_f, 1u);
  EXPECT_GE(metadata, 2u);  // process_name + at least one thread_name
  EXPECT_EQ(counters, samples.size() * 5);
  EXPECT_TRUE(counter_names.count("sampler.rss_mb"));
  EXPECT_TRUE(counter_names.count("sampler.utime_ms"));
}

// ---------------------------------------------------------------------------
// Resource sampler.
// ---------------------------------------------------------------------------

TEST_F(ObsTest, SamplerCollectsMonotoneSeries) {
  sampler().reset();
  sampler().start(200.0);
  EXPECT_TRUE(sampler().running());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  sampler().stop();
  EXPECT_FALSE(sampler().running());

  const std::vector<ResourceSample> samples = sampler().samples();
  ASSERT_GE(samples.size(), 2u);  // one at start + one final at stop
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].t_ms, samples[i - 1].t_ms) << i;
    EXPECT_GE(samples[i].utime_ms + samples[i].stime_ms,
              samples[i - 1].utime_ms + samples[i - 1].stime_ms)
        << i;
  }
  EXPECT_GT(samples.back().rss_kb, 0u);

  // The series lands in run_report.json as a "sampler" section.
  const std::string path = "test_obs_sampler_report.json";
  write_run_report(path);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(static_cast<bool>(in));
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const JsonValue doc = parse_json(buffer.str());
  ASSERT_TRUE(doc.contains("sampler"));
  EXPECT_DOUBLE_EQ(doc.at("sampler").at("samples").number(),
                   static_cast<double>(samples.size()));
  EXPECT_EQ(doc.at("sampler").at("t_ms").size(), samples.size());
  EXPECT_EQ(doc.at("sampler").at("rss_kb").size(), samples.size());

  std::remove(path.c_str());
  sampler().reset();
  clear_report_sections();  // drop the injected "sampler" section
}

// ---------------------------------------------------------------------------
// JSON edge cases: nesting depth, unicode escapes, non-finite doubles, and
// truncated input.
// ---------------------------------------------------------------------------

TEST_F(ObsTest, JsonParserEnforcesDepthLimit) {
  const auto nested = [](int depth) {
    std::string s;
    for (int i = 0; i < depth; ++i) s += '[';
    s += "1";
    for (int i = 0; i < depth; ++i) s += ']';
    return s;
  };
  EXPECT_NO_THROW(parse_json(nested(100)));
  EXPECT_THROW(parse_json(nested(300)), ParseError);

  // Deep objects hit the same guard as deep arrays.
  std::string deep_object;
  for (int i = 0; i < 300; ++i) deep_object += "{\"k\":";
  deep_object += "1";
  for (int i = 0; i < 300; ++i) deep_object += '}';
  EXPECT_THROW(parse_json(deep_object), ParseError);
}

TEST_F(ObsTest, JsonParserDecodesUnicodeEscapes) {
  EXPECT_EQ(parse_json("{\"s\":\"\\u0041\"}").at("s").str(), "A");
  // U+00E9 encodes as two UTF-8 bytes.
  EXPECT_EQ(parse_json("{\"s\":\"\\u00e9\"}").at("s").str(), "\xc3\xa9");
  // U+2603 (snowman) encodes as three.
  EXPECT_EQ(parse_json("{\"s\":\"\\u2603\"}").at("s").str(),
            "\xe2\x98\x83");
  EXPECT_THROW(parse_json("{\"s\":\"\\u00zz\"}"), ParseError);
  EXPECT_THROW(parse_json("{\"s\":\"\\u12\"}"), ParseError);
}

TEST_F(ObsTest, JsonNumberNeverEmitsNonFiniteTokens) {
  // NaN and infinity are not valid JSON; the emitter must clamp them to
  // parseable stand-ins rather than poison the document.
  EXPECT_EQ(json_number(std::nan("")), "0");
  const std::string pos = json_number(std::numeric_limits<double>::infinity());
  const std::string neg = json_number(-std::numeric_limits<double>::infinity());
  const JsonValue doc =
      parse_json("{\"pos\": " + pos + ", \"neg\": " + neg + "}");
  EXPECT_GT(doc.at("pos").number(), 1e300);
  EXPECT_LT(doc.at("neg").number(), -1e300);
}

TEST_F(ObsTest, JsonParserRejectsEveryTruncationOfAValidReport) {
  // Fuzz-style corpus: every proper prefix of a real run_report.json must
  // throw ParseError (never crash, never parse successfully).
  metrics().counter("trunc.count").add(3);
  {
    ScopedSpan span("trunc-span");
  }
  const std::string json = run_report_json();
  ASSERT_FALSE(json.empty());
  EXPECT_NO_THROW(parse_json(json));
  for (std::size_t len = 0; len < json.size(); ++len) {
    EXPECT_THROW(parse_json(json.substr(0, len)), ParseError)
        << "prefix length " << len;
  }
}

// ---------------------------------------------------------------------------
// Bench-trend parsing and regression diffs.
// ---------------------------------------------------------------------------

TEST_F(ObsTest, TrendParsesBenchLinesAndHistory) {
  const BenchRecord record = parse_bench_line(
      R"({"bench": "perf_micro", "scale": "tiny", "seconds": 1.5,)"
      R"( "pairwise_serial_seconds": 0.012, "health": "ok",)"
      R"( "stages": {"clustering": "ok"}, "threads": 8})");
  EXPECT_EQ(record.bench, "perf_micro");
  EXPECT_EQ(record.scale, "tiny");
  EXPECT_DOUBLE_EQ(record.numbers.at("seconds"), 1.5);
  EXPECT_DOUBLE_EQ(record.numbers.at("threads"), 8.0);
  EXPECT_EQ(record.strings.at("health"), "ok");
  EXPECT_FALSE(record.numbers.count("stages"));  // nested objects skipped

  const std::vector<BenchRecord> history = parse_history(
      "{\"bench\": \"a\", \"seconds\": 1.0}\n"
      "\n"
      "   \n"
      "{\"bench\": \"b\", \"seconds\": 2.0}\n");
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[0].bench, "a");
  EXPECT_EQ(history[1].bench, "b");
}

TEST_F(ObsTest, TrendDiffFlagsRegressionsOnTimeFieldsOnly) {
  BenchRecord before;
  before.bench = "perf_micro";
  before.numbers = {{"seconds", 1.0},
                    {"pairwise_serial_seconds", 0.010},
                    {"isp_count", 100.0}};
  BenchRecord after = before;
  after.numbers["pairwise_serial_seconds"] = 0.014;  // 1.4x: regression
  after.numbers["isp_count"] = 200.0;  // 2x but not a time field: fine
  after.numbers["seconds"] = 0.9;      // faster: fine

  const TrendDiff diff = diff_records(before, after, 1.25);
  EXPECT_TRUE(diff.regressed());
  ASSERT_EQ(diff.regressed_fields.size(), 1u);
  EXPECT_EQ(diff.regressed_fields[0], "pairwise_serial_seconds");
  const std::string rendered = render_diff(diff);
  EXPECT_NE(rendered.find("pairwise_serial_seconds"), std::string::npos);
  EXPECT_NE(rendered.find("REGRESSION"), std::string::npos);

  // Below the gate: no regression.
  after.numbers["pairwise_serial_seconds"] = 0.012;
  EXPECT_FALSE(diff_records(before, after, 1.25).regressed());

  // gate_fields restricts which fields may fail the gate.
  after.numbers["pairwise_serial_seconds"] = 0.050;
  EXPECT_FALSE(diff_records(before, after, 1.25, {"seconds"}).regressed());
  EXPECT_TRUE(
      diff_records(before, after, 1.25, {"pairwise_serial_seconds"})
          .regressed());

  // is_time_field drives the gate.
  EXPECT_TRUE(is_time_field("seconds"));
  EXPECT_TRUE(is_time_field("warm_seconds"));
  EXPECT_TRUE(is_time_field("p99_ms"));
  EXPECT_TRUE(is_time_field("pairwise_ns_op"));
  EXPECT_FALSE(is_time_field("isp_count"));
  EXPECT_FALSE(is_time_field("threads"));
}

TEST_F(ObsTest, JsonParserRejectsDuplicateKeys) {
  // "Which copy wins" is parser-dependent, so a duplicate key is a
  // ParseError -- the report service relies on this to turn ambiguous
  // requests into structured errors instead of guessing.
  EXPECT_THROW(parse_json(R"({"a":1,"a":2})"), ParseError);
  EXPECT_THROW(parse_json(R"({"x":{"k":true,"k":false}})"), ParseError);
  EXPECT_THROW(parse_json(R"([{"q":"t","q":"t"}])"), ParseError);
  // Same key in *different* objects stays legal.
  const JsonValue ok = parse_json(R"({"a":{"k":1},"b":{"k":2}})");
  EXPECT_DOUBLE_EQ(ok.object().at("b").object().at("k").number(), 2.0);
}

TEST_F(ObsTest, AppendFileCappedKeepsNewestLines) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("repro-test-history-" + std::to_string(::getpid()) + ".jsonl"))
          .string();
  std::filesystem::remove(path);

  // Cap 0: plain unbounded append.
  for (int i = 0; i < 5; ++i) {
    append_file_capped(path, "line" + std::to_string(i) + "\n", 0);
  }
  {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_EQ(buffer.str(), "line0\nline1\nline2\nline3\nline4\n");
  }

  // Cap 3: the next append trims to the newest three lines.
  append_file_capped(path, "line5\n", 3);
  {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_EQ(buffer.str(), "line3\nline4\nline5\n");
  }

  // At or under the cap: nothing is trimmed.
  append_file_capped(path, "line6\n", 4);
  {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_EQ(buffer.str(), "line3\nline4\nline5\nline6\n");
  }

  // An unterminated tail still counts as a line for the cap.
  append_file_capped(path, "tail-no-newline", 2);
  {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_EQ(buffer.str(), "line6\ntail-no-newline");
  }
  std::filesystem::remove(path);
}

TEST_F(ObsTest, BenchLineStampsTheScaleThatRan) {
  const char* saved = std::getenv("REPRO_SCALE");
  const std::string saved_value = saved == nullptr ? "" : saved;
  const auto stamped = [](const std::string& line) {
    return parse_json(line).at("scale").str();
  };

  // An unrecognized REPRO_SCALE runs paper, so the line must say paper.
  ::setenv("REPRO_SCALE", "bogus", 1);
  EXPECT_EQ(stamped(bench::bench_json_line("smoke", 1.0)), "paper");
  ::setenv("REPRO_SCALE", "tiny", 1);
  EXPECT_EQ(stamped(bench::bench_json_line("smoke", 1.0)), "tiny");
  ::unsetenv("REPRO_SCALE");
  EXPECT_EQ(stamped(bench::bench_json_line("smoke", 1.0)), "paper");
  // A harness that runs several scales (bench/scaling) stamps them all.
  EXPECT_EQ(stamped(bench::bench_json_line("smoke", 1.0, {}, "tiny,small")),
            "tiny,small");

  if (saved != nullptr) ::setenv("REPRO_SCALE", saved_value.c_str(), 1);
}

TEST_F(ObsTest, FooterStampsTheHost) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("repro-test-footer-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const char* saved = std::getenv("REPRO_BENCH_OUT");
  const std::string saved_value = saved == nullptr ? "" : saved;
  ::setenv("REPRO_BENCH_OUT", dir.c_str(), 1);
  set_tracing(false);  // no run report or trace beside the test
  bench::print_footer("smoke", bench::Stopwatch{});
  if (saved != nullptr) {
    ::setenv("REPRO_BENCH_OUT", saved_value.c_str(), 1);
  } else {
    ::unsetenv("REPRO_BENCH_OUT");
  }

  std::ifstream in(dir / "BENCH_smoke.json");
  std::stringstream line;
  line << in.rdbuf();
  const JsonValue doc = parse_json(line.str());
  EXPECT_EQ(doc.at("hw_threads").number(),
            static_cast<double>(hardware_thread_count()));
  EXPECT_EQ(doc.at("simd_level").str(),
            std::string(simd::to_string(simd::active_level())));
  EXPECT_EQ(doc.at("cpu_model").str(), bench::cpu_model());
  EXPECT_GT(doc.at("peak_rss_mb").number(), 0.0);
  std::filesystem::remove_all(dir);
}

TEST_F(ObsTest, SampleHzNanKeepsSamplerOff) {
  // strtod parses "nan". It must disable the sampler like "0" does: a NaN
  // rate would become a NaN wait period, and the thread would spin.
  const char* saved = std::getenv("REPRO_SAMPLE_HZ");
  const std::string saved_value = saved == nullptr ? "" : saved;

  ::setenv("REPRO_SAMPLE_HZ", "nan", 1);
  EXPECT_FALSE(sampler().maybe_start_from_env());
  EXPECT_FALSE(sampler().running());
  sampler().stop();

  if (saved == nullptr) {
    ::unsetenv("REPRO_SAMPLE_HZ");
  } else {
    ::setenv("REPRO_SAMPLE_HZ", saved_value.c_str(), 1);
  }
}

TEST_F(ObsTest, HistoryMaxLinesFromEnvParsing) {
  const char* saved = std::getenv("REPRO_HISTORY_MAX_LINES");
  const std::string saved_value = saved == nullptr ? "" : saved;

  ::unsetenv("REPRO_HISTORY_MAX_LINES");
  EXPECT_EQ(history_max_lines_from_env(), 0u);
  ::setenv("REPRO_HISTORY_MAX_LINES", "250", 1);
  EXPECT_EQ(history_max_lines_from_env(), 250u);
  ::setenv("REPRO_HISTORY_MAX_LINES", "0", 1);
  EXPECT_EQ(history_max_lines_from_env(), 0u);
  // Garbage and trailing junk fall back to unbounded rather than throwing:
  // a bad env var must never break a bench run's footer.
  ::setenv("REPRO_HISTORY_MAX_LINES", "abc", 1);
  EXPECT_EQ(history_max_lines_from_env(), 0u);
  ::setenv("REPRO_HISTORY_MAX_LINES", "12x", 1);
  EXPECT_EQ(history_max_lines_from_env(), 0u);
  ::setenv("REPRO_HISTORY_MAX_LINES", "", 1);
  EXPECT_EQ(history_max_lines_from_env(), 0u);

  if (saved == nullptr) {
    ::unsetenv("REPRO_HISTORY_MAX_LINES");
  } else {
    ::setenv("REPRO_HISTORY_MAX_LINES", saved_value.c_str(), 1);
  }
}

}  // namespace
}  // namespace repro::obs
