#include "fault/injector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <map>
#include <set>

#include "core/analyses.h"
#include "core/pipeline.h"
#include "fault/fault_plan.h"
#include "fault/stage_health.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "scan/scanner.h"
#include "topology/generator.h"

namespace repro {
namespace {

// ------------------------------------------------------------ FaultPlan --

TEST(FaultPlan, NoneIsInactiveAndChaosIsActive) {
  EXPECT_FALSE(fault::FaultPlan::none().active());
  EXPECT_FALSE(fault::FaultPlan{}.active());
  EXPECT_TRUE(fault::FaultPlan::chaos().active());
  EXPECT_FALSE(fault::FaultPlan::chaos().scaled_by(0.0).active());
}

TEST(FaultPlan, ScaledByClampsRatesAndKeepsSeed) {
  const fault::FaultPlan huge = fault::FaultPlan::chaos().scaled_by(1000.0);
  EXPECT_LE(huge.scan.burst_miss_rate, 0.95);
  EXPECT_LE(huge.ping.vp_outage_rate, 0.95);
  EXPECT_LE(huge.cert.garbled_cn_rate, 0.95);
  EXPECT_EQ(huge.seed, fault::FaultPlan::chaos().seed);
  // Severities are not rates and must not scale.
  EXPECT_DOUBLE_EQ(huge.ping.icmp_storm_failure,
                   fault::FaultPlan::chaos().ping.icmp_storm_failure);

  const fault::FaultPlan half = fault::FaultPlan::chaos().scaled_by(0.5);
  EXPECT_DOUBLE_EQ(half.scan.burst_coverage,
                   fault::FaultPlan::chaos().scan.burst_coverage * 0.5);
}

TEST(FaultPlan, ToJsonParses) {
  const obs::JsonValue parsed =
      obs::parse_json(fault::FaultPlan::chaos().to_json());
  EXPECT_EQ(parsed.at("seed").number(), 4242.0);
  EXPECT_GT(parsed.at("ping.vp_outage_rate").number(), 0.0);
  EXPECT_GT(parsed.at("route.flap_rate").number(), 0.0);
  EXPECT_GT(parsed.at("rdns.missing_ptr_rate").number(), 0.0);
  EXPECT_EQ(parsed.at("store.corrupt_rate").number(), 0.0);
}

TEST(FaultPlan, ScaledByZeroAndSaturation) {
  // Factor 0 zeroes every rate family, including the new ones.
  const fault::FaultPlan zero = fault::FaultPlan::chaos().scaled_by(0.0);
  EXPECT_FALSE(zero.active());
  EXPECT_DOUBLE_EQ(zero.route.flap_rate, 0.0);
  EXPECT_DOUBLE_EQ(zero.rdns.missing_ptr_rate, 0.0);
  EXPECT_DOUBLE_EQ(zero.rdns.stale_ptr_rate, 0.0);
  EXPECT_DOUBLE_EQ(zero.rdns.garbled_ptr_rate, 0.0);
  EXPECT_DOUBLE_EQ(zero.store.corrupt_rate, 0.0);
  // A negative factor behaves like 0, not like a sign flip.
  EXPECT_FALSE(fault::FaultPlan::chaos().scaled_by(-2.0).active());

  // Factor >> 1 saturates every rate at the clamp, never above.
  fault::FaultPlan storeful = fault::FaultPlan::chaos();
  storeful.store.corrupt_rate = 0.5;
  const fault::FaultPlan huge = storeful.scaled_by(1000.0);
  EXPECT_DOUBLE_EQ(huge.route.flap_rate, 0.95);
  EXPECT_DOUBLE_EQ(huge.rdns.missing_ptr_rate, 0.95);
  EXPECT_DOUBLE_EQ(huge.store.corrupt_rate, 0.95);
  // Non-rate knobs never scale: periods, severities, fractions.
  EXPECT_EQ(huge.route.flap_period, fault::FaultPlan::chaos().route.flap_period);
  EXPECT_DOUBLE_EQ(huge.store.truncate_fraction,
                   fault::FaultPlan::chaos().store.truncate_fraction);

  // Scaling composes: (x * 0.5) * 2 == x for rates under the clamp.
  const fault::FaultPlan half = fault::FaultPlan::chaos().scaled_by(0.5);
  EXPECT_DOUBLE_EQ(half.scaled_by(2.0).route.flap_rate,
                   fault::FaultPlan::chaos().route.flap_rate);
}

TEST(FaultPlan, SanitizedRepairsGarbageInputs) {
  obs::metrics().reset();
  fault::FaultPlan plan = fault::FaultPlan::chaos();
  plan.scan.shard_truncation = -0.5;                            // negative
  plan.rdns.missing_ptr_rate = 3.0;                             // > 1
  plan.route.flap_rate = std::nan("");                          // NaN
  plan.ping.icmp_storm_failure = 42.0;                          // severity > 1
  plan.store.truncate_fraction = -1.0;                          // fraction < 0
  plan.route.flap_period = 0;                                   // period 0
  const fault::FaultPlan fixed = plan.sanitized();
  EXPECT_DOUBLE_EQ(fixed.scan.shard_truncation, 0.0);
  EXPECT_LE(fixed.rdns.missing_ptr_rate, 0.95);
  EXPECT_DOUBLE_EQ(fixed.route.flap_rate, 0.0);  // NaN repairs to inactive
  EXPECT_LE(fixed.ping.icmp_storm_failure, 1.0);
  EXPECT_GE(fixed.store.truncate_fraction, 0.0);
  EXPECT_GE(fixed.route.flap_period, 1u);
  std::uint64_t clamped = 0;
  for (const auto& [name, value] : obs::metrics().snapshot().counters) {
    if (name == "fault.plan_clamped") clamped = value;
  }
  EXPECT_GE(clamped, 6u) << "every repair must be counted";

  // A plan that is already sane is returned untouched and uncounted.
  obs::metrics().reset();
  const fault::FaultPlan sane = fault::FaultPlan::chaos().sanitized();
  EXPECT_DOUBLE_EQ(sane.route.flap_rate,
                   fault::FaultPlan::chaos().route.flap_rate);
  for (const auto& [name, value] : obs::metrics().snapshot().counters) {
    if (name == "fault.plan_clamped") {
      EXPECT_EQ(value, 0u);
    }
  }
}

TEST(FaultPlan, MeasurementJsonExcludesNonMeasurementFamilies) {
  // Route, rDNS and store knobs must not move the measurement digest: they
  // change observations (or persisted bytes), never the measurement
  // artifacts, so plans differing only there share warm artifacts.
  fault::FaultPlan plan = fault::FaultPlan::none();
  const std::string clean = plan.measurement_json();
  plan.route.flap_rate = 0.5;
  plan.rdns.stale_ptr_rate = 0.5;
  plan.store.corrupt_rate = 0.5;
  EXPECT_EQ(plan.measurement_json(), clean);
  EXPECT_NE(plan.to_json(), fault::FaultPlan::none().to_json());

  // Measurement knobs move it.
  plan.scan.shard_truncation = 0.1;
  EXPECT_NE(plan.measurement_json(), clean);

  // to_json embeds measurement_json as a prefix (same fields, same order),
  // so pre-existing stores keyed on the old to_json stay warm for clean
  // plans.
  const std::string full = fault::FaultPlan::chaos().to_json();
  const std::string measurement = fault::FaultPlan::chaos().measurement_json();
  EXPECT_EQ(full.rfind(measurement.substr(0, measurement.size() - 1), 0), 0u);
}

TEST(FaultPlan, FromEnvParsesAndSanitizes) {
  const auto with_env = [](const char* fault, const char* intensity,
                           const char* store_rate) {
    if (fault != nullptr) ::setenv("REPRO_FAULT", fault, 1);
    if (intensity != nullptr) ::setenv("REPRO_FAULT_INTENSITY", intensity, 1);
    if (store_rate != nullptr) ::setenv("REPRO_FAULT_STORE", store_rate, 1);
    const fault::FaultPlan plan = fault::FaultPlan::from_env();
    ::unsetenv("REPRO_FAULT");
    ::unsetenv("REPRO_FAULT_INTENSITY");
    ::unsetenv("REPRO_FAULT_STORE");
    return plan;
  };

  EXPECT_FALSE(with_env(nullptr, nullptr, nullptr).active());
  EXPECT_TRUE(with_env("1", nullptr, nullptr).active());
  EXPECT_DOUBLE_EQ(with_env("chaos", nullptr, nullptr).route.flap_rate,
                   fault::FaultPlan::chaos().route.flap_rate);
  EXPECT_DOUBLE_EQ(with_env("0.5", nullptr, nullptr).scan.shard_truncation,
                   fault::FaultPlan::chaos().scan.shard_truncation * 0.5);
  // Garbage intensity is repaired, not trusted.
  EXPECT_LE(with_env("1", "999", nullptr).scan.burst_miss_rate, 0.95);
  EXPECT_FALSE(with_env("nan", nullptr, nullptr).active());
  // Store chaos is opt-in via its own knob and clamps like every rate.
  const fault::FaultPlan store_only = with_env(nullptr, nullptr, "0.4");
  EXPECT_DOUBLE_EQ(store_only.store.corrupt_rate, 0.4);
  EXPECT_DOUBLE_EQ(store_only.scan.shard_truncation, 0.0);
  EXPECT_LE(with_env(nullptr, nullptr, "7.0").store.corrupt_rate, 0.95);
}

// ---------------------------------------------------------- StageHealth --

TEST(StageHealth, MergeTakesWorstStatusAndAddsCounts) {
  fault::StageHealth a;
  a.status = fault::StageStatus::kDegraded;
  a.dropped = 3;
  a.total = 10;
  a.reasons = {"x"};
  fault::StageHealth b;
  b.status = fault::StageStatus::kOk;
  b.dropped = 0;
  b.total = 5;
  b.reasons = {"x", "y"};
  a.merge(b);
  EXPECT_EQ(a.status, fault::StageStatus::kDegraded);
  EXPECT_EQ(a.dropped, 3u);
  EXPECT_EQ(a.total, 15u);
  EXPECT_EQ(a.reasons, (std::vector<std::string>{"x", "y"}));
}

TEST(StageHealth, OverallStatusIsWorstAcrossStages) {
  std::map<std::string, fault::StageHealth> stages;
  EXPECT_EQ(fault::overall_status(stages), fault::StageStatus::kOk);
  stages["a"].status = fault::StageStatus::kOk;
  stages["b"].status = fault::StageStatus::kFailed;
  stages["c"].status = fault::StageStatus::kDegraded;
  EXPECT_EQ(fault::overall_status(stages), fault::StageStatus::kFailed);
}

TEST(StageHealth, SectionJsonParses) {
  std::map<std::string, fault::StageHealth> stages;
  stages["scan"].status = fault::StageStatus::kDegraded;
  stages["scan"].dropped = 7;
  stages["scan"].total = 100;
  stages["scan"].reasons = {"lost \"shard\" 3"};
  const obs::JsonValue parsed = obs::parse_json(
      fault::fault_section_json(fault::FaultPlan::chaos().to_json(), stages));
  EXPECT_EQ(parsed.at("overall").str(), "degraded");
  EXPECT_EQ(parsed.at("stages").at("scan").at("dropped").number(), 7.0);
  EXPECT_EQ(parsed.at("plan").at("seed").number(), 4242.0);
}

// -------------------------------------------------------- Scan injection --

/// A synthetic population spread over many /8 shards and /16 regions, in
/// ascending IP order. Endpoints share 16 certificate templates, each
/// endpoint with its own serial.
TlsEndpoints synthetic_population(std::size_t count) {
  TlsEndpoints population;
  for (int t = 0; t < 16; ++t) {
    TlsCertificate cert;
    cert.subject.common_name = "host-" + std::to_string(t) + ".example.net";
    cert.subject.organization = "Example " + std::to_string(t);
    cert.san_dns = {cert.subject.common_name};
    population.certs.push_back(std::move(cert));
  }
  for (std::size_t i = 0; i < count; ++i) {
    // Spread across 64 /8s and 16 /16s within each.
    const std::uint32_t ip = static_cast<std::uint32_t>(
        ((i % 64) << 24) | ((i % 16) << 16) | (i & 0xFFFF));
    population.endpoints.push_back(
        {Ipv4(ip), static_cast<std::uint32_t>(i * 7 % 16), 1000 + i});
  }
  std::ranges::sort(population.endpoints, {}, &TlsEndpoint::ip);
  return population;
}

TEST(ScanFaults, InactivePlanIsIdentity) {
  const auto records = synthetic_population(500);
  fault::ScanFaultOutcome outcome;
  const auto out =
      fault::inject_scan_faults(records, fault::FaultPlan::none(), &outcome);
  EXPECT_EQ(out, records);
  EXPECT_EQ(outcome.dropped(), 0u);
}

TEST(ScanFaults, ShardTruncationDropsWholeShards) {
  const auto records = synthetic_population(2000);
  fault::FaultPlan plan;
  plan.scan.shard_truncation = 0.4;
  fault::ScanFaultOutcome outcome;
  const auto out = fault::inject_scan_faults(records, plan, &outcome);
  EXPECT_GT(outcome.truncated, 0u);
  EXPECT_EQ(outcome.burst_missed, 0u);
  EXPECT_EQ(out.size() + outcome.truncated, records.size());
  EXPECT_EQ(out.certs, records.certs);  // the table travels whole

  // All-or-nothing per /8: every surviving shard must be complete.
  std::map<std::uint32_t, std::size_t> before, after;
  for (const auto& record : records.endpoints) ++before[record.ip.value() >> 24];
  for (const auto& record : out.endpoints) ++after[record.ip.value() >> 24];
  for (const auto& [shard, count] : after) {
    EXPECT_EQ(count, before.at(shard)) << "shard " << shard << " truncated "
                                       << "partially, not wholesale";
  }

  // Deterministic replay.
  EXPECT_EQ(fault::inject_scan_faults(records, plan), out);
}

TEST(ScanFaults, MissBurstsConfinedToBurstRegions) {
  const auto records = synthetic_population(2000);
  fault::FaultPlan plan;
  plan.scan.burst_coverage = 0.5;
  plan.scan.burst_miss_rate = 1.0;  // every record in a bursty /16 is lost
  fault::ScanFaultOutcome outcome;
  const auto out = fault::inject_scan_faults(records, plan, &outcome);
  EXPECT_GT(outcome.burst_missed, 0u);
  EXPECT_EQ(outcome.truncated, 0u);

  // With miss rate 1.0 a /16 region is either untouched or emptied.
  std::map<std::uint32_t, std::size_t> before, after;
  for (const auto& record : records.endpoints) ++before[record.ip.value() >> 16];
  for (const auto& record : out.endpoints) ++after[record.ip.value() >> 16];
  for (const auto& [region, count] : after) {
    EXPECT_EQ(count, before.at(region));
  }
  EXPECT_LT(after.size(), before.size());
}

// -------------------------------------------------------- Cert injection --

TEST(CertFaults, GarbledCertsLoseNamesAndChurnedKeepThem) {
  TlsEndpoints population = synthetic_population(1000);
  const TlsEndpoints original = population;
  fault::FaultPlan plan;
  plan.cert.churn_rate = 0.3;
  plan.cert.garbled_cn_rate = 0.2;
  fault::CertFaultOutcome outcome;
  fault::inject_cert_faults(population, plan, &outcome);
  EXPECT_GT(outcome.churned, 0u);
  EXPECT_GT(outcome.garbled, 0u);
  ASSERT_EQ(population.size(), original.size());  // rewritten, never removed
  // Existing entries are never rewritten: faults only append entries.
  ASSERT_GE(population.certs.size(), original.certs.size());
  EXPECT_TRUE(std::equal(original.certs.begin(), original.certs.end(),
                         population.certs.begin()));
  EXPECT_EQ(std::set<TlsCertificate>(population.certs.begin(),
                                     population.certs.end())
                .size(),
            population.certs.size())
      << "duplicate template in the faulted table";

  std::map<std::uint32_t, std::size_t> readers;  // cert id -> endpoints
  for (const TlsEndpoint& endpoint : population.endpoints) {
    ++readers[endpoint.cert];
  }
  std::size_t garbled = 0;
  std::size_t churned = 0;
  std::set<std::uint32_t> garbled_templates;  // their original ids
  std::set<std::uint32_t> untouched_templates;
  for (std::size_t i = 0; i < original.size(); ++i) {
    const TlsEndpoint& before = original.endpoints[i];
    const TlsEndpoint& after = population.endpoints[i];
    ASSERT_EQ(after.ip, before.ip);  // never reordered
    const TlsCertificate& was = original.cert_of(before);
    const TlsCertificate& now = population.cert_of(after);
    if (after == before) {
      untouched_templates.insert(before.cert);
      continue;
    }
    if (now.subject.common_name.starts_with("garbled-")) {
      // Garbled: an entry of its own, names gone, serial kept.
      ++garbled;
      garbled_templates.insert(before.cert);
      EXPECT_GE(after.cert, original.certs.size());
      EXPECT_EQ(readers.at(after.cert), 1u);
      EXPECT_TRUE(now.san_dns.empty());
      EXPECT_TRUE(now.subject.organization.empty());
      EXPECT_EQ(now.issuer_organization, was.issuer_organization);
      EXPECT_EQ(after.serial, before.serial);
    } else {
      // Churn: new serial and validity, names intact.
      ++churned;
      EXPECT_NE(after.cert, before.cert);
      EXPECT_EQ(now.subject, was.subject);
      EXPECT_EQ(now.issuer_organization, was.issuer_organization);
      EXPECT_EQ(now.san_dns, was.san_dns);
      EXPECT_EQ(now.not_before_year, 2023);
      EXPECT_EQ(now.not_after_year, 2026);
      EXPECT_NE(after.serial, before.serial);
    }
  }
  EXPECT_EQ(garbled, outcome.garbled);
  EXPECT_EQ(churned, outcome.churned);
  // Untouched endpoints that shared a garbled endpoint's template still
  // read it (the check above: their id and the entry are both unchanged).
  std::vector<std::uint32_t> shared;
  std::ranges::set_intersection(garbled_templates, untouched_templates,
                                std::back_inserter(shared));
  EXPECT_FALSE(shared.empty());
}

TEST(CertFaults, InactivePlanNeverMutates) {
  TlsEndpoints population = synthetic_population(200);
  const TlsEndpoints original = population;
  fault::inject_cert_faults(population, fault::FaultPlan::none());
  EXPECT_EQ(population, original);
}

// ------------------------------------------------------- Scanner replay --

TEST(ScannerReplay, NonzeroMissRateIsDeterministic) {
  const TlsEndpoints population = synthetic_population(3000);
  ScannerConfig config;
  config.seed = 77;
  config.miss_rate = 0.3;
  const Scanner scanner(config);
  const auto a = scanner.scan(population);
  const auto b = scanner.scan(population);
  EXPECT_EQ(a, b);
  EXPECT_LT(a.size(), population.size());  // misses actually happened
  EXPECT_GT(a.size(), population.size() / 2);
  // A different seed must miss a different subset.
  config.seed = 78;
  const auto c = Scanner(config).scan(population);
  std::set<std::uint32_t> ips_a, ips_c;
  for (const auto& record : a.endpoints) ips_a.insert(record.ip.value());
  for (const auto& record : c.endpoints) ips_c.insert(record.ip.value());
  EXPECT_NE(ips_a, ips_c);
}

// ----------------------------------------------------------- Ping faults --

class PingFaultTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    net_ = new Internet(InternetGenerator(GeneratorConfig::tiny()).generate());
    DeploymentConfig config;
    config.footprint_scale = GeneratorConfig::tiny().scale;
    registry_ = new OffnetRegistry(
        DeploymentPolicy(*net_, config).deploy(Snapshot::k2023));
    vps_ = new VantagePointSet(*net_, 40, 163163);
  }
  static void TearDownTestSuite() {
    delete vps_;
    delete registry_;
    delete net_;
  }
  static Internet* net_;
  static OffnetRegistry* registry_;
  static VantagePointSet* vps_;
};

Internet* PingFaultTest::net_ = nullptr;
OffnetRegistry* PingFaultTest::registry_ = nullptr;
VantagePointSet* PingFaultTest::vps_ = nullptr;

TEST_F(PingFaultTest, ZeroRatesNeverDarkOrStorming) {
  const PingMesh mesh(*net_, *vps_, PingConfig{});
  for (std::size_t vp = 0; vp < vps_->size(); ++vp) {
    EXPECT_FALSE(mesh.vp_dark(vp));
  }
  for (const AsIndex isp : registry_->hosting_isps()) {
    EXPECT_FALSE(mesh.isp_storm_limited(isp));
  }
}

TEST_F(PingFaultTest, DarkVantagePointsAnswerNothing) {
  PingConfig config;
  fault::FaultPlan plan;
  plan.ping.vp_outage_rate = 0.3;
  fault::apply_ping_faults(config, plan);
  const PingMesh mesh(*net_, *vps_, config);
  std::size_t dark = 0;
  for (std::size_t vp = 0; vp < vps_->size(); ++vp) {
    if (!mesh.vp_dark(vp)) continue;
    ++dark;
    for (std::size_t s = 0; s < 5; ++s) {
      EXPECT_TRUE(std::isnan(
          mesh.measure_once((*vps_)[vp], registry_->servers()[s])));
    }
  }
  EXPECT_GT(dark, 0u);
  EXPECT_LT(dark, vps_->size());
}

TEST_F(PingFaultTest, StormRaisesFailureRateForStormIsps) {
  PingConfig config;
  fault::FaultPlan plan;
  plan.ping.icmp_storm_rate = 0.5;
  plan.ping.icmp_storm_failure = 0.97;
  fault::apply_ping_faults(config, plan);
  const PingMesh mesh(*net_, *vps_, config);
  const PingMesh clean(*net_, *vps_, PingConfig{});

  std::size_t storm_nan = 0, storm_all = 0, calm_nan = 0, calm_all = 0;
  for (const AsIndex isp : registry_->hosting_isps()) {
    // Skip ISPs with baseline pathologies so the storm effect is isolated.
    if (clean.isp_icmp_limited(isp)) continue;
    for (const std::size_t si : registry_->servers_at(isp)) {
      const OffnetServer& server = registry_->servers()[si];
      if (clean.ip_unresponsive(server.ip)) continue;
      for (std::size_t vp = 0; vp < 10; ++vp) {
        const bool failed =
            std::isnan(mesh.measure_once((*vps_)[vp], server));
        if (mesh.isp_storm_limited(isp)) {
          ++storm_all;
          storm_nan += failed ? 1 : 0;
        } else {
          ++calm_all;
          calm_nan += failed ? 1 : 0;
        }
      }
    }
  }
  ASSERT_GT(storm_all, 100u);
  ASSERT_GT(calm_all, 100u);
  const double storm_rate = static_cast<double>(storm_nan) / storm_all;
  const double calm_rate = static_cast<double>(calm_nan) / calm_all;
  EXPECT_GT(storm_rate, 0.5);
  EXPECT_LT(calm_rate, 0.2);
}

TEST_F(PingFaultTest, RetryBudgetRecoversTransientFailuresOnly) {
  PingConfig flaky;
  flaky.probe_loss = 0.75;  // most single rounds fail to get 2 responses
  const PingMesh once(*net_, *vps_, flaky);
  PingConfig retrying = flaky;
  retrying.retry_budget = 4;
  retrying.fault_seed = 4242;
  const PingMesh retried(*net_, *vps_, retrying);

  std::size_t recovered = 0;
  std::size_t checked = 0;
  for (std::size_t s = 0; s < 40 && s < registry_->server_count(); ++s) {
    const OffnetServer& server = registry_->servers()[s];
    for (std::size_t vp = 0; vp < 10; ++vp) {
      const double single = once.measure_once((*vps_)[vp], server);
      const double multi = retried.measure_once((*vps_)[vp], server);
      ++checked;
      if (!std::isnan(single)) {
        // A first-round success must be bit-identical with retries enabled.
        EXPECT_DOUBLE_EQ(single, multi);
      } else if (!std::isnan(multi)) {
        ++recovered;
      }
      if (once.ip_unresponsive(server.ip)) {
        // Deterministic outages are never retried back to life.
        EXPECT_TRUE(std::isnan(multi));
      }
    }
  }
  ASSERT_GT(checked, 100u);
  EXPECT_GT(recovered, 0u);
}

TEST_F(PingFaultTest, ExtraUnresponsiveAndImpossibleRatesRaiseBaseline) {
  PingConfig config;
  fault::FaultPlan plan;
  plan.ping.extra_unresponsive_rate = 0.2;
  plan.anycast.impossible_ip_rate = 0.05;
  fault::apply_ping_faults(config, plan);
  const PingMesh faulted(*net_, *vps_, config);
  const PingMesh clean(*net_, *vps_, PingConfig{});

  std::size_t clean_unresponsive = 0, faulted_unresponsive = 0;
  std::size_t clean_split = 0, faulted_split = 0;
  for (const OffnetServer& server : registry_->servers()) {
    clean_unresponsive += clean.ip_unresponsive(server.ip) ? 1 : 0;
    faulted_unresponsive += faulted.ip_unresponsive(server.ip) ? 1 : 0;
    clean_split += clean.ip_split_personality(server.ip) ? 1 : 0;
    faulted_split += faulted.ip_split_personality(server.ip) ? 1 : 0;
    // Threshold raising is monotone: baseline pathologies are preserved.
    if (clean.ip_unresponsive(server.ip)) {
      EXPECT_TRUE(faulted.ip_unresponsive(server.ip));
    }
  }
  EXPECT_GT(faulted_unresponsive, clean_unresponsive);
  EXPECT_GT(faulted_split, clean_split);
}

// ------------------------------------------------- Degraded pipeline ------

TEST(FaultPipeline, ZeroFaultPlanIsBitIdenticalToNoPlan) {
  const Pipeline bare(Scenario::tiny());
  const Pipeline with_plan(Scenario::tiny(), fault::FaultPlan::none());

  const TlsEndpoints records_a = bare.scan_records(Snapshot::k2023);
  const TlsEndpoints records_b = with_plan.scan_records(Snapshot::k2023);
  ASSERT_EQ(records_a.certs, records_b.certs);
  ASSERT_EQ(records_a.endpoints, records_b.endpoints);

  const Table1Study t1_a = table1_study(bare);
  const Table1Study t1_b = table1_study(with_plan);
  EXPECT_EQ(t1_a.total_offnet_ips_2023, t1_b.total_offnet_ips_2023);
  EXPECT_EQ(t1_a.total_hosting_isps_2023, t1_b.total_hosting_isps_2023);
  ASSERT_EQ(t1_a.rows.size(), t1_b.rows.size());
  for (std::size_t i = 0; i < t1_a.rows.size(); ++i) {
    EXPECT_EQ(t1_a.rows[i].isps_2021, t1_b.rows[i].isps_2021);
    EXPECT_EQ(t1_a.rows[i].isps_2023, t1_b.rows[i].isps_2023);
    EXPECT_EQ(t1_a.rows[i].isps_2023_old_method,
              t1_b.rows[i].isps_2023_old_method);
  }

  const Figure1Study f1_a = figure1_study(bare);
  const Figure1Study f1_b = figure1_study(with_plan);
  EXPECT_EQ(f1_a.isps_ge2, f1_b.isps_ge2);
  ASSERT_EQ(f1_a.countries.size(), f1_b.countries.size());
  for (std::size_t i = 0; i < f1_a.countries.size(); ++i) {
    EXPECT_DOUBLE_EQ(f1_a.countries[i].frac_ge2, f1_b.countries[i].frac_ge2);
  }

  // Ping campaign: identical measurements, and every stage reports ok.
  const OffnetRegistry& registry = bare.registry(Snapshot::k2023);
  for (std::size_t s = 0; s < 30 && s < registry.server_count(); ++s) {
    const double a = bare.ping_mesh().measure_once(
        bare.vantage_points()[0], registry.servers()[s]);
    const double b = with_plan.ping_mesh().measure_once(
        with_plan.vantage_points()[0], registry.servers()[s]);
    if (std::isnan(a)) {
      EXPECT_TRUE(std::isnan(b));
    } else {
      EXPECT_DOUBLE_EQ(a, b);
    }
  }
  EXPECT_EQ(with_plan.overall_status(), fault::StageStatus::kOk);
  for (const auto& [stage, health] : with_plan.stage_health()) {
    EXPECT_EQ(health.status, fault::StageStatus::kOk) << stage;
    EXPECT_EQ(health.dropped, 0u) << stage;
  }
}

TEST(FaultPipeline, ChaosPlanDegradesButCompletes) {
  const Pipeline pipeline(Scenario::tiny(), fault::FaultPlan::chaos());
  const Table1Study t1 = table1_study(pipeline);
  EXPECT_GT(t1.total_offnet_ips_2023, 0u);
  const Figure1Study f1 = figure1_study(pipeline);
  EXPECT_GT(f1.isps_ge2, 0u);
  pipeline.ping_mesh();

  EXPECT_EQ(pipeline.overall_status(), fault::StageStatus::kDegraded);
  const auto& health = pipeline.stage_health();
  ASSERT_TRUE(health.contains("scan"));
  EXPECT_EQ(health.at("scan").status, fault::StageStatus::kDegraded);
  EXPECT_GT(health.at("scan").dropped, 0u);
  ASSERT_TRUE(health.contains("tls_population"));
  EXPECT_GT(health.at("tls_population").total, 0u);
  ASSERT_TRUE(health.contains("ping_mesh"));
  EXPECT_FALSE(health.at("ping_mesh").reasons.empty());

  // The degraded run publishes a parseable "fault" report section.
  bool found = false;
  for (const auto& [key, json] : obs::report_sections()) {
    if (key != "fault") continue;
    found = true;
    const obs::JsonValue parsed = obs::parse_json(json);
    EXPECT_EQ(parsed.at("overall").str(), "degraded");
    EXPECT_TRUE(parsed.at("stages").contains("scan"));
  }
  EXPECT_TRUE(found);
}

TEST(FaultPipeline, CertChurnOnlyLeavesPopulationOkAndDiscoveryUnchanged) {
  fault::FaultPlan churn_only = fault::FaultPlan::none();
  churn_only.cert.churn_rate = 0.3;
  const Pipeline clean(Scenario::tiny());
  const Pipeline churned(Scenario::tiny(), churn_only);
  for (const Methodology method : {Methodology::k2021, Methodology::k2023}) {
    const DiscoveryReport& want = clean.discovery(Snapshot::k2023, method);
    const DiscoveryReport& got = churned.discovery(Snapshot::k2023, method);
    for (const Hypergiant hg : all_hypergiants()) {
      EXPECT_EQ(got.footprint(hg).by_isp, want.footprint(hg).by_isp)
          << to_string(hg) << " under " << to_string(method);
    }
  }
  // Churn happened, and the fingerprints absorbed it.
  const TlsEndpoints population = churned.population(Snapshot::k2023);
  EXPECT_NE(population, clean.population(Snapshot::k2023));
  const fault::StageHealth& health =
      churned.stage_health().at("tls_population");
  EXPECT_EQ(health.status, fault::StageStatus::kOk);
  EXPECT_EQ(health.dropped, 0u);
  EXPECT_EQ(churned.overall_status(), fault::StageStatus::kOk);
}

TEST(FaultPipeline, OneScanPerSnapshotAcrossMethodologies) {
  const Pipeline pipeline(Scenario::tiny());
  const auto scanned = [] {
    return obs::metrics().counter("scan.endpoints_total").value();
  };
  const std::uint64_t before = scanned();
  const DiscoveryReport& current =
      pipeline.discovery(Snapshot::k2023, Methodology::k2023);
  const std::uint64_t one_scan = scanned() - before;
  EXPECT_GT(one_scan, 0u);
  const DiscoveryReport& old_rules =
      pipeline.discovery(Snapshot::k2023, Methodology::k2021);
  // Both methodologies classified the one 2023 scan -- no rescan per
  // (snapshot, methodology) pair.
  EXPECT_EQ(scanned() - before, one_scan);
  EXPECT_EQ(current.methodology, Methodology::k2023);
  EXPECT_EQ(old_rules.methodology, Methodology::k2021);
  // The population is not cached, but every rebuild is the same.
  const TlsEndpoints population = pipeline.population(Snapshot::k2023);
  EXPECT_FALSE(population.empty());
  EXPECT_EQ(population, pipeline.population(Snapshot::k2023));
  // A different snapshot is a different campaign.
  EXPECT_NE(population, pipeline.population(Snapshot::k2021));
}

}  // namespace
}  // namespace repro
