// The persistent artifact store's contract (ctest -L store):
//   * serde round trips are lossless for every artifact family, including
//     NaN markers and exact double bit patterns (randomized property tests);
//   * corruption -- truncation, bit flips, stale schema versions, type
//     mismatches -- is detected at load time and reported as kCorrupt, and
//     the pipeline responds by recomputing with a degraded StageHealth,
//     never by crashing or serving garbage;
//   * a warm start is bit-identical to a cold (storeless) run, clean and
//     under a chaos fault plan;
//   * the disk budget is enforced with LRU eviction that survives process
//     restarts via file mtimes;
//   * concurrent loads and saves are data-race free, and pipelines of one
//     world racing for one artifact share a single compute (TSan tier of
//     scripts/check.sh).
#include "store/artifact_store.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "store/matrix_file.h"
#include "store/serde.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace repro {
namespace {

namespace fs = std::filesystem;

/// Fresh store root per test, removed on teardown.
class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The PID keeps concurrent runs of this binary (e.g. a sanitizer build
    // alongside the plain one) from sharing roots and racing remove_all.
    // Parameterized names ("Name/family") flatten to one directory level.
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    root_ = fs::temp_directory_path() /
            ("repro-store-test-" + std::to_string(::getpid()) + "-" + name);
    fs::remove_all(root_);
  }
  void TearDown() override {
    fs::remove_all(root_);
    set_default_thread_count(0);
  }

  store::StoreConfig config(double budget_mb = 0.0,
                            bool read_only = false) const {
    store::StoreConfig config;
    config.root = root_.string();
    config.budget_mb = budget_mb;
    config.read_only = read_only;
    return config;
  }

  fs::path root_;
};

// --- randomized serde round trips -----------------------------------------

std::string random_name(Rng& rng) {
  static const char* kParts[] = {"edge", "cdn", "static", "media", "www",
                                 "example", "net", "org", "com", "io"};
  std::string out;
  const int parts = static_cast<int>(rng.uniform_int(1, 3));
  for (int i = 0; i < parts; ++i) {
    if (i > 0) out += '.';
    out += kParts[rng.uniform_int(0, 9)];
  }
  if (rng.chance(0.2)) out = "*." + out;
  return out;
}

TlsCertificate random_cert(Rng& rng) {
  TlsCertificate cert;
  cert.subject.common_name = random_name(rng);
  if (rng.chance(0.7)) cert.subject.organization = random_name(rng);
  cert.subject.country = rng.chance(0.5) ? "US" : "DE";
  cert.issuer.common_name = random_name(rng);
  cert.issuer.organization = random_name(rng);
  const int sans = static_cast<int>(rng.uniform_int(0, 6));
  for (int i = 0; i < sans; ++i) cert.san_dns.push_back(random_name(rng));
  cert.not_before_year = static_cast<int>(rng.uniform_int(2015, 2023));
  cert.not_after_year = cert.not_before_year + 2;
  cert.serial = rng.next();
  return cert;
}

TEST_F(StoreTest, ScanRecordsRoundTripRandomized) {
  Rng rng(20230707);
  for (int round = 0; round < 20; ++round) {
    std::vector<ScanRecord> records;
    const int count = static_cast<int>(rng.uniform_int(0, 40));
    for (int i = 0; i < count; ++i) {
      ScanRecord record;
      record.ip = Ipv4(static_cast<std::uint32_t>(rng.next()));
      record.cert = random_cert(rng);
      records.push_back(std::move(record));
    }
    store::ByteWriter writer;
    store::encode(writer, records);
    store::ByteReader reader(writer.bytes());
    const std::vector<ScanRecord> decoded = store::decode_scan_records(reader);
    EXPECT_TRUE(reader.exhausted());
    ASSERT_EQ(decoded.size(), records.size()) << "round " << round;
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(decoded[i].ip, records[i].ip);
      EXPECT_EQ(decoded[i].cert, records[i].cert);
    }
  }
}

/// A random plot that decode_plot accepts: a usable ISP's ordering is a
/// shuffled permutation, with infinite reachabilities mixed in (the first
/// point of each OPTICS component).
IspPlot random_plot(Rng& rng) {
  IspPlot plot;
  plot.isp = static_cast<AsIndex>(rng.next());
  plot.usable = rng.chance(0.8);
  const std::size_t points =
      plot.usable ? static_cast<std::size_t>(rng.uniform_int(0, 30)) : 0;
  for (std::size_t j = 0; j < points; ++j) {
    plot.registry_indices.push_back(rng.next() % 100000);
    plot.ordering.push_back(j);
    plot.reachability.push_back(rng.chance(0.2)
                                    ? std::numeric_limits<double>::infinity()
                                    : rng.uniform(0.0, 50.0));
  }
  rng.shuffle(plot.ordering);
  plot.dropped_unresponsive = rng.next() % 1000;
  plot.dropped_impossible = rng.next() % 1000;
  plot.usable_sites = rng.next() % 200;
  return plot;
}

TEST_F(StoreTest, ClusteringsAndHealthRoundTripRandomized) {
  Rng rng(90210);
  for (int round = 0; round < 10; ++round) {
    std::vector<IspPlot> plots(static_cast<std::size_t>(rng.uniform_int(0, 10)));
    for (IspPlot& plot : plots) plot = random_plot(rng);
    fault::StageHealth health;
    health.status = static_cast<fault::StageStatus>(rng.uniform_int(0, 2));
    health.dropped = rng.next() % 500;
    health.total = health.dropped + rng.next() % 500;
    const int reasons = static_cast<int>(rng.uniform_int(0, 4));
    for (int i = 0; i < reasons; ++i) health.reasons.push_back(random_name(rng));

    store::ByteWriter writer;
    store::encode(writer, health);
    store::encode(writer, plots);
    store::ByteReader reader(writer.bytes());
    const fault::StageHealth decoded_health = store::decode_stage_health(reader);
    const std::vector<IspPlot> decoded = store::decode_plots(reader);
    EXPECT_TRUE(reader.exhausted());

    EXPECT_EQ(decoded_health.status, health.status);
    EXPECT_EQ(decoded_health.dropped, health.dropped);
    EXPECT_EQ(decoded_health.total, health.total);
    EXPECT_EQ(decoded_health.reasons, health.reasons);
    ASSERT_EQ(decoded.size(), plots.size());
    for (std::size_t i = 0; i < plots.size(); ++i) {
      EXPECT_EQ(decoded[i].isp, plots[i].isp);
      EXPECT_EQ(decoded[i].usable, plots[i].usable);
      EXPECT_EQ(decoded[i].registry_indices, plots[i].registry_indices);
      EXPECT_EQ(decoded[i].dropped_unresponsive, plots[i].dropped_unresponsive);
      EXPECT_EQ(decoded[i].dropped_impossible, plots[i].dropped_impossible);
      EXPECT_EQ(decoded[i].usable_sites, plots[i].usable_sites);
      EXPECT_EQ(decoded[i].ordering, plots[i].ordering);
      ASSERT_EQ(decoded[i].reachability.size(), plots[i].reachability.size());
      for (std::size_t j = 0; j < plots[i].reachability.size(); ++j) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded[i].reachability[j]),
                  std::bit_cast<std::uint64_t>(plots[i].reachability[j]))
            << "plot " << i << " point " << j;
      }
    }

    // A plot whose shape could not have come from OPTICS is rejected, even
    // though its bytes are well formed.
    for (const IspPlot& plot : plots) {
      if (plot.ordering.size() < 2) continue;
      const auto rejects = [](const IspPlot& bad) {
        store::ByteWriter bad_writer;
        store::encode(bad_writer, bad);
        store::ByteReader bad_reader(bad_writer.bytes());
        EXPECT_THROW(store::decode_plot(bad_reader), store::SerdeError);
      };
      IspPlot bad = plot;
      bad.ordering[0] = plot.ordering.size();  // out of range
      rejects(bad);
      bad.ordering[0] = plot.ordering[1];  // a repeat: not a permutation
      rejects(bad);
      bad = plot;
      bad.reachability.pop_back();
      rejects(bad);
      bad = plot;
      bad.registry_indices.push_back(0);
      rejects(bad);
      bad = plot;
      bad.usable = false;
      rejects(bad);
    }
  }
}

TEST_F(StoreTest, TruncatedInputThrowsSerdeErrorAtEveryLength) {
  Rng rng(777);
  std::vector<ScanRecord> records;
  for (int i = 0; i < 3; ++i) {
    ScanRecord record;
    record.ip = Ipv4(static_cast<std::uint32_t>(rng.next()));
    record.cert = random_cert(rng);
    records.push_back(std::move(record));
  }
  store::ByteWriter writer;
  store::encode(writer, records);
  const std::vector<std::uint8_t>& bytes = writer.bytes();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::span<const std::uint8_t> prefix(bytes.data(), cut);
    store::ByteReader reader(prefix);
    // Either the decode notices mid-way (SerdeError) or a length prefix
    // happens to terminate early -- it must never read out of bounds, and
    // it must never return the full input from a strict prefix.
    try {
      const auto decoded = store::decode_scan_records(reader);
      EXPECT_LT(decoded.size(), records.size()) << "cut " << cut;
    } catch (const store::SerdeError&) {
      // expected for most cut points
    }
  }

  std::vector<IspPlot> plots;
  while (plots.size() < 3) {
    IspPlot plot = random_plot(rng);
    if (!plot.ordering.empty()) plots.push_back(std::move(plot));
  }
  store::ByteWriter plot_writer;
  store::encode(plot_writer, plots);
  const std::vector<std::uint8_t>& plot_bytes = plot_writer.bytes();
  for (std::size_t cut = 0; cut < plot_bytes.size(); ++cut) {
    store::ByteReader reader(
        std::span<const std::uint8_t>(plot_bytes.data(), cut));
    EXPECT_THROW(store::decode_plots(reader), store::SerdeError) << "cut " << cut;
  }
}

TEST_F(StoreTest, ImplausibleElementCountRejectedBeforeAllocating) {
  store::ByteWriter writer;
  writer.u64(std::numeric_limits<std::uint64_t>::max());  // records "count"
  store::ByteReader reader(writer.bytes());
  EXPECT_THROW(store::decode_scan_records(reader), store::SerdeError);
}

// --- artifact store basics -------------------------------------------------

store::ArtifactKey test_key(const char* type, std::uint32_t schema,
                            std::uint64_t salt) {
  return store::ArtifactKey{
      type, schema,
      store::Fnv1a().mix(std::string_view(type)).mix(schema).mix(salt).digest()};
}

std::vector<std::uint8_t> test_payload(std::size_t size, std::uint8_t fill) {
  return std::vector<std::uint8_t>(size, fill);
}

TEST_F(StoreTest, SaveThenLoadRoundTrips) {
  store::ArtifactStore artifacts(config());
  const store::ArtifactKey key = test_key("scan", 1, 1);
  EXPECT_FALSE(artifacts.load(key).hit());  // cold miss

  const std::vector<std::uint8_t> payload = test_payload(1000, 0xab);
  EXPECT_TRUE(artifacts.save(key, payload));
  const store::LoadResult result = artifacts.load(key);
  EXPECT_TRUE(result.hit());
  EXPECT_EQ(result.payload, payload);

  EXPECT_EQ(artifacts.stats().misses, 1u);
  EXPECT_EQ(artifacts.stats().saved, 1u);
  EXPECT_EQ(artifacts.stats().hits, 1u);
  EXPECT_EQ(artifacts.object_count(), 1u);
  EXPECT_TRUE(fs::exists(root_ / key.filename()));
  EXPECT_EQ(key.filename().find("scan-v1-"), 0u);
}

TEST_F(StoreTest, PersistsAcrossInstances) {
  const store::ArtifactKey key = test_key("population", 1, 7);
  const std::vector<std::uint8_t> payload = test_payload(512, 0x5a);
  {
    store::ArtifactStore first(config());
    EXPECT_TRUE(first.save(key, payload));
  }
  store::ArtifactStore second(config());
  EXPECT_EQ(second.object_count(), 1u);
  const store::LoadResult result = second.load(key);
  EXPECT_TRUE(result.hit());
  EXPECT_EQ(result.payload, payload);
}

TEST_F(StoreTest, FromEnvHonorsToggles) {
  ASSERT_EQ(::unsetenv("REPRO_STORE"), 0);
  EXPECT_EQ(store::ArtifactStore::from_env(), nullptr);

  ASSERT_EQ(::setenv("REPRO_STORE", root_.string().c_str(), 1), 0);
  ASSERT_EQ(::setenv("REPRO_STORE_READONLY", "1", 1), 0);
  ASSERT_EQ(::setenv("REPRO_STORE_BUDGET_MB", "12.5", 1), 0);
  const std::shared_ptr<store::ArtifactStore> artifacts =
      store::ArtifactStore::from_env();
  ASSERT_NE(artifacts, nullptr);
  EXPECT_EQ(artifacts->config().root, root_.string());
  EXPECT_TRUE(artifacts->config().read_only);
  EXPECT_DOUBLE_EQ(artifacts->config().budget_mb, 12.5);
  ASSERT_EQ(::unsetenv("REPRO_STORE"), 0);
  ASSERT_EQ(::unsetenv("REPRO_STORE_READONLY"), 0);
  ASSERT_EQ(::unsetenv("REPRO_STORE_BUDGET_MB"), 0);
}

TEST_F(StoreTest, KeyParseInvertsFilename) {
  const store::ArtifactKey keys[] = {
      test_key("scan", 1, 1), test_key("clustering", 2, 0),
      {"multi-word-type", 12, 0xfedcba9876543210ULL}};
  for (const store::ArtifactKey& key : keys) {
    const std::optional<store::ArtifactKey> parsed =
        store::ArtifactKey::parse(key.filename());
    ASSERT_TRUE(parsed.has_value()) << key.filename();
    EXPECT_EQ(parsed->type, key.type);
    EXPECT_EQ(parsed->schema, key.schema);
    EXPECT_EQ(parsed->digest, key.digest);
    EXPECT_EQ(parsed->filename(), key.filename());
  }
  for (const char* stray :
       {"", "x.bin", "scan-v1-00ff.bin", "scan-v1-00112233445566zz.bin",
        "scan-v1-00112233445566AA.bin", "-v1-0011223344556677.bin",
        "scanv1-0011223344556677.bin", "scan-v-0011223344556677.bin",
        ".tmp-1-scan-v1-0011223344556677.bin", "scan-v1-0011223344556677"}) {
    EXPECT_FALSE(store::ArtifactKey::parse(stray).has_value()) << stray;
  }
}

TEST_F(StoreTest, ListReportsMostRecentlyUsedFirst) {
  store::ArtifactStore artifacts(config());
  const store::ArtifactKey a = test_key("scan", 1, 1);
  const store::ArtifactKey b = test_key("matrix", 1, 2);
  ASSERT_TRUE(artifacts.save(a, test_payload(100, 0x11)));
  ASSERT_TRUE(artifacts.save(b, test_payload(200, 0x22)));
  ASSERT_TRUE(artifacts.load(a).hit());  // refreshes a's recency past b's

  const std::vector<store::ArtifactInfo> listed = artifacts.list();
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0].filename, a.filename());
  EXPECT_EQ(listed[1].filename, b.filename());
  EXPECT_EQ(listed[0].key.type, "scan");
  EXPECT_GT(listed[0].bytes, 100u);  // container header + checksum overhead
}

TEST_F(StoreTest, PruneToBudgetEvictsLeastRecentlyUsed) {
  store::ArtifactStore artifacts(config());  // no configured budget
  const store::ArtifactKey old_key = test_key("scan", 1, 1);
  const store::ArtifactKey fresh = test_key("scan", 1, 2);
  ASSERT_TRUE(artifacts.save(old_key, test_payload(600000, 0x01)));
  ASSERT_TRUE(artifacts.save(fresh, test_payload(600000, 0x02)));

  EXPECT_EQ(artifacts.prune_to_budget(10.0), 0u);  // already under budget
  EXPECT_EQ(artifacts.prune_to_budget(1.0), 1u);
  EXPECT_FALSE(fs::exists(root_ / old_key.filename()));
  EXPECT_TRUE(fs::exists(root_ / fresh.filename()));
  EXPECT_EQ(artifacts.prune_to_budget(0.0), 1u);  // <= 0 empties the store
  EXPECT_EQ(artifacts.object_count(), 0u);

  store::ArtifactStore read_only(config(0.0, /*read_only=*/true));
  EXPECT_EQ(read_only.prune_to_budget(0.0), 0u);
}

TEST_F(StoreTest, InfiniteAndHugeBudgetsKeepEveryArtifact) {
  // An out-of-range MB -> bytes cast is undefined (and came out 0, "evict
  // everything", on GCC -O2); the conversion saturates to "no limit".
  const double inf = std::numeric_limits<double>::infinity();
  {
    store::ArtifactStore artifacts(config());
    for (std::uint64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(artifacts.save(test_key("scan", 1, 20 + i),
                                 test_payload(1000, 0x10)));
    }
    EXPECT_EQ(artifacts.prune_to_budget(inf), 0u);
    EXPECT_EQ(artifacts.prune_to_budget(1e30), 0u);
    EXPECT_EQ(artifacts.object_count(), 3u);
  }
  for (const double budget : {inf, 1e30}) {
    store::ArtifactStore artifacts(config(budget));
    EXPECT_EQ(artifacts.object_count(), 3u);
    ASSERT_TRUE(artifacts.save(test_key("scan", 1, 30),
                               test_payload(1000, 0x20)));
    EXPECT_EQ(artifacts.stats().evicted, 0u) << "budget " << budget;
    EXPECT_EQ(artifacts.object_count(), 4u);
    fs::remove(root_ / test_key("scan", 1, 30).filename());
  }
}

// --- corruption corpus -----------------------------------------------------

void corrupt_file(const fs::path& path, std::size_t offset,
                  std::uint8_t xor_mask) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file) << path;
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ xor_mask);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
}

TEST_F(StoreTest, TruncatedFileIsCorruptThenQuarantined) {
  store::ArtifactStore artifacts(config());
  const store::ArtifactKey key = test_key("scan", 1, 2);
  ASSERT_TRUE(artifacts.save(key, test_payload(4096, 0x11)));

  fs::resize_file(root_ / key.filename(), 100);
  const store::LoadResult result = artifacts.load(key);
  EXPECT_TRUE(result.corrupt());
  EXPECT_FALSE(result.detail.empty());
  // Quarantined by deletion: next load is a clean miss, not corrupt again.
  EXPECT_FALSE(fs::exists(root_ / key.filename()));
  EXPECT_FALSE(artifacts.load(key).hit());
  EXPECT_EQ(artifacts.stats().corrupt, 1u);
  EXPECT_EQ(artifacts.stats().misses, 1u);
}

TEST_F(StoreTest, FlippedPayloadByteFailsChecksum) {
  store::ArtifactStore artifacts(config());
  const store::ArtifactKey key = test_key("matrix", 1, 3);
  ASSERT_TRUE(artifacts.save(key, test_payload(2048, 0x42)));

  const std::uint64_t size = fs::file_size(root_ / key.filename());
  corrupt_file(root_ / key.filename(), size / 2, 0x01);
  const store::LoadResult result = artifacts.load(key);
  EXPECT_TRUE(result.corrupt());
  EXPECT_NE(result.detail.find("checksum"), std::string::npos) << result.detail;
}

TEST_F(StoreTest, FlippedHeaderByteFailsMagic) {
  store::ArtifactStore artifacts(config());
  const store::ArtifactKey key = test_key("clustering", 1, 4);
  ASSERT_TRUE(artifacts.save(key, test_payload(64, 0x99)));
  corrupt_file(root_ / key.filename(), 0, 0xff);
  EXPECT_TRUE(artifacts.load(key).corrupt());
}

TEST_F(StoreTest, StaleSchemaVersionIsCorruptNotServed) {
  store::ArtifactStore artifacts(config());
  const store::ArtifactKey old_key = test_key("scan", 1, 5);
  ASSERT_TRUE(artifacts.save(old_key, test_payload(128, 0x21)));

  // Simulate a leftover v1 file sitting where a v2 reader looks (e.g. a
  // hand-renamed or mangled store): the header schema must be checked, not
  // just the filename.
  store::ArtifactKey new_key = old_key;
  new_key.schema = 2;
  fs::rename(root_ / old_key.filename(), root_ / new_key.filename());
  const store::LoadResult result = artifacts.load(new_key);
  EXPECT_TRUE(result.corrupt());
  EXPECT_NE(result.detail.find("stale schema"), std::string::npos)
      << result.detail;
}

TEST_F(StoreTest, TypeMismatchIsCorruptNotServed) {
  store::ArtifactStore artifacts(config());
  const store::ArtifactKey scan_key = test_key("scan", 1, 6);
  ASSERT_TRUE(artifacts.save(scan_key, test_payload(128, 0x22)));
  store::ArtifactKey population_key = scan_key;
  population_key.type = "population";
  fs::rename(root_ / scan_key.filename(),
             root_ / population_key.filename());
  const store::LoadResult result = artifacts.load(population_key);
  EXPECT_TRUE(result.corrupt());
  EXPECT_NE(result.detail.find("type mismatch"), std::string::npos)
      << result.detail;
}

TEST_F(StoreTest, ReadOnlyStoreNeverWritesNorDeletes) {
  const store::ArtifactKey key = test_key("scan", 1, 8);
  {
    store::ArtifactStore writable(config());
    ASSERT_TRUE(writable.save(key, test_payload(256, 0x77)));
  }
  store::StoreConfig ro = config();
  ro.read_only = true;
  store::ArtifactStore artifacts(ro);
  EXPECT_TRUE(artifacts.load(key).hit());
  EXPECT_FALSE(artifacts.save(test_key("scan", 1, 9), test_payload(16, 0)));
  EXPECT_EQ(artifacts.stats().saved, 0u);

  // A corrupt artifact is reported but NOT quarantined in read-only mode.
  corrupt_file(root_ / key.filename(), fs::file_size(root_ / key.filename()) - 1,
               0x01);
  EXPECT_TRUE(artifacts.load(key).corrupt());
  EXPECT_TRUE(fs::exists(root_ / key.filename()));
}

// --- LRU disk budget -------------------------------------------------------

TEST_F(StoreTest, BudgetEvictsLeastRecentlyUsed) {
  // ~1100 bytes per artifact (header + payload + checksum); budget of
  // 0.004 MB = 4000 bytes holds three.
  store::ArtifactStore artifacts(config(0.004));
  const store::ArtifactKey a = test_key("scan", 1, 10);
  const store::ArtifactKey b = test_key("scan", 1, 11);
  const store::ArtifactKey c = test_key("scan", 1, 12);
  const store::ArtifactKey d = test_key("scan", 1, 13);
  ASSERT_TRUE(artifacts.save(a, test_payload(1000, 1)));
  ASSERT_TRUE(artifacts.save(b, test_payload(1000, 2)));
  ASSERT_TRUE(artifacts.save(c, test_payload(1000, 3)));
  EXPECT_EQ(artifacts.object_count(), 3u);

  // Touch `a` so `b` becomes the LRU victim when `d` arrives.
  EXPECT_TRUE(artifacts.load(a).hit());
  ASSERT_TRUE(artifacts.save(d, test_payload(1000, 4)));

  EXPECT_EQ(artifacts.stats().evicted, 1u);
  EXPECT_EQ(artifacts.object_count(), 3u);
  EXPECT_TRUE(artifacts.load(a).hit());
  EXPECT_FALSE(artifacts.load(b).hit()) << "LRU victim must be b";
  EXPECT_TRUE(artifacts.load(c).hit());
  EXPECT_TRUE(artifacts.load(d).hit());
  EXPECT_LE(artifacts.used_mb(), 0.004);
}

TEST_F(StoreTest, OversizedPayloadRefusedWithoutFlushingStore) {
  store::ArtifactStore artifacts(config(0.004));
  const store::ArtifactKey small = test_key("scan", 1, 14);
  ASSERT_TRUE(artifacts.save(small, test_payload(1000, 1)));
  // A payload that alone exceeds the budget must be refused up front, not
  // evict everything else first.
  EXPECT_FALSE(artifacts.save(test_key("scan", 1, 15), test_payload(8000, 2)));
  EXPECT_TRUE(artifacts.load(small).hit());
  EXPECT_EQ(artifacts.stats().evicted, 0u);
}

TEST_F(StoreTest, ConcurrentLoadsAndSavesAreSafe) {
  store::ArtifactStore artifacts(config(0.02));
  constexpr std::size_t kOps = 200;
  parallel_for(
      kOps,
      [&](std::size_t i) {
        const store::ArtifactKey key = test_key("matrix", 1, i % 16);
        if (i % 3 == 0) {
          artifacts.save(key, test_payload(500 + i % 7, static_cast<std::uint8_t>(i)));
        } else {
          const store::LoadResult result = artifacts.load(key);
          if (result.hit()) {
            EXPECT_GE(result.payload.size(), 500u);
          }
          EXPECT_FALSE(result.corrupt());
        }
      },
      8);
  const store::StoreStats stats = artifacts.stats();
  EXPECT_EQ(stats.corrupt, 0u);
  EXPECT_GT(stats.saved, 0u);
}

// --- warm start == cold start (the tentpole contract) ----------------------

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

struct PipelineOutputs {
  std::vector<ScanRecord> scan;
  std::vector<IspClustering> xi01;
  std::vector<IspClustering> xi09;
  std::map<std::string, fault::StageHealth> health;
};

PipelineOutputs run_pipeline(const fault::FaultPlan& plan,
                             std::shared_ptr<store::ArtifactStore> artifacts) {
  Pipeline pipeline(Scenario::tiny(), plan, std::move(artifacts));
  PipelineOutputs out;
  out.scan = pipeline.scan_records(Snapshot::k2023);
  out.xi01 = pipeline.clusterings(0.1);
  out.xi09 = pipeline.clusterings(0.9);
  out.health = pipeline.stage_health();
  return out;
}

void expect_identical_outputs(const PipelineOutputs& cold,
                              const PipelineOutputs& warm,
                              const std::string& context) {
  ASSERT_EQ(warm.scan.size(), cold.scan.size()) << context;
  for (std::size_t i = 0; i < cold.scan.size(); ++i) {
    ASSERT_EQ(warm.scan[i].ip, cold.scan[i].ip) << context << " record " << i;
    ASSERT_EQ(warm.scan[i].cert, cold.scan[i].cert) << context << " record " << i;
  }
  ASSERT_EQ(warm.xi01.size(), cold.xi01.size()) << context;
  ASSERT_EQ(warm.xi09.size(), cold.xi09.size()) << context;
  for (std::size_t i = 0; i < cold.xi01.size(); ++i) {
    expect_identical(warm.xi01[i], cold.xi01[i],
                     context + " xi=0.1 #" + std::to_string(i));
  }
  for (std::size_t i = 0; i < cold.xi09.size(); ++i) {
    expect_identical(warm.xi09[i], cold.xi09[i],
                     context + " xi=0.9 #" + std::to_string(i));
  }
}

TEST_F(StoreTest, WarmStartBitIdenticalClean) {
  const fault::FaultPlan plan = fault::FaultPlan::none();
  // Reference: no store at all (the pre-persistence pipeline).
  const PipelineOutputs reference = run_pipeline(plan, nullptr);
  const auto counters = [] {
    return std::vector<std::uint64_t>{
        obs::metrics().counter("cluster.clusters.xi0.1").value(),
        obs::metrics().counter("cluster.clusters.xi0.9").value(),
        obs::metrics().counter("cluster.isps_clustered").value()};
  };

  obs::metrics().reset();
  auto artifacts = std::make_shared<store::ArtifactStore>(config());
  const PipelineOutputs cold = run_pipeline(plan, artifacts);
  expect_identical_outputs(reference, cold, "cold-with-store vs storeless");
  EXPECT_GT(artifacts->stats().saved, 0u);
  const std::vector<std::uint64_t> cold_counters = counters();

  // Fresh pipeline, same store root: everything heavy comes from disk.
  obs::metrics().reset();
  auto warm_store = std::make_shared<store::ArtifactStore>(config());
  const PipelineOutputs warm = run_pipeline(plan, warm_store);
  expect_identical_outputs(reference, warm, "warm vs storeless");
  // Extraction runs on both passes, so the per-xi cluster counts match;
  // plotting is compute-only, so the warm pass clustered no ISP.
  const std::vector<std::uint64_t> warm_counters = counters();
  EXPECT_GT(cold_counters[0], 0u);
  EXPECT_EQ(warm_counters[0], cold_counters[0]);
  EXPECT_EQ(warm_counters[1], cold_counters[1]);
  EXPECT_GT(cold_counters[2], 0u);
  EXPECT_EQ(warm_counters[2], 0u);
  EXPECT_GT(warm_store->stats().hits, 0u);
  EXPECT_EQ(warm_store->stats().corrupt, 0u);
  // The warm clustering stage reports the health verdict the cold run earned.
  ASSERT_TRUE(warm.health.count("clustering"));
  EXPECT_EQ(warm.health.at("clustering").status,
            cold.health.at("clustering").status);
}

TEST_F(StoreTest, WarmStartBitIdenticalUnderChaos) {
  obs::metrics().reset();
  const fault::FaultPlan plan = fault::FaultPlan::chaos().scaled_by(0.5);
  const PipelineOutputs reference = run_pipeline(plan, nullptr);

  auto artifacts = std::make_shared<store::ArtifactStore>(config());
  const PipelineOutputs cold = run_pipeline(plan, artifacts);
  expect_identical_outputs(reference, cold, "chaos cold vs storeless");

  auto warm_store = std::make_shared<store::ArtifactStore>(config());
  const PipelineOutputs warm = run_pipeline(plan, warm_store);
  expect_identical_outputs(reference, warm, "chaos warm vs storeless");
  EXPECT_GT(warm_store->stats().hits, 0u);
  // Degraded verdicts ride along with the artifacts.
  ASSERT_TRUE(warm.health.count("scan"));
  EXPECT_EQ(warm.health.at("scan").status, cold.health.at("scan").status);
  EXPECT_EQ(warm.health.at("scan").dropped, cold.health.at("scan").dropped);
  EXPECT_EQ(warm.health.at("scan").reasons, cold.health.at("scan").reasons);
}

TEST_F(StoreTest, DifferentFaultPlansNeverShareArtifacts) {
  const fault::FaultPlan clean = fault::FaultPlan::none();
  const fault::FaultPlan chaos = fault::FaultPlan::chaos().scaled_by(0.5);
  auto artifacts = std::make_shared<store::ArtifactStore>(config());
  run_pipeline(clean, artifacts);

  // A chaos run over the same store must MISS every artifact (its world
  // digest differs) and reproduce the storeless chaos outputs.
  auto chaos_store = std::make_shared<store::ArtifactStore>(config());
  const PipelineOutputs chaos_warm = run_pipeline(chaos, chaos_store);
  EXPECT_EQ(chaos_store->stats().hits, 0u);
  const PipelineOutputs chaos_reference = run_pipeline(chaos, nullptr);
  expect_identical_outputs(chaos_reference, chaos_warm,
                           "chaos over clean-populated store");
}

TEST_F(StoreTest, ColdPassPersistsOnlyWhatAWarmPassReads) {
  // Force every stage once over an empty store: topology and the TLS
  // population are always recomputed, and a clustering at any xi is
  // extracted from the plots, so only the scan and plot families may land
  // on disk. The legacy stream_matrices knob is set because the Pipeline
  // must ignore it: nothing may be written beside the artifacts.
  auto artifacts = std::make_shared<store::ArtifactStore>(config());
  Scenario scenario = Scenario::tiny();
  scenario.stream_matrices = true;
  {
    Pipeline pipeline(scenario, fault::FaultPlan::none(), artifacts);
    for (const Snapshot snapshot : {Snapshot::k2021, Snapshot::k2023}) {
      pipeline.population(snapshot);
      pipeline.discovery(snapshot, Methodology::k2021);
      pipeline.discovery(snapshot, Methodology::k2023);
    }
    pipeline.clusterings(0.1);
    pipeline.clusterings(0.3);
    pipeline.ptr_store();
    pipeline.peering_study(Hypergiant::kGoogle);
    pipeline.capacity();
  }

  std::set<std::string> types;
  for (const store::ArtifactInfo& info : artifacts->list()) {
    types.insert(info.key.type);
  }
  EXPECT_EQ(types, (std::set<std::string>{"plot", "scan"}));

  // The budget sees every byte: each regular file anywhere under the root
  // is an indexed .bin artifact at the top level, and their sizes sum to
  // what the store reports.
  std::uint64_t bytes = 0;
  std::size_t files = 0;
  for (const auto& entry : fs::recursive_directory_iterator(root_)) {
    if (!entry.is_regular_file()) continue;
    ++files;
    EXPECT_EQ(entry.path().parent_path(), root_) << entry.path();
    EXPECT_TRUE(
        store::ArtifactKey::parse(entry.path().filename().string()).has_value())
        << entry.path();
    bytes += entry.file_size();
  }
  EXPECT_EQ(files, artifacts->object_count());
  EXPECT_EQ(static_cast<double>(bytes) / 1e6, artifacts->used_mb());
}

/// One persisted artifact family, the stage whose health owns it, and how
/// one of its artifacts is damaged.
struct PersistedFamily {
  const char* name;    // test listing name
  const char* prefix;  // artifact filename prefix, "<type>-v"
  const char* stage;   // StageHealth entry of the owning stage
  /// Instead of a byte flip, republish a plot batch with one out-of-range
  /// ordering index under a valid checksum: only the decoder can tell.
  bool bad_ordering = false;
};

/// Names the case ("scan") in test listings; gtest would otherwise print
/// the struct's bytes, which hold pointers and differ from run to run.
void PrintTo(const PersistedFamily& family, std::ostream* os) {
  *os << family.name;
}

/// Rewrites the stored plot batch so one plot's ordering holds an
/// out-of-range index, and republishes it with a valid checksum.
void republish_with_bad_ordering(const store::StoreConfig& config) {
  store::ArtifactStore artifacts(config);
  std::optional<store::ArtifactKey> key;
  for (const store::ArtifactInfo& info : artifacts.list()) {
    if (info.key.type == "plot") key = info.key;
  }
  ASSERT_TRUE(key.has_value());
  const store::LoadResult loaded = artifacts.load(*key);
  ASSERT_TRUE(loaded.hit());
  store::ByteReader reader(loaded.payload);
  const fault::StageHealth health = store::decode_stage_health(reader);
  std::vector<IspPlot> plots = store::decode_plots(reader);
  const auto victim = std::ranges::find_if(
      plots, [](const IspPlot& plot) { return plot.ordering.size() >= 2; });
  ASSERT_NE(victim, plots.end());
  victim->ordering.front() = victim->ordering.size();
  store::ByteWriter writer;
  store::encode(writer, health);
  store::encode(writer, plots);
  ASSERT_TRUE(artifacts.save(*key, writer.bytes()));
}

class StoreCorruptionTest
    : public StoreTest,
      public ::testing::WithParamInterface<PersistedFamily> {};

TEST_P(StoreCorruptionTest, CorruptArtifactRecomputedWithDegradedHealth) {
  const PersistedFamily family = GetParam();
  obs::metrics().reset();
  const fault::FaultPlan plan = fault::FaultPlan::none();
  const PipelineOutputs reference = run_pipeline(plan, nullptr);
  {
    auto artifacts = std::make_shared<store::ArtifactStore>(config());
    run_pipeline(plan, artifacts);
  }

  // Flip one byte in the payload region of one artifact of the family.
  bool corrupted = false;
  if (family.bad_ordering) {
    ASSERT_NO_FATAL_FAILURE(republish_with_bad_ordering(config()));
    corrupted = true;
  }
  for (const auto& entry : fs::directory_iterator(root_)) {
    const std::string name = entry.path().filename().string();
    if (!corrupted && name.starts_with(family.prefix)) {
      corrupt_file(entry.path(), fs::file_size(entry.path()) / 2, 0x80);
      corrupted = true;
    }
  }
  ASSERT_TRUE(corrupted) << "no " << family.prefix << " artifact to corrupt";

  auto warm_store = std::make_shared<store::ArtifactStore>(config());
  const PipelineOutputs warm = run_pipeline(plan, warm_store);

  // The output is recomputed and correct...
  expect_identical_outputs(reference, warm, "recompute after corruption");
  EXPECT_EQ(warm_store->stats().corrupt, 1u);
  // ...but the owning stage is flagged degraded, with the store named as
  // the cause.
  EXPECT_EQ(fault::overall_status(warm.health),
            fault::StageStatus::kDegraded);
  ASSERT_TRUE(warm.health.count(family.stage));
  const fault::StageHealth& owner = warm.health.at(family.stage);
  EXPECT_EQ(owner.status, fault::StageStatus::kDegraded);
  bool noted = false;
  for (const std::string& reason : owner.reasons) {
    if (reason.starts_with("store: ")) noted = true;
  }
  EXPECT_TRUE(noted) << "degraded reason must name the store";

  // The corrupt file was quarantined and republished: a third run hits
  // every artifact it reads.
  auto healed_store = std::make_shared<store::ArtifactStore>(config());
  const PipelineOutputs healed = run_pipeline(plan, healed_store);
  expect_identical_outputs(reference, healed, "healed store");
  EXPECT_EQ(healed_store->stats().corrupt, 0u);
  EXPECT_EQ(healed_store->stats().misses, 0u);
  EXPECT_GT(healed_store->stats().hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    PersistedFamilies, StoreCorruptionTest,
    ::testing::Values(PersistedFamily{"scan", "scan-v", "scan"},
                      PersistedFamily{"plot", "plot-v", "clustering"},
                      PersistedFamily{"plot_bad_ordering", "plot-v",
                                      "clustering", true}));

TEST_F(StoreTest, ExtractionFromLoadedPlotMatchesClusterIspMulti) {
  // Labels extracted from a plot loaded off disk equal a from-scratch
  // cluster_isp_multi at every xi, not just the paper's two.
  const double xis[] = {0.05, 0.1, 0.3, 0.5, 0.9, 0.95};
  const fault::FaultPlan plan = fault::FaultPlan::none();
  {
    const Pipeline cold(Scenario::tiny(), plan,
                        std::make_shared<store::ArtifactStore>(config()));
    cold.clusterings(0.1);
  }
  auto warm_store = std::make_shared<store::ArtifactStore>(config());
  const Pipeline warm(Scenario::tiny(), plan, warm_store);
  std::vector<const std::vector<IspClustering>*> loaded;
  for (const double xi : xis) loaded.push_back(&warm.clusterings(xi));
  EXPECT_EQ(warm_store->stats().misses, 0u);
  EXPECT_EQ(warm_store->stats().saved, 0u);

  ColocationConfig config;
  config.filter = warm.scenario().filter;
  const ColocationClusterer clusterer(warm.registry(Snapshot::k2023),
                                      warm.ping_mesh(), warm.vantage_points(),
                                      config);
  const std::vector<AsIndex> isps = warm.hosting_isps_2023();
  ASSERT_FALSE(isps.empty());
  for (const std::vector<IspClustering>* clusterings : loaded) {
    ASSERT_EQ(clusterings->size(), isps.size());
  }
  for (std::size_t i = 0; i < isps.size(); ++i) {
    const std::vector<IspClustering> want =
        clusterer.cluster_isp_multi(isps[i], xis);
    for (std::size_t x = 0; x < std::size(xis); ++x) {
      expect_identical((*loaded[x])[i], want[x],
                       "xi=" + std::to_string(xis[x]) + " isp #" +
                           std::to_string(i));
    }
  }
}

TEST_F(StoreTest, ReadOnlyWarmStartHitsWithoutWriting) {
  const fault::FaultPlan plan = fault::FaultPlan::none();
  {
    auto artifacts = std::make_shared<store::ArtifactStore>(config());
    run_pipeline(plan, artifacts);
  }
  const std::size_t files_before =
      static_cast<std::size_t>(std::distance(fs::directory_iterator(root_),
                                             fs::directory_iterator()));

  store::StoreConfig ro = config();
  ro.read_only = true;
  auto ro_store = std::make_shared<store::ArtifactStore>(ro);
  const PipelineOutputs warm = run_pipeline(plan, ro_store);
  const PipelineOutputs reference = run_pipeline(plan, nullptr);
  expect_identical_outputs(reference, warm, "read-only warm");
  EXPECT_GT(ro_store->stats().hits, 0u);
  EXPECT_EQ(ro_store->stats().saved, 0u);
  const std::size_t files_after =
      static_cast<std::size_t>(std::distance(fs::directory_iterator(root_),
                                             fs::directory_iterator()));
  EXPECT_EQ(files_after, files_before);
}

TEST_F(StoreTest, InMemoryCacheCountersDistinctFromStoreHits) {
  obs::metrics().reset();
  Pipeline pipeline(Scenario::tiny(), fault::FaultPlan::none(), nullptr);
  pipeline.scan_records(Snapshot::k2023);  // computes (and builds population)
  pipeline.scan_records(Snapshot::k2023);  // memo hit
  pipeline.population(Snapshot::k2023);    // memo hit (built during the scan)
  std::uint64_t scan_hits = 0, population_hits = 0, store_hits = 0;
  for (const auto& [name, value] : obs::metrics().snapshot().counters) {
    if (name == "pipeline.scan_cache_hit") scan_hits = value;
    if (name == "pipeline.population_cache_hit") population_hits = value;
    if (name == "store.hit") store_hits = value;
  }
  EXPECT_GE(scan_hits, 1u);
  EXPECT_GE(population_hits, 1u);
  EXPECT_EQ(store_hits, 0u) << "no store attached: store.hit must stay 0";
}

// --- live store chaos + single-flight fetch --------------------------------

TEST_F(StoreTest, ChaosGarblesAtMostOncePerArtifact) {
  store::ArtifactStore artifacts(config());
  const store::ArtifactKey key = test_key("scan", 1, 33);
  ASSERT_TRUE(artifacts.save(key, test_payload(4096, 0x22)));

  store::StoreChaos chaos;
  chaos.seed = 7;
  chaos.corrupt_rate = 1.0;  // every artifact selected
  artifacts.set_chaos(chaos);

  // First load takes the injected corruption (and quarantines the file).
  const store::LoadResult first = artifacts.load(key);
  EXPECT_TRUE(first.corrupt());
  EXPECT_EQ(artifacts.stats().chaos_injected, 1u);

  // Republishing heals it for good: the one-shot ledger keeps even a
  // rate-1.0 chaos from touching the same filename twice.
  ASSERT_TRUE(artifacts.save(key, test_payload(4096, 0x22)));
  const store::LoadResult second = artifacts.load(key);
  EXPECT_TRUE(second.hit());
  EXPECT_EQ(artifacts.stats().chaos_injected, 1u);

  // Disarming stops injection for artifacts not yet selected.
  artifacts.set_chaos(store::StoreChaos{});
  const store::ArtifactKey other = test_key("scan", 1, 34);
  ASSERT_TRUE(artifacts.save(other, test_payload(512, 0x01)));
  EXPECT_TRUE(artifacts.load(other).hit());
  EXPECT_EQ(artifacts.stats().chaos_injected, 1u);
}

TEST_F(StoreTest, ChaosInjectionDeterministicPerSeedAndFilename) {
  // Two stores over identical contents and knobs corrupt the same subset.
  const auto victims = [&](const fs::path& root) {
    store::StoreConfig cfg;
    cfg.root = root.string();
    store::ArtifactStore artifacts(cfg);
    for (std::uint64_t i = 0; i < 16; ++i) {
      artifacts.save(test_key("scan", 1, i), test_payload(1024, 0x33));
    }
    store::StoreChaos chaos;
    chaos.seed = 4242;
    chaos.corrupt_rate = 0.5;
    artifacts.set_chaos(chaos);
    std::vector<std::uint64_t> corrupted;
    for (std::uint64_t i = 0; i < 16; ++i) {
      if (artifacts.load(test_key("scan", 1, i)).corrupt()) {
        corrupted.push_back(i);
      }
    }
    return corrupted;
  };
  const auto a = victims(root_ / "a");
  const auto b = victims(root_ / "b");
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
  EXPECT_LT(a.size(), 16u);  // rate 0.5: some survive, some do not
}

TEST_F(StoreTest, LoadOrComputeSingleFlightUnderConcurrentReaders) {
  obs::metrics().reset();
  store::ArtifactStore artifacts(config());
  const store::ArtifactKey key = test_key("matrix", 1, 5);
  ASSERT_TRUE(artifacts.save(key, test_payload(2048, 0x44)));

  // Garble the artifact while concurrent warm readers race for it: the
  // fetch must heal it with exactly one recompute, not one per reader.
  store::StoreChaos chaos;
  chaos.seed = 11;
  chaos.corrupt_rate = 1.0;
  artifacts.set_chaos(chaos);

  constexpr std::size_t kReaders = 8;  // >= 4 per the robustness contract
  std::atomic<std::uint64_t> computes{0};
  std::vector<store::FetchResult> results(kReaders);
  parallel_for(
      kReaders,
      [&](std::size_t i) {
        results[i] = artifacts.load_or_compute(key, [&]() {
          computes.fetch_add(1, std::memory_order_relaxed);
          return test_payload(2048, 0x44);
        });
      },
      kReaders);

  for (std::size_t i = 0; i < kReaders; ++i) {
    ASSERT_TRUE(results[i].load.hit()) << "reader " << i;
    EXPECT_EQ(results[i].load.payload, test_payload(2048, 0x44));
  }
  // At most one recompute per corrupted artifact.
  EXPECT_EQ(computes.load(), 1u);
  std::size_t computed_flags = 0;
  bool recovered = false;
  for (const store::FetchResult& result : results) {
    if (result.computed) ++computed_flags;
    recovered |= result.recovered_corrupt;
  }
  EXPECT_EQ(computed_flags, 1u);
  EXPECT_TRUE(recovered) << "someone must observe the pre-heal corruption";
  const store::StoreStats stats = artifacts.stats();
  EXPECT_EQ(stats.chaos_injected, 1u);
  EXPECT_EQ(stats.recomputed, 1u);
  // The healed artifact stays healed: a later fetch is a plain hit.
  const store::FetchResult again = artifacts.load_or_compute(key, [&]() {
    computes.fetch_add(1, std::memory_order_relaxed);
    return test_payload(2048, 0x44);
  });
  EXPECT_TRUE(again.load.hit());
  EXPECT_FALSE(again.computed);
  EXPECT_EQ(computes.load(), 1u);
}

TEST_F(StoreTest, LoadOrComputeMissComputesAndPublishes) {
  store::ArtifactStore artifacts(config());
  const store::ArtifactKey key = test_key("matrix", 1, 9);
  const store::FetchResult fetched =
      artifacts.load_or_compute(key, [&]() { return test_payload(256, 0x55); });
  EXPECT_TRUE(fetched.computed);
  EXPECT_FALSE(fetched.recovered_corrupt);
  EXPECT_EQ(fetched.load.payload, test_payload(256, 0x55));
  // Published: a second store over the same root hits.
  store::ArtifactStore again(config());
  EXPECT_TRUE(again.load(key).hit());
}

TEST_F(StoreTest, ChaosUnderConcurrentWarmPipelineReadersSelfHeals) {
  obs::metrics().reset();
  const fault::FaultPlan clean = fault::FaultPlan::none();
  const PipelineOutputs reference = run_pipeline(clean, nullptr);
  run_pipeline(clean, std::make_shared<store::ArtifactStore>(config()));

  // Four pipelines of one world read one store while chaos garbles its
  // artifacts as they load them. The plan is measurement-identical to
  // clean, so every output must match the storeless reference bit for bit
  // -- corruption is healed, never served.
  fault::FaultPlan chaos = clean;
  chaos.store.corrupt_rate = 0.9;
  auto chaos_store = std::make_shared<store::ArtifactStore>(config());
  constexpr std::size_t kReaders = 4;
  std::vector<PipelineOutputs> warm(kReaders);
  std::vector<std::thread> readers;
  for (std::size_t i = 0; i < kReaders; ++i) {
    readers.emplace_back(
        [&, i] { warm[i] = run_pipeline(chaos, chaos_store); });
  }
  for (std::thread& reader : readers) reader.join();
  bool any_degraded = false;
  for (std::size_t i = 0; i < kReaders; ++i) {
    expect_identical_outputs(reference, warm[i],
                             "chaos reader " + std::to_string(i));
    any_degraded |=
        fault::overall_status(warm[i].health) == fault::StageStatus::kDegraded;
  }
  EXPECT_TRUE(any_degraded) << "a reader that hit corruption must say so";

  const store::StoreStats stats = chaos_store->stats();
  EXPECT_GT(stats.chaos_injected, 0u) << "chaos must actually fire";
  // Bounded self-heal: scan and plot both fetch through load_or_compute,
  // so however many pipelines race for a garbled artifact it is recomputed
  // once.
  EXPECT_GT(stats.recomputed, 0u);
  EXPECT_LE(stats.recomputed, stats.chaos_injected);

  // A fifth, chaos-free run over the healed store is warm and clean.
  auto healed_store = std::make_shared<store::ArtifactStore>(config());
  const PipelineOutputs healed = run_pipeline(clean, healed_store);
  expect_identical_outputs(reference, healed, "healed after chaos");
  EXPECT_EQ(healed_store->stats().corrupt, 0u);
}

// --- .mmx matrix spill files (store/matrix_file.h) -------------------------

LatencyMatrix random_matrix(Rng& rng, std::size_t rows, std::size_t vps) {
  LatencyMatrix matrix;
  matrix.vp_count = vps;
  for (std::size_t i = 0; i < rows; ++i) {
    matrix.ips.push_back(Ipv4(static_cast<std::uint32_t>(rng.next())));
    matrix.server_indices.push_back(rng.next() % 100000);
  }
  for (std::size_t i = 0; i < rows * vps; ++i) {
    // Plain RTTs, NaN failure markers, both infinities and denormals: the
    // spill must hand every bit pattern back unchanged.
    const int kind = static_cast<int>(rng.uniform_int(0, 4));
    double value = rng.uniform(0.1, 300.0);
    if (kind == 1) value = std::numeric_limits<double>::quiet_NaN();
    if (kind == 2) value = std::numeric_limits<double>::infinity();
    if (kind == 3) value = -std::numeric_limits<double>::infinity();
    if (kind == 4) value = std::numeric_limits<double>::denorm_min();
    matrix.rtt.push_back(value);
  }
  return matrix;
}

TEST_F(StoreTest, MatrixFileRoundTripPreservesEveryBit) {
  fs::create_directories(root_);
  Rng rng(0x33a1);
  for (int round = 0; round < 12; ++round) {
    const std::size_t rows = static_cast<std::size_t>(rng.uniform_int(0, 12));
    const std::size_t vps = static_cast<std::size_t>(rng.uniform_int(0, 8));
    const LatencyMatrix matrix = random_matrix(rng, rows, vps);
    const std::string path = (root_ / "spill.mmx").string();
    store::write_matrix_file(path, matrix);
    ASSERT_EQ(fs::file_size(path), store::matrix_file_size(rows, vps));

    // The mmap view serves the exact written bits through every accessor...
    const store::MappedLatencyMatrix mapped =
        store::MappedLatencyMatrix::open(path);
    ASSERT_EQ(mapped.row_count(), rows);
    ASSERT_EQ(mapped.vp_count(), vps);
    for (std::size_t i = 0; i < rows; ++i) {
      EXPECT_EQ(mapped.ip(i), matrix.ips[i]) << "row " << i;
      EXPECT_EQ(mapped.server_index(i), matrix.server_indices[i]) << "row " << i;
      const double* row = mapped.row(i);
      for (std::size_t j = 0; j < vps; ++j) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(row[j]),
                  std::bit_cast<std::uint64_t>(matrix.rtt[i * vps + j]))
            << "cell (" << i << "," << j << ")";
      }
    }
    // ...and the full-load copy is ulp-exact too (mmap view == full load).
    const LatencyMatrix copy = mapped.to_matrix();
    EXPECT_EQ(copy.ips, matrix.ips);
    EXPECT_EQ(copy.server_indices, matrix.server_indices);
    EXPECT_EQ(copy.vp_count, matrix.vp_count);
    ASSERT_EQ(copy.rtt.size(), matrix.rtt.size());
    for (std::size_t i = 0; i < matrix.rtt.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(copy.rtt[i]),
                std::bit_cast<std::uint64_t>(matrix.rtt[i]))
          << "cell " << i;
    }
  }
  // Publication is atomic temp+rename: only the spill itself remains (the
  // loop above also proves rewriting over an existing spill works).
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(root_)) {
    ++files;
    EXPECT_EQ(entry.path().extension(), ".mmx") << entry.path();
  }
  EXPECT_EQ(files, 1u);
}

TEST_F(StoreTest, MatrixFileEveryTruncationAndByteFlipDetected) {
  fs::create_directories(root_);
  Rng rng(0x77);
  const LatencyMatrix matrix = random_matrix(rng, 5, 4);
  const std::string good = (root_ / "good.mmx").string();
  store::write_matrix_file(good, matrix);
  std::ifstream in(good, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  ASSERT_EQ(bytes.size(), store::matrix_file_size(5, 4));

  const std::string victim = (root_ / "victim.mmx").string();
  const auto rewrite = [&](const std::vector<char>& content) {
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
  };

  // Truncation at every cut, including the empty file: SerdeError, never a
  // crash or a partially-served matrix.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    rewrite(std::vector<char>(bytes.begin(),
                              bytes.begin() + static_cast<std::ptrdiff_t>(cut)));
    EXPECT_THROW(store::MappedLatencyMatrix::open(victim), store::SerdeError)
        << "cut at " << cut;
  }
  // A flip of any single byte -- header, arrays, or the checksum itself --
  // fails validation.
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::vector<char> flipped = bytes;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x40);
    rewrite(flipped);
    EXPECT_THROW(store::MappedLatencyMatrix::open(victim), store::SerdeError)
        << "flip at " << i;
  }
  // And the pristine spill still opens after all that.
  EXPECT_EQ(store::MappedLatencyMatrix::open(good).row_count(), 5u);
}

}  // namespace
}  // namespace repro
