// Content-addressed persistent artifact store.
//
// Artifacts are flat files under one root directory, named
// `<type>-v<schema>-<digest>.bin` where the digest is an FNV-1a 64-bit hash
// over everything that determines the artifact's content: the per-type
// schema version, the scenario's measurement-relevant config fields, the
// fault plan (seed + every rate), and per-artifact parameters (the
// snapshot of a scan; a plot has none). Change any input and the key
// changes, so a stale artifact can never be served -- there is no
// invalidation protocol, only different names.
//
// Durability contract:
//   * writes are atomic: payload goes to a temp file in the root, then one
//     rename() publishes it -- readers never see a half-written artifact;
//   * every file carries a header (magic, container version, type, schema,
//     payload size) and a trailing FNV-1a checksum over the payload;
//     truncation, bit flips and stale schema versions are all detected at
//     load time and reported as kCorrupt, which callers treat as "recompute
//     and record a degraded StageHealth" -- never a crash;
//   * a disk budget (REPRO_STORE_BUDGET_MB) is enforced with LRU eviction
//     over file recency (same policy shape as cache/lru.h, with file mtimes
//     persisting the recency order across processes).
//
// All operations are thread-safe: resident pipelines of one world (the
// report service) consult and publish the same keys concurrently, and
// load_or_compute makes them share one compute per key.
//
// Env toggles (read by from_env(); all default off so the pipeline is
// bit-identical to a storeless build):
//   REPRO_STORE=/path        enable, rooted at /path (created if missing)
//   REPRO_STORE_READONLY=1   consult but never write, touch or evict
//   REPRO_STORE_BUDGET_MB=N  LRU-evict beyond N megabytes (0 = unlimited)
//
// See docs/PERSISTENCE.md.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "store/serde.h"

namespace repro::store {

/// Identity of one stored artifact. The digest must cover every input that
/// can change the payload (build it with Fnv1a).
struct ArtifactKey {
  std::string type;           // "scan" or "plot"
  std::uint32_t schema = 1;   // the per-type schema constant from serde.h
  std::uint64_t digest = 0;

  /// "<type>-v<schema>-<16 hex digits>.bin"
  std::string filename() const;

  /// Inverse of filename(): recovers the key from an on-disk name, or
  /// nullopt for temp files and strays. Round-trips exactly:
  /// parse(k.filename())->filename() == k.filename().
  static std::optional<ArtifactKey> parse(std::string_view filename);
};

/// One on-disk artifact as reported by ArtifactStore::list().
struct ArtifactInfo {
  ArtifactKey key;
  std::string filename;
  std::uint64_t bytes = 0;  // full file size (header + payload + checksum)
};

enum class LoadStatus {
  kHit,      // payload returned, checksum and schema verified
  kMiss,     // no such artifact
  kCorrupt,  // artifact present but unreadable (recompute; record degraded)
};

struct LoadResult {
  LoadStatus status = LoadStatus::kMiss;
  std::vector<std::uint8_t> payload;
  /// Human-readable corruption reason (empty unless kCorrupt).
  std::string detail;

  bool hit() const noexcept { return status == LoadStatus::kHit; }
  bool corrupt() const noexcept { return status == LoadStatus::kCorrupt; }
};

struct StoreConfig {
  std::string root;
  bool read_only = false;
  /// LRU disk budget in megabytes; <= 0 and inf mean unlimited.
  double budget_mb = 0.0;
};

/// Live-corruption chaos (FaultPlan::store): each artifact is, with
/// probability corrupt_rate, garbled on disk right before its first load --
/// while concurrent readers are live. Injection happens under the store
/// lock (TSan-clean), is deterministic per (seed, filename), and fires at
/// most once per filename, so a healed artifact stays healed and the
/// corrupt -> delete -> recompute -> republish path is provably bounded.
struct StoreChaos {
  std::uint64_t seed = 0;
  /// Per-artifact probability of being garbled before its first load.
  double corrupt_rate = 0.0;
  /// Of the garbled: fraction truncated (the rest get a mid-file bit flip).
  double truncate_fraction = 0.5;

  bool active() const noexcept { return corrupt_rate > 0.0; }
};

/// Cumulative per-instance statistics (process-global mirrors live in the
/// metrics registry as store.hit / store.miss / store.corrupt /
/// store.evicted / store.saved / store.chaos_injected / store.recomputed /
/// store.herd_waits).
struct StoreStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t corrupt = 0;
  std::uint64_t evicted = 0;
  std::uint64_t saved = 0;
  std::uint64_t chaos_injected = 0;  // artifacts garbled by StoreChaos
  std::uint64_t recomputed = 0;      // load_or_compute ran its compute fn
  std::uint64_t herd_waits = 0;      // callers that parked behind a flight
};

/// Outcome of ArtifactStore::load_or_compute.
struct FetchResult {
  /// Always a hit on return (payload present, empty only when `compute`
  /// returned nothing); `detail` preserves the corruption reason when the
  /// fetch began with a corrupt or rejected artifact.
  LoadResult load;
  bool computed = false;           // this caller ran the compute fn
  bool recovered_corrupt = false;  // the artifact was corrupt before healing
};

class ArtifactStore {
 public:
  /// Opens (and creates, unless read-only) the store root, then indexes the
  /// existing artifacts by file recency. Throws repro::Error when the root
  /// cannot be created.
  explicit ArtifactStore(StoreConfig config);

  /// Store described by the REPRO_STORE* environment variables; nullptr
  /// when REPRO_STORE is unset or empty (the default: no persistence).
  static std::shared_ptr<ArtifactStore> from_env();

  /// Loads an artifact. A hit refreshes its LRU recency (and file mtime,
  /// unless read-only). Corrupt artifacts are deleted (unless read-only) so
  /// the next run takes a clean miss.
  LoadResult load(const ArtifactKey& key);

  /// Publishes an artifact atomically (write temp + rename), then enforces
  /// the disk budget by evicting least-recently-used files. Returns false
  /// when the store is read-only, the payload alone exceeds the budget, or
  /// the write fails (a full disk degrades to "no persistence", it never
  /// aborts the run).
  bool save(const ArtifactKey& key, const std::vector<std::uint8_t>& payload);

  /// Arms (or, with a zero rate, disarms) live-corruption chaos. The
  /// one-shot ledger survives re-arming with the same knobs, so a healed
  /// artifact is never re-corrupted within one store lifetime. Ignored on
  /// read-only stores (they cannot modify files).
  void set_chaos(const StoreChaos& chaos);

  /// Single-flight load-or-compute, the store's one consult -> compute ->
  /// publish sequence. A hit that `decode` accepts returns at once. On a
  /// miss, a corrupt artifact, or a payload `decode` rejects by throwing
  /// repro::Error (quarantined like a checksum failure), exactly one caller
  /// runs `compute` and publishes its payload, while concurrent callers for
  /// the same key park until that flight ends and then re-load (and
  /// re-decode) the published bytes -- N callers racing for one corrupt
  /// artifact cost one recompute, not N (stats().recomputed counts
  /// computes, herd_waits counts parks). An empty payload is not published
  /// (a failed stage: the next caller retries). `compute` and `decode` run
  /// without any store lock held; `compute` must not wait on another flight
  /// of the same key. A caller that computed gets its own payload back
  /// undecoded (`computed`); any other caller has had `decode` accept it.
  FetchResult load_or_compute(
      const ArtifactKey& key,
      const std::function<std::vector<std::uint8_t>()>& compute,
      const std::function<void(std::span<const std::uint8_t>)>& decode = {});

  const StoreConfig& config() const noexcept { return config_; }
  StoreStats stats() const;
  std::size_t object_count() const;
  double used_mb() const;

  /// Snapshot of the indexed artifacts, most recently used first. Files
  /// whose names do not parse as artifact keys are skipped (the indexer
  /// already skips non-.bin strays).
  std::vector<ArtifactInfo> list() const;

  /// One-shot LRU eviction down to `mb` megabytes (<= 0 empties the store,
  /// inf or any budget past 2^64 bytes evicts nothing), independent of the
  /// configured budget. Returns the number of artifacts removed; 0 on a
  /// read-only store. For the repro-store CLI.
  std::uint64_t prune_to_budget(double mb);

  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

 private:
  struct Entry {
    std::string filename;
    std::uint64_t bytes = 0;
  };

  /// Moves `it` to the recency front (most recent). Caller holds the lock.
  void touch(std::unordered_map<std::string,
                                std::list<Entry>::iterator>::iterator it);
  /// Evicts from the recency back until `incoming` more bytes fit the
  /// budget. Never evicts `keep`. Caller holds the lock.
  void evict_to_fit(std::uint64_t incoming, const std::string& keep);
  void drop_entry(const std::string& filename);
  /// Deletes a corrupt artifact (unless read-only) so the next load takes a
  /// clean miss, and counts it. Caller holds the lock.
  void quarantine(const std::string& filename);
  /// Garbles the on-disk file if armed chaos selects it and it has not been
  /// hit before. Caller holds the lock.
  void maybe_inject_chaos(const std::string& filename);

  StoreConfig config_;
  std::uint64_t budget_bytes_ = 0;  // 0 = unlimited

  mutable std::mutex mutex_;
  std::list<Entry> recency_;  // front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  std::uint64_t used_bytes_ = 0;
  StoreStats stats_;
  std::uint64_t temp_counter_ = 0;
  StoreChaos chaos_;                             // guarded by mutex_
  std::unordered_set<std::string> chaos_done_;   // one-shot ledger

  // Single-flight state for load_or_compute (ordered after mutex_: never
  // hold flight_mutex_ while taking mutex_ via load/save).
  std::mutex flight_mutex_;
  std::condition_variable flight_cv_;
  std::unordered_set<std::string> inflight_;
  // Flights landed per key: a caller whose load raced a landing re-loads
  // instead of claiming a second flight for bytes just published.
  std::unordered_map<std::string, std::uint64_t> landed_;
};

/// One-line JSON describing the store's on-disk occupancy and session
/// stats: root, artifact count, bytes, per-type breakdown (sorted by type),
/// and the StoreStats counters. Shared by `repro-store stats --json` and
/// the report service's "stats" query, so scripts parse occupancy instead
/// of scraping the human tables.
std::string occupancy_json(const ArtifactStore& store);

}  // namespace repro::store
