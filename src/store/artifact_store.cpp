#include "store/artifact_store.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <system_error>

#include "obs/json.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace repro::store {

namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kMagic = 0x4f525052;  // "RPRO"
constexpr std::uint32_t kContainerVersion = 1;

std::string hex16(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// Megabytes to bytes, saturating: zero, negative and NaN budgets give 0,
/// and anything at or past 2^64 bytes (inf included) gives the largest
/// count, i.e. no limit. A plain cast of such a double is undefined.
std::uint64_t mb_to_bytes(double mb) noexcept {
  const double bytes = mb * 1e6;
  if (!(bytes > 0.0)) return 0;
  if (bytes >= 0x1.0p64) return std::numeric_limits<std::uint64_t>::max();
  return static_cast<std::uint64_t>(bytes);
}

}  // namespace

std::string ArtifactKey::filename() const {
  return type + "-v" + std::to_string(schema) + "-" + hex16(digest) + ".bin";
}

std::optional<ArtifactKey> ArtifactKey::parse(std::string_view filename) {
  if (!filename.ends_with(".bin")) return std::nullopt;
  if (filename.starts_with(".")) return std::nullopt;  // ".tmp-*" spool files
  filename.remove_suffix(4);

  // The digest is always the last 17 characters: "-" + 16 hex digits. The
  // type may itself contain '-', so split from the right.
  if (filename.size() < 17) return std::nullopt;
  const std::string_view digest_hex = filename.substr(filename.size() - 16);
  if (filename[filename.size() - 17] != '-') return std::nullopt;
  std::uint64_t digest = 0;
  for (const char c : digest_hex) {
    int nibble = -1;
    if (c >= '0' && c <= '9') nibble = c - '0';
    if (c >= 'a' && c <= 'f') nibble = c - 'a' + 10;
    if (nibble < 0) return std::nullopt;  // uppercase is not canonical
    digest = (digest << 4) | static_cast<std::uint64_t>(nibble);
  }
  filename.remove_suffix(17);

  const std::size_t sep = filename.rfind("-v");
  if (sep == std::string_view::npos || sep == 0) return std::nullopt;
  const std::string_view schema_digits = filename.substr(sep + 2);
  if (schema_digits.empty() || schema_digits.size() > 9) return std::nullopt;
  std::uint32_t schema = 0;
  for (const char c : schema_digits) {
    if (c < '0' || c > '9') return std::nullopt;
    schema = schema * 10 + static_cast<std::uint32_t>(c - '0');
  }

  ArtifactKey key;
  key.type = std::string(filename.substr(0, sep));
  key.schema = schema;
  key.digest = digest;
  return key;
}

ArtifactStore::ArtifactStore(StoreConfig config) : config_(std::move(config)) {
  require(!config_.root.empty(), "ArtifactStore: empty root path");
  budget_bytes_ = mb_to_bytes(config_.budget_mb);

  std::error_code ec;
  if (!config_.read_only) {
    fs::create_directories(config_.root, ec);
    require(!ec, "ArtifactStore: cannot create root " + config_.root);
  }

  // Index the existing artifacts, oldest mtime first, so the in-memory
  // recency list continues the order previous processes left on disk.
  struct Found {
    std::string filename;
    std::uint64_t bytes;
    fs::file_time_type mtime;
  };
  std::vector<Found> found;
  if (fs::is_directory(config_.root, ec)) {
    for (const auto& entry : fs::directory_iterator(config_.root, ec)) {
      if (!entry.is_regular_file(ec)) continue;
      const std::string name = entry.path().filename().string();
      if (!name.ends_with(".bin")) continue;  // skip temp files and strays
      found.push_back({name, static_cast<std::uint64_t>(entry.file_size(ec)),
                       entry.last_write_time(ec)});
    }
  }
  std::sort(found.begin(), found.end(), [](const Found& a, const Found& b) {
    return a.mtime != b.mtime ? a.mtime < b.mtime : a.filename < b.filename;
  });
  for (const Found& file : found) {
    recency_.push_front({file.filename, file.bytes});  // newest ends up front
    index_[file.filename] = recency_.begin();
    used_bytes_ += file.bytes;
  }
}

std::shared_ptr<ArtifactStore> ArtifactStore::from_env() {
  const char* root = std::getenv("REPRO_STORE");
  if (root == nullptr || root[0] == '\0') return nullptr;
  StoreConfig config;
  config.root = root;
  const char* read_only = std::getenv("REPRO_STORE_READONLY");
  config.read_only = read_only != nullptr && std::string(read_only) == "1";
  if (const char* budget = std::getenv("REPRO_STORE_BUDGET_MB")) {
    config.budget_mb = std::atof(budget);
  }
  return std::make_shared<ArtifactStore>(std::move(config));
}

void ArtifactStore::touch(
    std::unordered_map<std::string, std::list<Entry>::iterator>::iterator it) {
  recency_.splice(recency_.begin(), recency_, it->second);
  it->second = recency_.begin();
}

void ArtifactStore::drop_entry(const std::string& filename) {
  const auto it = index_.find(filename);
  if (it == index_.end()) return;
  used_bytes_ -= it->second->bytes;
  recency_.erase(it->second);
  index_.erase(it);
}

void ArtifactStore::evict_to_fit(std::uint64_t incoming,
                                 const std::string& keep) {
  if (budget_bytes_ == 0) return;
  while (used_bytes_ + incoming > budget_bytes_ && !recency_.empty()) {
    const Entry victim = recency_.back();
    if (victim.filename == keep) break;  // never evict the incoming artifact
    std::error_code ec;
    fs::remove(fs::path(config_.root) / victim.filename, ec);
    drop_entry(victim.filename);
    ++stats_.evicted;
    obs::metrics().counter("store.evicted").add(1);
  }
}

void ArtifactStore::quarantine(const std::string& filename) {
  ++stats_.corrupt;
  obs::metrics().counter("store.corrupt").add(1);
  if (config_.read_only) return;
  // Quarantine by deletion: the next run takes a clean miss instead of
  // tripping over the same corrupt bytes forever.
  std::error_code ec;
  fs::remove(fs::path(config_.root) / filename, ec);
  drop_entry(filename);
}

void ArtifactStore::set_chaos(const StoreChaos& chaos) {
  std::lock_guard<std::mutex> lock(mutex_);
  chaos_ = chaos;
  if (!(chaos_.corrupt_rate > 0.0)) chaos_.corrupt_rate = 0.0;  // NaN guard
}

void ArtifactStore::maybe_inject_chaos(const std::string& filename) {
  if (!chaos_.active() || config_.read_only) return;
  if (chaos_done_.contains(filename)) return;
  const std::uint64_t name_hash =
      Fnv1a().mix_bytes(filename.data(), filename.size()).digest();
  const std::uint64_t key =
      mix64(name_hash ^ chaos_.seed * 0x9E3779B97F4A7C15ULL);
  if (hash_uniform(key) >= chaos_.corrupt_rate) return;

  const fs::path path = fs::path(config_.root) / filename;
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(path, ec);
  if (ec || size == 0) return;  // not on disk yet: nothing to garble

  if (hash_uniform(mix64(key ^ 0x7C7C)) < chaos_.truncate_fraction) {
    // Torn write: cut the file at a key-determined offset.
    fs::resize_file(path, mix64(key ^ 0x3A3A) % size, ec);
    if (ec) return;
  } else {
    // Disk fault: flip one bit somewhere in the file. The container format
    // detects a flip anywhere -- header fields mismatch, payload flips fail
    // the checksum, checksum flips fail against the intact payload.
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    if (!file) return;
    const auto pos =
        static_cast<std::streamoff>(mix64(key ^ 0x5B5B) % size);
    file.seekg(pos);
    const int byte = file.get();
    if (byte == EOF) return;
    file.seekp(pos);
    file.put(static_cast<char>(byte ^ 0x40));
    if (!file) return;
  }
  chaos_done_.insert(filename);
  ++stats_.chaos_injected;
  obs::metrics().counter("store.chaos_injected").add(1);
}

LoadResult ArtifactStore::load(const ArtifactKey& key) {
  obs::ScopedTimer timer("store.load_ms");
  const std::string filename = key.filename();
  const fs::path path = fs::path(config_.root) / filename;

  std::lock_guard<std::mutex> lock(mutex_);
  maybe_inject_chaos(filename);
  LoadResult result;

  std::vector<std::uint8_t> bytes;
  std::uint64_t file_bytes = 0;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      ++stats_.misses;
      obs::metrics().counter("store.miss").add(1);
      return result;  // kMiss
    }
    in.seekg(0, std::ios::end);
    const std::streamoff size = in.tellg();
    in.seekg(0, std::ios::beg);
    bytes.resize(static_cast<std::size_t>(std::max<std::streamoff>(size, 0)));
    file_bytes = bytes.size();
    if (!bytes.empty()) {
      in.read(reinterpret_cast<char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    }
    if (!in) {
      result.status = LoadStatus::kCorrupt;
      result.detail = filename + ": short read";
    }
  }

  if (!result.corrupt()) {
    try {
      ByteReader reader(bytes);
      if (reader.u32() != kMagic) {
        throw SerdeError("bad magic");
      }
      if (const std::uint32_t container = reader.u32();
          container != kContainerVersion) {
        throw SerdeError("unknown container version " +
                         std::to_string(container));
      }
      if (const std::string type = reader.str(); type != key.type) {
        throw SerdeError("artifact type mismatch: file says '" + type + "'");
      }
      if (const std::uint32_t schema = reader.u32(); schema != key.schema) {
        throw SerdeError("stale schema version " + std::to_string(schema) +
                         " (want " + std::to_string(key.schema) + ")");
      }
      const std::uint64_t payload_size = reader.u64();
      if (payload_size != reader.remaining() - sizeof(std::uint64_t)) {
        throw SerdeError("payload size mismatch");
      }
      const std::size_t payload_offset = bytes.size() - reader.remaining();
      ByteReader tail(std::span<const std::uint8_t>(
          bytes.data() + bytes.size() - sizeof(std::uint64_t),
          sizeof(std::uint64_t)));
      if (tail.u64() != Fnv1a()
                            .mix_bytes(bytes.data() + payload_offset,
                                       payload_size)
                            .digest()) {
        throw SerdeError("checksum mismatch");
      }
      // Hand the file buffer over as the payload: drop the checksum and
      // shift out the header in place, with no second allocation.
      bytes.resize(bytes.size() - sizeof(std::uint64_t));
      bytes.erase(bytes.begin(),
                  bytes.begin() + static_cast<std::ptrdiff_t>(payload_offset));
      result.status = LoadStatus::kHit;
      result.payload = std::move(bytes);
    } catch (const Error& error) {
      result.status = LoadStatus::kCorrupt;
      result.detail = filename + ": " + error.what();
      result.payload.clear();
    }
  }

  if (result.corrupt()) {
    quarantine(filename);
    return result;
  }

  ++stats_.hits;
  obs::metrics().counter("store.hit").add(1);
  const auto it = index_.find(filename);
  if (it != index_.end()) {
    touch(it);
  } else {
    // Present on disk but unknown to this instance (written by another
    // process since startup): adopt it.
    recency_.push_front({filename, file_bytes});
    index_[filename] = recency_.begin();
    used_bytes_ += file_bytes;
  }
  if (!config_.read_only) {
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
  }
  return result;
}

bool ArtifactStore::save(const ArtifactKey& key,
                         const std::vector<std::uint8_t>& payload) {
  if (config_.read_only) return false;
  obs::ScopedTimer timer("store.save_ms");

  ByteWriter header;
  header.u32(kMagic);
  header.u32(kContainerVersion);
  header.str(key.type);
  header.u32(key.schema);
  header.u64(payload.size());

  const std::string filename = key.filename();
  const std::uint64_t total_bytes =
      header.bytes().size() + payload.size() + sizeof(std::uint64_t);

  std::lock_guard<std::mutex> lock(mutex_);
  if (budget_bytes_ != 0 && total_bytes > budget_bytes_) {
    return false;  // would evict the entire store and still not fit
  }

  const fs::path dir(config_.root);
  const fs::path temp =
      dir / (".tmp-" + std::to_string(++temp_counter_) + "-" + filename);
  const fs::path target = dir / filename;
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(reinterpret_cast<const char*>(header.bytes().data()),
              static_cast<std::streamsize>(header.bytes().size()));
    out.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
    ByteWriter checksum;
    checksum.u64(Fnv1a().mix_bytes(payload.data(), payload.size()).digest());
    out.write(reinterpret_cast<const char*>(checksum.bytes().data()),
              static_cast<std::streamsize>(checksum.bytes().size()));
    if (!out) {
      out.close();
      std::error_code ec;
      fs::remove(temp, ec);
      return false;
    }
  }
  std::error_code ec;
  fs::rename(temp, target, ec);
  if (ec) {
    fs::remove(temp, ec);
    return false;
  }

  drop_entry(filename);  // replaced in place: refresh the accounting
  recency_.push_front({filename, total_bytes});
  index_[filename] = recency_.begin();
  used_bytes_ += total_bytes;
  evict_to_fit(0, filename);

  ++stats_.saved;
  obs::metrics().counter("store.saved").add(1);
  return true;
}

FetchResult ArtifactStore::load_or_compute(
    const ArtifactKey& key,
    const std::function<std::vector<std::uint8_t>()>& compute,
    const std::function<void(std::span<const std::uint8_t>)>& decode) {
  const std::string filename = key.filename();
  FetchResult result;
  std::string corrupt_detail;
  std::uint64_t waits = 0;
  while (true) {
    std::uint64_t landed_before_load = 0;
    {
      std::lock_guard<std::mutex> lock(flight_mutex_);
      landed_before_load = landed_[filename];
    }
    LoadResult loaded = load(key);
    if (loaded.hit() && decode) {
      try {
        decode(loaded.payload);
      } catch (const Error& error) {
        // Passed the checksum but not the caller's decoder: as corrupt as a
        // bit flip, so quarantine it and recompute.
        loaded.status = LoadStatus::kCorrupt;
        loaded.detail = filename + ": " + error.what();
        std::lock_guard<std::mutex> lock(mutex_);
        quarantine(filename);
      }
    }
    if (loaded.hit()) {
      result.load = std::move(loaded);
      break;
    }
    if (loaded.corrupt() && !result.recovered_corrupt) {
      result.recovered_corrupt = true;
      corrupt_detail = loaded.detail;
    }

    {
      std::unique_lock<std::mutex> lock(flight_mutex_);
      if (inflight_.contains(filename)) {
        // Another caller is computing this key: wait for its flight to end,
        // then re-load what it published (or claim the retry if it failed).
        ++waits;
        flight_cv_.wait(lock, [&] { return !inflight_.contains(filename); });
        continue;
      }
      // A flight landed after this load started: its published bytes may
      // be what this caller lacks, so re-load before computing again.
      if (landed_[filename] != landed_before_load) continue;
      inflight_.insert(filename);
    }
    const auto land = [&] {
      {
        std::lock_guard<std::mutex> lock(flight_mutex_);
        inflight_.erase(filename);
        ++landed_[filename];
      }
      flight_cv_.notify_all();
    };
    std::vector<std::uint8_t> payload;
    try {
      payload = compute();
    } catch (...) {
      land();
      throw;
    }
    // Read-only / full disk degrade to no persistence.
    if (!payload.empty()) save(key, payload);
    land();
    result.computed = true;
    result.load.status = LoadStatus::kHit;
    result.load.payload = std::move(payload);
    break;
  }

  if (result.recovered_corrupt) result.load.detail = corrupt_detail;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.herd_waits += waits;
    if (result.computed) ++stats_.recomputed;
  }
  if (waits > 0) obs::metrics().counter("store.herd_waits").add(waits);
  if (result.computed) obs::metrics().counter("store.recomputed").add(1);
  return result;
}

StoreStats ArtifactStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t ArtifactStore::object_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return index_.size();
}

double ArtifactStore::used_mb() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<double>(used_bytes_) / 1e6;
}

std::vector<ArtifactInfo> ArtifactStore::list() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ArtifactInfo> artifacts;
  artifacts.reserve(index_.size());
  for (const Entry& entry : recency_) {  // front = most recent
    std::optional<ArtifactKey> key = ArtifactKey::parse(entry.filename);
    if (!key.has_value()) continue;
    artifacts.push_back({std::move(*key), entry.filename, entry.bytes});
  }
  return artifacts;
}

std::uint64_t ArtifactStore::prune_to_budget(double mb) {
  if (config_.read_only) return 0;
  const std::uint64_t target_bytes = mb_to_bytes(mb);

  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t removed = 0;
  while (used_bytes_ > target_bytes && !recency_.empty()) {
    const Entry victim = recency_.back();
    std::error_code ec;
    fs::remove(fs::path(config_.root) / victim.filename, ec);
    drop_entry(victim.filename);
    ++removed;
    ++stats_.evicted;
    obs::metrics().counter("store.evicted").add(1);
  }
  return removed;
}

std::string occupancy_json(const ArtifactStore& store) {
  // Aggregate list() by artifact type; std::map keeps the breakdown sorted
  // so the output is stable run to run.
  struct TypeUse {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
  };
  std::map<std::string, TypeUse> by_type;
  std::uint64_t total_bytes = 0;
  for (const ArtifactInfo& info : store.list()) {
    TypeUse& use = by_type[info.key.type];
    ++use.count;
    use.bytes += info.bytes;
    total_bytes += info.bytes;
  }

  std::string out = "{\"root\":\"" + obs::json_escape(store.config().root) +
                    "\",\"read_only\":" +
                    (store.config().read_only ? "true" : "false") +
                    ",\"artifacts\":" + std::to_string(store.object_count()) +
                    ",\"bytes\":" + std::to_string(total_bytes);
  char mb[64];
  std::snprintf(mb, sizeof(mb), ",\"mb\":%.1f", store.used_mb());
  out += mb;
  out += ",\"types\":{";
  bool first = true;
  for (const auto& [type, use] : by_type) {
    if (!first) out += ",";
    first = false;
    out += "\"" + obs::json_escape(type) +
           "\":{\"count\":" + std::to_string(use.count) +
           ",\"bytes\":" + std::to_string(use.bytes) + "}";
  }
  out += "}";
  const StoreStats stats = store.stats();
  out += ",\"stats\":{\"hits\":" + std::to_string(stats.hits) +
         ",\"misses\":" + std::to_string(stats.misses) +
         ",\"corrupt\":" + std::to_string(stats.corrupt) +
         ",\"evicted\":" + std::to_string(stats.evicted) +
         ",\"saved\":" + std::to_string(stats.saved) +
         ",\"chaos_injected\":" + std::to_string(stats.chaos_injected) +
         ",\"recomputed\":" + std::to_string(stats.recomputed) +
         ",\"herd_waits\":" + std::to_string(stats.herd_waits) + "}}";
  return out;
}

}  // namespace repro::store
