// repro-store: operator CLI for a persistent artifact store root
// (docs/PERSISTENCE.md). Four subcommands over the same flat-file layout the
// pipeline uses, so an operator can inspect, audit or shrink a store without
// running a reproduction:
//
//   repro-store ls <root>            list artifacts, most recently used first
//   repro-store stats <root>         totals and a per-type breakdown
//   repro-store verify <root>        load every artifact; nonzero on corruption
//   repro-store prune <root> <mb>    LRU-evict down to a megabyte budget
//
// ls and stats take --json for machine-readable output: ls emits an array
// of {type, schema, digest, bytes} objects (MRU first); stats emits the
// same occupancy_json document the report service returns for its "stats"
// query, so dashboards can scrape either source identically.
//
// ls/stats/verify open the store read-only, so they never touch mtimes,
// evict, or delete corrupt files -- verify reports what a pipeline would
// see without changing it. prune is the only mutating subcommand.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "obs/json.h"
#include "store/artifact_store.h"
#include "util/error.h"

namespace {

using repro::store::ArtifactInfo;
using repro::store::ArtifactStore;
using repro::store::StoreConfig;

ArtifactStore open_store(const char* root, bool read_only) {
  StoreConfig config;
  config.root = root;
  config.read_only = read_only;
  return ArtifactStore(config);
}

int cmd_ls(const char* root, bool json) {
  const ArtifactStore store = open_store(root, /*read_only=*/true);
  const auto artifacts = store.list();
  if (json) {
    // One array, MRU first, mirroring the text listing's order.
    std::string out = "[";
    char entry[160];
    for (std::size_t i = 0; i < artifacts.size(); ++i) {
      const ArtifactInfo& artifact = artifacts[i];
      std::snprintf(entry, sizeof(entry),
                    "%s{\"type\":\"%s\",\"schema\":%u,"
                    "\"digest\":\"%016llx\",\"bytes\":%llu}",
                    i == 0 ? "" : ",",
                    repro::obs::json_escape(artifact.key.type).c_str(),
                    artifact.key.schema,
                    static_cast<unsigned long long>(artifact.key.digest),
                    static_cast<unsigned long long>(artifact.bytes));
      out += entry;
    }
    out += "]\n";
    std::fputs(out.c_str(), stdout);
    return 0;
  }
  std::printf("%-12s %8s %18s %10s\n", "type", "schema", "digest", "bytes");
  for (const ArtifactInfo& artifact : artifacts) {
    std::printf("%-12s %8u   %016llx %10llu\n", artifact.key.type.c_str(),
                artifact.key.schema,
                static_cast<unsigned long long>(artifact.key.digest),
                static_cast<unsigned long long>(artifact.bytes));
  }
  std::printf("%zu artifacts, %.1f MB (most recently used first)\n",
              artifacts.size(), store.used_mb());
  return 0;
}

int cmd_stats(const char* root, bool json) {
  const ArtifactStore store = open_store(root, /*read_only=*/true);
  if (json) {
    std::printf("%s\n", repro::store::occupancy_json(store).c_str());
    return 0;
  }
  struct TypeStats {
    std::size_t count = 0;
    std::uint64_t bytes = 0;
  };
  std::map<std::string, TypeStats> by_type;  // sorted output
  for (const ArtifactInfo& artifact : store.list()) {
    TypeStats& stats = by_type[artifact.key.type];
    ++stats.count;
    stats.bytes += artifact.bytes;
  }
  std::printf("root: %s\n", root);
  std::printf("artifacts: %zu, %.1f MB\n\n", store.object_count(),
              store.used_mb());
  std::printf("%-12s %8s %12s\n", "type", "count", "MB");
  for (const auto& [type, stats] : by_type) {
    std::printf("%-12s %8zu %12.1f\n", type.c_str(), stats.count,
                static_cast<double>(stats.bytes) / 1e6);
  }
  return 0;
}

int cmd_verify(const char* root) {
  ArtifactStore store = open_store(root, /*read_only=*/true);
  std::size_t ok = 0;
  std::size_t corrupt = 0;
  for (const ArtifactInfo& artifact : store.list()) {
    // load() re-checks magic, container version, type, schema, payload size
    // and the trailing checksum; read-only, so a corrupt file is reported
    // but left in place for forensics.
    const repro::store::LoadResult result = store.load(artifact.key);
    if (result.hit()) {
      ++ok;
      continue;
    }
    ++corrupt;
    std::printf("CORRUPT  %s\n", result.corrupt()
                                     ? result.detail.c_str()
                                     : (artifact.filename + ": vanished "
                                                            "during verify")
                                           .c_str());
  }
  std::printf("%zu ok, %zu corrupt\n", ok, corrupt);
  return corrupt == 0 ? 0 : 1;
}

int cmd_prune(const char* root, const char* mb_text) {
  char* end = nullptr;
  const double mb = std::strtod(mb_text, &end);
  if (end == mb_text || *end != '\0' || !(mb >= 0.0)) {  // rejects NaN too
    std::fprintf(stderr, "repro-store: bad budget '%s' (want megabytes)\n",
                 mb_text);
    return 2;
  }
  ArtifactStore store = open_store(root, /*read_only=*/false);
  const std::uint64_t removed = store.prune_to_budget(mb);
  std::printf("evicted %llu artifacts; %zu remain, %.1f MB (budget %.1f MB)\n",
              static_cast<unsigned long long>(removed), store.object_count(),
              store.used_mb(), mb);
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: repro-store <command> <root> [args]\n"
      "  ls <root> [--json]     list artifacts, most recently used first\n"
      "  stats <root> [--json]  totals and per-type breakdown\n"
      "  verify <root>          check every artifact; nonzero if corrupt\n"
      "  prune <root> <mb>      LRU-evict down to <mb> megabytes\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string command = argv[1];
  const char* root = argv[2];
  const bool json = argc == 4 && std::string(argv[3]) == "--json";
  try {
    if (command == "ls" && (argc == 3 || json)) return cmd_ls(root, json);
    if (command == "stats" && (argc == 3 || json)) return cmd_stats(root, json);
    if (command == "verify" && argc == 3) return cmd_verify(root);
    if (command == "prune" && argc == 4 && !json)
      return cmd_prune(root, argv[3]);
  } catch (const repro::Error& error) {
    std::fprintf(stderr, "repro-store: %s\n", error.what());
    return 1;
  }
  return usage();
}
