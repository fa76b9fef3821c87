#include "cluster/select_program.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <utility>

#include "util/error.h"

namespace repro::cluster {

namespace {

/// One structural item of the program before encoding: either a single
/// compare-exchange or a 16-row register tile.
struct Item {
  enum Kind : std::uint8_t { kFlat, kFlatMin, kFlatMax, kSort16, kMerge16 };
  Kind kind;
  std::uint32_t a;  // flat: low row.  sort16/merge16: base row.
  std::uint32_t b;  // flat: high row. sort16: live rows. merge16: stride.
};

/// Batcher's odd-even merge sort (Knuth 5.2.2M) over the next power of two
/// >= n, peeling register-sized subproblems: a sort of exactly 16 rows
/// becomes one kSort16 tile, a merge whose chain is exactly 16 in-range rows
/// becomes one kMerge16 tile. Everything else recurses down to flat
/// compare-exchanges, clamped to n: rows >= n hold a virtual +inf, and a
/// compare-exchange writes min low and max high, so +inf never leaves a
/// high row and real values never enter one -- a comparator touching such
/// a row is an identity and is dropped.
struct TiledBuilder {
  std::uint32_t n;
  std::vector<Item>& out;

  void sort(std::uint32_t lo, std::uint32_t m) {
    if (m <= 1 || lo >= n) return;
    if (m == 16) {
      out.push_back({Item::kSort16, lo, std::min<std::uint32_t>(n - lo, 16)});
      return;
    }
    const std::uint32_t half = m / 2;
    sort(lo, half);
    sort(lo + half, half);
    merge(lo, m, 1);
  }

  void merge(std::uint32_t lo, std::uint32_t m, std::uint32_t r) {
    if (lo >= n) return;
    if (m / r == 16 && lo + 15 * r < n) {
      out.push_back({Item::kMerge16, lo, r});
      return;
    }
    const std::uint32_t step = r * 2;
    if (step < m) {
      merge(lo, m, step);
      merge(lo + r, m, step);
      for (std::uint32_t i = lo + r; i + r < lo + m; i += step) {
        if (i + r < n) out.push_back({Item::kFlat, i, i + r});
      }
    } else if (lo + r < n) {
      out.push_back({Item::kFlat, lo, lo + r});
    }
  }
};

/// Rows a tile touches: base + k * stride for sort16 (stride 1, b live
/// rows) or merge16 (stride b, 16 rows).
template <typename Fn>
void for_each_tile_row(const Item& item, Fn&& fn) {
  if (item.kind == Item::kSort16) {
    for (std::uint32_t k = 0; k < item.b; ++k) fn(item.a + k);
  } else {
    for (std::uint32_t k = 0; k < 16; ++k) fn(item.a + k * item.b);
  }
}

/// Backward per-wire liveness from the keep boundary. A flat comparator
/// with both outputs dead disappears; with one dead output it degrades to
/// a one-sided min- or max-store. A tile survives if any of its rows is
/// live (its comparators are not split -- the rank boundary crosses at
/// most a handful of tiles, and splitting them would forfeit the
/// in-register execution that makes them cheap).
std::vector<Item> prune_items(std::vector<Item> items, std::uint32_t n,
                              std::uint32_t keep) {
  std::vector<char> live(n, 0);
  for (std::uint32_t k = 0; k < keep; ++k) live[k] = 1;
  std::vector<Item> kept;
  kept.reserve(items.size());
  for (std::size_t c = items.size(); c-- > 0;) {
    Item item = items[c];
    if (item.kind == Item::kSort16 || item.kind == Item::kMerge16) {
      bool any = false;
      for_each_tile_row(item, [&](std::uint32_t r) { any = any || live[r]; });
      if (!any) continue;
      for_each_tile_row(item, [&](std::uint32_t r) { live[r] = 1; });
      kept.push_back(item);
      continue;
    }
    const bool lo_live = live[item.a] != 0;
    const bool hi_live = live[item.b] != 0;
    if (!lo_live && !hi_live) continue;
    if (!hi_live) {
      item.kind = Item::kFlatMin;
    } else if (!lo_live) {
      item.kind = Item::kFlatMax;
    }
    live[item.a] = live[item.b] = 1;
    kept.push_back(item);
  }
  std::reverse(kept.begin(), kept.end());
  return kept;
}

/// Reorders each maximal stretch of consecutive flat comparators by
/// dependency depth (stable), so dependent accesses to the same scratch row
/// sit a whole layer apart in program order (otherwise the store-to-load
/// forwarding chains between adjacent comparators dominate the select
/// phase). Applied per stretch so tile boundaries (real dependencies) are
/// never crossed.
void layer_flat_stretches(std::vector<Item>& items, std::uint32_t n) {
  std::vector<std::uint32_t> depth(n, 0);
  std::size_t i = 0;
  while (i < items.size()) {
    if (items[i].kind == Item::kSort16 || items[i].kind == Item::kMerge16) {
      std::uint32_t d = 0;
      for_each_tile_row(items[i],
                        [&](std::uint32_t r) { d = std::max(d, depth[r]); });
      ++d;
      for_each_tile_row(items[i], [&](std::uint32_t r) { depth[r] = d; });
      ++i;
      continue;
    }
    std::size_t end = i;
    while (end < items.size() && items[end].kind != Item::kSort16 &&
           items[end].kind != Item::kMerge16) {
      ++end;
    }
    std::vector<std::pair<std::uint32_t, std::size_t>> order;
    order.reserve(end - i);
    for (std::size_t c = i; c < end; ++c) {
      const std::uint32_t d =
          std::max(depth[items[c].a], depth[items[c].b]) + 1;
      depth[items[c].a] = depth[items[c].b] = d;
      order.emplace_back(d, c);
    }
    std::stable_sort(
        order.begin(), order.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<Item> layered(end - i);
    for (std::size_t c = 0; c < order.size(); ++c) {
      layered[c] = items[order[c].second];
    }
    std::copy(layered.begin(), layered.end(),
              items.begin() + static_cast<std::ptrdiff_t>(i));
    i = end;
  }
}

struct CacheKey {
  std::size_t n, keep, lanes;
  bool operator<(const CacheKey& other) const {
    return std::tie(n, keep, lanes) <
           std::tie(other.n, other.keep, other.lanes);
  }
};

}  // namespace

SelectProgram build_select_program(std::size_t n, std::size_t keep,
                                   std::size_t lanes) {
  require(n >= 1 && n <= 0xffffffffu / 2, "select_program: bad size");
  require(keep >= 1 && keep <= n, "select_program: bad keep count");
  require(lanes >= 1 && lanes <= 16, "select_program: bad lane count");
  require(kernel_scratch_doubles(n, lanes) * sizeof(double) <= 0xffffffffu,
          "select_program: scratch offsets overflow 32 bits");

  SelectProgram program;
  program.n = n;
  program.keep = keep;
  program.lanes = lanes;
  if (n == 1) return program;

  std::uint32_t pow2 = 1;
  while (pow2 < n) pow2 <<= 1;
  std::vector<Item> items;
  TiledBuilder builder{static_cast<std::uint32_t>(n), items};
  builder.sort(0, pow2);
  items = prune_items(std::move(items), static_cast<std::uint32_t>(n),
                      static_cast<std::uint32_t>(keep));
  layer_flat_stretches(items, static_cast<std::uint32_t>(n));

  const auto offset_of = [lanes](std::uint32_t row) {
    return static_cast<std::uint32_t>(padded_row_index(row, lanes) * lanes *
                                      sizeof(double));
  };

  // Run-length encoding: consecutive flat items of one kind share a single
  // opcode + count header, so the interpreter dispatches per run.
  std::size_t i = 0;
  while (i < items.size()) {
    const Item& item = items[i];
    if (item.kind == Item::kSort16) {
      program.code.push_back(kSelectSort16);
      program.code.push_back(item.b);
      for (std::uint32_t k = 0; k < 16; ++k) {
        program.code.push_back(k < item.b ? offset_of(item.a + k) : 0);
      }
      program.sort16_tiles++;
      ++i;
      continue;
    }
    if (item.kind == Item::kMerge16) {
      program.code.push_back(kSelectMerge16);
      for (std::uint32_t k = 0; k < 16; ++k) {
        program.code.push_back(offset_of(item.a + k * item.b));
      }
      program.merge16_tiles++;
      ++i;
      continue;
    }
    std::size_t end = i;
    while (end < items.size() && items[end].kind == item.kind) ++end;
    switch (item.kind) {
      case Item::kFlat:
        program.code.push_back(kSelectFlat);
        program.full_comparators += end - i;
        break;
      case Item::kFlatMin:
        program.code.push_back(kSelectFlatMin);
        program.min_only_comparators += end - i;
        break;
      default:
        program.code.push_back(kSelectFlatMax);
        program.max_only_comparators += end - i;
        break;
    }
    program.code.push_back(static_cast<std::uint32_t>(end - i));
    for (std::size_t c = i; c < end; ++c) {
      program.code.push_back(offset_of(items[c].a));
      program.code.push_back(offset_of(items[c].b));
    }
    i = end;
  }
  return program;
}

const SelectProgram& select_program_for(std::size_t n, std::size_t keep,
                                        std::size_t lanes) {
  static std::mutex mutex;
  static std::map<CacheKey, std::unique_ptr<SelectProgram>> cache;

  std::lock_guard<std::mutex> lock(mutex);
  auto& slot = cache[CacheKey{n, keep, lanes}];
  if (slot == nullptr) {
    slot = std::make_unique<SelectProgram>(
        build_select_program(n, keep, lanes));
  }
  return *slot;
}

}  // namespace repro::cluster
