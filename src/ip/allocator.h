// Sequential prefix allocator: carves disjoint sub-prefixes out of a pool.
// The topology generator uses one to hand each AS its address space, and
// each AS uses one to number routers, offnet servers, and user prefixes.
#pragma once

#include <cstdint>
#include <vector>

#include "ip/ipv4.h"

namespace repro {

/// Allocates non-overlapping prefixes and single addresses from a pool
/// prefix, in address order. Throws Error when the pool is exhausted.
class PrefixAllocator {
 public:
  explicit PrefixAllocator(Prefix pool);

  /// Allocates the next aligned prefix of the given length.
  /// Requires length >= pool.length().
  Prefix allocate_prefix(int length);

  /// Allocates a single address (equivalent to allocate_prefix(32)).
  Ipv4 allocate_address();

  /// Addresses remaining in the pool.
  std::uint64_t remaining() const noexcept;

  const Prefix& pool() const noexcept { return pool_; }

 private:
  Prefix pool_;
  std::uint64_t next_offset_ = 0;  // offset of the first unallocated address
};

}  // namespace repro
