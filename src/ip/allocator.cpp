#include "ip/allocator.h"

#include "util/error.h"

namespace repro {

PrefixAllocator::PrefixAllocator(Prefix pool) : pool_(pool) {}

Prefix PrefixAllocator::allocate_prefix(int length) {
  require(length >= pool_.length() && length <= 32,
          "PrefixAllocator: bad requested length");
  const std::uint64_t block = std::uint64_t{1} << (32 - length);
  // Align the next offset up to a multiple of the block size.
  const std::uint64_t aligned = (next_offset_ + block - 1) / block * block;
  require(aligned + block <= pool_.size(), "PrefixAllocator: pool exhausted");
  next_offset_ = aligned + block;
  return Prefix(pool_.at(aligned), length);
}

Ipv4 PrefixAllocator::allocate_address() {
  return allocate_prefix(32).network();
}

std::uint64_t PrefixAllocator::remaining() const noexcept {
  return pool_.size() - next_offset_;
}

}  // namespace repro
