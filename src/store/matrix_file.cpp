#include "store/matrix_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <limits>
#include <vector>

#include "util/error.h"

namespace repro::store {

// The format reinterprets mapped bytes as u32/u64/f64 arrays in place, so
// it is a little-endian on-disk format only a little-endian host can map.
// (Same bytes ByteWriter would emit; a big-endian port would need a
// byte-swapping reader, not a format change.)
static_assert(std::endian::native == std::endian::little,
              "matrix_file.cpp assumes a little-endian host");

namespace {

constexpr std::uint64_t kHeaderBytes = 32;

std::uint64_t pad8(std::uint64_t bytes) noexcept { return (bytes + 7) & ~7ULL; }

std::uint64_t ips_offset() noexcept { return kHeaderBytes; }

std::uint64_t servers_offset(std::uint64_t rows) noexcept {
  return kHeaderBytes + pad8(rows * 4);
}

std::uint64_t rtt_offset(std::uint64_t rows) noexcept {
  return servers_offset(rows) + rows * 8;
}

std::uint64_t checksum_offset(std::uint64_t rows,
                              std::uint64_t vp_count) noexcept {
  return rtt_offset(rows) + rows * vp_count * 8;
}

std::uint64_t fnv1a_bytes(const std::uint8_t* data, std::uint64_t count) {
  std::uint64_t state = 0xcbf29ce484222325ULL;
  for (std::uint64_t i = 0; i < count; ++i) {
    state ^= data[i];
    state *= 0x100000001b3ULL;
  }
  return state;
}

void put_u32(std::vector<std::uint8_t>& out, std::uint64_t offset,
             std::uint32_t value) {
  std::memcpy(out.data() + offset, &value, sizeof value);
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t offset,
             std::uint64_t value) {
  std::memcpy(out.data() + offset, &value, sizeof value);
}

}  // namespace

std::uint64_t matrix_file_size(std::uint64_t rows,
                               std::uint64_t vp_count) noexcept {
  return checksum_offset(rows, vp_count) + 8;
}

void write_matrix_file(const std::string& path, const LatencyMatrix& matrix) {
  const std::uint64_t rows = matrix.ips.size();
  require(matrix.server_indices.size() == rows,
          "write_matrix_file: server_indices size mismatch");
  require(matrix.rtt.size() == rows * matrix.vp_count,
          "write_matrix_file: rtt size mismatch");

  const std::uint64_t total = matrix_file_size(rows, matrix.vp_count);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(total), 0);
  put_u64(bytes, 0, kMatrixFileMagic);
  put_u32(bytes, 8, kMatrixFileVersion);
  put_u32(bytes, 12, kLatencyMatrixSchema);
  put_u64(bytes, 16, rows);
  put_u64(bytes, 24, matrix.vp_count);
  for (std::uint64_t i = 0; i < rows; ++i) {
    put_u32(bytes, ips_offset() + i * 4, matrix.ips[i].value());
    put_u64(bytes, servers_offset(rows) + i * 8, matrix.server_indices[i]);
  }
  if (!matrix.rtt.empty()) {
    std::memcpy(bytes.data() + rtt_offset(rows), matrix.rtt.data(),
                matrix.rtt.size() * sizeof(double));
  }
  put_u64(bytes, checksum_offset(rows, matrix.vp_count),
          fnv1a_bytes(bytes.data(), checksum_offset(rows, matrix.vp_count)));

  // Atomic publish: temp file next to the target, then one rename. The
  // temp name carries the PID so concurrent writers (two processes over
  // one store's stream directory) never collide; identical
  // inputs produce identical bytes, so a lost rename race is harmless.
  namespace fs = std::filesystem;
  const fs::path target(path);
  const fs::path temp =
      target.parent_path() /
      (".tmp-" + std::to_string(::getpid()) + "-" +
       target.filename().string());
  const int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw Error("write_matrix_file: open " + temp.string() + ": " +
                std::strerror(errno));
  }
  std::uint64_t written = 0;
  while (written < total) {
    const ssize_t n =
        ::write(fd, bytes.data() + written,
                static_cast<std::size_t>(total - written));
    if (n <= 0) {
      const int err = errno;
      ::close(fd);
      ::unlink(temp.c_str());
      throw Error("write_matrix_file: write " + temp.string() + ": " +
                  std::strerror(err));
    }
    written += static_cast<std::uint64_t>(n);
  }
  ::close(fd);
  if (::rename(temp.c_str(), target.c_str()) != 0) {
    const int err = errno;
    ::unlink(temp.c_str());
    throw Error("write_matrix_file: rename to " + path + ": " +
                std::strerror(err));
  }
}

MappedLatencyMatrix MappedLatencyMatrix::open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw Error("MappedLatencyMatrix: open " + path + ": " +
                std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    throw Error("MappedLatencyMatrix: stat " + path + ": " +
                std::strerror(err));
  }
  const std::uint64_t size = static_cast<std::uint64_t>(st.st_size);
  if (size < kHeaderBytes + 8) {
    ::close(fd);
    throw SerdeError("matrix spill truncated below header: " + path);
  }
  void* base = ::mmap(nullptr, static_cast<std::size_t>(size), PROT_READ,
                      MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (base == MAP_FAILED) {
    throw Error("MappedLatencyMatrix: mmap " + path + ": " +
                std::strerror(errno));
  }

  MappedLatencyMatrix out;
  out.base_ = base;
  out.mapped_bytes_ = size;
  const std::uint8_t* bytes = static_cast<const std::uint8_t*>(base);
  const auto read_u64 = [bytes](std::uint64_t offset) {
    std::uint64_t value;
    std::memcpy(&value, bytes + offset, sizeof value);
    return value;
  };
  const auto read_u32 = [bytes](std::uint64_t offset) {
    std::uint32_t value;
    std::memcpy(&value, bytes + offset, sizeof value);
    return value;
  };
  // Validation order: fixed header fields first, then the size the header
  // implies, then the checksum over everything the size covers. The `out`
  // destructor unmaps on every throw below.
  if (read_u64(0) != kMatrixFileMagic) {
    throw SerdeError("matrix spill bad magic: " + path);
  }
  if (read_u32(8) != kMatrixFileVersion) {
    throw SerdeError("matrix spill bad container version: " + path);
  }
  if (read_u32(12) != kLatencyMatrixSchema) {
    throw SerdeError("matrix spill stale schema: " + path);
  }
  const std::uint64_t rows = read_u64(16);
  const std::uint64_t vps = read_u64(24);
  // Overflow guard before computing the expected size (mirrors serde's
  // kMaxElements cap: a garbled header must not wrap the arithmetic).
  constexpr std::uint64_t kMaxElements = 1ULL << 28;
  if (rows > kMaxElements || vps > kMaxElements ||
      (vps != 0 && rows > kMaxElements / vps)) {
    throw SerdeError("matrix spill implausible shape: " + path);
  }
  if (size != matrix_file_size(rows, vps)) {
    throw SerdeError("matrix spill size mismatch: " + path + ": " +
                     std::to_string(size) + " bytes for " +
                     std::to_string(rows) + "x" + std::to_string(vps));
  }
  const std::uint64_t body = checksum_offset(rows, vps);
  if (read_u64(body) != fnv1a_bytes(bytes, body)) {
    throw SerdeError("matrix spill checksum mismatch: " + path);
  }
  out.rows_ = static_cast<std::size_t>(rows);
  out.vp_count_ = static_cast<std::size_t>(vps);
  out.ips_ = reinterpret_cast<const std::uint32_t*>(bytes + ips_offset());
  out.server_indices_ =
      reinterpret_cast<const std::uint64_t*>(bytes + servers_offset(rows));
  out.rtt_ = reinterpret_cast<const double*>(bytes + rtt_offset(rows));
  return out;
}

MappedLatencyMatrix::MappedLatencyMatrix(MappedLatencyMatrix&& other) noexcept {
  *this = std::move(other);
}

MappedLatencyMatrix& MappedLatencyMatrix::operator=(
    MappedLatencyMatrix&& other) noexcept {
  if (this == &other) return *this;
  if (base_ != nullptr) {
    ::munmap(base_, static_cast<std::size_t>(mapped_bytes_));
  }
  base_ = other.base_;
  mapped_bytes_ = other.mapped_bytes_;
  rows_ = other.rows_;
  vp_count_ = other.vp_count_;
  ips_ = other.ips_;
  server_indices_ = other.server_indices_;
  rtt_ = other.rtt_;
  other.base_ = nullptr;
  other.mapped_bytes_ = 0;
  other.rows_ = 0;
  other.vp_count_ = 0;
  other.ips_ = nullptr;
  other.server_indices_ = nullptr;
  other.rtt_ = nullptr;
  return *this;
}

MappedLatencyMatrix::~MappedLatencyMatrix() {
  if (base_ != nullptr) {
    ::munmap(base_, static_cast<std::size_t>(mapped_bytes_));
  }
}

Ipv4 MappedLatencyMatrix::ip(std::size_t row) const {
  require(row < rows_, "MappedLatencyMatrix: bad row");
  return Ipv4(ips_[row]);
}

std::size_t MappedLatencyMatrix::server_index(std::size_t row) const {
  require(row < rows_, "MappedLatencyMatrix: bad row");
  return static_cast<std::size_t>(server_indices_[row]);
}

const double* MappedLatencyMatrix::row(std::size_t row) const {
  require(row < rows_, "MappedLatencyMatrix: bad row");
  return rtt_ + row * vp_count_;
}

LatencyMatrix MappedLatencyMatrix::to_matrix() const {
  LatencyMatrix out;
  out.ips.reserve(rows_);
  out.server_indices.reserve(rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    out.ips.push_back(Ipv4(ips_[i]));
    out.server_indices.push_back(static_cast<std::size_t>(server_indices_[i]));
  }
  out.vp_count = vp_count_;
  out.rtt.assign(rtt_, rtt_ + rows_ * vp_count_);
  return out;
}

}  // namespace repro::store
