#include "store/serde.h"

#include <bit>
#include <limits>
#include <utility>

namespace repro::store {

namespace {

/// Decode-side sanity cap on element counts: a corrupted length prefix must
/// not turn into a multi-gigabyte allocation before the checksum mismatch
/// is noticed. Generous (the paper-scale scan is ~300K records).
constexpr std::uint64_t kMaxElements = 1u << 28;

std::uint64_t checked_count(std::uint64_t count, const char* what) {
  if (count > kMaxElements) {
    throw SerdeError(std::string(what) + ": implausible element count " +
                     std::to_string(count));
  }
  return count;
}

}  // namespace

// --- ByteWriter ---

void ByteWriter::u8(std::uint8_t value) { bytes_.push_back(value); }

void ByteWriter::u32(std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    bytes_.push_back(static_cast<std::uint8_t>(value >> shift));
  }
}

void ByteWriter::u64(std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    bytes_.push_back(static_cast<std::uint8_t>(value >> shift));
  }
}

void ByteWriter::i32(std::int32_t value) {
  u32(static_cast<std::uint32_t>(value));
}

void ByteWriter::f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }

void ByteWriter::str(std::string_view value) {
  if (value.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw SerdeError("string too long to encode");
  }
  u32(static_cast<std::uint32_t>(value.size()));
  bytes_.insert(bytes_.end(), value.begin(), value.end());
}

// --- ByteReader ---

void ByteReader::need(std::size_t count) const {
  if (remaining() < count) {
    throw SerdeError("truncated input: need " + std::to_string(count) +
                     " bytes, have " + std::to_string(remaining()));
  }
}

std::uint8_t ByteReader::u8() {
  need(1);
  return bytes_[cursor_++];
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t value = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    value |= static_cast<std::uint32_t>(bytes_[cursor_++]) << shift;
  }
  return value;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    value |= static_cast<std::uint64_t>(bytes_[cursor_++]) << shift;
  }
  return value;
}

std::int32_t ByteReader::i32() { return static_cast<std::int32_t>(u32()); }

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

std::string ByteReader::str() {
  const std::uint32_t length = u32();
  need(length);
  std::string value(reinterpret_cast<const char*>(bytes_.data() + cursor_),
                    length);
  cursor_ += length;
  return value;
}

// --- Fnv1a ---

Fnv1a& Fnv1a::mix(std::uint64_t value) noexcept {
  for (int shift = 0; shift < 64; shift += 8) {
    state_ ^= (value >> shift) & 0xff;
    state_ *= 0x100000001b3ULL;  // FNV prime
  }
  return *this;
}

Fnv1a& Fnv1a::mix(double value) noexcept {
  return mix(std::bit_cast<std::uint64_t>(value));
}

Fnv1a& Fnv1a::mix(std::string_view value) noexcept {
  mix(static_cast<std::uint64_t>(value.size()));
  for (const char c : value) {
    state_ ^= static_cast<std::uint8_t>(c);
    state_ *= 0x100000001b3ULL;
  }
  return *this;
}

// --- TlsCertificate ---

namespace {

void encode_dn(ByteWriter& out, const DistinguishedName& dn) {
  out.str(dn.common_name);
  out.str(dn.organization);
  out.str(dn.country);
}

DistinguishedName decode_dn(ByteReader& in) {
  DistinguishedName dn;
  dn.common_name = in.str();
  dn.organization = in.str();
  dn.country = in.str();
  return dn;
}

}  // namespace

void encode(ByteWriter& out, const TlsCertificate& cert) {
  encode_dn(out, cert.subject);
  encode_dn(out, cert.issuer);
  out.u32(static_cast<std::uint32_t>(cert.san_dns.size()));
  for (const std::string& san : cert.san_dns) out.str(san);
  out.i32(cert.not_before_year);
  out.i32(cert.not_after_year);
  out.u64(cert.serial);
}

TlsCertificate decode_certificate(ByteReader& in) {
  TlsCertificate cert;
  cert.subject = decode_dn(in);
  cert.issuer = decode_dn(in);
  const std::uint64_t sans = checked_count(in.u32(), "certificate SANs");
  cert.san_dns.reserve(sans);
  for (std::uint64_t i = 0; i < sans; ++i) cert.san_dns.push_back(in.str());
  cert.not_before_year = in.i32();
  cert.not_after_year = in.i32();
  cert.serial = in.u64();
  return cert;
}

// --- scan records ---

void encode(ByteWriter& out, const std::vector<ScanRecord>& records) {
  out.u64(records.size());
  for (const ScanRecord& record : records) {
    out.u32(record.ip.value());
    encode(out, record.cert);
  }
}

std::vector<ScanRecord> decode_scan_records(ByteReader& in) {
  const std::uint64_t count = checked_count(in.u64(), "scan records");
  std::vector<ScanRecord> records;
  records.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    ScanRecord record;
    record.ip = Ipv4(in.u32());
    record.cert = decode_certificate(in);
    records.push_back(std::move(record));
  }
  return records;
}

// --- latency matrices ---

void encode(ByteWriter& out, const LatencyMatrix& matrix) {
  out.u64(matrix.ips.size());
  for (const Ipv4 ip : matrix.ips) out.u32(ip.value());
  out.u64(matrix.server_indices.size());
  for (const std::size_t index : matrix.server_indices) out.u64(index);
  out.u64(matrix.vp_count);
  out.u64(matrix.rtt.size());
  for (const double rtt : matrix.rtt) out.f64(rtt);
}

LatencyMatrix decode_latency_matrix(ByteReader& in) {
  LatencyMatrix matrix;
  const std::uint64_t ips = checked_count(in.u64(), "matrix rows");
  matrix.ips.reserve(ips);
  for (std::uint64_t i = 0; i < ips; ++i) matrix.ips.push_back(Ipv4(in.u32()));
  const std::uint64_t servers = checked_count(in.u64(), "matrix servers");
  matrix.server_indices.reserve(servers);
  for (std::uint64_t i = 0; i < servers; ++i) {
    matrix.server_indices.push_back(in.u64());
  }
  matrix.vp_count = in.u64();
  const std::uint64_t cells = checked_count(in.u64(), "matrix cells");
  if (cells != ips * matrix.vp_count) {
    throw SerdeError("matrix shape mismatch: " + std::to_string(cells) +
                     " cells for " + std::to_string(ips) + "x" +
                     std::to_string(matrix.vp_count));
  }
  matrix.rtt.reserve(cells);
  for (std::uint64_t i = 0; i < cells; ++i) matrix.rtt.push_back(in.f64());
  return matrix;
}

// --- clusterings ---

void encode(ByteWriter& out, const IspClustering& clustering) {
  out.u32(clustering.isp);
  out.u8(clustering.usable ? 1 : 0);
  out.u64(clustering.registry_indices.size());
  for (const std::size_t index : clustering.registry_indices) out.u64(index);
  out.u64(clustering.labels.size());
  for (const int label : clustering.labels) out.i32(label);
  out.i32(clustering.cluster_count);
  out.u64(clustering.dropped_unresponsive);
  out.u64(clustering.dropped_impossible);
  out.u64(clustering.usable_sites);
}

IspClustering decode_clustering(ByteReader& in) {
  IspClustering clustering;
  clustering.isp = in.u32();
  clustering.usable = in.u8() != 0;
  const std::uint64_t indices = checked_count(in.u64(), "registry indices");
  clustering.registry_indices.reserve(indices);
  for (std::uint64_t i = 0; i < indices; ++i) {
    clustering.registry_indices.push_back(in.u64());
  }
  const std::uint64_t labels = checked_count(in.u64(), "cluster labels");
  clustering.labels.reserve(labels);
  for (std::uint64_t i = 0; i < labels; ++i) {
    clustering.labels.push_back(in.i32());
  }
  clustering.cluster_count = in.i32();
  clustering.dropped_unresponsive = in.u64();
  clustering.dropped_impossible = in.u64();
  clustering.usable_sites = in.u64();
  return clustering;
}

void encode(ByteWriter& out, const std::vector<IspClustering>& clusterings) {
  out.u64(clusterings.size());
  for (const IspClustering& clustering : clusterings) {
    encode(out, clustering);
  }
}

std::vector<IspClustering> decode_clusterings(ByteReader& in) {
  const std::uint64_t count = checked_count(in.u64(), "clusterings");
  std::vector<IspClustering> clusterings;
  clusterings.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    clusterings.push_back(decode_clustering(in));
  }
  return clusterings;
}

// --- stage health ---

void encode(ByteWriter& out, const fault::StageHealth& health) {
  out.u8(static_cast<std::uint8_t>(health.status));
  out.u64(health.dropped);
  out.u64(health.total);
  out.u32(static_cast<std::uint32_t>(health.reasons.size()));
  for (const std::string& reason : health.reasons) out.str(reason);
}

fault::StageHealth decode_stage_health(ByteReader& in) {
  fault::StageHealth health;
  const std::uint8_t status = in.u8();
  if (status > static_cast<std::uint8_t>(fault::StageStatus::kFailed)) {
    throw SerdeError("unknown stage status " + std::to_string(status));
  }
  health.status = static_cast<fault::StageStatus>(status);
  health.dropped = in.u64();
  health.total = in.u64();
  const std::uint64_t reasons = checked_count(in.u32(), "health reasons");
  health.reasons.reserve(reasons);
  for (std::uint64_t i = 0; i < reasons; ++i) {
    health.reasons.push_back(in.str());
  }
  return health;
}

}  // namespace repro::store
