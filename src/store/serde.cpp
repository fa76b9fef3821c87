#include "store/serde.h"

#include <bit>
#include <limits>
#include <utility>

namespace repro::store {

namespace {

/// Decode-side sanity cap on element counts: a corrupted length prefix must
/// not turn into a multi-gigabyte allocation before the checksum mismatch
/// is noticed. Generous: the paper-scale scans hold 274,129 and 293,185
/// records over 7,378 and 9,988 distinct certificates.
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
  return mix_bytes(value.data(), value.size());
}

Fnv1a& Fnv1a::mix_bytes(const void* data, std::size_t size) noexcept {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state_ ^= bytes[i];
    state_ *= 0x100000001b3ULL;  // FNV prime
  }
  return *this;
}

// --- TlsCertificate ---

void encode(ByteWriter& out, const TlsCertificate& cert) {
  out.str(cert.subject.common_name);
  out.str(cert.subject.organization);
  out.str(cert.issuer_organization);
  out.u32(static_cast<std::uint32_t>(cert.san_dns.size()));
  for (const std::string& san : cert.san_dns) out.str(san);
  out.i32(cert.not_before_year);
  out.i32(cert.not_after_year);
}

TlsCertificate decode_certificate(ByteReader& in) {
  TlsCertificate cert;
  cert.subject.common_name = in.str();
  cert.subject.organization = in.str();
  cert.issuer_organization = in.str();
  const std::uint64_t sans = checked_count(in.u32(), "certificate SANs");
  for (std::uint64_t i = 0; i < sans; ++i) cert.san_dns.push_back(in.str());
  cert.not_before_year = in.i32();
  cert.not_after_year = in.i32();
  return cert;
}

// --- scan records ---

void encode(ByteWriter& out, const TlsEndpoints& records) {
  out.u64(records.certs.size());
  for (const TlsCertificate& cert : records.certs) encode(out, cert);
  out.u64(records.endpoints.size());
  for (const TlsEndpoint& record : records.endpoints) out.u32(record.ip.value());
  for (const TlsEndpoint& record : records.endpoints) out.u32(record.cert);
  for (const TlsEndpoint& record : records.endpoints) out.u64(record.serial);
}

TlsEndpoints decode_scan_records(ByteReader& in) {
  TlsEndpoints records;
  const std::uint64_t certs = checked_count(in.u64(), "scan certificates");
  for (std::uint64_t i = 0; i < certs; ++i) {
    records.certs.push_back(decode_certificate(in));
  }
  const std::uint64_t count = checked_count(in.u64(), "scan records");
  // Each record is 16 bytes of columns: check they are there before
  // allocating them.
  if (in.remaining() / 16 < count) {
    throw SerdeError("truncated input: " + std::to_string(count) +
                     " scan records need " + std::to_string(count * 16) +
                     " bytes, have " + std::to_string(in.remaining()));
  }
  records.endpoints.resize(count);
  for (TlsEndpoint& record : records.endpoints) record.ip = Ipv4(in.u32());
  for (TlsEndpoint& record : records.endpoints) {
    record.cert = in.u32();
    if (record.cert >= certs) {
      throw SerdeError("scan record cert id " + std::to_string(record.cert) +
                       " outside a table of " + std::to_string(certs));
    }
  }
  for (TlsEndpoint& record : records.endpoints) record.serial = in.u64();
  return records;
}

// --- OPTICS plots ---

namespace {

void encode_indices(ByteWriter& out, const std::vector<std::size_t>& values) {
  out.u64(values.size());
  for (const std::size_t value : values) out.u64(value);
}

std::vector<std::size_t> decode_indices(ByteReader& in, const char* what) {
  const std::uint64_t count = checked_count(in.u64(), what);
  std::vector<std::size_t> values;
  values.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) values.push_back(in.u64());
  return values;
}

/// Rejects a plot whose arrays could not have come from OPTICS, so an
/// inconsistent payload that passed the checksum never reaches extraction
/// or colocation_of's unchecked indexing.
void validate(const IspPlot& plot) {
  const std::size_t n = plot.ordering.size();
  if (plot.registry_indices.size() != n || plot.reachability.size() != n) {
    throw SerdeError("plot shape mismatch: " + std::to_string(n) +
                     " ordered points, " +
                     std::to_string(plot.registry_indices.size()) +
                     " registry indices, " +
                     std::to_string(plot.reachability.size()) +
                     " reachabilities");
  }
  if (!plot.usable && n > 0) {
    throw SerdeError("unusable ISP plot carries " + std::to_string(n) +
                     " points");
  }
  std::vector<bool> seen(n, false);
  for (const std::size_t position : plot.ordering) {
    if (position >= n || seen[position]) {
      throw SerdeError("plot ordering is not a permutation of [0, " +
                       std::to_string(n) + ")");
    }
    seen[position] = true;
  }
}

}  // namespace

void encode(ByteWriter& out, const IspPlot& plot) {
  out.u32(plot.isp);
  out.u8(plot.usable ? 1 : 0);
  encode_indices(out, plot.registry_indices);
  out.u64(plot.dropped_unresponsive);
  out.u64(plot.dropped_impossible);
  out.u64(plot.usable_sites);
  encode_indices(out, plot.ordering);
  out.u64(plot.reachability.size());
  for (const double reachability : plot.reachability) out.f64(reachability);
}

IspPlot decode_plot(ByteReader& in) {
  IspPlot plot;
  plot.isp = in.u32();
  plot.usable = in.u8() != 0;
  plot.registry_indices = decode_indices(in, "registry indices");
  plot.dropped_unresponsive = in.u64();
  plot.dropped_impossible = in.u64();
  plot.usable_sites = in.u64();
  plot.ordering = decode_indices(in, "plot ordering");
  const std::uint64_t count = checked_count(in.u64(), "plot reachability");
  plot.reachability.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    plot.reachability.push_back(in.f64());
  }
  validate(plot);
  return plot;
}

void encode(ByteWriter& out, const std::vector<IspPlot>& plots) {
  out.u64(plots.size());
  for (const IspPlot& plot : plots) encode(out, plot);
}

std::vector<IspPlot> decode_plots(ByteReader& in) {
  const std::uint64_t count = checked_count(in.u64(), "plots");
  std::vector<IspPlot> plots;
  plots.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) plots.push_back(decode_plot(in));
  return plots;
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
