// A simplified X.509 end-entity certificate: exactly the fields the offnet
// discovery methodology inspects (Subject CN/Organization, SAN dNSNames,
// Issuer Organization), plus the validity years that the cert-churn fault
// rewrites. Certificates are templates: every offnet of one hypergiant and
// snapshot (or one Meta site and rack, or one background AS) presents the
// same names, so a snapshot's TLS population and the scan records drawn
// from it are both a TlsEndpoints: one certificate table holding each
// distinct template once, plus IP-sorted (ip, cert id, serial) endpoints
// that index it. The serial is the only per-server field, and no
// fingerprint rule reads it.
#pragma once

#include <compare>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "ip/ipv4.h"

namespace repro {

/// The subject distinguished-name fields discovery reads.
struct DistinguishedName {
  std::string common_name;    // CN
  std::string organization;   // O (may be empty; Google dropped it in 2023)

  auto operator<=>(const DistinguishedName&) const = default;
};

/// An end-entity certificate template as seen by an Internet-wide scanner.
struct TlsCertificate {
  DistinguishedName subject;
  std::string issuer_organization;   // Issuer O
  std::vector<std::string> san_dns;  // subjectAltName dNSName entries
  int not_before_year = 2020;
  int not_after_year = 2025;

  /// True if `name_pattern` (glob, e.g. "*.fbcdn.net") matches the subject
  /// CN or any SAN entry.
  bool matches_name_glob(std::string_view name_pattern) const;

  /// True if the subject CN or any SAN entry equals `name` under TLS
  /// wildcard comparison rules (used by the 2021 exact-onnet-name check).
  bool has_exact_name(std::string_view name) const;

  auto operator<=>(const TlsCertificate&) const = default;
};

/// One IP:443 endpoint: the certificate it serves, as an id into its
/// TlsEndpoints' table, and that certificate's serial.
struct TlsEndpoint {
  Ipv4 ip;
  std::uint32_t cert = 0;
  std::uint64_t serial = 0;

  bool operator==(const TlsEndpoint&) const = default;
};

/// A snapshot's endpoints in ascending IP order and the certificate table
/// they index. The table may hold entries no endpoint references (a scan
/// keeps its population's table whole).
struct TlsEndpoints {
  std::vector<TlsCertificate> certs;
  std::vector<TlsEndpoint> endpoints;

  /// The endpoint count.
  std::size_t size() const noexcept { return endpoints.size(); }
  bool empty() const noexcept { return endpoints.empty(); }

  const TlsCertificate& cert_of(const TlsEndpoint& endpoint) const {
    return certs[endpoint.cert];
  }

  bool operator==(const TlsEndpoints&) const = default;
};

/// Appends certificates to a table, each distinct one once: intern returns
/// the id of an equal entry when the table already holds one.
class CertInterner {
 public:
  /// Indexes `table`'s existing (distinct) entries; new ones are appended
  /// to it. `table` must outlive the interner.
  explicit CertInterner(std::vector<TlsCertificate>& table);

  std::uint32_t intern(TlsCertificate cert);

 private:
  std::vector<TlsCertificate>& table_;
  std::map<TlsCertificate, std::uint32_t> ids_;
};

}  // namespace repro
