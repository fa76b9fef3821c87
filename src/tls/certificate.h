// A simplified X.509 end-entity certificate: exactly the fields the offnet
// discovery methodology inspects (Subject CN/Organization, SAN dNSNames,
// Issuer Organization), plus the validity years and serial that the
// cert-churn fault rewrites. A TlsEndpoint pairs one with the IP that serves
// it: a snapshot's TLS population and the scan records drawn from it are
// both IP-sorted vectors of endpoints.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ip/ipv4.h"

namespace repro {

/// The subject distinguished-name fields discovery reads.
struct DistinguishedName {
  std::string common_name;    // CN
  std::string organization;   // O (may be empty; Google dropped it in 2023)

  bool operator==(const DistinguishedName&) const = default;
};

/// An end-entity TLS certificate as seen by an Internet-wide scanner.
struct TlsCertificate {
  DistinguishedName subject;
  std::string issuer_organization;   // Issuer O
  std::vector<std::string> san_dns;  // subjectAltName dNSName entries
  int not_before_year = 2020;
  int not_after_year = 2025;
  std::uint64_t serial = 0;

  /// True if `name_pattern` (glob, e.g. "*.fbcdn.net") matches the subject
  /// CN or any SAN entry.
  bool matches_name_glob(std::string_view name_pattern) const;

  /// True if the subject CN or any SAN entry equals `name` under TLS
  /// wildcard comparison rules (used by the 2021 exact-onnet-name check).
  bool has_exact_name(std::string_view name) const;

  bool operator==(const TlsCertificate&) const = default;
};

/// One IP:443 endpoint and the certificate it serves.
struct TlsEndpoint {
  Ipv4 ip;
  TlsCertificate cert;

  bool operator==(const TlsEndpoint&) const = default;
};

}  // namespace repro
