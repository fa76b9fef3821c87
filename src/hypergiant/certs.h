// Per-hypergiant TLS certificate conventions, including the 2021 -> 2023
// changes that broke the original discovery methodology (Section 2.2):
//   * Google removed the Organization entry from the Subject Name; offnets
//     are identified by CN matching *.googlevideo.com in 2023.
//   * Meta switched to site-specific names (*.fhan14-4.fna.fbcdn.net style)
//     so exact onnet-name matching no longer works; the 2023 methodology
//     matches the *.fbcdn.net pattern.
//   * Netflix (*.oca.nflxvideo.net) and Akamai (Organization-based) kept
//     their conventions.
//
// Issuing one server's certificate is split in two: its random draws (the
// serial, and Meta's 2023 rack) and its template (the names and validity
// every server of that kind shares). The population builder draws per
// server but builds each template once.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "hypergiant/profile.h"
#include "tls/certificate.h"
#include "util/rng.h"

namespace repro {

/// One offnet server's certificate draws, in RNG stream order.
struct OffnetCertDraws {
  std::uint64_t serial = 0;
  /// The rack in Meta's 2023 site-specific name; 0 for every other
  /// template, which then depends on the hypergiant and snapshot alone.
  int rack_ordinal = 0;
};

/// Draws what one *offnet* server of `hg` at `snapshot` needs beyond its
/// template: the serial, then (Meta 2023 only) the rack.
OffnetCertDraws draw_offnet_certificate(Hypergiant hg, Snapshot snapshot,
                                        Rng& rng);

/// The certificate template an *offnet* server of `hg` serves at
/// `snapshot`. `metro_iata`, `site_ordinal` and `rack_ordinal` (from
/// draw_offnet_certificate) name Meta's 2023 sites and are ignored
/// otherwise.
TlsCertificate offnet_certificate(Hypergiant hg, Snapshot snapshot,
                                  std::string_view metro_iata,
                                  int site_ordinal, int rack_ordinal);

/// The certificate template an *onnet* server of `hg` (inside the
/// hypergiant's own AS) serves at `snapshot`; each server draws only its
/// serial.
TlsCertificate onnet_certificate(Hypergiant hg, Snapshot snapshot);

/// Meta's site-specific offnet name for a metro/site, e.g.
/// "*.fhan14-4.fna.fbcdn.net" for Hanoi site 14-4.
std::string meta_site_name(std::string_view metro_iata, int site_ordinal,
                           int rack_ordinal);

}  // namespace repro
