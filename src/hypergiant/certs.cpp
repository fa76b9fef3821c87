#include "hypergiant/certs.h"

#include <string>

#include "util/error.h"

namespace repro {

namespace {

TlsCertificate base_cert(int snapshot_year_value) {
  TlsCertificate cert;
  cert.not_before_year = snapshot_year_value - 1;
  cert.not_after_year = snapshot_year_value + 1;
  return cert;
}

}  // namespace

std::string meta_site_name(std::string_view metro_iata, int site_ordinal,
                           int rack_ordinal) {
  return "*.f" + std::string(metro_iata) + std::to_string(site_ordinal) + "-" +
         std::to_string(rack_ordinal) + ".fna.fbcdn.net";
}

OffnetCertDraws draw_offnet_certificate(Hypergiant hg, Snapshot snapshot,
                                        Rng& rng) {
  OffnetCertDraws draws;
  draws.serial = rng.next();
  if (hg == Hypergiant::kMeta && snapshot == Snapshot::k2023) {
    draws.rack_ordinal = 1 + static_cast<int>(rng.uniform_int(1, 6));
  }
  return draws;
}

TlsCertificate offnet_certificate(Hypergiant hg, Snapshot snapshot,
                                  std::string_view metro_iata,
                                  int site_ordinal, int rack_ordinal) {
  TlsCertificate cert = base_cert(snapshot_year(snapshot));
  switch (hg) {
    case Hypergiant::kGoogle:
      cert.subject.common_name = "*.googlevideo.com";
      cert.san_dns = {"*.googlevideo.com", "*.gvt1.com"};
      // 2021: Organization present ("Google LLC"); 2023: removed.
      cert.subject.organization =
          snapshot == Snapshot::k2021 ? "Google LLC" : "";
      cert.issuer_organization = "Google Trust Services LLC";
      return cert;
    case Hypergiant::kNetflix:
      // Open Connect appliances; convention unchanged across snapshots.
      cert.subject.common_name = "*.oca.nflxvideo.net";
      cert.san_dns = {"*.oca.nflxvideo.net"};
      cert.subject.organization = "Netflix, Inc.";
      cert.issuer_organization = "DigiCert Inc";
      return cert;
    case Hypergiant::kMeta: {
      // 2021: offnets carried the same wildcard as onnet caches.
      // 2023: site-specific names (e.g. *.fhan14-4.fna.fbcdn.net).
      if (snapshot == Snapshot::k2021) {
        cert.subject.common_name = "*.fna.fbcdn.net";
        cert.san_dns = {"*.fna.fbcdn.net"};
      } else {
        const std::string name =
            meta_site_name(metro_iata, 10 + site_ordinal, rack_ordinal);
        cert.subject.common_name = name;
        cert.san_dns = {name};
      }
      cert.subject.organization =
          snapshot == Snapshot::k2021 ? "Facebook, Inc." : "Meta Platforms, Inc.";
      cert.issuer_organization = "DigiCert Inc";
      return cert;
    }
    case Hypergiant::kAkamai:
      cert.subject.common_name = "a248.e.akamai.net";
      cert.san_dns = {"a248.e.akamai.net", "*.akamaized.net",
                      "*.akamaihd.net"};
      cert.subject.organization = "Akamai Technologies, Inc.";
      cert.issuer_organization = "GlobalSign nv-sa";
      return cert;
  }
  throw Error("offnet_certificate: bad hypergiant");
}

TlsCertificate onnet_certificate(Hypergiant hg, Snapshot snapshot) {
  TlsCertificate cert = base_cert(snapshot_year(snapshot));
  switch (hg) {
    case Hypergiant::kGoogle:
      // Onnet video caches also present googlevideo names; the classifier
      // excludes them via IP-to-AS, not via the certificate.
      cert.subject.common_name = "*.googlevideo.com";
      cert.san_dns = {"*.google.com", "*.googlevideo.com", "*.youtube.com"};
      cert.subject.organization =
          snapshot == Snapshot::k2021 ? "Google LLC" : "";
      cert.issuer_organization = "Google Trust Services LLC";
      return cert;
    case Hypergiant::kNetflix:
      cert.subject.common_name = "*.nflxvideo.net";
      cert.san_dns = {"*.nflxvideo.net", "*.netflix.com"};
      cert.subject.organization = "Netflix, Inc.";
      cert.issuer_organization = "DigiCert Inc";
      return cert;
    case Hypergiant::kMeta:
      // Onnet caches keep the non-site-specific wildcard.
      cert.subject.common_name = "*.fna.fbcdn.net";
      cert.san_dns = {"*.fna.fbcdn.net", "*.facebook.com", "*.fbcdn.net"};
      cert.subject.organization =
          snapshot == Snapshot::k2021 ? "Facebook, Inc." : "Meta Platforms, Inc.";
      cert.issuer_organization = "DigiCert Inc";
      return cert;
    case Hypergiant::kAkamai:
      cert.subject.common_name = "a248.e.akamai.net";
      cert.san_dns = {"a248.e.akamai.net", "*.akamaiedge.net"};
      cert.subject.organization = "Akamai Technologies, Inc.";
      cert.issuer_organization = "GlobalSign nv-sa";
      return cert;
  }
  throw Error("onnet_certificate: bad hypergiant");
}

}  // namespace repro
