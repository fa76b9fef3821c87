#include "scan/fingerprint.h"

#include <gtest/gtest.h>

#include <string_view>

#include "hypergiant/certs.h"

namespace repro {
namespace {

/// One offnet server's certificate template, drawn as the population
/// builder draws it.
TlsCertificate issue_offnet(Hypergiant hg, Snapshot snapshot,
                            std::string_view metro_iata, int site_ordinal,
                            Rng& rng) {
  const OffnetCertDraws draws = draw_offnet_certificate(hg, snapshot, rng);
  return offnet_certificate(hg, snapshot, metro_iata, site_ordinal,
                            draws.rack_ordinal);
}

/// Every (hypergiant certificate, methodology) combination: an offnet cert
/// of hypergiant X issued at snapshot S must match exactly the fingerprints
/// the paper's methodology says it matches.
struct MatchCase {
  Hypergiant cert_of;
  Snapshot snapshot;
  Methodology methodology;
  bool expected;
};

class FingerprintMatrix : public ::testing::TestWithParam<MatchCase> {};

TEST_P(FingerprintMatrix, OffnetCertDetection) {
  const MatchCase& c = GetParam();
  Rng rng(99);
  const TlsCertificate cert =
      issue_offnet(c.cert_of, c.snapshot, "nyc", 3, rng);
  EXPECT_EQ(certificate_matches(cert, c.cert_of, c.methodology), c.expected)
      << to_string(c.cert_of) << " snapshot " << to_string(c.snapshot)
      << " methodology " << to_string(c.methodology);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, FingerprintMatrix,
    ::testing::Values(
        // Google: org-based 2021 methodology works on 2021 certs only.
        MatchCase{Hypergiant::kGoogle, Snapshot::k2021, Methodology::k2021, true},
        MatchCase{Hypergiant::kGoogle, Snapshot::k2023, Methodology::k2021, false},
        MatchCase{Hypergiant::kGoogle, Snapshot::k2021, Methodology::k2023, true},
        MatchCase{Hypergiant::kGoogle, Snapshot::k2023, Methodology::k2023, true},
        // Meta: exact-name 2021 methodology misses 2023 site-specific names.
        MatchCase{Hypergiant::kMeta, Snapshot::k2021, Methodology::k2021, true},
        MatchCase{Hypergiant::kMeta, Snapshot::k2023, Methodology::k2021, false},
        MatchCase{Hypergiant::kMeta, Snapshot::k2021, Methodology::k2023, true},
        MatchCase{Hypergiant::kMeta, Snapshot::k2023, Methodology::k2023, true},
        // Netflix and Akamai: unchanged across methodologies.
        MatchCase{Hypergiant::kNetflix, Snapshot::k2021, Methodology::k2021, true},
        MatchCase{Hypergiant::kNetflix, Snapshot::k2023, Methodology::k2021, true},
        MatchCase{Hypergiant::kNetflix, Snapshot::k2023, Methodology::k2023, true},
        MatchCase{Hypergiant::kAkamai, Snapshot::k2021, Methodology::k2021, true},
        MatchCase{Hypergiant::kAkamai, Snapshot::k2023, Methodology::k2021, true},
        MatchCase{Hypergiant::kAkamai, Snapshot::k2023, Methodology::k2023, true}));

TEST(Fingerprint, NoCrossHypergiantMatches) {
  Rng rng(7);
  for (const Hypergiant owner : all_hypergiants()) {
    for (const Snapshot snapshot : {Snapshot::k2021, Snapshot::k2023}) {
      const TlsCertificate cert =
          issue_offnet(owner, snapshot, "lhr", 1, rng);
      for (const Hypergiant other : all_hypergiants()) {
        if (other == owner) continue;
        for (const Methodology methodology :
             {Methodology::k2021, Methodology::k2023}) {
          EXPECT_FALSE(certificate_matches(cert, other, methodology))
              << to_string(owner) << " cert matched " << to_string(other);
        }
      }
    }
  }
}

TEST(Fingerprint, DecoysRejected) {
  // Lookalike certificates with hypergiant-ish strings must not match.
  TlsCertificate decoy;
  decoy.subject.common_name = "cache.googlevideo.com.cdn-mirror.example";
  decoy.subject.organization = "Totally Not Google Ltd";
  decoy.issuer_organization = "Let's Encrypt";
  decoy.san_dns = {decoy.subject.common_name};
  for (const Methodology m : {Methodology::k2021, Methodology::k2023}) {
    EXPECT_FALSE(certificate_matches(decoy, Hypergiant::kGoogle, m));
  }

  decoy.subject.common_name = "*.fbcdn.net.phish.example";
  decoy.subject.organization = "";
  decoy.san_dns = {decoy.subject.common_name};
  for (const Methodology m : {Methodology::k2021, Methodology::k2023}) {
    EXPECT_FALSE(certificate_matches(decoy, Hypergiant::kMeta, m));
  }

  decoy.subject.common_name = "*.akamaized.example.org";
  decoy.subject.organization = "Akamai Technologies";  // missing ", Inc."
  decoy.san_dns = {decoy.subject.common_name};
  for (const Methodology m : {Methodology::k2021, Methodology::k2023}) {
    EXPECT_FALSE(certificate_matches(decoy, Hypergiant::kAkamai, m));
  }
}

TEST(Fingerprint, GoogleRequiresGoogleIssuer) {
  // Right names, wrong CA: a forged googlevideo cert must not match.
  TlsCertificate forged;
  forged.subject.common_name = "*.googlevideo.com";
  forged.subject.organization = "Google LLC";
  forged.issuer_organization = "Let's Encrypt";
  forged.san_dns = {"*.googlevideo.com"};
  EXPECT_FALSE(certificate_matches(forged, Hypergiant::kGoogle, Methodology::k2021));
  EXPECT_FALSE(certificate_matches(forged, Hypergiant::kGoogle, Methodology::k2023));
}

TEST(Fingerprint, OnnetCertsAlsoMatch) {
  // Onnet certs match fingerprints too -- exclusion happens via IP-to-AS,
  // not via the certificate itself.
  const TlsCertificate onnet =
      onnet_certificate(Hypergiant::kGoogle, Snapshot::k2023);
  EXPECT_TRUE(certificate_matches(onnet, Hypergiant::kGoogle, Methodology::k2023));
}

}  // namespace
}  // namespace repro
