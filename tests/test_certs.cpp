#include "hypergiant/certs.h"

#include <gtest/gtest.h>

#include <string_view>

#include "util/strings.h"

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

TEST(GoogleCerts, OrganizationDroppedIn2023) {
  Rng rng(1);
  const TlsCertificate cert_2021 =
      issue_offnet(Hypergiant::kGoogle, Snapshot::k2021, "nyc", 0, rng);
  const TlsCertificate cert_2023 =
      issue_offnet(Hypergiant::kGoogle, Snapshot::k2023, "nyc", 0, rng);
  EXPECT_EQ(cert_2021.subject.organization, "Google LLC");
  EXPECT_TRUE(cert_2023.subject.organization.empty());
  // The CN remains googlevideo in both eras (the 2023 methodology's anchor).
  EXPECT_TRUE(glob_match("*.googlevideo.com", cert_2023.subject.common_name));
  EXPECT_EQ(cert_2023.issuer_organization, "Google Trust Services LLC");
}

TEST(MetaCerts, SiteSpecificNamesIn2023) {
  Rng rng(2);
  const TlsCertificate cert_2021 =
      issue_offnet(Hypergiant::kMeta, Snapshot::k2021, "han", 4, rng);
  const TlsCertificate cert_2023 =
      issue_offnet(Hypergiant::kMeta, Snapshot::k2023, "han", 4, rng);
  EXPECT_EQ(cert_2021.subject.common_name, "*.fna.fbcdn.net");
  EXPECT_NE(cert_2023.subject.common_name, "*.fna.fbcdn.net");
  // Site names look like *.fhan14-4.fna.fbcdn.net: metro code embedded.
  EXPECT_NE(cert_2023.subject.common_name.find("fhan"), std::string::npos);
  EXPECT_TRUE(ends_with(cert_2023.subject.common_name, ".fna.fbcdn.net"));
}

TEST(MetaSiteName, Format) {
  EXPECT_EQ(meta_site_name("han", 14, 4), "*.fhan14-4.fna.fbcdn.net");
  EXPECT_EQ(meta_site_name("bhx", 2, 2), "*.fbhx2-2.fna.fbcdn.net");
}

TEST(NetflixCerts, ConventionStableAcrossSnapshots) {
  Rng rng(3);
  for (const Snapshot snapshot : {Snapshot::k2021, Snapshot::k2023}) {
    const TlsCertificate cert =
        issue_offnet(Hypergiant::kNetflix, snapshot, "ams", 0, rng);
    EXPECT_EQ(cert.subject.common_name, "*.oca.nflxvideo.net");
    EXPECT_EQ(cert.subject.organization, "Netflix, Inc.");
  }
}

TEST(AkamaiCerts, OrganizationAnchored) {
  Rng rng(4);
  const TlsCertificate cert =
      issue_offnet(Hypergiant::kAkamai, Snapshot::k2023, "fra", 0, rng);
  EXPECT_EQ(cert.subject.organization, "Akamai Technologies, Inc.");
}

TEST(OnnetCerts, DifferFromOffnetForMeta2023) {
  Rng rng(5);
  const TlsCertificate onnet =
      onnet_certificate(Hypergiant::kMeta, Snapshot::k2023);
  const TlsCertificate offnet =
      issue_offnet(Hypergiant::kMeta, Snapshot::k2023, "han", 1, rng);
  EXPECT_EQ(onnet.subject.common_name, "*.fna.fbcdn.net");
  EXPECT_NE(onnet.subject.common_name, offnet.subject.common_name);
}

TEST(OnnetCerts, GoogleOrgFollowsEra) {
  EXPECT_EQ(onnet_certificate(Hypergiant::kGoogle, Snapshot::k2021)
                .subject.organization,
            "Google LLC");
  EXPECT_TRUE(onnet_certificate(Hypergiant::kGoogle, Snapshot::k2023)
                  .subject.organization.empty());
}

TEST(Certs, ValidityCoversSnapshotYear) {
  Rng rng(7);
  for (const Hypergiant hg : all_hypergiants()) {
    for (const Snapshot snapshot : {Snapshot::k2021, Snapshot::k2023}) {
      const TlsCertificate cert =
          issue_offnet(hg, snapshot, "nyc", 0, rng);
      EXPECT_LE(cert.not_before_year, snapshot_year(snapshot));
      EXPECT_GE(cert.not_after_year, snapshot_year(snapshot));
    }
  }
}

TEST(Certs, SerialsVary) {
  // Two servers of one template share its names but not their serials.
  Rng rng(8);
  const auto a = draw_offnet_certificate(Hypergiant::kGoogle, Snapshot::k2023, rng);
  const auto b = draw_offnet_certificate(Hypergiant::kGoogle, Snapshot::k2023, rng);
  EXPECT_NE(a.serial, b.serial);
}

}  // namespace
}  // namespace repro
