#include "scan/fingerprint.h"

#include "util/strings.h"

namespace repro {

namespace {

bool google_issuer(const TlsCertificate& cert) noexcept {
  return cert.issuer_organization == "Google Trust Services LLC";
}

bool match_google(const TlsCertificate& cert, Methodology methodology) noexcept {
  if (!google_issuer(cert)) return false;
  if (methodology == Methodology::k2021) {
    // Organization-based ownership inference.
    return cert.subject.organization == "Google LLC";
  }
  // 2023: the Organization entry is gone; use the CN field instead.
  return glob_match("*.googlevideo.com", cert.subject.common_name);
}

bool match_meta(const TlsCertificate& cert, Methodology methodology) noexcept {
  if (methodology == Methodology::k2021) {
    // Exact match against known onnet names.
    return cert.has_exact_name("*.fna.fbcdn.net") ||
           cert.has_exact_name("*.fbcdn.net");
  }
  // 2023: any name under fbcdn.net (site-specific offnet names included).
  // Note a case-insensitive suffix match on the registered domain, not a
  // one-label wildcard: the offnet names have several labels
  // (f<site>.fna.fbcdn.net).
  const auto name_ok = [](std::string_view name) {
    constexpr std::string_view kSuffix = ".fbcdn.net";
    return name.size() >= kSuffix.size() &&
           iequals(name.substr(name.size() - kSuffix.size()), kSuffix);
  };
  if (name_ok(cert.subject.common_name)) return true;
  for (const auto& san : cert.san_dns) {
    if (name_ok(san)) return true;
  }
  return false;
}

bool match_netflix(const TlsCertificate& cert) noexcept {
  return cert.subject.organization == "Netflix, Inc." &&
         cert.matches_name_glob("*.oca.nflxvideo.net");
}

bool match_akamai(const TlsCertificate& cert) noexcept {
  return cert.subject.organization == "Akamai Technologies, Inc.";
}

}  // namespace

std::string_view to_string(Methodology methodology) noexcept {
  return methodology == Methodology::k2021 ? "2021" : "2023";
}

bool certificate_matches(const TlsCertificate& cert, Hypergiant hg,
                         Methodology methodology) noexcept {
  switch (hg) {
    case Hypergiant::kGoogle: return match_google(cert, methodology);
    case Hypergiant::kNetflix: return match_netflix(cert);
    case Hypergiant::kMeta: return match_meta(cert, methodology);
    case Hypergiant::kAkamai: return match_akamai(cert);
  }
  return false;
}

}  // namespace repro
