#include "tls/certificate.h"

#include "util/strings.h"

namespace repro {

bool TlsCertificate::matches_name_glob(std::string_view name_pattern) const {
  if (glob_match(name_pattern, subject.common_name)) return true;
  for (const auto& san : san_dns) {
    if (glob_match(name_pattern, san)) return true;
  }
  return false;
}

bool TlsCertificate::has_exact_name(std::string_view name) const {
  if (iequals(subject.common_name, name)) return true;
  for (const auto& san : san_dns) {
    if (iequals(san, name)) return true;
  }
  return false;
}

}  // namespace repro
