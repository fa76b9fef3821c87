#include "tls/certificate.h"

#include <limits>

#include "util/error.h"
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

CertInterner::CertInterner(std::vector<TlsCertificate>& table) : table_(table) {
  for (std::size_t id = 0; id < table_.size(); ++id) {
    ids_.emplace(table_[id], static_cast<std::uint32_t>(id));
  }
}

std::uint32_t CertInterner::intern(TlsCertificate cert) {
  const auto [it, inserted] = ids_.try_emplace(
      cert, static_cast<std::uint32_t>(table_.size()));
  if (inserted) {
    require(table_.size() < std::numeric_limits<std::uint32_t>::max(),
            "CertInterner: certificate table full");
    table_.push_back(std::move(cert));
  }
  return it->second;
}

}  // namespace repro
