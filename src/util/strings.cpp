#include "util/strings.h"

#include <cctype>
#include <cstdio>

namespace repro {

namespace {

char lower_char(char c) noexcept {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}

}  // namespace

std::string to_lower(std::string_view input) {
  std::string out;
  out.reserve(input.size());
  for (const char c : input) out.push_back(lower_char(c));
  return out;
}

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (lower_char(a[i]) != lower_char(b[i])) return false;
  }
  return true;
}

bool starts_with(std::string_view text, std::string_view prefix) noexcept {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) noexcept {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::vector<std::string> split(std::string_view text, char delimiter) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(delimiter, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string join(std::span<const std::string> parts, std::string_view separator) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += separator;
    out += parts[i];
  }
  return out;
}

bool glob_match(std::string_view pattern, std::string_view text) noexcept {
  // Iterative wildcard matcher with backtracking over the last '*'.
  std::size_t p = 0;
  std::size_t t = 0;
  std::size_t star = std::string_view::npos;
  std::size_t star_text = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || lower_char(pattern[p]) == lower_char(text[t]))) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_text = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++star_text;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

bool tls_name_match(std::string_view pattern, std::string_view name) noexcept {
  if (starts_with(pattern, "*.")) {
    const std::string_view base = pattern.substr(2);
    const std::size_t dot = name.find('.');
    if (dot == std::string_view::npos || dot == 0) return false;
    const std::string_view rest = name.substr(dot + 1);
    return iequals(rest, base);
  }
  return iequals(pattern, name);
}

std::string with_commas(long long value) {
  const bool negative = value < 0;
  std::string digits = std::to_string(negative ? -value : value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3 + 1);
  int since_group = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (since_group == 3) {
      out.push_back(',');
      since_group = 0;
    }
    out.push_back(*it);
    ++since_group;
  }
  if (negative) out.push_back('-');
  return {out.rbegin(), out.rend()};
}

std::string format_fixed(double value, int decimals) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  return buffer;
}

std::string format_percent(double fraction, int decimals) {
  return format_fixed(fraction * 100.0, decimals) + "%";
}

}  // namespace repro
