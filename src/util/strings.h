// Small string utilities: case conversion, splitting, joining, glob-style
// wildcard matching (for certificate name patterns), and numeric formatting.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace repro {

/// ASCII lowercase copy.
std::string to_lower(std::string_view input);

/// True if `a` and `b` are equal ignoring ASCII case: to_lower(a) ==
/// to_lower(b), without the copies.
bool iequals(std::string_view a, std::string_view b) noexcept;

/// True if `text` starts with / ends with `affix` (ASCII, case-sensitive).
bool starts_with(std::string_view text, std::string_view prefix) noexcept;
bool ends_with(std::string_view text, std::string_view suffix) noexcept;

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> split(std::string_view text, char delimiter);

/// Joins strings with a separator.
std::string join(std::span<const std::string> parts, std::string_view separator);

/// Glob match with '*' (any run, including empty) and '?' (any one char).
/// Case-insensitive, because DNS names are. Used for certificate-name
/// patterns like "*.fbcdn.net" and "*.googlevideo.com".
bool glob_match(std::string_view pattern, std::string_view text) noexcept;

/// True if `name` matches `pattern` under TLS wildcard rules: a leading
/// "*." matches exactly one additional label ("*.x.com" matches "a.x.com"
/// but not "a.b.x.com" or "x.com"); otherwise requires case-insensitive
/// equality.
bool tls_name_match(std::string_view pattern, std::string_view name) noexcept;

/// "12345" -> "12,345" (thousands separators, for table output).
std::string with_commas(long long value);

/// Fixed-decimal formatting, e.g. format_fixed(3.14159, 2) == "3.14".
std::string format_fixed(double value, int decimals);

/// Percentage with `decimals` digits, e.g. format_percent(0.3821, 1) == "38.2%".
std::string format_percent(double fraction, int decimals = 1);

}  // namespace repro
