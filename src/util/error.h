// Error types shared across the reproduction library.
#pragma once

#include <stdexcept>
#include <string>

namespace repro {

/// Base exception for all library errors. Thrown on contract violations
/// (bad arguments, malformed inputs) and impossible internal states.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when an input string (IP address, prefix, hostname pattern, ...)
/// cannot be parsed.
class ParseError : public Error {
 public:
  explicit ParseError(const std::string& what) : Error("parse error: " + what) {}
};

/// Thrown when a lookup misses (unknown ASN, unknown country code, ...).
class NotFoundError : public Error {
 public:
  explicit NotFoundError(const std::string& what) : Error("not found: " + what) {}
};

/// Throws repro::Error with `what` if `condition` is false.
/// Used to check preconditions on public API entry points.
void require(bool condition, const std::string& what);

/// Throws repro::Error with `what`; the cold path of the literal require.
[[noreturn]] void fail_requirement(const char* what);

/// require for a literal message: inline, and builds no string unless the
/// check fails (hot loops call it millions of times).
inline void require(bool condition, const char* what) {
  if (!condition) [[unlikely]] fail_requirement(what);
}

}  // namespace repro
