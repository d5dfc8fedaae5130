// Strict numeric flag parsing shared by the command-line tools.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <system_error>

/// Parse the whole token as a number; a malformed or partly consumed
/// token ("O.95", "5k", "") is a usage error naming the flag and token,
/// never a silent zero or a truncated value. Exits 2 on a bad token.
template <typename T>
T parse_number(const char* argv0, const char* flag, std::string_view token) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, error] = std::from_chars(token.data(), end, value);
  if (error != std::errc{} || ptr != end) {
    std::fprintf(stderr, "%s: %s: malformed number '%.*s'\n", argv0, flag,
                 static_cast<int>(token.size()), token.data());
    std::exit(2);
  }
  return value;
}
