// Strict number parsing for configuration text and command lines.
//
// A value parses only when the whole text is a number in range: no sign,
// no blanks, no trailing characters.  `12abc`, `/24x` and an empty string
// are errors, never a silently truncated 12, 24 or 0.  The *_or_exit forms
// are for command-line tools: bad input ends the program with exit status
// 2 and a message naming the argument.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string_view>

namespace nestv::sim {

inline constexpr std::uint64_t kNoLimit =
    std::numeric_limits<std::uint64_t>::max();

/// Parses all of `text` as an unsigned decimal integer no larger than `max`.
inline std::optional<std::uint64_t> parse_uint(std::string_view text,
                                               std::uint64_t max = kNoLimit) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc{} || ptr != end || v > max) {
    return std::nullopt;
  }
  return v;
}

/// Parses all of `text` as a finite, non-negative decimal number.
inline std::optional<double> parse_nonneg_double(std::string_view text) {
  double v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] =
      std::from_chars(text.data(), end, v, std::chars_format::fixed);
  if (text.empty() || ec != std::errc{} || ptr != end || !std::isfinite(v) ||
      v < 0) {
    return std::nullopt;
  }
  return v;
}

/// Command-line form of parse_uint(): exits 2 with a message on bad input.
inline std::uint64_t parse_uint_or_exit(std::string_view text,
                                        const char* what,
                                        std::uint64_t max = kNoLimit) {
  if (const auto v = parse_uint(text, max)) return *v;
  std::fprintf(stderr, "error: %s must be an unsigned integer", what);
  if (max != kNoLimit) {
    std::fprintf(stderr, " <= %llu", static_cast<unsigned long long>(max));
  }
  std::fprintf(stderr, ", got '%.*s'\n", static_cast<int>(text.size()),
               text.data());
  std::exit(2);
}

/// Command-line form of parse_nonneg_double(): exits 2 on bad input.
inline double parse_nonneg_double_or_exit(std::string_view text,
                                          const char* what) {
  if (const auto v = parse_nonneg_double(text)) return *v;
  std::fprintf(stderr, "error: %s must be a non-negative number, got '%.*s'\n",
               what, static_cast<int>(text.size()), text.data());
  std::exit(2);
}

}  // namespace nestv::sim
