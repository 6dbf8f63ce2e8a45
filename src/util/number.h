// The one number parser: flags (bench/flags.h), scenario descriptions
// (util/config.h) and traces read every number through ParseValue.
#pragma once

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace whitefi {

/// Parses all of `text` as a finite T into `value`, which only success
/// writes.  Fails with std::errc::invalid_argument on text that is not a
/// number of T's kind (anything around the number, a '+' sign included,
/// or a fraction for an integer T); result_out_of_range on a number T
/// cannot represent; argument_out_of_domain on one T cannot be (not
/// finite, or negative for an unsigned T).
template <typename T>
std::errc ParseValue(std::string_view text, T& value) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  const bool negative_unsigned = std::is_unsigned_v<T> && text.starts_with('-');
  if (negative_unsigned) text.remove_prefix(1);
  T parsed{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, parsed);
  if (error == std::errc::invalid_argument || stop != end) {
    return std::errc::invalid_argument;
  }
  if (negative_unsigned) return std::errc::argument_out_of_domain;
  if (error != std::errc()) return error;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(parsed)) return std::errc::argument_out_of_domain;
  }
  value = parsed;
  return std::errc();
}

}  // namespace whitefi
