// Simulation time: integer microsecond ticks.
//
// The PHY layer computes durations as double microseconds (`Us`); the
// discrete-event core uses integer ticks to guarantee total event ordering
// and exact time comparison.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

#include "util/units.h"

namespace whitefi {

/// Simulation timestamp / duration in integer microseconds.
using SimTime = std::int64_t;

inline constexpr SimTime kTicksPerMs = 1000;
inline constexpr SimTime kTicksPerSec = 1'000'000;

/// The longest time a scenario description may give, in ticks, ms and s:
/// half the SimTime range, so that a time plus a duration still fits.
inline constexpr SimTime kMaxDuration = std::numeric_limits<SimTime>::max() / 2;
inline constexpr SimTime kMaxDurationMs = kMaxDuration / kTicksPerMs;
inline constexpr double kMaxDurationS = kMaxDuration / kTicksPerSec;

/// Rounds a double-microsecond duration to ticks (at least 1 tick for any
/// strictly positive duration, so zero-length transmissions cannot occur).
inline SimTime ToTicks(Us us) {
  const auto t = static_cast<SimTime>(std::llround(us));
  return us > 0.0 && t == 0 ? SimTime{1} : t;
}

/// Converts ticks back to double microseconds.
inline Us ToUs(SimTime t) { return static_cast<Us>(t); }

/// Converts ticks to seconds.
inline double ToSeconds(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kTicksPerSec);
}

}  // namespace whitefi
