#include "util/log.h"

#include <iomanip>
#include <iostream>
#include <sstream>

namespace whitefi {
namespace {

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
  }
  return "?????";
}

// The simulated clock bound to this thread (see ScopedLogClock), or null.
thread_local const std::int64_t* t_clock_us = nullptr;

}  // namespace

void SetLogLevel(LogLevel level) {
  internal::g_log_level.store(static_cast<int>(level),
                              std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(
      internal::g_log_level.load(std::memory_order_relaxed));
}

ScopedLogClock::ScopedLogClock(const std::int64_t* now_us)
    : previous_(t_clock_us) {
  t_clock_us = now_us;
}

ScopedLogClock::~ScopedLogClock() { t_clock_us = previous_; }

void LogLine(LogLevel level, const std::string& tag,
             const std::string& message) {
  if (!LogEnabled(level)) return;
  // Formatted off to the side and written with one unformatted call:
  // threads that log at once share std::cerr, so none may touch its
  // format state (flags, precision, or the width that `<<` resets).
  std::ostringstream line;
  line << "[" << LevelName(level);
  if (t_clock_us != nullptr) {
    // Microseconds to seconds exactly as ToSeconds (sim/time.h) does.
    line << " " << std::fixed << std::setprecision(6)
         << static_cast<double>(*t_clock_us) / 1e6 << "s";
  }
  if (!tag.empty()) line << " " << tag;
  line << "] " << message << "\n";
  const std::string text = line.str();
  std::cerr.write(text.data(), static_cast<std::streamsize>(text.size()));
}

}  // namespace whitefi
