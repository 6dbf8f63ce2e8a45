// Tiny shared flag parsing for the bench drivers.
//
// Every trial-loop driver takes `--jobs N` (or `--jobs=N`): the size of
// the deterministic thread pool used for its independent trials.  0 means
// all hardware threads; the default of 1 is the serial reference path, so
// a driver's default output is byte-identical to the pre-parallel code.
// A driver honours no other flag unless it says so, and an argument it
// does not read is a configuration error (exit 2), never silently ignored.
#pragma once

#include <cstdlib>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/parallel.h"

namespace whitefi::bench {

namespace detail {

/// When argv[i] is `name VALUE` or `name=VALUE`, returns VALUE and leaves
/// `i` on the last argument consumed; nullopt when argv[i] is another
/// flag.  Throws std::invalid_argument when `name` is the last argument.
inline std::optional<std::string> TakeFlagValue(int argc, char** argv, int& i,
                                                std::string_view name) {
  const std::string_view arg = argv[i];
  if (arg == name) {
    if (i + 1 >= argc) {
      throw std::invalid_argument(std::string(name) + " needs a value");
    }
    return argv[++i];
  }
  if (arg.size() > name.size() && arg.starts_with(name) &&
      arg[name.size()] == '=') {
    return std::string(arg.substr(name.size() + 1));
  }
  return std::nullopt;
}

}  // namespace detail

/// Parses a driver's argv: `--jobs N` / `--jobs=N` (default 1) and, for a
/// driver that passes `trace_jsonl`, `--trace-jsonl FILE` into it.  Any
/// other argument, a flag missing its value, or a malformed jobs value is
/// a clean `error:` exit (2) naming it.
inline int JobsFromArgs(int argc, char** argv,
                        std::string* trace_jsonl = nullptr) {
  int jobs = 1;
  try {
    for (int i = 1; i < argc; ++i) {
      std::optional<std::string> value;
      if ((value = detail::TakeFlagValue(argc, argv, i, "--jobs"))) {
        jobs = ParseJobs(value->c_str());
      } else if (trace_jsonl != nullptr &&
                 (value = detail::TakeFlagValue(argc, argv, i,
                                                "--trace-jsonl"))) {
        *trace_jsonl = *value;
      } else {
        throw std::invalid_argument(std::string("unknown argument '") +
                                    argv[i] + "'");
      }
    }
  } catch (const std::invalid_argument& error) {
    std::cerr << "error: " << error.what() << "\n";
    std::exit(2);
  }
  return jobs;
}

}  // namespace whitefi::bench
