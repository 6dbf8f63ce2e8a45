// Shared command line and output files of the bench drivers.
//
// A driver lists its flags in one table for ParseFlags: `--flag VALUE` or
// `--flag=VALUE`, or a bare switch.  An unknown argument, a missing value
// or an unusable one (trailing garbage, out of range, below the flag's
// bound) exits 2 naming the flag, before any run; an output file that
// cannot be written exits 1 (WriteOutput).
//
// Every trial-loop driver takes `--jobs N`: the size of the deterministic
// thread pool used for its independent trials.  0 means all hardware
// threads; the default of 1 is the serial reference path, so a driver's
// default output is byte-identical to the pre-parallel code.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/parallel.h"

namespace whitefi::bench {

/// One row of a driver's flag table.  `set` receives the flag's value (an
/// empty one for a switch) and throws std::invalid_argument to refuse it.
struct Flag {
  std::string_view name;
  std::function<void(const std::string& value)> set;
  bool takes_value = true;
};

/// The drivers' configuration-error exit: `error: message`, status 2.
[[noreturn]] inline void FlagError(const std::string& message) {
  std::cerr << "error: " << message << "\n";
  std::exit(2);
}

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

/// Parses all of `value` as a finite T no less than `min`; an unsigned T
/// takes no sign.  Throws std::invalid_argument naming `flag` and quoting
/// the value.
template <typename T>
T ParseValue(std::string_view flag, std::string_view value,
             std::type_identity_t<T> min =
                 std::numeric_limits<T>::lowest()) {
  T parsed{};
  const char* end = value.data() + value.size();
  const auto [stop, error] = std::from_chars(value.data(), end, parsed);
  if (error == std::errc::result_out_of_range) {
    throw std::invalid_argument(std::string(flag) + ": '" +
                                std::string(value) + "' is out of range");
  }
  if (error != std::errc() || stop != end || parsed < min ||
      !std::isfinite(static_cast<double>(parsed))) {
    std::string expected = std::is_floating_point_v<T> ? "a number"
                           : std::is_signed_v<T>       ? "an integer"
                                                       : "an unsigned integer";
    if (min > std::numeric_limits<T>::lowest()) {
      expected += " >= " + std::to_string(min);
    }
    throw std::invalid_argument(std::string(flag) + ": expected " + expected +
                                ", got '" + std::string(value) + "'");
  }
  return parsed;
}

/// `name` sets a number of T's type, at least `min`.
template <typename T>
Flag Number(std::string_view name, T& target,
            std::type_identity_t<T> min =
                std::numeric_limits<T>::lowest()) {
  return {name, [name, &target, min](const std::string& value) {
            target = ParseValue<T>(name, value, min);
          }};
}

/// `name` sets a comma-separated list of integers, each at least `min`.
inline Flag List(std::string_view name, std::vector<int>& target, int min) {
  return {name, [name, &target, min](const std::string& value) {
            target.clear();
            for (std::size_t start = 0, comma = 0; comma != value.npos;
                 start = comma + 1) {
              comma = value.find(',', start);
              target.push_back(ParseValue<int>(
                  name, std::string_view(value).substr(start, comma - start),
                  min));
            }
          }};
}

/// `name` sets a string (a path or prefix) verbatim.
inline Flag Text(std::string_view name, std::string& target) {
  return {name, [&target](const std::string& value) { target = value; }};
}

/// `name`, given without a value, sets `target` to `value`.
inline Flag Switch(std::string_view name, bool& target, bool value = true) {
  return {name, [&target, value](const std::string&) { target = value; },
          false};
}

/// `--jobs N`: the trial pool width; 0 = all hardware threads (ParseJobs).
inline Flag Jobs(int& jobs) {
  return {"--jobs", [&jobs](const std::string& value) {
            jobs = ParseJobs(value.c_str());
          }};
}

/// Applies argv to `flags` in order, a later flag overriding an earlier
/// one, and returns the names of the flags given.  Any other argument, a
/// missing value or a refused one exits 2 through FlagError.
inline std::set<std::string_view> ParseFlags(int argc, char** argv,
                                             const std::vector<Flag>& flags) {
  std::set<std::string_view> given;
  try {
    for (int i = 1; i < argc; ++i) {
      std::optional<std::string> value;
      const auto flag =
          std::find_if(flags.begin(), flags.end(), [&](const Flag& f) {
            if (!f.takes_value) return argv[i] == f.name;
            value = detail::TakeFlagValue(argc, argv, i, f.name);
            return value.has_value();
          });
      if (flag == flags.end()) {
        throw std::invalid_argument(std::string("unknown argument '") +
                                    argv[i] + "'");
      }
      flag->set(value.value_or(""));
      given.insert(flag->name);
    }
  } catch (const std::invalid_argument& error) {
    FlagError(error.what());
  }
  return given;
}

/// Parses a driver's argv: `--jobs N` (default 1) and, for a driver that
/// passes `trace_jsonl`, `--trace-jsonl FILE` into it.  Anything else
/// exits 2 as ParseFlags does.
inline int JobsFromArgs(int argc, char** argv,
                        std::string* trace_jsonl = nullptr) {
  int jobs = 1;
  std::vector<Flag> flags{Jobs(jobs)};
  if (trace_jsonl != nullptr) {
    flags.push_back(Text("--trace-jsonl", *trace_jsonl));
  }
  ParseFlags(argc, argv, flags);
  return jobs;
}

/// Writes what `write` emits to `path`.  When the file cannot be written,
/// prints `error: cannot write <what> to <path>` and returns false; the
/// driver then exits 1 without announcing the file.
inline bool WriteOutput(const std::string& what, const std::string& path,
                        const std::function<void(std::ostream&)>& write) {
  std::ofstream os(path);
  write(os);
  os.close();
  if (!os.fail()) return true;
  std::cerr << "error: cannot write " << what << " to " << path << "\n";
  return false;
}

/// A google-benchmark-compatible report for compare_bench.py.  `context`
/// is written in order, each value already JSON text.  Each (name, rate)
/// entry becomes one single-iteration benchmark whose items_per_second is
/// the rate and whose time is its inverse (0 for a zero rate).
inline void WriteBenchReport(
    std::ostream& os,
    const std::vector<std::pair<std::string, std::string>>& context,
    const std::vector<std::pair<std::string, double>>& entries) {
  os.setf(std::ios::fixed);
  os.precision(6);
  os << "{\n \"context\": {\n";
  for (std::size_t i = 0; i < context.size(); ++i) {
    os << (i > 0 ? ",\n" : "") << "  \"" << context[i].first
       << "\": " << context[i].second;
  }
  os << "\n },\n \"benchmarks\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& [name, rate] = entries[i];
    const double time = rate > 0.0 ? 1.0 / rate : 0.0;
    os << (i > 0 ? ",\n" : "") << "  {\n   \"name\": \"" << name << "\",\n"
       << "   \"run_name\": \"" << name << "\",\n"
       << "   \"run_type\": \"iteration\",\n"
       << "   \"iterations\": 1,\n"
       << "   \"real_time\": " << time << ",\n"
       << "   \"cpu_time\": " << time << ",\n"
       << "   \"time_unit\": \"s\",\n"
       << "   \"items_per_second\": " << rate << "\n  }";
  }
  os << "\n ]\n}\n";
}

}  // namespace whitefi::bench
