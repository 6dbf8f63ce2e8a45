// A small INI-style configuration reader.
//
// The paper's QualNet methodology has "every node read its initial
// spectrum map from a configuration file"; this parser backs the same
// workflow here — scenario files for the CLI tool and the bench harnesses.
//
// Format:
//   # comment            (also ';')
//   key = value
//   [section]            (keys below become "section.key")
//   list = a, b, c
//
// Every accessor (Has / Get*) marks its key as consumed; after loading a
// scenario, `UnconsumedKeys()` lists the keys no reader ever looked at —
// i.e. typos and stale options — so callers can warn about them (or, under
// a strict flag, reject the file).  `Set` overrides a key before loading
// (the CLI's scenario flags), and its keys are tracked the same way.
//
// Numbers go through util/number.h.  Text that is not a number of the
// key's type throws `ConfigError`, with the path and line; a number the
// key cannot take (beyond its type, not finite, outside its bounds) a
// plain std::runtime_error naming the key, its line and the bounds.
#pragma once

#include <iosfwd>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/number.h"

namespace whitefi {

/// The `min` of a double that must be positive, "positive" in errors.
inline constexpr double kPositive = std::numeric_limits<double>::denorm_min();

/// A configuration problem: malformed syntax, or a value of the wrong
/// type.  `path()` is empty when the value came from no file, `line()` 0
/// when no line is attributable (e.g. an unreadable file).
class ConfigError : public std::runtime_error {
 public:
  ConfigError(const std::string& message, std::string path, int line)
      : std::runtime_error(Format(message, path, line)),
        path_(std::move(path)),
        line_(line) {}

  const std::string& path() const { return path_; }
  int line() const { return line_; }

  /// `message` behind "PATH line N: " (or as much of it as is known).
  static std::string Format(const std::string& message,
                            const std::string& path, int line);

 private:
  std::string path_;
  int line_;
};

/// Parsed key/value configuration.
class ConfigFile {
 public:
  /// Parses from a string.  Throws ConfigError on malformed lines
  /// (anything that is not blank, comment, section, or key = value).
  static ConfigFile ParseString(const std::string& text);

  /// Loads and parses a file.  Throws ConfigError if unreadable; parse
  /// errors carry the file path.
  static ConfigFile Load(const std::string& path);

  /// True iff `key` is present.
  bool Has(const std::string& key) const;

  /// String value, or `fallback` when absent.
  std::string Get(const std::string& key,
                  const std::string& fallback = "") const;

  /// The number at `key` as a T in [min, max], or `fallback` when absent;
  /// throws as the file comment says.
  template <typename T>
  T Get(const std::string& key, std::type_identity_t<T> fallback,
        std::type_identity_t<T> min = std::numeric_limits<T>::lowest(),
        std::type_identity_t<T> max = std::numeric_limits<T>::max()) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    consumed_.insert(key);
    return Number<T>(key, it->second.value, min, max);
  }

  /// Boolean: true/false/yes/no/1/0 (case-insensitive); throws otherwise.
  bool GetBool(const std::string& key, bool fallback = false) const;

  /// Comma-separated list, items trimmed; empty when absent.
  std::vector<std::string> GetList(const std::string& key) const;

  /// Comma-separated numbers, each read as Get<T> reads a value.
  template <typename T>
  std::vector<T> GetList(const std::string& key) const {
    std::vector<T> values;
    for (const std::string& item : GetList(key)) {
      values.push_back(Number<T>(key, item, std::numeric_limits<T>::lowest(),
                                 std::numeric_limits<T>::max()));
    }
    return values;
  }

  /// `text`, a number written inside `key`'s value, read as Get<T> reads
  /// a value: for values with a syntax of their own (fault windows).
  template <typename T>
  T Number(const std::string& key, std::string_view text,
           std::type_identity_t<T> min, std::type_identity_t<T> max) const {
    T value{};
    const std::errc error = ParseValue(text, value);
    if (error == std::errc() && value >= min && value <= max) return value;
    if constexpr (std::is_floating_point_v<T>) {
      Refuse(key, text, error, "a number", RealBounds(min, max));
    } else {
      Refuse(key, text, error, "an integer",
             ">= " + std::to_string(min) + " and <= " + std::to_string(max));
    }
  }

  /// Sets `key` to `value`, replacing any parsed value (line 0: not from
  /// the source).  The key is not marked consumed.
  void Set(const std::string& key, const std::string& value);

  /// All keys in insertion-independent (sorted) order.
  std::vector<std::string> Keys() const;

  /// Keys present in the file that no accessor has read yet, sorted.
  /// Call after the scenario loader has consumed everything it knows
  /// about: what remains is typos and stale options.
  std::vector<std::string> UnconsumedKeys() const;

  /// Source line of `key` (0 when absent).
  int LineOf(const std::string& key) const;

  /// Source path ("" for string/stream parses).
  const std::string& source() const { return source_; }

 private:
  static ConfigFile Parse(std::istream& in, const std::string& source);

  /// "finite", and each of [min, max] that is not the double's own.
  static std::string RealBounds(double min, double max);
  /// Throws for `key` holding `text`: a ConfigError when `error` says it
  /// is not `kind`, else a std::runtime_error that it must be `bounds`.
  [[noreturn]] void Refuse(const std::string& key, std::string_view text,
                           std::errc error, const char* kind,
                           const std::string& bounds) const;

  struct Entry {
    std::string value;
    int line = 0;
  };

  std::map<std::string, Entry> values_;
  std::string source_;
  /// Accessors are logically const; consumption tracking is bookkeeping.
  mutable std::set<std::string> consumed_;
};

}  // namespace whitefi
