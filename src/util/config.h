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
// Parse and conversion failures throw `ConfigError`, which carries the
// source path and line number.
#pragma once

#include <iosfwd>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace whitefi {

/// A configuration problem: malformed syntax, or a value of the wrong
/// type.  `path()` is empty for configs parsed from strings/streams;
/// `line()` is 0 when no line is attributable (e.g. unreadable file).
class ConfigError : public std::runtime_error {
 public:
  ConfigError(const std::string& message, std::string path, int line)
      : std::runtime_error(Format(message, path, line)),
        path_(std::move(path)),
        line_(line) {}

  const std::string& path() const { return path_; }
  int line() const { return line_; }

 private:
  static std::string Format(const std::string& message,
                            const std::string& path, int line);

  std::string path_;
  int line_;
};

/// Parsed key/value configuration.
class ConfigFile {
 public:
  /// Parses from a stream.  Throws ConfigError on malformed lines
  /// (anything that is not blank, comment, section, or key = value).
  static ConfigFile Parse(std::istream& in);

  /// Parses from a string.
  static ConfigFile ParseString(const std::string& text);

  /// Loads and parses a file.  Throws ConfigError if unreadable; parse
  /// errors carry the file path.
  static ConfigFile Load(const std::string& path);

  /// True iff `key` is present.
  bool Has(const std::string& key) const;

  /// String value, or `fallback` when absent.
  std::string Get(const std::string& key,
                  const std::string& fallback = "") const;

  /// Integer value; throws ConfigError on non-numeric content.
  long long GetInt(const std::string& key, long long fallback = 0) const;

  /// Double value; throws on non-numeric content.
  double GetDouble(const std::string& key, double fallback = 0.0) const;

  /// Boolean: true/false/yes/no/1/0 (case-insensitive); throws otherwise.
  bool GetBool(const std::string& key, bool fallback = false) const;

  /// Comma-separated list, items trimmed; empty when absent.
  std::vector<std::string> GetList(const std::string& key) const;

  /// Comma-separated integers.
  std::vector<long long> GetIntList(const std::string& key) const;

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
