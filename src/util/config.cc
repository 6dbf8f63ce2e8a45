#include "util/config.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

namespace whitefi {
namespace {

std::string Trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) return "";
  const auto last = s.find_last_not_of(" \t\r\n");
  return s.substr(first, last - first + 1);
}

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

}  // namespace

std::string ConfigError::Format(const std::string& message,
                                const std::string& path, int line) {
  if (path.empty() && line == 0) return message;
  std::string where = path.empty() ? "config" : path;
  if (line > 0) where += " line " + std::to_string(line);
  return where + ": " + message;
}

ConfigFile ConfigFile::Parse(std::istream& in, const std::string& source) {
  ConfigFile config;
  config.source_ = source;
  std::string line;
  std::string section;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    // Strip comments (full-line or trailing).
    const auto hash = line.find_first_of("#;");
    if (hash != std::string::npos) line.erase(hash);
    const std::string trimmed = Trim(line);
    if (trimmed.empty()) continue;
    if (trimmed.front() == '[') {
      if (trimmed.back() != ']') {
        throw ConfigError("unterminated section header", config.source_,
                          line_number);
      }
      section = Trim(trimmed.substr(1, trimmed.size() - 2));
      continue;
    }
    const auto eq = trimmed.find('=');
    if (eq == std::string::npos) {
      throw ConfigError("expected key = value", config.source_, line_number);
    }
    const std::string key = Trim(trimmed.substr(0, eq));
    const std::string value = Trim(trimmed.substr(eq + 1));
    if (key.empty()) {
      throw ConfigError("empty key", config.source_, line_number);
    }
    config.values_[section.empty() ? key : section + "." + key] =
        Entry{value, line_number};
  }
  return config;
}

ConfigFile ConfigFile::ParseString(const std::string& text) {
  std::istringstream in(text);
  return Parse(in, "");
}

ConfigFile ConfigFile::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open config file", path, 0);
  return Parse(in, path);
}

bool ConfigFile::Has(const std::string& key) const {
  const bool present = values_.count(key) > 0;
  if (present) consumed_.insert(key);
  return present;
}

std::string ConfigFile::Get(const std::string& key,
                            const std::string& fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  consumed_.insert(key);
  return it->second.value;
}

bool ConfigFile::GetBool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  consumed_.insert(key);
  const std::string v = Lower(it->second.value);
  if (v == "true" || v == "yes" || v == "1") return true;
  if (v == "false" || v == "no" || v == "0") return false;
  throw ConfigError("key '" + key + "' is not a boolean: " + it->second.value,
                    source_, it->second.line);
}

std::vector<std::string> ConfigFile::GetList(const std::string& key) const {
  std::vector<std::string> items;
  const auto it = values_.find(key);
  if (it == values_.end()) return items;
  consumed_.insert(key);
  std::istringstream in(it->second.value);
  std::string item;
  while (std::getline(in, item, ',')) {
    const std::string trimmed = Trim(item);
    if (!trimmed.empty()) items.push_back(trimmed);
  }
  return items;
}

std::string ConfigFile::RealBounds(double min, double max) {
  std::ostringstream os;
  os.precision(15);
  os << "finite";
  if (min == kPositive) {
    os << " and positive";
  } else if (min != std::numeric_limits<double>::lowest()) {
    os << " and >= " << min;
  }
  if (max != std::numeric_limits<double>::max()) os << " and <= " << max;
  return os.str();
}

void ConfigFile::Refuse(const std::string& key, std::string_view text,
                        std::errc error, const char* kind,
                        const std::string& bounds) const {
  // A key set over the source (line 0) did not come from it.
  const int line = LineOf(key);
  const std::string path = line > 0 ? source_ : "";
  if (error == std::errc::invalid_argument) {
    throw ConfigError("key '" + key + "' is not " + kind + ": " +
                          std::string(text),
                      path, line);
  }
  throw std::runtime_error(ConfigError::Format(
      key + " must be " + bounds + ", got '" + std::string(text) + "'", path,
      line));
}

void ConfigFile::Set(const std::string& key, const std::string& value) {
  values_[key] = Entry{value, 0};
}

std::vector<std::string> ConfigFile::Keys() const {
  std::vector<std::string> keys;
  for (const auto& [key, entry] : values_) keys.push_back(key);
  return keys;
}

std::vector<std::string> ConfigFile::UnconsumedKeys() const {
  std::vector<std::string> keys;
  for (const auto& [key, entry] : values_) {
    if (consumed_.count(key) == 0) keys.push_back(key);
  }
  return keys;
}

int ConfigFile::LineOf(const std::string& key) const {
  const auto it = values_.find(key);
  return it == values_.end() ? 0 : it->second.line;
}

}  // namespace whitefi
