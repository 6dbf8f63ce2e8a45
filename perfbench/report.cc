#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

Distribution Summarize(std::vector<double> samples) {
  Distribution d;
  d.samples = samples.size();
  if (samples.empty()) return d;
  std::sort(samples.begin(), samples.end());
  d.median = Median(samples);
  d.tail = d.median;
  const double n = static_cast<double>(samples.size());
  for (const double p : {90.0, 95.0, 99.0, 99.9}) {
    // Nearest rank; the percentile qualifies when ten or more samples
    // lie strictly beyond its rank.
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    if (rank == 0 || samples.size() - rank < 10) break;
    d.tail = samples[rank - 1];
    d.tail_percentile = p;
  }
  return d;
}

double PeakRssMiB() {
  // VmHWM, not getrusage: Linux carries ru_maxrss across execve, so a
  // runner started from a large parent would report the parent's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // Reported in kB.
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void OutputHash::Add(std::string_view text) {
  for (const char c : text) {
    state_ ^= static_cast<unsigned char>(c);
    state_ *= 1099511628211ull;
  }
  // Terminator: ("ab", "c") and ("a", "bc") must hash differently.
  state_ ^= 0xff;
  state_ *= 1099511628211ull;
}

void OutputHash::Add(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "%llu",
                static_cast<unsigned long long>(value));
  Add(std::string_view(buffer));
}

void OutputHash::Add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  Add(bits);
}

std::string OutputHash::Hex() const {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << state_;
  return os.str();
}

int SpanLog::Begin(std::string_view name, int parent) {
  if (!enabled_) return -1;
  spans_.push_back(Span{std::string(name), parent, SecondsSince(origin_)});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::End(int id) {
  if (!enabled_ || id < 0) return 0.0;
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_s = SecondsSince(origin_);
  return span.end_s - span.start_s;
}

void SpanLog::Write(const std::string& path) const {
  std::ofstream out(path);
  out << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"id\":" << i << ",\"name\":\""
        << s.name << "\",\"parent\":" << s.parent << ",\"start_s\":"
        << std::setprecision(9) << s.start_s << ",\"end_s\":" << s.end_s
        << "}";
  }
  out << "\n]\n";
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

namespace {

std::uint64_t CounterSum(const Counters& counters, const std::string& prefix) {
  std::uint64_t total = 0;
  for (auto it = counters.lower_bound(prefix);
       it != counters.end() && it->first.rfind(prefix, 0) == 0; ++it) {
    total += it->second;
  }
  return total;
}

}  // namespace

std::uint64_t CounterValue(const Counters& counters, const std::string& name) {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

std::map<std::string, Metric> CounterMetrics(const Counters& c) {
  const auto value = [&c](const char* name) {
    return static_cast<double>(CounterValue(c, name));
  };
  const auto sum = [&c](const char* prefix) {
    return static_cast<double>(CounterSum(c, prefix));
  };
  const double tx = sum("whitefi.medium.tx.");
  const double rx = sum("whitefi.medium.rx.");
  const double drops = sum("whitefi.medium.drop.");
  const double chirps = value("whitefi.client.chirps");
  return {
      {"sim.medium_tx", {tx, "count"}},
      {"sim.medium_rx", {rx, "count"}},
      {"sim.medium_drop_share", {Share(drops, rx + drops), "ratio"}},
      {"sim.mac_retry_share",
       {Share(value("whitefi.mac.retries"), tx), "ratio"}},
      {"sim.scanner_dwells", {value("whitefi.scanner.dwells"), "count"}},
      {"core.switches", {value("whitefi.ap.switches"), "count"}},
      {"core.disconnects", {value("whitefi.client.disconnects"), "count"}},
      {"core.chirps", {chirps, "count"}},
      {"core.chirps_heard_share",
       {Share(value("whitefi.ap.chirps_heard"), chirps), "ratio"}},
  };
}

}  // namespace perfbench
