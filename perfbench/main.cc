// whitefi_perfbench — the runner behind perfbench/run.py.
//
//   whitefi_perfbench --workload NAME --seed N --trace 0|1 [--quick]
//                     [--spans FILE]
//
// Sets up several times, then makes one untraced pass over the workload
// (and with --trace 1 a traced pass after it).  Prints one JSON line: the
// host fingerprint, the output hash, the coverage checks, attempted and
// failed operation counts, and the metrics with units.  run.py starts it
// several times, compares the hashes with each other and with the
// expected one, and turns the lines into the benchmark result.
// Exit codes: 0 ran, 1 runtime error, 2 bad usage or a non-optimized
// build.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "sift/kernel.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// City workers of city_parallel: four, never more than the host's cores.
constexpr int kParallelWorkers = 4;

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

Options ParseArgs(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw UsageError(flag + " needs a value");
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        options.workload = value();
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value());
      } else if (flag == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") throw UsageError("--trace takes 0 or 1");
        options.trace = v == "1";
      } else if (flag == "--quick") {
        options.quick = true;
      } else if (flag == "--spans") {
        options.spans_path = value();
      } else {
        throw UsageError("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {  // stoull: not a number.
      throw UsageError("bad value for " + flag);
    }
  }
  if (!have_workload) throw UsageError("--workload is required");
  return options;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto begin = line.find_first_not_of(' ', colon + 1);
        return begin == std::string::npos ? "" : line.substr(begin);
      }
    }
  }
  return "unknown";
}

/// "fixed" when this process runs with address-space randomization off
/// (run.py asks for it), "randomized" otherwise.
std::string Layout() {
  std::ifstream in("/proc/self/personality");
  unsigned long personality = 0;
  in >> std::hex >> personality;
  constexpr unsigned long kAddrNoRandomize = 0x0040000;
  return in && (personality & kAddrNoRandomize) != 0 ? "fixed" : "randomized";
}

std::string JsonString(const std::string& text) {
  std::ostringstream os;
  os << '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
  os << '"';
  return os.str();
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) throw std::runtime_error("non-finite metric");
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << value;
  return os.str();
}

int Main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "release" && build_type != "relwithdebinfo" &&
      build_type != "minsizerel") {
    std::cerr << "error: refusing to report from a non-optimized build ("
              << (build_type.empty() ? "no build type" : build_type) << ")\n";
    return 2;
  }
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  int workers = 0;
  Outcome outcome;
  if (options.workload == "cell_mix") {
    outcome = RunCellMix(options);
  } else if (options.workload == "city_serial") {
    workers = 1;
    outcome = RunCity(options, workers);
  } else if (options.workload == "city_parallel") {
    workers = std::min(kParallelWorkers, nproc);
    outcome = RunCity(options, workers);
  } else if (options.workload == "sift_signal") {
    outcome = RunSiftSignal(options);
  } else {
    throw UsageError("unknown workload " + options.workload);
  }

  std::ostringstream os;
  os << "{\"workload\":" << JsonString(options.workload)
     << ",\"seed\":" << options.seed << ",\"quick\":"
     << (options.quick ? "true" : "false") << ",\"host\":{\"cpu\":"
     << JsonString(CpuModel()) << ",\"nproc\":" << nproc
     << ",\"sift_kernel\":"
     << JsonString(whitefi::sift_kernel::KernelName(
            whitefi::sift_kernel::Resolve(whitefi::SiftKernelChoice::kAuto)))
     << ",\"build_type\":" << JsonString(build_type)
     << ",\"layout\":" << JsonString(Layout())
     << ",\"workers\":" << workers << "},\"hash\":" << JsonString(outcome.hash)
     << ",\"repeatable\":" << (outcome.repeatable ? "true" : "false")
     << ",\"coverage\":{";
  for (std::size_t i = 0; i < outcome.coverage.size(); ++i) {
    os << (i == 0 ? "" : ",") << JsonString(outcome.coverage[i].first) << ":"
       << (outcome.coverage[i].second ? "true" : "false");
  }
  os << "},\"attempted\":" << outcome.attempted
     << ",\"failed\":" << outcome.failed << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : outcome.metrics) {
    os << (first ? "" : ",") << JsonString(name) << ":{\"value\":"
       << JsonNumber(metric.value) << ",\"unit\":" << JsonString(metric.unit)
       << "}";
    first = false;
  }
  os << "}}\n";
  std::cout << os.str() << std::flush;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const perfbench::UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
