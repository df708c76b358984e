// Small helpers shared by the perfbench sources: fatal errors, order
// statistics, process facts, and the metric/check report a run fills.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace perfbench {

[[noreturn]] inline void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

template <typename T>
T Must(betalike::Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(q * static_cast<double>(values.size()));
  if (rank < 1.0) rank = 1.0;
  return values[static_cast<size_t>(rank) - 1];
}

// Median; the mean of the two middle values for an even count.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Peak resident set (VmHWM) in MiB; 0 when /proc is unavailable.
inline double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

// CPUs this process may run on (what `nproc` prints).
inline int Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  return 1;
}

// splitmix64: the benchmark's own input generator, identical on every
// platform for one seed.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n) (n > 0; the modulo bias is irrelevant here).
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

// What one run measured and checked. Metric names are the ones
// BENCHMARK.json declares; run.py attaches their units.
struct Report {
  std::map<std::string, double> metrics;
  std::vector<std::string> failed_checks;
  std::vector<std::pair<std::string, std::string>> hashes;
  int64_t attempted = 0;
  int64_t failed = 0;

  void Set(const std::string& name, double value) { metrics[name] = value; }
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      failed_checks.push_back(what);
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    }
  }
};

inline std::string HexU64(uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
