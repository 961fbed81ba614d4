// Shared pieces of the COLARM benchmark: a seeded generator, percentile
// and summary helpers, the span recorder used by traced runs, and process
// memory probes. Nothing here depends on the engine.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: the benchmark's own generator, so a query stream is a
/// function of the benchmark seed alone and never of library internals.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound); bound > 0.
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  /// Uniform in [lo, hi] inclusive.
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Below(static_cast<uint64_t>(hi - lo + 1)));
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  bool Chance(double p) { return Unit() < p; }

 private:
  uint64_t state_;
};

/// Derives an independent stream seed from the workload seed and a label.
uint64_t SubSeed(uint64_t seed, const std::string& label);

/// Nearest-rank percentile: the smallest sample with at least q% of the
/// samples at or below it. q in (0, 100]; an empty input gives 0.
double Percentile(std::vector<double> values, double q);

/// Samples strictly beyond the nearest-rank q-th percentile of n samples.
size_t SamplesBeyond(size_t n, double q);

struct LatencySummary {
  size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  size_t beyond_p99 = 0;
};

LatencySummary Summarize(const std::vector<double>& values);

/// Median of a copy of `values` (mean of the middle pair for even n).
double Median(std::vector<double> values);

/// Monotonic microseconds since the first call in this process.
double NowMicros();

/// One traced call: a named interval, the span that caused it (-1 for a
/// root) and the request it belongs to.
struct Span {
  const char* name = "";
  uint64_t request = 0;
  int parent = -1;
  double start_us = 0.0;
  double end_us = 0.0;
};

/// In-memory span recorder for traced runs. Disabled, it records nothing
/// and every call is a branch; spans are written out only at exit.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a closed span and returns its id (-1 when disabled).
  int Add(const char* name, uint64_t request, int parent, double start_us,
          double end_us);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one JSON object per span; false on an I/O error.
  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children that
/// overlap each other, or stick out of the parent, are not counted twice).
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// Peak resident set size of this process in MiB since the last
/// ResetPeakRss() (or process start when resetting is unavailable).
double PeakRssMb();

/// Restarts the peak-RSS watermark (Linux clear_refs); false when the
/// kernel refuses, in which case PeakRssMb() reports the lifetime peak.
bool ResetPeakRss();

/// Minimal JSON string escaping for report files.
std::string JsonEscape(const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
