#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

namespace perfbench {

uint64_t SubSeed(uint64_t seed, const std::string& label) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a over the label
  for (unsigned char c : label) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  Rng rng(seed ^ h);
  return rng.Next();
}

namespace {

// 1-based nearest rank of the q-th percentile among n samples. q * n is
// formed before dividing so integral percentiles give exact ranks.
size_t NearestRank(size_t n, double q) {
  if (n == 0) return 0;
  double rank = std::ceil(q * static_cast<double>(n) / 100.0);
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

}  // namespace

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  size_t rank = NearestRank(values.size(), q);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

size_t SamplesBeyond(size_t n, double q) { return n - NearestRank(n, q); }

LatencySummary Summarize(const std::vector<double>& values) {
  LatencySummary s;
  s.count = values.size();
  s.p50 = Percentile(values, 50.0);
  s.p99 = Percentile(values, 99.0);
  s.beyond_p99 = SamplesBeyond(values.size(), 99.0);
  return s;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double NowMicros() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch)
      .count();
}

int Tracer::Add(const char* name, uint64_t request, int parent,
                double start_us, double end_us) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, request, parent, start_us, end_us});
  return static_cast<int>(spans_.size()) - 1;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"request\":%llu,\"parent\":%d,"
                 "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 i, s.name, static_cast<unsigned long long>(s.request),
                 s.parent, s.start_us, s.end_us);
  }
  return std::fclose(out) == 0;
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[s.parent].emplace_back(s.start_us, s.end_us);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_us;
    const double hi = spans[i].end_us;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Sweep the children in start order, merging overlaps, clipped to the
    // parent's interval.
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = -1.0;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= run_hi) {
        run_hi = std::max(run_hi, b);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = a;
      run_hi = b;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  if (!clear) return false;
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace perfbench
