// COLARM benchmark binary.
//
//   perfbench_run --workload explore-chess|adhoc-pumsb|serve-mushroom
//                 --seed N --seconds S --trace 0|1 --out-dir DIR
//
// Prints every metric by name with its unit, then, as the last line of
// standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics"} with the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1). Writes the full report (both metric sets that were
// measured, attribution, notes) to DIR/result-<workload>-<seed>-<trace>.json.
// Exits 1 on any output mismatch, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "--out-dir DIR\n",
               argv0);
  return 2;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i != 0) out += ", ";
    out += "\"" + JsonEscape(metrics[i].name) + "\": {\"value\": " + value +
           ", \"unit\": \"" + JsonEscape(metrics[i].unit) + "\"}";
  }
  return out + "}";
}

void WriteReportFile(const RunOptions& options, const RunReport& report,
                     bool correct) {
  const std::string path = options.out_dir + "/result-" +
                           WorkloadName(options.workload) + "-" +
                           std::to_string(options.seed) + "-" +
                           (options.trace ? "1" : "0") + ".json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  std::fprintf(out, "{\n  \"claim\": null,\n  \"correct\": %s,\n",
               correct ? "true" : "false");
  std::fprintf(out, "  \"attempted\": %llu,\n  \"failed\": %llu,\n",
               static_cast<unsigned long long>(report.attempted),
               static_cast<unsigned long long>(report.failed));
  std::fprintf(out, "  \"mismatches\": %llu,\n",
               static_cast<unsigned long long>(report.mismatches));
  std::fprintf(out, "  \"attribution\": {");
  for (size_t i = 0; i < report.attribution.size(); ++i) {
    std::fprintf(out, "%s\"%s\": \"%s\"", i == 0 ? "" : ", ",
                 JsonEscape(report.attribution[i].first).c_str(),
                 JsonEscape(report.attribution[i].second).c_str());
  }
  std::fprintf(out, "},\n  \"end_to_end\": %s,\n",
               MetricsJson(report.end_to_end).c_str());
  std::fprintf(out, "  \"per_layer\": %s,\n",
               MetricsJson(report.per_layer).c_str());
  std::fprintf(out, "  \"notes\": [");
  for (size_t i = 0; i < report.notes.size(); ++i) {
    std::fprintf(out, "%s\n    \"%s\"", i == 0 ? "" : ",",
                 JsonEscape(report.notes[i]).c_str());
  }
  std::fprintf(out, "\n  ]\n}\n");
  std::fclose(out);
}

int Main(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      have_workload = ParseWorkload(value, &options.workload);
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && options.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds ||
      !have_trace || options.out_dir.empty()) {
    return Usage(argv[0]);
  }
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);

  RunReport report;
  switch (options.workload) {
    case Workload::kExploreChess: RunExploreChess(options, &report); break;
    case Workload::kAdhocPumsb: RunAdhocPumsb(options, &report); break;
    case Workload::kServeMushroom: RunServeMushroom(options, &report); break;
  }
  const bool correct = report.mismatches == 0;

  std::printf("== %s seed %llu, %g s, trace %d ==\n",
              WorkloadName(options.workload),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const auto& [key, value] : report.attribution) {
    std::printf("  %-18s %s\n", key.c_str(), value.c_str());
  }
  const double fail_ratio =
      report.attempted == 0
          ? 0.0
          : static_cast<double>(report.failed) / report.attempted;
  std::printf("end-to-end:\n");
  for (const Metric& m : report.end_to_end) {
    std::printf("  %-28s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-28s %14.6f ratio (%llu failed / %llu attempted, %llu "
              "output mismatches)\n",
              "fail_ratio", fail_ratio,
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.mismatches));
  if (!report.per_layer.empty()) {
    std::printf("per-layer:\n");
    for (const Metric& m : report.per_layer) {
      std::printf("  %-28s %14.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  for (const std::string& note : report.notes) {
    std::printf("  note: %s\n", note.c_str());
  }
  WriteReportFile(options, report, correct);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(report.attempted, 1)),
              static_cast<unsigned long long>(report.failed),
              MetricsJson(options.trace ? report.per_layer : report.end_to_end)
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
