// The three workloads and the measurement plumbing they share. Every
// layer is measured from outside: spans around calls into the public
// functions of src/core, src/cost, src/plans, src/mip and src/server, plus
// the counters those calls already return (PlanStats, CacheTelemetry,
// ServerStats). Nothing is instrumented inside the library.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/engine.h"
#include "inputs.h"

namespace perfbench {

struct RunOptions {
  Workload workload = Workload::kExploreChess;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  // spans, persisted caches and the run report
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  uint64_t attempted = 0;
  uint64_t failed = 0;      // ERR responses, non-OK statuses and mismatches
  uint64_t mismatches = 0;  // output-check failures (also in `failed`)
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;  // human-readable context lines
  std::vector<std::pair<std::string, std::string>> attribution;

  void E2E(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void Note(std::string line) { notes.push_back(std::move(line)); }
};

void RunExploreChess(const RunOptions& options, RunReport* report);
void RunAdhocPumsb(const RunOptions& options, RunReport* report);
void RunServeMushroom(const RunOptions& options, RunReport* report);

// ---- shared plumbing (workloads.cc) ---------------------------------------

/// Queries a run needs so that its p99 has at least ten samples beyond it.
inline constexpr size_t kMinQueries = 1000;
/// Leading queries of a stream over which count metrics (and the
/// distinct-box working set) are taken, independent of run length.
inline constexpr size_t kCountPrefix = 600;

/// Builds the relation of `spec`; exits the process on a generator error.
colarm::Dataset MakeDataset(const DatasetSpec& spec);

/// Times MipIndex::Build and Calibrate through their own entry points
/// and records the index shape (traced runs).
void ProbeBuildLayers(const colarm::Dataset& data,
                      const colarm::EngineOptions& options,
                      const colarm::Engine& engine, Tracer* tracer,
                      RunReport* report);

/// A cache-less engine over the same relation whose optimizer uses the
/// measured engine's calibrated constants: same plan choices, no reuse.
std::unique_ptr<colarm::Engine> BuildReferenceEngine(
    const colarm::Dataset& data, const colarm::Engine& measured);

/// Order-independent 64-bit fingerprint of a rule set (rules and counts).
uint64_t RuleFingerprint(const colarm::RuleSet& rules);

/// Index of the cheapest estimated plan other than `chosen`.
colarm::PlanKind AlternativePlan(const colarm::OptimizerDecision& decision,
                                 colarm::PlanKind chosen);

/// Per-layer accumulators fed by each query's returned counters.
struct LayerCounters {
  uint64_t queries = 0;
  uint64_t picks[6] = {0, 0, 0, 0, 0, 0};
  double select_ms = 0, search_ms = 0, eliminate_ms = 0, verify_ms = 0,
         mine_ms = 0, query_ms = 0;
  uint64_t record_checks = 0, rtree_nodes_visited = 0, candidates_search = 0,
           rules_considered = 0, rules_emitted = 0, local_cfis = 0;
  colarm::CacheTelemetry cache;  // summed deltas
  uint64_t bytes_peak = 0;

  /// Adds one query's result; `latency_ms` is its end-to-end latency.
  void Add(const colarm::QueryResult& result, double latency_ms);
};

/// True when every count (not time) of `a` and `b` is equal.
bool SameCounts(const LayerCounters& a, const LayerCounters& b);

/// Emits the plans / optimizer-pick / cache metrics. Counts come from
/// `prefix`; stage times and shares from `all`.
void EmitLayerCounters(const LayerCounters& prefix, const LayerCounters& all,
                       RunReport* report);

/// Emits the span-derived per-layer metrics: p50 durations of the parse
/// and explain spans and the p50 self time of the execute spans.
void EmitSpanMetrics(const Tracer& tracer, RunReport* report);

/// The optimizer probe: every plan of each sample query through
/// ExecuteWithPlan on `reference`, against the optimizer's pick.
/// Emits optimizer.mispick_ratio / regret_pct / probe_queries and counts
/// any rule-set disagreement between plans as a mismatch.
void RunOptimizerProbe(const colarm::Engine& reference,
                       const std::vector<std::string>& sample, Tracer* tracer,
                       RunReport* report);

/// Persistence metrics: per-call save / load time and file size.
struct PersistCounters {
  std::vector<double> save_ms, load_ms, file_bytes;
};
void EmitPersistMetrics(const PersistCounters& persist, RunReport* report);

/// Saves `cache` to `path` and loads it back into a fresh cache, timing
/// both (the traced run's persistence probe of a final cache state).
void ProbePersistence(const colarm::Engine& engine,
                      const colarm::QueryCache& cache, const std::string& path,
                      PersistCounters* persist, RunReport* report);

/// Setup and memory end-to-end metrics shared by every workload.
void EmitSetupMetrics(const std::vector<double>& setup_s, RunReport* report);

/// Run attribution: host, pool and build facts every result carries.
void AddAttribution(const RunOptions& options, const colarm::Engine& engine,
                    unsigned io_threads, RunReport* report);

/// Makes (and empties) the directory out_dir/<name>/<workload>.
std::string WorkDir(const RunOptions& options, const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
