#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <thread>
#include <tuple>

#include "common/cpu_features.h"
#include "core/cache_persist.h"
#include "core/query_parser.h"
#include "cost/calibration.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using colarm::Engine;
using colarm::EngineOptions;

colarm::Dataset MakeDataset(const DatasetSpec& spec) {
  auto generated = colarm::GenerateSynthetic(spec.config);
  if (!generated.ok()) {
    std::fprintf(stderr, "dataset %s: %s\n", spec.config.name.c_str(),
                 generated.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(generated.value());
}

void ProbeBuildLayers(const colarm::Dataset& data, const EngineOptions& options,
                      const Engine& engine, Tracer* tracer, RunReport* report) {
  // The build's two heaviest phases, timed through their own public entry
  // points on the engine's pool.
  std::vector<double> mip_s, calibrate_s;
  for (int rep = 0; rep < 3; ++rep) {
    double t0 = NowMicros();
    auto index = colarm::MipIndex::Build(data, options.index, engine.pool());
    double t1 = NowMicros();
    tracer->Add("mip.build", 0, -1, t0, t1);
    if (!index.ok()) report->Note("MipIndex::Build failed");
    mip_s.push_back((t1 - t0) / 1e6);
    t0 = NowMicros();
    colarm::CostConstants constants = colarm::Calibrate(data);
    t1 = NowMicros();
    (void)constants;
    tracer->Add("cost.calibrate", 0, -1, t0, t1);
    calibrate_s.push_back((t1 - t0) / 1e6);
  }
  report->Layer("mip.build_s", Median(mip_s), "s");
  report->Layer("cost.calibrate_s", Median(calibrate_s), "s");
  report->Layer("mip.num_mips", engine.index().num_mips(), "count");
  report->Layer("mip.rtree_height", engine.index().rtree().height(), "count");
}

std::unique_ptr<Engine> BuildReferenceEngine(const colarm::Dataset& data,
                                             const Engine& measured) {
  EngineOptions options = measured.options();
  options.cache = colarm::QueryCacheOptions{};  // cache-less
  options.calibrate = false;
  options.cost_constants = measured.optimizer().cost_model().constants();
  auto built = Engine::Build(data, options);
  if (!built.ok()) return nullptr;
  return std::move(built.value());
}

uint64_t RuleFingerprint(const colarm::RuleSet& rules) {
  auto mix = [](uint64_t h, uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
  };
  uint64_t sum = rules.rules.size();
  for (const colarm::Rule& rule : rules.rules) {
    uint64_t h = 0x84222325cbf29ce4ULL;
    for (colarm::ItemId item : rule.antecedent) h = mix(h, item);
    h = mix(h, 0xffffffffULL);
    for (colarm::ItemId item : rule.consequent) h = mix(h, item);
    h = mix(h, rule.itemset_count);
    h = mix(h, rule.antecedent_count);
    h = mix(h, rule.base_count);
    Rng finalize(h);
    sum += finalize.Next();  // order-independent combination
  }
  return sum;
}

colarm::PlanKind AlternativePlan(const colarm::OptimizerDecision& decision,
                                 colarm::PlanKind chosen) {
  colarm::PlanKind best = chosen;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const colarm::PlanCostEstimate& estimate : decision.estimates) {
    if (estimate.plan == chosen) continue;
    if (estimate.total < best_cost) {
      best_cost = estimate.total;
      best = estimate.plan;
    }
  }
  return best;
}

void LayerCounters::Add(const colarm::QueryResult& result, double latency_ms) {
  const colarm::PlanStats& s = result.stats;
  ++queries;
  ++picks[static_cast<size_t>(result.plan_used)];
  select_ms += s.select_ms;
  search_ms += s.search_ms;
  eliminate_ms += s.eliminate_ms;
  verify_ms += s.verify_ms;
  mine_ms += s.mine_ms;
  query_ms += latency_ms;
  record_checks += s.record_checks;
  rtree_nodes_visited += s.rtree_nodes_visited;
  candidates_search += s.candidates_search;
  rules_considered += s.rules_considered;
  rules_emitted += s.rules_emitted;
  local_cfis += s.local_cfis;
  const colarm::CacheTelemetry& c = result.cache;
  cache.hits_exact += c.hits_exact;
  cache.hits_containment += c.hits_containment;
  cache.hits_compose += c.hits_compose;
  cache.hits_count_memo += c.hits_count_memo;
  cache.misses += c.misses;
  cache.evictions += c.evictions;
  cache.admission_rejects += c.admission_rejects;
  bytes_peak = std::max<uint64_t>(bytes_peak, c.bytes);
}

bool SameCounts(const LayerCounters& a, const LayerCounters& b) {
  auto cache = [](const colarm::CacheTelemetry& c) {
    return std::tie(c.hits_exact, c.hits_containment, c.hits_compose,
                    c.hits_count_memo, c.misses, c.evictions,
                    c.admission_rejects);
  };
  return a.queries == b.queries &&
         std::equal(std::begin(a.picks), std::end(a.picks), std::begin(b.picks)) &&
         a.record_checks == b.record_checks &&
         a.rtree_nodes_visited == b.rtree_nodes_visited &&
         a.candidates_search == b.candidates_search &&
         a.rules_considered == b.rules_considered &&
         a.rules_emitted == b.rules_emitted && a.local_cfis == b.local_cfis &&
         cache(a.cache) == cache(b.cache) && a.bytes_peak == b.bytes_peak;
}

void EmitLayerCounters(const LayerCounters& prefix, const LayerCounters& all,
                       RunReport* report) {
  static const char* const kPickNames[6] = {"sev",  "svs",   "ssev",
                                            "ssvs", "sseuv", "arm"};
  for (size_t i = 0; i < 6; ++i) {
    report->Layer(std::string("optimizer.pick.") + kPickNames[i],
                  static_cast<double>(prefix.picks[i]), "count");
  }
  const double query_ms = std::max(all.query_ms, 1e-9);
  const std::pair<const char*, double> stages[] = {
      {"select", all.select_ms}, {"search", all.search_ms},
      {"eliminate", all.eliminate_ms}, {"verify", all.verify_ms},
      {"mine", all.mine_ms}};
  for (const auto& [stage, ms] : stages) {
    report->Layer(std::string("plans.") + stage + "_ms", ms, "ms");
    report->Layer(std::string("plans.") + stage + "_share",
                  100.0 * ms / query_ms, "%");
  }
  report->Layer("plans.record_checks", prefix.record_checks, "count");
  report->Layer("plans.rtree_nodes_visited", prefix.rtree_nodes_visited, "count");
  report->Layer("plans.candidates_search", prefix.candidates_search, "count");
  report->Layer("plans.rules_considered", prefix.rules_considered, "count");
  report->Layer("plans.rules_emitted", prefix.rules_emitted, "count");
  report->Layer("plans.local_cfis", prefix.local_cfis, "count");

  const colarm::CacheTelemetry& c = prefix.cache;
  report->Layer("cache.hit_exact", c.hits_exact, "count");
  report->Layer("cache.hit_containment", c.hits_containment, "count");
  report->Layer("cache.hit_compose", c.hits_compose, "count");
  report->Layer("cache.hit_memo", c.hits_count_memo, "count");
  report->Layer("cache.misses", c.misses, "count");
  report->Layer("cache.evictions", c.evictions, "count");
  report->Layer("cache.admission_rejects", c.admission_rejects, "count");
  report->Layer("cache.bytes_peak", prefix.bytes_peak, "bytes");
  const uint64_t hits = c.hits_exact + c.hits_containment + c.hits_compose;
  const uint64_t lookups = hits + c.misses;
  report->Layer("cache.lookups", lookups, "count");
  report->Layer("cache.reuse_ratio",
                lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups,
                "ratio");
  char line[256];
  std::snprintf(line, sizeof(line),
                "counts over the first %llu queries; stage times and shares "
                "over all %llu traced-run queries",
                static_cast<unsigned long long>(prefix.queries),
                static_cast<unsigned long long>(all.queries));
  report->Note(line);
  std::snprintf(line, sizeof(line),
                "cache.reuse_ratio = %llu subset hits / %llu lookups",
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(lookups));
  report->Note(line);
}

namespace {

std::vector<double> SpanValues(const Tracer& tracer,
                               const std::vector<double>& self, const char* name,
                               bool self_time) {
  std::vector<double> values;
  const auto& spans = tracer.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    if (std::strcmp(spans[i].name, name) != 0) continue;
    values.push_back(self_time ? self[i] : spans[i].end_us - spans[i].start_us);
  }
  return values;
}

}  // namespace

void EmitSpanMetrics(const Tracer& tracer, RunReport* report) {
  const std::vector<double> self = SelfTimes(tracer.spans());
  report->Layer("parser.parse_us",
                Percentile(SpanValues(tracer, self, "parse", false), 50), "us");
  report->Layer("optimizer.explain_us",
                Percentile(SpanValues(tracer, self, "explain", false), 50), "us");
  report->Layer("engine.self_us",
                Percentile(SpanValues(tracer, self, "execute", true), 50), "us");
}

void RunOptimizerProbe(const Engine& reference,
                       const std::vector<std::string>& sample, Tracer* tracer,
                       RunReport* report) {
  const colarm::Schema& schema = reference.index().dataset().schema();
  size_t probed = 0, mispicks = 0;
  double chosen_total = 0.0, best_total = 0.0;
  for (const std::string& text : sample) {
    auto query = colarm::ParseQuery(schema, text);
    if (!query.ok()) continue;
    auto decision = reference.Explain(*query);
    if (!decision.ok()) continue;
    double ms[6];
    uint64_t fingerprint[6];
    bool ok = true;
    for (colarm::PlanKind plan : colarm::kAllPlans) {
      const size_t p = static_cast<size_t>(plan);
      ms[p] = std::numeric_limits<double>::infinity();
      // Best of two runs; one run when a plan is slow enough that timer
      // noise cannot flip the comparison.
      for (int rep = 0; rep < 2; ++rep) {
        const double t0 = NowMicros();
        auto result = reference.ExecuteWithPlan(*query, plan);
        const double t1 = NowMicros();
        tracer->Add("probe.plan", probed, -1, t0, t1);
        if (!result.ok()) {
          ok = false;
          break;
        }
        ms[p] = std::min(ms[p], (t1 - t0) / 1e3);
        fingerprint[p] = RuleFingerprint(result->rules);
        if (ms[p] > 20.0) break;
      }
      if (!ok) break;
    }
    ++report->attempted;
    if (!ok) {
      ++report->failed;
      continue;
    }
    for (size_t p = 1; p < 6; ++p) {
      if (fingerprint[p] != fingerprint[0]) {
        ++report->mismatches;
        ++report->failed;
        report->Note("probe: plans disagree on rules for: " + text);
        break;
      }
    }
    const double best = *std::min_element(ms, ms + 6);
    const double chosen = ms[static_cast<size_t>(decision->chosen)];
    // A pick within 10% of the fastest plan is a tie, not a mispick.
    if (chosen > 1.10 * best) ++mispicks;
    chosen_total += chosen;
    best_total += best;
    ++probed;
  }
  report->Layer("optimizer.mispick_ratio",
                probed == 0 ? 0.0 : static_cast<double>(mispicks) / probed,
                "ratio");
  report->Layer("optimizer.regret_pct",
                best_total > 0 ? 100.0 * (chosen_total / best_total - 1.0) : 0.0,
                "%");
  report->Layer("optimizer.probe_queries", probed, "count");
  char line[200];
  std::snprintf(line, sizeof(line),
                "optimizer probe: %zu of %zu sample queries mispicked (>10%% "
                "slower than the fastest plan); chosen %.1f ms vs best %.1f ms",
                mispicks, probed, chosen_total, best_total);
  report->Note(line);
}

void EmitPersistMetrics(const PersistCounters& persist, RunReport* report) {
  report->Layer("cache.save_ms", Median(persist.save_ms), "ms");
  report->Layer("cache.load_ms", Median(persist.load_ms), "ms");
  report->Layer("cache.file_bytes", Median(persist.file_bytes), "bytes");
  char line[160];
  std::snprintf(line, sizeof(line),
                "cache persistence: %zu saves, %zu loads (medians per call)",
                persist.save_ms.size(), persist.load_ms.size());
  report->Note(line);
}

void ProbePersistence(const Engine& engine, const colarm::QueryCache& cache,
                      const std::string& path, PersistCounters* persist,
                      RunReport* report) {
  double t0 = NowMicros();
  colarm::Status saved = colarm::SaveQueryCache(cache, engine.index(), path);
  double t1 = NowMicros();
  ++report->attempted;
  if (!saved.ok()) {
    ++report->failed;
    report->Note("SaveQueryCache failed: " + saved.ToString());
    return;
  }
  persist->save_ms.push_back((t1 - t0) / 1e3);
  std::error_code ec;
  persist->file_bytes.push_back(
      static_cast<double>(std::filesystem::file_size(path, ec)));
  colarm::QueryCache restored(engine.index(), cache.options());
  t0 = NowMicros();
  colarm::Status loaded = colarm::LoadQueryCache(engine.index(), path, &restored);
  t1 = NowMicros();
  ++report->attempted;
  if (!loaded.ok()) {
    ++report->failed;
    report->Note("LoadQueryCache failed: " + loaded.ToString());
    return;
  }
  persist->load_ms.push_back((t1 - t0) / 1e3);
}

void EmitSetupMetrics(const std::vector<double>& setup_s, RunReport* report) {
  report->E2E("setup_s", Median(setup_s), "s");
  char line[160];
  std::snprintf(line, sizeof(line), "setup_s is the median of %zu set-ups",
                setup_s.size());
  report->Note(line);
}

void AddAttribution(const RunOptions& options, const Engine& engine,
                    unsigned io_threads, RunReport* report) {
  auto& a = report->attribution;
  a.emplace_back("workload", WorkloadName(options.workload));
  a.emplace_back("seed", std::to_string(options.seed));
  a.emplace_back("nproc", std::to_string(std::thread::hardware_concurrency()));
  a.emplace_back("pool_parallelism",
                 std::to_string(engine.pool() != nullptr
                                    ? engine.pool()->parallelism()
                                    : 1u));
  a.emplace_back("io_threads", std::to_string(io_threads));
  a.emplace_back("simd", colarm::SimdLevelName(colarm::ActiveSimdLevel()));
  a.emplace_back("backend", colarm::ExecBackendName(engine.options().backend));
  a.emplace_back("build_type", PERFBENCH_BUILD_TYPE);
#if defined(__clang__)
  a.emplace_back("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  a.emplace_back("compiler", std::string("gcc ") + __VERSION__);
#else
  a.emplace_back("compiler", "unknown");
#endif
  a.emplace_back("records",
                 std::to_string(engine.index().dataset().num_records()));
  a.emplace_back("primary_support",
                 std::to_string(engine.index().options().primary_support));
  // Calibrate() measures these at build time; they steer plan choice.
  const colarm::CostConstants& c = engine.optimizer().cost_model().constants();
  char constants[256];
  std::snprintf(constants, sizeof(constants),
                "rtree_box_check_ns=%.3g record_item_check_ns=%.3g "
                "rule_check_ns=%.3g select_record_ns=%.3g mine_cell_ns=%.3g "
                "union_const_ns=%.3g bitmap_word_ns=%.3g",
                c.rtree_box_check_ns, c.record_item_check_ns, c.rule_check_ns,
                c.select_record_ns, c.mine_cell_ns, c.union_const_ns,
                c.bitmap_word_ns);
  a.emplace_back("cost_constants", constants);
}

std::string WorkDir(const RunOptions& options, const std::string& name) {
  std::filesystem::path dir = std::filesystem::path(options.out_dir) / name /
                              WorkloadName(options.workload);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  return dir.string();
}

}  // namespace perfbench
