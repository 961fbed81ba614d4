// explore-chess and adhoc-pumsb: closed loop, one client, library path.
// Each query is timed from its text to the QueryResult (parse included),
// with the engine options `colarm_cli session` uses.
//
// A run is kRestarts restarts. Each builds its own seeded relation and
// engine and serves an equal slice of the run, and the stream continues
// across them: Calibrate() re-measures the cost constants on every build
// and the optimizer's plan choices follow them, and the synthetic
// relations differ in structure from seed to seed, so pooling restarts
// measures the family rather than one draw of either.
#include <malloc.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <set>

#include "core/cache_persist.h"
#include "core/query_parser.h"
#include "workloads.h"

namespace perfbench {

namespace {

using colarm::Engine;
using colarm::QueryCache;
using colarm::SessionContext;

// Restarts per run; setup_s is the median of their builds.
constexpr int kRestarts = 10;
// Sample size of the optimizer probe.
constexpr size_t kProbeSample = 24;
// A run stops taking new work after this many times its budget even if it
// has not reached kMinQueries (the shortfall is reported).
constexpr double kHardStopFactor = 4.0;

struct DistinctQuery {
  uint64_t fingerprint = 0;
  colarm::PlanKind plan = colarm::PlanKind::kSEV;
};

// The measured closed loop: runs queries one at a time and keeps every
// number the report needs.
class LibraryLoop {
 public:
  LibraryLoop(Tracer* tracer, RunReport* report)
      : tracer_(tracer), report_(report) {}

  /// The engine of restart `restart`; distinct queries seen so far must
  /// have been verified against the previous one.
  void SetEngine(const Engine* engine, int restart) {
    engine_ = engine;
    restart_ = restart;
  }
  const Engine& engine() const { return *engine_; }
  int restart() const { return restart_; }

  /// Runs one query against `cache` (null: the engine's own cache).
  /// In a traced run every other query is traced; the untraced half is
  /// the same run's baseline for the tracing overhead.
  void Run(const std::string& text, QueryCache* cache) {
    ++report_->attempted;
    const colarm::Schema& schema = engine_->index().dataset().schema();
    const uint64_t id = next_request_++;
    const bool traced = tracer_->enabled() && id % 2 == 0;
    SessionContext session;
    session.cache = cache;
    if (traced) TraceReadOnlyLayers(id, text, session);
    const double t0 = NowMicros();
    auto query = colarm::ParseQuery(schema, text);
    const double t1 = NowMicros();
    if (!query.ok()) {
      Fail("parse error: " + query.status().ToString() + " in: " + text);
      return;
    }
    auto result = engine_->Execute(*query, session);
    const double t2 = NowMicros();
    if (!result.ok()) {
      Fail("execute error: " + result.status().ToString() + " in: " + text);
      return;
    }
    const double latency_ms = (t2 - t0) / 1e3;
    (traced ? traced_ms_ : untraced_ms_).push_back(latency_ms);
    if (traced) {
      int root = tracer_->Add("query", id, -1, t0, t2);
      tracer_->Add("parse", id, root, t0, t1);
      int exec = tracer_->Add("execute", id, root, t1, t2);
      // The plan's own wall time comes back in PlanStats; it ends where
      // Execute returns, so the rest of the execute span is engine self
      // time (probe, choose, commit, assembly).
      tracer_->Add("plan", id, exec, t2 - result->stats.total_ms * 1e3, t2);
    }
    all_.Add(*result, latency_ms);
    if (id < kCountPrefix) {
      prefix_.Add(*result, latency_ms);
      if (prefix_boxes_.insert(colarm::CanonicalBoxKey(query->ToRect(schema)))
              .second) {
        working_set_bytes_ +=
            uint64_t{result->stats.subset_size} * sizeof(colarm::Tid);
      }
    }
    const uint64_t fingerprint = RuleFingerprint(result->rules);
    auto [it, inserted] = distinct_.try_emplace(
        text, DistinctQuery{fingerprint, result->plan_used});
    if (!inserted && it->second.fingerprint != fingerprint) {
      // A repeat must give the rules the first run gave (warm == cold).
      ++report_->mismatches;
      Fail("repeat disagrees with first run: " + text);
    }
  }

  void CountSession(bool resumed) {
    ++sessions_;
    if (resumed) ++resumed_;
  }

  size_t completed() const { return traced_ms_.size() + untraced_ms_.size(); }
  const LayerCounters& prefix() const { return prefix_; }

  /// Output check of the current restart: every distinct query against a
  /// cache-less engine over the same relation running a different plan
  /// than the one the measured engine chose. Forgets the queries after.
  void Verify(const Engine& reference) {
    const double t0 = NowMicros();
    const colarm::Schema& schema = reference.index().dataset().schema();
    for (const auto& [text, seen] : distinct_) {
      auto query = colarm::ParseQuery(schema, text);
      if (!query.ok()) continue;  // already counted as a failure
      auto decision = reference.Explain(*query);
      colarm::PlanKind plan = seen.plan;
      if (decision.ok()) plan = AlternativePlan(*decision, seen.plan);
      auto result = reference.ExecuteWithPlan(*query, plan);
      if (!result.ok() || RuleFingerprint(result->rules) != seen.fingerprint) {
        ++report_->mismatches;
        Fail(std::string("rules differ from the reference engine's ") +
             colarm::PlanKindName(plan) + " run: " + text);
      }
    }
    verified_ += distinct_.size();
    verify_s_ += (NowMicros() - t0) / 1e6;
    distinct_.clear();
  }

  void Emit(double wall_s, size_t budget_bytes) {
    std::vector<double> latencies = traced_ms_;
    latencies.insert(latencies.end(), untraced_ms_.begin(), untraced_ms_.end());
    LatencySummary s = Summarize(latencies);
    report_->E2E("query_p50_ms", s.p50, "ms");
    report_->E2E("query_p99_ms", s.p99, "ms");
    const double qps = static_cast<double>(s.count) / wall_s;
    report_->E2E("throughput_qps", qps, "1/s");
    // A closed loop offers exactly what the system completes, so the
    // highest rate it sustains is its completion rate.
    report_->E2E("sustained_qps", qps, "1/s");
    char line[200];
    std::snprintf(line, sizeof(line),
                  "latency over %zu queries in %.2f s of serving; %zu samples "
                  "beyond p99%s",
                  s.count, wall_s, s.beyond_p99,
                  s.beyond_p99 < 10 ? " (FEWER THAN TEN)" : "");
    report_->Note(line);
    std::snprintf(line, sizeof(line),
                  "output check: %zu distinct queries re-run on a cache-less "
                  "engine with another plan in %.1f s",
                  verified_, verify_s_);
    report_->Note(line);
    if (sessions_ > 0) {
      std::snprintf(line, sizeof(line),
                    "%zu sessions, %zu resumed from a saved cache", sessions_,
                    resumed_);
      report_->Note(line);
    }
    if (!tracer_->enabled()) return;
    EmitSpanMetrics(*tracer_, report_);
    const double traced = Percentile(traced_ms_, 50);
    const double untraced = Percentile(untraced_ms_, 50);
    report_->Layer("trace.overhead_pct",
                   untraced > 0 ? 100.0 * (traced / untraced - 1.0) : 0.0, "%");
    std::snprintf(line, sizeof(line),
                  "tracing overhead: p50 %.4f ms traced (%zu) vs %.4f ms "
                  "untraced (%zu)",
                  traced, traced_ms_.size(), untraced, untraced_ms_.size());
    report_->Note(line);
    report_->Layer("cache.budget_bytes", static_cast<double>(budget_bytes), "bytes");
    report_->Layer("cache.working_set_bytes",
                   static_cast<double>(working_set_bytes_), "bytes");
    std::snprintf(line, sizeof(line),
                  "distinct-box working set of the first %zu queries: %llu "
                  "bytes of focal subsets over %zu boxes; cache budget %zu bytes",
                  kCountPrefix,
                  static_cast<unsigned long long>(working_set_bytes_),
                  prefix_boxes_.size(), budget_bytes);
    report_->Note(line);
  }

  const LayerCounters& all() const { return all_; }

 private:
  // Engine::Explain and QueryCache::Probe are read-only, so timing them
  // before the query sees the state the query is about to run against.
  void TraceReadOnlyLayers(uint64_t id, const std::string& text,
                           const SessionContext& session) {
    const colarm::Schema& schema = engine_->index().dataset().schema();
    auto query = colarm::ParseQuery(schema, text);
    if (!query.ok()) return;
    double t0 = NowMicros();
    auto decision = engine_->Explain(*query, session);
    double t1 = NowMicros();
    (void)decision;
    tracer_->Add("explain", id, -1, t0, t1);
    QueryCache* cache =
        session.cache != nullptr ? session.cache : engine_->cache();
    if (cache == nullptr) return;
    const colarm::Rect box = query->ToRect(schema);
    t0 = NowMicros();
    colarm::CacheHint hint = cache->Probe(box);
    t1 = NowMicros();
    (void)hint;
    tracer_->Add("cache.probe", id, -1, t0, t1);
  }

  void Fail(const std::string& why) {
    ++report_->failed;
    if (report_->failed <= 5) report_->Note("FAILURE: " + why);
  }

  const Engine* engine_ = nullptr;
  int restart_ = 0;
  Tracer* tracer_;
  RunReport* report_;
  uint64_t next_request_ = 0;
  std::vector<double> traced_ms_, untraced_ms_;
  LayerCounters prefix_, all_;
  std::set<std::string> prefix_boxes_;
  uint64_t working_set_bytes_ = 0;
  std::map<std::string, DistinctQuery> distinct_;
  size_t verified_ = 0;
  double verify_s_ = 0.0;
  size_t sessions_ = 0, resumed_ = 0;
};

// Where a stream sends its side effects besides queries.
struct StreamContext {
  std::string work_dir;      // persisted caches
  PersistCounters* persist;  // save / load timings
  RunReport* report;         // attempted / failed of persistence calls
  Tracer* tracer;
};

// Runs the next unit of a stream (a session, or one query).
using Runner = std::function<void(LibraryLoop&)>;

// What differs between the two library workloads.
struct LibraryWorkload {
  size_t cache_mb = 64;
  /// True when the stream itself saves and loads caches.
  bool persists = false;
  /// A fresh copy of the seeded stream over `schema`.
  std::function<Runner(const colarm::Schema&, const StreamContext&)> stream;
  /// The optimizer probe's fixed seeded sample.
  std::function<std::vector<std::string>(const colarm::Schema&)> probe_sample;
};

// `colarm_cli session --cache-mb N`: the session cache on, everything else
// at its defaults (calibration on, all hardware threads).
colarm::EngineOptions SessionOptions(const DatasetSpec& spec, size_t cache_mb) {
  colarm::EngineOptions options;
  options.index.primary_support = spec.primary_support;
  options.cache.enabled = cache_mb > 0;
  options.cache.byte_budget = cache_mb << 20;
  return options;
}

// Count metrics come from a replay of the stream's first kCountPrefix
// queries on the first restart's relation with the portable default cost
// constants: plan choice then depends on the inputs alone. The replay
// runs twice and the report says whether the counts repeated exactly.
void EmitCounts(const RunOptions& options, LibraryWorkload& workload,
                const LayerCounters& all, RunReport* report) {
  const DatasetSpec spec = DatasetFor(options.workload, RelationSeed(options.seed, 0));
  const colarm::Dataset data = MakeDataset(spec);
  colarm::EngineOptions fixed = SessionOptions(spec, workload.cache_mb);
  fixed.calibrate = false;
  LayerCounters counts[2];
  for (int pass = 0; pass < 2; ++pass) {
    auto engine = Engine::Build(data, fixed);
    if (!engine.ok()) {
      ++report->failed;
      return;
    }
    Tracer off(false);
    RunReport scratch;
    PersistCounters unused;
    LibraryLoop replay(&off, &scratch);
    replay.SetEngine(engine->get(), 0);
    Runner next = workload.stream(
        data.schema(),
        StreamContext{WorkDir(options, "counts"), &unused, &scratch, &off});
    while (replay.completed() < kCountPrefix) next(replay);
    counts[pass] = replay.prefix();
    report->failed += scratch.failed;
    report->mismatches += scratch.mismatches;
  }
  EmitLayerCounters(counts[0], all, report);
  report->Note(SameCounts(counts[0], counts[1])
                   ? "count metrics: two replays of the first queries on the "
                     "default cost constants agreed exactly"
                   : "count metrics: two replays of the first queries on the "
                     "default cost constants DISAGREED");
}

void RunLibrary(const RunOptions& options, LibraryWorkload& workload,
                RunReport* report) {
  Tracer tracer(options.trace);
  PersistCounters persist;
  LibraryLoop loop(&tracer, report);
  std::vector<double> setup_s, rss_mb;
  double serving_s = 0.0;
  const double hard_stop =
      NowMicros() + kHardStopFactor * options.seconds * 1e6;
  // Every relation of the family has this schema; the stream renders its
  // query text against it.
  const colarm::Schema schema =
      MakeDataset(DatasetFor(options.workload, RelationSeed(options.seed, 0)))
          .schema();
  Runner next = workload.stream(
      schema, StreamContext{WorkDir(options, "work"), &persist, report, &tracer});
  std::unique_ptr<colarm::Dataset> data;
  std::unique_ptr<Engine> engine;
  for (int round = 0; round < kRestarts; ++round) {
    engine.reset();  // one relation and engine alive at a time
    const DatasetSpec spec =
        DatasetFor(options.workload, RelationSeed(options.seed, round));
    data = std::make_unique<colarm::Dataset>(MakeDataset(spec));
    const colarm::EngineOptions engine_options =
        SessionOptions(spec, workload.cache_mb);
    const double t0 = NowMicros();
    auto built = Engine::Build(*data, engine_options);
    const double t1 = NowMicros();
    if (!built.ok()) {
      report->Note("engine build failed: " + built.status().ToString());
      ++report->failed;
      return;
    }
    engine = std::move(built.value());
    tracer.Add("engine.build", 0, -1, t0, t1);
    setup_s.push_back((t1 - t0) / 1e6);
    if (round == 0) {
      AddAttribution(options, *engine, 0, report);
      if (options.trace) {
        ProbeBuildLayers(*data, engine_options, *engine, &tracer, report);
      }
    }
    loop.SetEngine(engine.get(), round);
    // Return freed memory first, so the watermark is the serving footprint
    // rather than allocator leftovers.
    malloc_trim(0);
    ResetPeakRss();
    // Each restart serves an equal share of the time and of the queries
    // p99 needs.
    const size_t quota = (round + 1) * kMinQueries / kRestarts;
    const double start = NowMicros();
    const double until = start + options.seconds * 1e6 / kRestarts;
    while ((NowMicros() < until || loop.completed() < quota) &&
           NowMicros() < hard_stop) {
      next(loop);
    }
    serving_s += (NowMicros() - start) / 1e6;
    rss_mb.push_back(PeakRssMb());
    auto reference = BuildReferenceEngine(*data, *engine);
    if (reference == nullptr) {
      ++report->failed;
      return;
    }
    loop.Verify(*reference);
    if (round == kRestarts - 1 && options.trace) {
      RunOptimizerProbe(*reference, workload.probe_sample(schema), &tracer,
                        report);
    }
  }
  report->E2E("peak_rss_mb", Median(rss_mb), "MB");
  EmitSetupMetrics(setup_s, report);
  loop.Emit(serving_s, workload.cache_mb << 20);
  char line[160];
  std::snprintf(line, sizeof(line),
                "%d restarts, each on its own seeded relation; peak_rss_mb is "
                "the median of their serving watermarks",
                kRestarts);
  report->Note(line);
  if (!options.trace) return;

  if (!workload.persists) {
    ProbePersistence(*engine, *engine->cache(),
                     WorkDir(options, "work") + "/final.qcache", &persist,
                     report);
  }
  EmitPersistMetrics(persist, report);
  // Server-side metrics do not apply to a library workload; they are
  // reported as zero so every run carries the same metric set.
  report->Layer("server.overhead_ms", 0.0, "ms");
  report->Layer("protocol.render_us", 0.0, "us");
  report->Layer("protocol.response_bytes", 0.0, "bytes");
  report->Layer("protocol.tier_drift", 0.0, "count");
  report->Layer("server.busy_rejects", 0.0, "count");
  report->Layer("server.deadline_errors", 0.0, "count");
  report->Layer("loadgen.late_p99_ms", 0.0, "ms");  // closed loop: no schedule
  EmitCounts(options, workload, loop.all(), report);
  const std::string spans = options.out_dir + "/spans-" +
                            WorkloadName(options.workload) + ".jsonl";
  if (!tracer.WriteJsonl(spans)) report->Note("could not write " + spans);
}

// One analyst session on its own cache; a persisted analyst's cache is
// loaded before the session and saved after it.
void RunSession(ExploreStream& stream, const StreamContext& ctx,
                LibraryLoop& loop) {
  const Engine& engine = loop.engine();
  Session session = stream.Next();
  QueryCache cache(engine.index(), engine.options().cache);
  // A saved cache is only valid for its own relation's index, so analysts
  // resume within a restart.
  const std::string path = ctx.work_dir + "/restart" +
                           std::to_string(loop.restart()) + "-analyst" +
                           std::to_string(session.analyst) + ".qcache";
  const bool resumed = session.analyst >= 0 && std::filesystem::exists(path);
  loop.CountSession(resumed);
  if (resumed) {
    ++ctx.report->attempted;
    const double t0 = NowMicros();
    colarm::Status loaded = colarm::LoadQueryCache(engine.index(), path, &cache);
    const double t1 = NowMicros();
    ctx.tracer->Add("cache.load", 0, -1, t0, t1);
    ctx.persist->load_ms.push_back((t1 - t0) / 1e3);
    if (!loaded.ok()) {
      ++ctx.report->failed;
      ctx.report->Note("LoadQueryCache failed: " + loaded.ToString());
    }
  }
  for (const std::string& text : session.queries) loop.Run(text, &cache);
  if (session.analyst < 0) return;
  ++ctx.report->attempted;
  const double t0 = NowMicros();
  colarm::Status saved = colarm::SaveQueryCache(cache, engine.index(), path);
  const double t1 = NowMicros();
  ctx.tracer->Add("cache.save", 0, -1, t0, t1);
  ctx.persist->save_ms.push_back((t1 - t0) / 1e3);
  std::error_code ec;
  ctx.persist->file_bytes.push_back(
      static_cast<double>(std::filesystem::file_size(path, ec)));
  if (!saved.ok()) {
    ++ctx.report->failed;
    ctx.report->Note("SaveQueryCache failed: " + saved.ToString());
  }
}

}  // namespace

void RunExploreChess(const RunOptions& options, RunReport* report) {
  const uint64_t seed = options.seed;
  LibraryWorkload workload;
  workload.cache_mb = 64;  // the CLI's default budget
  workload.persists = true;
  workload.stream = [seed](const colarm::Schema& schema,
                           const StreamContext& ctx) -> Runner {
    auto stream = std::make_shared<ExploreStream>(schema, seed);
    return [stream, ctx](LibraryLoop& loop) { RunSession(*stream, ctx, loop); };
  };
  // Every third query of a fresh copy of the stream, distinct.
  workload.probe_sample = [seed](const colarm::Schema& schema) {
    std::vector<std::string> sample;
    std::set<std::string> seen;
    ExploreStream fresh(schema, seed);
    for (size_t i = 0; sample.size() < kProbeSample;) {
      for (const std::string& text : fresh.Next().queries) {
        if (i++ % 3 == 0 && sample.size() < kProbeSample &&
            seen.insert(text).second) {
          sample.push_back(text);
        }
      }
    }
    return sample;
  };
  RunLibrary(options, workload, report);
}

void RunAdhocPumsb(const RunOptions& options, RunReport* report) {
  const uint64_t seed = options.seed;
  LibraryWorkload workload;
  // `--cache-mb 4`: a budget the distinct-box working set overflows, so
  // the cache layer runs on misses, inserts and evictions.
  workload.cache_mb = 4;
  workload.stream = [seed](const colarm::Schema& schema,
                           const StreamContext&) -> Runner {
    auto stream = std::make_shared<AdhocStream>(schema, seed);
    return [stream, restart = -1](LibraryLoop& loop) mutable {
      if (loop.restart() != restart) {
        restart = loop.restart();
        stream->ForgetBoxes();
      }
      loop.Run(stream->Next(), nullptr);
    };
  };
  workload.probe_sample = [seed](const colarm::Schema& schema) {
    std::vector<std::string> sample;
    AdhocStream fresh(schema, seed);
    while (sample.size() < kProbeSample) sample.push_back(fresh.Next());
    return sample;
  };
  RunLibrary(options, workload, report);
}

}  // namespace perfbench
