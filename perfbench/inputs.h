// Workload inputs: the seeded synthetic relations and the query streams
// the benchmark feeds the engine and the server. Every stream is a pure
// function of (schema, seed); the program under test only ever sees the
// rendered query text.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "data/schema.h"
#include "data/synthetic.h"

namespace perfbench {

enum class Workload { kExploreChess, kAdhocPumsb, kServeMushroom };

/// Workload names as BENCHMARK.json spells them.
const char* WorkloadName(Workload workload);
bool ParseWorkload(const std::string& name, Workload* out);

/// The relation a workload runs on and the primary support its index is
/// built at (the paper's thresholds for the three datasets).
struct DatasetSpec {
  colarm::SyntheticConfig config;
  double primary_support = 0.6;
};

/// chess analog (3196 records), PUMSB analog at the harness size (12261)
/// or mushroom analog (4062), with `SyntheticConfig::seed` = `seed`.
DatasetSpec DatasetFor(Workload workload, uint64_t seed);

/// The relation seed of restart `restart` of a run with workload seed
/// `seed`: every restart of a run serves its own relation of the family.
uint64_t RelationSeed(uint64_t seed, int restart);

/// A localized query as the benchmark composes it. `lean_attr` < 0 means
/// no leaning-attribute predicate; the constraint fields default to none.
struct QuerySpec {
  uint32_t region_lo = 0;
  uint32_t region_hi = 0;
  int lean_attr = -1;
  uint32_t lean_value = 0;
  std::vector<uint32_t> item_attrs;
  double minsupp = 0.8;
  double minconf = 0.9;
  int contain_attr = -1;
  uint32_t contain_value = 0;
  int exclude_attr = -1;
  uint32_t exclude_value = 0;
  std::vector<uint32_t> antecedent_attrs;
  double minlift = 0.0;
};

/// The paper's query text (Section 2.2) for `spec` over `schema`.
std::string RenderQuery(const colarm::Schema& schema, const QuerySpec& spec);

/// The focal box of `spec` (region interval plus leaning predicate).
std::string BoxKey(const QuerySpec& spec);

/// Attribute layout of a synthetic schema: attribute 0 is the region, the
/// `lean*` attributes are binary, the rest categorical.
struct SchemaShape {
  uint32_t region_domain = 0;
  std::vector<uint32_t> leaning;      // attribute ids
  std::vector<uint32_t> item_domain;  // domain size per attribute id
  uint32_t num_attributes = 0;
};
SchemaShape ShapeOf(const colarm::Schema& schema);

/// One analyst session of explore-chess: a seed box, then drill-downs,
/// threshold sweeps across the ARM/index crossover, slides to
/// neighbouring boxes, constrained variants and, most often, revisits of
/// earlier queries. A session with `analyst` >= 0 resumes that analyst:
/// its cache is loaded before the session and saved after it.
struct Session {
  int analyst = -1;
  std::vector<std::string> queries;
};

class ExploreStream {
 public:
  ExploreStream(const colarm::Schema& schema, uint64_t seed);
  Session Next();

 private:
  const colarm::Schema* schema_;
  SchemaShape shape_;
  Rng rng_;
  uint64_t sessions_ = 0;
  std::map<int, QuerySpec> analyst_last_;
};

/// Independent ad-hoc queries of adhoc-pumsb: no focal box repeats until
/// ForgetBoxes().
class AdhocStream {
 public:
  AdhocStream(const colarm::Schema& schema, uint64_t seed);
  std::string Next();
  /// Focal boxes issued since the last ForgetBoxes() (all distinct).
  size_t distinct_boxes() const { return boxes_.size(); }
  /// Lets later queries reuse boxes issued so far. The region intervals
  /// are finite (a few thousand per leaning predicate), so a stream that
  /// outlives them must forget; a new engine starts with an empty cache,
  /// so boxes need only be new to the engine that runs them.
  void ForgetBoxes() { boxes_.clear(); }

 private:
  const colarm::Schema* schema_;
  SchemaShape shape_;
  Rng rng_;
  uint64_t issued_ = 0;
  std::vector<size_t> dq_bins_, supp_bins_;
  std::set<std::string> boxes_;
};

/// One request of serve-mushroom's traffic mix.
struct ServeRequest {
  enum class Verb { kMine, kExplain, kStats };
  Verb verb = Verb::kMine;
  uint32_t tenant = 0;
  std::string text;  // query text (empty for STATS)
  /// The protocol line, without the trailing newline.
  std::string Line() const;
};

/// serve-mushroom traffic: per-tenant sessions over a shared pool of seed
/// boxes (tenants overlap), mostly MINE with some EXPLAIN and STATS.
class ServeStream {
 public:
  ServeStream(const colarm::Schema& schema, uint32_t tenants, uint64_t seed);
  ServeRequest Next();

 private:
  struct TenantState {
    QuerySpec current;
    QuerySpec seed;
    size_t step = 0;           // position in the session template
    std::vector<double> deck;  // thresholds still to draw
    std::vector<double> lows;  // low thresholds still to deal into decks
  };
  void StartSession(TenantState* state);
  double NextSupport(TenantState* state);

  const colarm::Schema* schema_;
  SchemaShape shape_;
  Rng rng_;
  uint64_t issued_ = 0;
  uint64_t sessions_ = 0;
  std::vector<QuerySpec> box_pool_, pool_order_;
  std::vector<uint32_t> tenant_order_;
  std::vector<ServeRequest::Verb> verb_order_;
  std::vector<TenantState> tenants_;
};

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
