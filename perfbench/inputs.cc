#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

namespace {

// Query-minsupport grid of explore-chess: both sides of the ARM/index
// crossover, which sits near 0.70 on the chess analog.
constexpr double kChessSupports[] = {0.62, 0.66, 0.70, 0.74,
                                     0.78, 0.82, 0.86, 0.90};
// Share of explore-chess sweeps that go to the three thresholds at or
// below the crossover (index plans); the rest go above it (ARM). Most of
// an analyst's time is spent below it, where the index pays off.
constexpr double kLowSweepShare = 0.75;
// serve-mushroom: from just above the 5% primary support up to the
// paper's 70-80% sweep. Low thresholds (large responses, index plans of
// several ms) are the minority of a tenant's traffic; the rest take
// ~0.2-0.5 ms.
constexpr double kMushroomLowSupports[] = {0.06, 0.10, 0.20, 0.30};
constexpr double kMushroomSupports[] = {0.50, 0.60, 0.70, 0.75, 0.80};
constexpr double kLifts[] = {1.01, 1.05, 1.10};
// Persisted analysts explore-chess sessions resume.
constexpr int kAnalysts = 2;
// Seed-box widths (region values, out of 100) that explore-chess sessions
// and the serve-mushroom box pool cycle through.
constexpr std::pair<int, int> kSeedWidths[] = {{5, 10}, {11, 20}, {21, 30},
                                               {31, 40}};
// Shared seed boxes of serve-mushroom; tenants overlap on them.
constexpr int kServeBoxPool = 16;
// Thresholds per serve-mushroom deck (one of them low).
constexpr size_t kServeDeck = 20;
// Draws an adhoc-pumsb query makes for an unused box before giving up.
constexpr int kMaxBoxAttempts = 1 << 20;
// adhoc-pumsb strata.
constexpr size_t kDqBins = 10;
constexpr size_t kSuppBins = 13;
constexpr size_t kDqBinIds[kDqBins] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
constexpr size_t kSuppBinIds[kSuppBins] = {0, 1, 2, 3, 4, 5, 6,
                                           7, 8, 9, 10, 11, 12};

enum class Action { kDrill, kSweep, kSlide, kConstrain, kBack, kZoomOut };
// A serve-mushroom tenant session after its seed query.
constexpr Action kServeTemplate[] = {
    Action::kSweep, Action::kDrill, Action::kSweep,     Action::kSlide,
    Action::kSweep, Action::kConstrain, Action::kSweep, Action::kBack,
    Action::kSweep};
constexpr ServeRequest::Verb kVerbBlock[20] = {
    ServeRequest::Verb::kMine,    ServeRequest::Verb::kMine,
    ServeRequest::Verb::kMine,    ServeRequest::Verb::kMine,
    ServeRequest::Verb::kMine,    ServeRequest::Verb::kMine,
    ServeRequest::Verb::kMine,    ServeRequest::Verb::kMine,
    ServeRequest::Verb::kMine,    ServeRequest::Verb::kMine,
    ServeRequest::Verb::kMine,    ServeRequest::Verb::kMine,
    ServeRequest::Verb::kMine,    ServeRequest::Verb::kMine,
    ServeRequest::Verb::kMine,    ServeRequest::Verb::kMine,
    ServeRequest::Verb::kMine,    ServeRequest::Verb::kExplain,
    ServeRequest::Verb::kExplain, ServeRequest::Verb::kStats};

// An explore-chess analyst's next step. Analysts mostly revisit what
// they have already looked at (kBack re-runs an earlier query of the
// session), so the session cache serves most queries.
Action NextAction(Rng& rng) {
  const double u = rng.Unit();
  if (u < 0.10) return Action::kDrill;
  if (u < 0.22) return Action::kSweep;
  if (u < 0.28) return Action::kSlide;
  if (u < 0.35) return Action::kConstrain;
  if (u < 0.95) return Action::kBack;
  return Action::kZoomOut;
}

// A seeded permutation of `values` (Fisher-Yates).
template <typename Range>
auto Shuffled(Rng& rng, const Range& values) {
  std::vector<std::decay_t<decltype(*std::begin(values))>> out(
      std::begin(values), std::end(values));
  for (size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.Below(i)]);
  }
  return out;
}

template <size_t N>
double Pick(Rng& rng, const double (&values)[N]) {
  return values[rng.Below(N)];
}

std::string FormatThreshold(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", value);
  return buf;
}

// k distinct non-region attributes, sorted.
std::vector<uint32_t> PickAttrs(Rng& rng, const SchemaShape& shape,
                                uint32_t k) {
  std::vector<uint32_t> pool;
  for (uint32_t a = 1; a < shape.num_attributes; ++a) pool.push_back(a);
  k = std::min<uint32_t>(k, static_cast<uint32_t>(pool.size()));
  for (uint32_t i = 0; i < k; ++i) {
    std::swap(pool[i], pool[i + rng.Below(pool.size() - i)]);
  }
  pool.resize(k);
  std::sort(pool.begin(), pool.end());
  return pool;
}

uint32_t Width(const QuerySpec& q) { return q.region_hi - q.region_lo + 1; }

void SetRegion(QuerySpec* q, uint32_t lo, uint32_t width) {
  q->region_lo = lo;
  q->region_hi = lo + width - 1;
}

void ClearConstraints(QuerySpec* q) {
  q->contain_attr = -1;
  q->exclude_attr = -1;
  q->antecedent_attrs.clear();
  q->minlift = 0.0;
}

// Narrows the box: a sub-interval of the region, or a leaning predicate.
void DrillDown(Rng& rng, const SchemaShape& shape, QuerySpec* q) {
  const uint32_t w = Width(*q);
  const bool can_lean = q->lean_attr < 0 && !shape.leaning.empty();
  if (w >= 4 && (!can_lean || rng.Chance(0.6))) {
    uint32_t nw = static_cast<uint32_t>(
        rng.Range(std::max<uint32_t>(1, w / 4), std::max<uint32_t>(1, w * 3 / 4)));
    SetRegion(q, q->region_lo + static_cast<uint32_t>(rng.Below(w - nw + 1)),
              nw);
  } else if (can_lean) {
    q->lean_attr = static_cast<int>(shape.leaning[rng.Below(shape.leaning.size())]);
    q->lean_value = static_cast<uint32_t>(rng.Below(2));
  } else if (w >= 2) {
    SetRegion(q, q->region_lo, w - 1);
  }
}

// Moves the box to a neighbouring, overlapping position.
void Slide(Rng& rng, const SchemaShape& shape, QuerySpec* q) {
  const uint32_t w = Width(*q);
  const int64_t delta = rng.Range(1, std::max<uint32_t>(1, w / 2));
  int64_t lo = static_cast<int64_t>(q->region_lo) + (rng.Chance(0.5) ? delta : -delta);
  lo = std::clamp<int64_t>(lo, 0, shape.region_domain - w);
  SetRegion(q, static_cast<uint32_t>(lo), w);
}

// One constrained variant of `q`: CONTAIN, EXCLUDE, ANTECEDENT or minlift.
void Constrain(Rng& rng, const SchemaShape& shape, QuerySpec* q) {
  const auto& items = q->item_attrs;
  switch (rng.Below(4)) {
    case 0: {
      q->contain_attr = static_cast<int>(items[rng.Below(items.size())]);
      q->contain_value = rng.Chance(0.7)
                             ? 0
                             : static_cast<uint32_t>(rng.Below(
                                   shape.item_domain[q->contain_attr]));
      break;
    }
    case 1:
      q->exclude_attr = static_cast<int>(items[rng.Below(items.size())]);
      q->exclude_value = static_cast<uint32_t>(
          rng.Below(shape.item_domain[q->exclude_attr]));
      break;
    case 2: {
      uint32_t a = items[rng.Below(items.size())];
      uint32_t b = items[rng.Below(items.size())];
      q->antecedent_attrs = {std::min(a, b)};
      if (a != b) q->antecedent_attrs.push_back(std::max(a, b));
      break;
    }
    default:
      q->minlift = Pick(rng, kLifts);
  }
}


}  // namespace

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kExploreChess: return "explore-chess";
    case Workload::kAdhocPumsb: return "adhoc-pumsb";
    case Workload::kServeMushroom: return "serve-mushroom";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kExploreChess, Workload::kAdhocPumsb,
                     Workload::kServeMushroom}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

DatasetSpec DatasetFor(Workload workload, uint64_t seed) {
  DatasetSpec spec;
  switch (workload) {
    case Workload::kExploreChess:
      spec.config = colarm::ChessLikeConfig(1.0);
      spec.primary_support = 0.60;
      break;
    case Workload::kAdhocPumsb:
      spec.config = colarm::PumsbLikeConfig(0.25);
      spec.primary_support = 0.80;
      break;
    case Workload::kServeMushroom:
      spec.config = colarm::MushroomLikeConfig(0.5);
      spec.primary_support = 0.05;
      break;
  }
  spec.config.seed = seed;
  return spec;
}

uint64_t RelationSeed(uint64_t seed, int restart) {
  return SubSeed(seed, "relation-" + std::to_string(restart));
}

std::string RenderQuery(const colarm::Schema& schema, const QuerySpec& spec) {
  auto attr = [&](uint32_t a) -> const colarm::Attribute& {
    return schema.attribute(a);
  };
  std::string out = "REPORT LOCALIZED ASSOCIATION RULES WHERE RANGE ";
  out += attr(0).name + " = {";
  for (uint32_t v = spec.region_lo; v <= spec.region_hi; ++v) {
    if (v != spec.region_lo) out += ", ";
    out += attr(0).values[v];
  }
  out += "}";
  if (spec.lean_attr >= 0) {
    out += " AND " + attr(spec.lean_attr).name + " = {" +
           attr(spec.lean_attr).values[spec.lean_value] + "}";
  }
  auto attr_list = [&](const std::vector<uint32_t>& attrs) {
    std::string list = "{";
    for (size_t i = 0; i < attrs.size(); ++i) {
      if (i != 0) list += ", ";
      list += attr(attrs[i]).name;
    }
    return list + "}";
  };
  if (!spec.item_attrs.empty()) {
    out += " AND ITEM ATTRIBUTES " + attr_list(spec.item_attrs);
  }
  if (spec.contain_attr >= 0) {
    out += " AND CONTAIN {" + attr(spec.contain_attr).name + " = " +
           attr(spec.contain_attr).values[spec.contain_value] + "}";
  }
  if (spec.exclude_attr >= 0) {
    out += " AND EXCLUDE {" + attr(spec.exclude_attr).name + " = " +
           attr(spec.exclude_attr).values[spec.exclude_value] + "}";
  }
  if (!spec.antecedent_attrs.empty()) {
    out += " AND ANTECEDENT ATTRIBUTES " + attr_list(spec.antecedent_attrs);
  }
  out += " HAVING minsupport = " + FormatThreshold(spec.minsupp) +
         " AND minconfidence = " + FormatThreshold(spec.minconf);
  if (spec.minlift > 0.0) out += " AND minlift = " + FormatThreshold(spec.minlift);
  return out;
}

std::string BoxKey(const QuerySpec& spec) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%u-%u/%d=%u", spec.region_lo,
                spec.region_hi, spec.lean_attr,
                spec.lean_attr >= 0 ? spec.lean_value : 0);
  return buf;
}

SchemaShape ShapeOf(const colarm::Schema& schema) {
  SchemaShape shape;
  shape.num_attributes = schema.num_attributes();
  shape.region_domain = schema.attribute(0).domain_size();
  for (uint32_t a = 0; a < shape.num_attributes; ++a) {
    shape.item_domain.push_back(schema.attribute(a).domain_size());
    if (a > 0 && schema.attribute(a).name.rfind("lean", 0) == 0) {
      shape.leaning.push_back(a);
    }
  }
  return shape;
}

ExploreStream::ExploreStream(const colarm::Schema& schema, uint64_t seed)
    : schema_(&schema), shape_(ShapeOf(schema)), rng_(SubSeed(seed, "explore")) {}

Session ExploreStream::Next() {
  // Session seeds are stratified: widths, starting thresholds, item-set
  // sizes and resumed analysts repeat in a fixed pattern and the seed picks
  // the values inside it, so every run holds a similar blend of work.
  const uint64_t k = sessions_++;
  Session session;
  if (k % 3 == 2) session.analyst = static_cast<int>((k / 3) % kAnalysts);
  QuerySpec seed;
  auto last = analyst_last_.find(session.analyst);
  if (last != analyst_last_.end()) {
    seed = last->second;  // pick up where the analyst left off
  } else {
    seed.item_attrs = PickAttrs(rng_, shape_, static_cast<uint32_t>(7 + k % 3));
    const auto [lo_w, hi_w] = kSeedWidths[k % std::size(kSeedWidths)];
    const uint32_t w = static_cast<uint32_t>(rng_.Range(lo_w, hi_w));
    SetRegion(&seed, static_cast<uint32_t>(rng_.Below(shape_.region_domain - w + 1)), w);
    seed.minsupp = kChessSupports[1 + k % 4];  // around the crossover
    seed.minconf = k % 2 == 0 ? 0.90 : 0.95;
  }
  std::vector<QuerySpec> history = {seed};
  QuerySpec current = seed;
  session.queries.push_back(RenderQuery(*schema_, seed));
  const int steps = static_cast<int>(rng_.Range(8, 14));
  for (int i = 0; i < steps; ++i) {
    QuerySpec next = current;
    const Action action = NextAction(rng_);
    switch (action) {
      case Action::kDrill: DrillDown(rng_, shape_, &next); break;
      case Action::kSweep:
        // One sweep in kLowSweepShare crosses below the crossover.
        while (next.minsupp == current.minsupp) {
          next.minsupp = rng_.Chance(kLowSweepShare)
                             ? kChessSupports[rng_.Below(3)]
                             : kChessSupports[3 + rng_.Below(5)];
        }
        break;
      case Action::kSlide: Slide(rng_, shape_, &next); break;
      case Action::kConstrain: Constrain(rng_, shape_, &next); break;
      case Action::kBack: next = history[rng_.Below(history.size())]; break;
      case Action::kZoomOut:
        next = seed;
        next.minsupp = current.minsupp;
        break;
    }
    session.queries.push_back(RenderQuery(*schema_, next));
    history.push_back(next);
    // A constrained variant is a one-off; the analyst returns to `current`.
    if (action != Action::kConstrain) current = next;
  }
  if (session.analyst >= 0) {
    ClearConstraints(&current);
    analyst_last_[session.analyst] = current;
  }
  return session;
}

AdhocStream::AdhocStream(const colarm::Schema& schema, uint64_t seed)
    : schema_(&schema), shape_(ShapeOf(schema)), rng_(SubSeed(seed, "adhoc")) {}

std::string AdhocStream::Next() {
  // Stratified: each block of ten queries covers the ten |DQ| bins and
  // each block of thirteen the thirteen minsupport bins, in seeded order.
  const uint64_t i = issued_++;
  if (i % kDqBins == 0) dq_bins_ = Shuffled(rng_, kDqBinIds);
  if (i % kSuppBins == 0) supp_bins_ = Shuffled(rng_, kSuppBinIds);
  QuerySpec q;
  const uint32_t domain = shape_.region_domain;
  for (int attempt = 0;; ++attempt) {
    // No box repeats: redraw inside the stratum, then in any stratum once
    // this one runs short of unused boxes.
    const size_t bin =
        attempt < 64 ? dq_bins_[i % kDqBins] : rng_.Below(kDqBins);
    const double dq = 0.01 + 0.049 * (static_cast<double>(bin) + rng_.Unit());
    double region_share = dq;
    if (!shape_.leaning.empty() && i % 3 == 0) {
      q.lean_attr = static_cast<int>(
          shape_.leaning[rng_.Below(shape_.leaning.size())]);
      q.lean_value = static_cast<uint32_t>((i / 3) % 2);
      // The presets' leaning attributes take value 0 with probability 0.7.
      region_share = dq / (q.lean_value == 0 ? 0.7 : 0.3);
    }
    const uint32_t w = std::clamp<uint32_t>(
        static_cast<uint32_t>(std::lround(region_share * domain)), 1, domain);
    SetRegion(&q, static_cast<uint32_t>(rng_.Below(domain - w + 1)), w);
    if (boxes_.insert(BoxKey(q)).second) break;
    if (attempt == kMaxBoxAttempts) {
      std::fprintf(stderr, "perfbench: adhoc-pumsb ran out of unused boxes "
                           "after %zu queries\n", boxes_.size());
      std::exit(4);
    }
  }
  q.item_attrs = PickAttrs(rng_, shape_, static_cast<uint32_t>(8 + i % 5));
  q.minsupp = 0.82 + 0.01 * supp_bins_[i % kSuppBins] +
              0.001 * static_cast<double>(rng_.Below(10));
  q.minconf = 0.9;
  return RenderQuery(*schema_, q);
}

std::string ServeRequest::Line() const {
  switch (verb) {
    case Verb::kMine: return "MINE " + text;
    case Verb::kExplain: return "EXPLAIN " + text;
    case Verb::kStats: return "STATS";
  }
  return "";
}

ServeStream::ServeStream(const colarm::Schema& schema, uint32_t tenants,
                         uint64_t seed)
    : schema_(&schema),
      shape_(ShapeOf(schema)),
      rng_(SubSeed(seed, "serve")),
      tenants_(tenants) {
  for (int i = 0; i < kServeBoxPool; ++i) {
    QuerySpec box;
    const auto [lo_w, hi_w] = kSeedWidths[i % std::size(kSeedWidths)];
    const uint32_t w = static_cast<uint32_t>(rng_.Range(lo_w, hi_w));
    SetRegion(&box, static_cast<uint32_t>(rng_.Below(shape_.region_domain - w + 1)), w);
    box_pool_.push_back(box);
  }
  for (TenantState& state : tenants_) StartSession(&state);
}

void ServeStream::StartSession(TenantState* state) {
  const uint64_t k = sessions_++;
  if (k % box_pool_.size() == 0) pool_order_ = Shuffled(rng_, box_pool_);
  QuerySpec seed = pool_order_[k % pool_order_.size()];
  seed.item_attrs = PickAttrs(rng_, shape_, static_cast<uint32_t>(4 + k % 3));
  seed.minsupp = NextSupport(state);
  seed.minconf = 0.8;
  state->seed = seed;
  state->current = seed;
  state->step = 0;
}

// Each tenant draws thresholds from a shuffled deck holding one low
// threshold per kServeDeck cards, so low-threshold work is an exact share;
// its decks take the low thresholds in turn, so each of them is too.
double ServeStream::NextSupport(TenantState* state) {
  if (state->deck.empty()) {
    if (state->lows.empty()) state->lows = Shuffled(rng_, kMushroomLowSupports);
    state->deck.push_back(state->lows.back());
    state->lows.pop_back();
    while (state->deck.size() < kServeDeck) {
      for (double v : Shuffled(rng_, kMushroomSupports)) {
        if (state->deck.size() < kServeDeck) state->deck.push_back(v);
      }
    }
    state->deck = Shuffled(rng_, state->deck);
  }
  const double v = state->deck.back();
  state->deck.pop_back();
  return v;
}

ServeRequest ServeStream::Next() {
  // Stratified: every block of one request per tenant visits each tenant
  // once, and every block of 20 holds 17 MINE, 2 EXPLAIN and one
  // STATS, in seeded order.
  const uint64_t i = issued_++;
  if (tenant_order_.empty() || i % tenant_order_.size() == 0) {
    tenant_order_.clear();
    for (uint32_t t = 0; t < tenants_.size(); ++t) tenant_order_.push_back(t);
    tenant_order_ = Shuffled(rng_, tenant_order_);
  }
  if (i % std::size(kVerbBlock) == 0) verb_order_ = Shuffled(rng_, kVerbBlock);
  ServeRequest request;
  request.tenant = tenant_order_[i % tenant_order_.size()];
  request.verb = verb_order_[i % verb_order_.size()];
  if (request.verb == ServeRequest::Verb::kStats) return request;
  TenantState& state = tenants_[request.tenant];
  if (state.step == std::size(kServeTemplate)) StartSession(&state);
  QuerySpec next = state.current;
  const Action action = kServeTemplate[state.step++];
  switch (action) {
    case Action::kDrill: DrillDown(rng_, shape_, &next); break;
    case Action::kSweep: next.minsupp = NextSupport(&state); break;
    case Action::kSlide: Slide(rng_, shape_, &next); break;
    case Action::kConstrain: Constrain(rng_, shape_, &next); break;
    case Action::kBack:
    case Action::kZoomOut: next = state.seed; break;
  }
  request.text = RenderQuery(*schema_, next);
  if (action != Action::kConstrain) state.current = next;
  return request;
}

}  // namespace perfbench
