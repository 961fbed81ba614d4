// serve-mushroom: open loop over loopback against an in-process Server
// configured as `colarm_server --primary 0.05` runs it. One generator
// thread drives one connection per tenant with seeded exponential
// inter-arrival times, stepping up a fixed ladder of offered rates. Each
// request is timed from when it was due to the last byte of its response.
//
// Like the library workloads, a run is kRestarts restarts, each on its own
// seeded relation with its own engine (re-calibrated) and server, and
// every restart gets an equal slice of each ladder step; the steps are
// judged on the pooled samples.
#include <arpa/inet.h>
#include <fcntl.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/query_parser.h"
#include "server/protocol.h"
#include "server/server.h"
#include "workloads.h"

namespace perfbench {

namespace {

using colarm::Engine;

constexpr uint32_t kTenants = 4;
// Engine + server restarts per run; setup_s is the median of their starts.
constexpr int kRestarts = 48;
// Offered rates (requests/s) of the ladder, lowest first. The first step
// is the reference load query_p50_ms / query_p99_ms / throughput_qps are
// reported at and gets the run's seconds the higher steps leave over; each
// higher step offers kMinQueries requests, enough to judge its p99.
constexpr double kLadder[] = {300, 450};
// A step is sustained when its p99 stays within this limit, no request
// fails and the completion rate keeps up with the offered rate.
constexpr double kLatencyLimitMs = 200.0;
constexpr double kKeepUpRatio = 0.95;
// Requests per restart that warm the tenants' caches up at the reference
// rate before the steps; not measured, but checked.
constexpr size_t kWarmupRequests = 50;
// A step whose responses are still missing this long after its last
// request was due has stalled; the missing ones count as failed.
constexpr double kStallSeconds = 20.0;

struct Sent {
  ServeRequest request;
  size_t phase = 0;  // 0: warm-up; k >= 1: ladder step k - 1
  double due_us = 0.0;
  double sent_us = 0.0;
  double done_us = 0.0;
  bool answered = false;
  std::string response;
};

struct Connection {
  int fd = -1;
  std::string out;             // bytes not yet written
  std::string in;              // bytes not yet framed
  std::deque<size_t> waiting;  // indices into the sent log, in order
};

// Pops one complete response off the front of `buffer`; false when the
// buffer holds only part of one.
bool TakeResponse(std::string* buffer, std::string* response) {
  const size_t eol = buffer->find('\n');
  if (eol == std::string::npos) return false;
  size_t length = eol + 1;
  if (buffer->compare(0, 3, "OK ") == 0) {
    const size_t payload = std::strtoull(buffer->c_str() + 3, nullptr, 10);
    if (buffer->size() < length + payload) return false;
    length += payload;
  }
  response->assign(*buffer, 0, length);
  buffer->erase(0, length);
  return true;
}

class LoadGenerator {
 public:
  explicit LoadGenerator(uint16_t port) : port_(port) {}
  ~LoadGenerator() {
    for (Connection& c : conns_) {
      if (c.fd >= 0) close(c.fd);
    }
  }
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Connects one socket per tenant and says HELLO on each.
  bool Connect(std::string* error) {
    for (uint32_t t = 0; t < kTenants; ++t) {
      Connection c;
      c.fd = socket(AF_INET, SOCK_STREAM, 0);
      if (c.fd < 0) {
        *error = std::string("socket: ") + std::strerror(errno);
        return false;
      }
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port_);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        *error = std::string("connect: ") + std::strerror(errno);
        close(c.fd);
        return false;
      }
      int one = 1;
      setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      fcntl(c.fd, F_SETFL, fcntl(c.fd, F_GETFL) | O_NONBLOCK);
      conns_.push_back(std::move(c));
    }
    for (uint32_t t = 0; t < kTenants; ++t) {
      const std::string name = "t" + std::to_string(t);
      std::string got;
      if (!Exchange(t, "HELLO " + name, &got) ||
          got != colarm::OkResponse("hello " + name + "\n")) {
        *error = "HELLO failed: " + got;
        return false;
      }
    }
    return true;
  }

  /// One request outside the schedule; waits for its response.
  bool Exchange(uint32_t tenant, const std::string& line,
                std::string* response) {
    Connection& c = conns_[tenant];
    c.out += line + "\n";
    const double deadline = NowMicros() + 10e6;
    while (NowMicros() < deadline) {
      Pump(1000.0);
      if (TakeResponse(&c.in, response)) return true;
    }
    return false;
  }

  /// Sends `log[first, last)` at their due times (offsets from now) and
  /// collects every response. Returns false when the step stalled.
  bool RunSchedule(std::vector<Sent>* log, size_t first, size_t last) {
    log_ = log;
    const double start = NowMicros() + 1000.0;
    for (size_t i = first; i < last; ++i) (*log)[i].due_us += start;
    size_t next = first;
    size_t open = last - first;
    const double give_up = (*log)[last - 1].due_us + kStallSeconds * 1e6;
    // Busy-polls, yielding the core to any other runnable thread. A
    // generator that sleeps until the next due time or response adds its
    // own timer and socket wake-ups to every latency, and on a VM whose
    // idle vCPUs halt those wake-ups are slow and erratic; one that spins
    // without yielding takes a core from the server's query pool.
    while (open > 0) {
      const double now = NowMicros();
      while (next < last && (*log)[next].due_us <= now) {
        Sent& s = (*log)[next];
        Connection& c = conns_[s.request.tenant];
        c.out += s.request.Line() + "\n";
        c.waiting.push_back(next);
        s.sent_us = now;
        ++next;
      }
      if (now > give_up) return false;
      open -= Pump(0.0);
      sched_yield();
    }
    return true;
  }

 private:
  // Writes pending bytes, reads and frames responses; waits at most
  // `wait_us` for socket readiness. Returns responses completed.
  size_t Pump(double wait_us) {
    std::vector<pollfd> fds;
    for (Connection& c : conns_) {
      short events = POLLIN;
      if (!c.out.empty()) events |= POLLOUT;
      fds.push_back(pollfd{c.fd, events, 0});
    }
    timespec timeout{};
    timeout.tv_sec = static_cast<time_t>(wait_us / 1e6);
    timeout.tv_nsec = static_cast<long>(std::fmod(wait_us, 1e6) * 1e3);
    if (ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) return 0;
    size_t completed = 0;
    char buf[1 << 16];
    for (size_t i = 0; i < conns_.size(); ++i) {
      Connection& c = conns_[i];
      if ((fds[i].revents & POLLOUT) && !c.out.empty()) {
        ssize_t n = send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
        if (n > 0) c.out.erase(0, static_cast<size_t>(n));
      }
      if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      while (true) {
        ssize_t n = recv(c.fd, buf, sizeof(buf), 0);
        if (n <= 0) break;
        c.in.append(buf, static_cast<size_t>(n));
      }
      const double now = NowMicros();
      std::string response;
      while (!c.waiting.empty() && TakeResponse(&c.in, &response)) {
        if (log_ != nullptr) {
          Sent& s = (*log_)[c.waiting.front()];
          s.done_us = now;
          s.answered = true;
          s.response = std::move(response);
        }
        c.waiting.pop_front();
        ++completed;
      }
    }
    return completed;
  }

  uint16_t port_;
  std::vector<Connection> conns_;
  std::vector<Sent>* log_ = nullptr;
};

// One phase's requests of every restart, pooled.
struct StepReport {
  double offered = 0.0;
  double achieved = 0.0;
  LatencySummary latency;
  double late_p99_ms = 0.0;
  size_t errors = 0;
  bool stalled = false;
  bool sustained = false;
};

using Slice = std::pair<size_t, size_t>;

StepReport SummarizeStep(const std::vector<Sent>& log,
                         const std::vector<Slice>& slices, double offered,
                         bool stalled) {
  StepReport step;
  step.offered = offered;
  step.stalled = stalled;
  std::vector<double> latency, late;
  double span_s = 0.0;
  for (const auto& [first, last] : slices) {
    if (first == last) continue;
    double last_done = log[first].due_us;
    for (size_t i = first; i < last; ++i) {
      const Sent& s = log[i];
      late.push_back((s.sent_us - s.due_us) / 1e3);
      if (!s.answered || s.response.compare(0, 3, "OK ") != 0) {
        ++step.errors;
        continue;
      }
      latency.push_back((s.done_us - s.due_us) / 1e3);
      last_done = std::max(last_done, s.done_us);
    }
    span_s += (last_done - log[first].due_us) / 1e6;
  }
  step.latency = Summarize(latency);
  step.late_p99_ms = Percentile(late, 99);
  step.achieved = span_s > 0 ? static_cast<double>(latency.size()) / span_s : 0;
  step.sustained = !stalled && step.errors == 0 &&
                   step.latency.p99 <= kLatencyLimitMs &&
                   step.achieved >= kKeepUpRatio * offered;
  return step;
}

// A MINE response with the `cache <tier>` token of its header blanked.
// The server batches a tenant's pipelined requests, and BatchExecutor
// hands an exact duplicate inside one batch its first occurrence's result,
// provenance included — so under pipelining that one token depends on
// batch grouping, i.e. on timing, while a sequential replay reports the
// tier the cache actually had. Everything else must match byte for byte.
std::string WithoutCacheTier(const std::string& response) {
  const size_t header_end = response.find('\n');
  if (header_end == std::string::npos) return response;
  std::string payload = response.substr(header_end + 1);
  const size_t line_end = payload.find('\n');
  const size_t tier = payload.rfind(" cache ", line_end);
  if (tier == std::string::npos || payload.compare(0, 5, "plan ") != 0) {
    return payload;
  }
  return payload.replace(tier + 7, line_end - (tier + 7), "*");
}

// Output check and server-side layer timings, fed one restart at a time.
class Replay {
 public:
  Replay(const colarm::ServerOptions& server, Tracer* tracer, RunReport* report)
      : server_(server), tracer_(tracer), report_(report) {}

  /// Replays `log[first, last)` — everything one restart's server
  /// answered — on `engine`, each tenant's requests in the order its
  /// connection sent them, against fresh per-tenant caches (the restarted
  /// server's were fresh too), and byte-compares every response. A traced
  /// run also replays each MINE through Service::ExecuteMineGroup.
  void Round(const Engine& engine, const std::vector<Sent>& log, size_t first,
             size_t last) {
    std::vector<std::unique_ptr<colarm::QueryCache>> caches;
    for (uint32_t t = 0; t < kTenants; ++t) {
      caches.push_back(std::make_unique<colarm::QueryCache>(
          engine.index(), server_.service.tenant_cache));
    }
    std::unique_ptr<colarm::Service> service;
    std::vector<std::shared_ptr<colarm::Tenant>> tenants;
    if (tracer_->enabled()) {
      service = std::make_unique<colarm::Service>(engine, server_.service);
      for (uint32_t t = 0; t < kTenants; ++t) {
        tenants.push_back(service->GetTenant("t" + std::to_string(t)));
      }
    }
    for (size_t i = first; i < last; ++i) {
      const Sent& s = log[i];
      if (s.request.verb == ServeRequest::Verb::kStats || !s.answered) continue;
      colarm::SessionContext session;
      session.cache = caches[s.request.tenant].get();
      const std::string expected = Expected(engine, s, i, session);
      ++checked_;
      if (service != nullptr && s.request.verb == ServeRequest::Verb::kMine) {
        ReplayThroughService(service.get(), tenants[s.request.tenant].get(), s,
                             i, expected);
      }
      Compare(s, expected);
    }
    last_cache_ = std::move(caches[0]);
  }

  void Emit(const Engine& engine, const RunOptions& options) {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "output check: %zu responses byte-compared against a "
                  "direct-engine replay; %llu differed only in the "
                  "cache-tier token",
                  checked_, static_cast<unsigned long long>(tier_drift_));
    report_->Note(line);
    if (!tracer_->enabled()) return;
    EmitLayerCounters(prefix_, all_, report_);
    EmitSpanMetrics(*tracer_, report_);
    report_->Layer("cache.budget_bytes",
                   static_cast<double>(server_.service.tenant_cache.byte_budget),
                   "bytes");
    report_->Layer("cache.working_set_bytes",
                   static_cast<double>(working_set_bytes_), "bytes");
    PersistCounters persist;
    if (last_cache_ != nullptr) {
      ProbePersistence(engine, *last_cache_,
                       WorkDir(options, "work") + "/tenant0.qcache",
                       &persist, report_);
    }
    EmitPersistMetrics(persist, report_);
    report_->Layer("server.overhead_ms", Percentile(overhead_ms_, 50), "ms");
    std::vector<double> render_us;
    for (const Span& span : tracer_->spans()) {
      if (std::strcmp(span.name, "render") == 0) {
        render_us.push_back(span.end_us - span.start_us);
      }
    }
    report_->Layer("protocol.render_us", Percentile(render_us, 50), "us");
    report_->Layer("protocol.response_bytes", Percentile(response_bytes_, 50),
                   "bytes");
    report_->Layer("protocol.tier_drift", static_cast<double>(tier_drift_),
                   "count");
  }

 private:
  // The response a direct-engine replay renders for `s`.
  std::string Expected(const Engine& engine, const Sent& s, uint64_t id,
                       const colarm::SessionContext& session) {
    const colarm::Schema& schema = engine.index().dataset().schema();
    double t0 = NowMicros();
    auto query = colarm::ParseQuery(schema, s.request.text);
    double t1 = NowMicros();
    tracer_->Add("parse", id, -1, t0, t1);
    if (!query.ok()) return colarm::ErrResponse("PARSE", query.status().message());
    if (s.request.verb == ServeRequest::Verb::kExplain) {
      t0 = NowMicros();
      auto decision = engine.Explain(*query, session);
      t1 = NowMicros();
      tracer_->Add("explain", id, -1, t0, t1);
      if (!decision.ok()) {
        return colarm::ErrResponse(colarm::StatusErrCode(decision.status()),
                                   decision.status().message());
      }
      return colarm::OkResponse(colarm::RenderExplain(*decision));
    }
    t0 = NowMicros();
    auto result = engine.Execute(*query, session);
    t1 = NowMicros();
    if (!result.ok()) {
      return colarm::ErrResponse(colarm::StatusErrCode(result.status()),
                                 result.status().message());
    }
    const int exec = tracer_->Add("execute", id, -1, t0, t1);
    tracer_->Add("plan", id, exec, t1 - result->stats.total_ms * 1e3, t1);
    const double r0 = NowMicros();
    std::string payload = colarm::RenderMineResult(schema, *result);
    const double r1 = NowMicros();
    tracer_->Add("render", id, -1, r0, r1);
    std::string expected = colarm::OkResponse(payload);
    if (tracer_->enabled()) {
      const double latency_ms = (s.done_us - s.due_us) / 1e3;
      response_bytes_.push_back(static_cast<double>(expected.size()));
      all_.Add(*result, latency_ms);
      if (mines_++ < kCountPrefix) {
        prefix_.Add(*result, latency_ms);
        if (prefix_boxes_
                .emplace(s.request.tenant,
                         colarm::CanonicalBoxKey(query->ToRect(schema)))
                .second) {
          working_set_bytes_ +=
              uint64_t{result->stats.subset_size} * sizeof(colarm::Tid);
        }
      }
    }
    return expected;
  }

  // server.overhead_ms: the client's latency minus the service time of
  // the same request replayed through Service::ExecuteMineGroup.
  void ReplayThroughService(colarm::Service* service, colarm::Tenant* tenant,
                            const Sent& s, uint64_t id,
                            const std::string& expected) {
    auto query = colarm::ParseQuery(
        service->engine().index().dataset().schema(), s.request.text);
    if (!query.ok()) return;
    colarm::Service::MineRequest request;
    request.query = *query;
    const double t0 = NowMicros();
    std::vector<std::string> out = service->ExecuteMineGroup(tenant, {&request, 1}, nullptr);
    const double t1 = NowMicros();
    tracer_->Add("service.mine", id, -1, t0, t1);
    if (out.size() != 1 || out[0] != expected) {
      ++report_->mismatches;
      ++report_->failed;
      report_->Note("Service replay differs from the engine replay for: " +
                    s.request.Line());
    }
    if (s.phase == 1) {  // the reference step
      overhead_ms_.push_back((s.done_us - s.due_us - (t1 - t0)) / 1e3);
    }
  }

  void Compare(const Sent& s, const std::string& expected) {
    if (expected == s.response || s.response.compare(0, 3, "OK ") != 0) return;
    if (WithoutCacheTier(expected) == WithoutCacheTier(s.response)) {
      ++tier_drift_;
      return;
    }
    ++report_->mismatches;
    ++report_->failed;
    if (report_->mismatches <= 5) {
      report_->Note("MISMATCH for " + s.request.Line() + "\n  server: " +
                    s.response.substr(0, 200) + "\n  replay: " +
                    expected.substr(0, 200));
    }
  }

  const colarm::ServerOptions& server_;
  Tracer* tracer_;
  RunReport* report_;
  size_t checked_ = 0;
  uint64_t tier_drift_ = 0;
  size_t mines_ = 0;
  LayerCounters prefix_, all_;
  std::set<std::pair<uint32_t, std::string>> prefix_boxes_;
  uint64_t working_set_bytes_ = 0;
  std::vector<double> overhead_ms_, response_bytes_;
  std::unique_ptr<colarm::QueryCache> last_cache_;
};

}  // namespace

void RunServeMushroom(const RunOptions& options, RunReport* report) {
  // Every relation of the family has this schema; the traffic renders its
  // query text against it.
  const colarm::Schema schema =
      MakeDataset(DatasetFor(options.workload, RelationSeed(options.seed, 0)))
          .schema();
  colarm::ServerOptions server_options;
  server_options.service.tenant_cache.enabled = true;
  server_options.service.tenant_cache.byte_budget = size_t{16} << 20;
  const unsigned io_threads =
      server_options.io_threads != 0
          ? server_options.io_threads
          : std::min(4u, std::max(1u, std::thread::hardware_concurrency()));

  // The request log, restart-major: each restart's warm-up, then its
  // slice of every ladder step, each with seeded exponential gaps scaled
  // so the slice offers exactly its nominal rate.
  constexpr size_t kSteps = std::size(kLadder);
  double higher_steps_s = 0.0;
  for (size_t step = 1; step < kSteps; ++step) {
    higher_steps_s += kMinQueries / kLadder[step];
  }
  const double reference_s = std::max(0.0, options.seconds - higher_steps_s);
  const size_t reference_total = std::max<size_t>(
      kMinQueries, static_cast<size_t>(kLadder[0] * reference_s));
  ServeStream stream(schema, kTenants, options.seed);
  Rng arrivals(SubSeed(options.seed, "arrivals"));
  std::vector<Sent> log;
  std::vector<std::vector<Slice>> slices(kRestarts);  // [round][phase]
  for (int round = 0; round < kRestarts; ++round) {
    for (size_t phase = 0; phase <= kSteps; ++phase) {
      const double rate = phase == 0 ? kLadder[0] : kLadder[phase - 1];
      const size_t total = phase == 0   ? kWarmupRequests * kRestarts
                           : phase == 1 ? reference_total
                                        : kMinQueries;
      const size_t n = (total + kRestarts - 1) / kRestarts;
      std::vector<double> gaps(n);
      double sum = 0.0;
      for (double& gap : gaps) sum += gap = -std::log(1.0 - arrivals.Unit());
      const double scale = static_cast<double>(n) / rate * 1e6 / sum;
      const size_t first = log.size();
      double due = 0.0;
      for (size_t i = 0; i < n; ++i) {
        Sent s;
        s.request = stream.Next();
        s.phase = phase;
        s.due_us = due;
        due += gaps[i] * scale;
        log.push_back(std::move(s));
      }
      slices[round].emplace_back(first, log.size());
    }
  }

  Tracer tracer(options.trace);
  Replay replay(server_options, &tracer, report);
  std::vector<double> setup_s, rss_mb;
  std::vector<bool> stalled(kSteps + 1, false);
  uint64_t busy_rejections = 0, stats_busy = 0;
  std::unique_ptr<colarm::Dataset> data;
  std::unique_ptr<Engine> engine;
  colarm::EngineOptions engine_options;
  for (int round = 0; round < kRestarts; ++round) {
    engine.reset();  // one relation, engine and server alive at a time
    const DatasetSpec spec =
        DatasetFor(options.workload, RelationSeed(options.seed, round));
    data = std::make_unique<colarm::Dataset>(MakeDataset(spec));
    // colarm_server defaults, with --primary for this relation.
    engine_options.index.primary_support = spec.primary_support;
    const double t0 = NowMicros();
    auto built = Engine::Build(*data, engine_options);
    if (!built.ok()) {
      report->Note("engine build failed: " + built.status().ToString());
      ++report->failed;
      return;
    }
    engine = std::move(built.value());
    auto server = std::make_unique<colarm::Server>(*engine, server_options);
    colarm::Status started = server->Start();
    const double t1 = NowMicros();
    if (!started.ok()) {
      report->Note("server start failed: " + started.ToString());
      ++report->failed;
      return;
    }
    tracer.Add("setup", 0, -1, t0, t1);
    setup_s.push_back((t1 - t0) / 1e6);
    if (round == 0) {
      AddAttribution(options, *engine, io_threads, report);
      if (options.trace) {
        ProbeBuildLayers(*data, engine_options, *engine, &tracer, report);
      }
    }
    malloc_trim(0);
    ResetPeakRss();
    {
      LoadGenerator generator(server->port());
      std::string error;
      if (!generator.Connect(&error)) {
        report->Note("load generator: " + error);
        ++report->failed;
        server->Shutdown();
        server->Wait();
        return;
      }
      for (size_t phase = 0; phase <= kSteps; ++phase) {
        const auto [first, last] = slices[round][phase];
        if (!generator.RunSchedule(&log, first, last)) {
          stalled[phase] = true;
          break;
        }
      }
      // The server's own counters, read the way a client reads them.
      for (uint32_t t = 0; t < kTenants; ++t) {
        std::string stats;
        ++report->attempted;
        if (!generator.Exchange(t, "STATS", &stats) ||
            stats.compare(0, 3, "OK ") != 0) {
          ++report->failed;
          continue;
        }
        const size_t at = stats.find(" busy ");
        if (at != std::string::npos) {
          stats_busy += std::strtoull(stats.c_str() + at + 6, nullptr, 10);
        }
      }
    }
    rss_mb.push_back(PeakRssMb());
    busy_rejections += server->stats().busy_rejections.load();
    server->Shutdown();
    server->Wait();
    server.reset();
    replay.Round(*engine, log, slices[round].front().first,
                 slices[round].back().second);
  }

  // Failures: every request sent, every ERR or missing response.
  uint64_t deadline_errors = 0;
  for (const Sent& s : log) {
    if (s.sent_us == 0.0) continue;  // never sent (stalled restart)
    ++report->attempted;
    if (s.answered && s.response.compare(0, 3, "OK ") == 0) continue;
    ++report->failed;
    if (s.response.compare(0, 12, "ERR DEADLINE") == 0) ++deadline_errors;
    if (report->failed <= 5) {
      report->Note("FAILURE: " +
                   (s.answered ? s.response : std::string("no response")) +
                   " for " + s.request.Line());
    }
  }

  report->E2E("peak_rss_mb", Median(rss_mb), "MB");
  EmitSetupMetrics(setup_s, report);
  std::vector<StepReport> steps;
  for (size_t phase = 0; phase <= kSteps; ++phase) {
    std::vector<Slice> of_phase;
    for (const auto& round : slices) of_phase.push_back(round[phase]);
    const double rate = phase == 0 ? kLadder[0] : kLadder[phase - 1];
    steps.push_back(SummarizeStep(log, of_phase, rate, stalled[phase]));
    const StepReport& s = steps.back();
    char line[260];
    std::snprintf(line, sizeof(line),
                  "%s: offered %.0f/s achieved %.1f/s, p50 %.3f ms p99 %.3f "
                  "ms (%zu samples, %zu beyond p99), generator late p99 %.3f "
                  "ms, %zu errors%s%s",
                  phase == 0 ? "warm-up" : ("step " + std::to_string(phase)).c_str(),
                  s.offered, s.achieved, s.latency.p50, s.latency.p99,
                  s.latency.count, s.latency.beyond_p99, s.late_p99_ms,
                  s.errors, s.stalled ? ", STALLED" : "",
                  phase == 0 ? "" : (s.sustained ? ", sustained" : ", not sustained"));
    report->Note(line);
  }
  const StepReport& reference = steps[1];
  std::string per_restart = "reference step p50 / p99 ms per restart:";
  for (const auto& round : slices) {
    const StepReport r = SummarizeStep(log, {round[1]}, kLadder[0], false);
    char cell[48];
    std::snprintf(cell, sizeof(cell), " %.3f/%.1f", r.latency.p50, r.latency.p99);
    per_restart += cell;
  }
  report->Note(per_restart);
  report->E2E("query_p50_ms", reference.latency.p50, "ms");
  report->E2E("query_p99_ms", reference.latency.p99, "ms");
  report->E2E("throughput_qps", reference.achieved, "1/s");
  double sustained = 0.0;
  for (size_t phase = 1; phase <= kSteps; ++phase) {
    if (steps[phase].sustained) sustained = steps[phase].achieved;
  }
  report->E2E("sustained_qps", sustained, "1/s");
  char line[260];
  std::snprintf(line, sizeof(line),
                "p99 limit %.0f ms; reference load %.0f/s; %u tenants, one "
                "connection each; %d restarts; busy rejections %llu (STATS "
                "reports %llu)",
                kLatencyLimitMs, kLadder[0], kTenants, kRestarts,
                static_cast<unsigned long long>(busy_rejections),
                static_cast<unsigned long long>(stats_busy));
  report->Note(line);

  replay.Emit(*engine, options);
  if (!options.trace) return;
  // Live requests' spans are assembled from timestamps the untraced run
  // takes as well, so tracing adds nothing to their latency.
  for (size_t i = 0; i < log.size(); ++i) {
    const Sent& s = log[i];
    if (!s.answered) continue;
    const int root = tracer.Add("request", i, -1, s.due_us, s.done_us);
    tracer.Add("loadgen.late", i, root, s.due_us, s.sent_us);
  }
  report->Layer("trace.overhead_pct", 0.0, "%");
  report->Layer("loadgen.late_p99_ms", reference.late_p99_ms, "ms");
  report->Layer("server.busy_rejects", static_cast<double>(busy_rejections), "count");
  report->Layer("server.deadline_errors", static_cast<double>(deadline_errors), "count");
  std::vector<std::string> sample;
  for (size_t i = 0; i < log.size() && sample.size() < 24; ++i) {
    if (log[i].request.verb == ServeRequest::Verb::kMine) {
      sample.push_back(log[i].request.text);
    }
  }
  auto reference_engine = BuildReferenceEngine(*data, *engine);
  if (reference_engine != nullptr) {
    RunOptimizerProbe(*reference_engine, sample, &tracer, report);
  }
  const std::string spans = options.out_dir + "/spans-serve-mushroom.jsonl";
  if (!tracer.WriteJsonl(spans)) report->Note("could not write " + spans);
}

}  // namespace perfbench
