// Repository benchmark: runs one workload per process and prints one
// JSON result line (see perfbench/README.md for every metric, its unit and
// direction, and why each workload exists).
//
//   slp_perfbench --workload solve|serve|churn --seed N --seconds S
//                 --trace 0|1 [--trace-out FILE]
//
// Untraced (--trace 0) runs report the end-to-end metrics. Traced runs
// (--trace 1) record spans around the benchmark's own calls into the
// library's layers, keep them in memory, write them to FILE as Chrome
// trace-event JSON at the end, and report the per-layer metrics derived
// from them. Only public entry points and stage functions are called; the
// library receives generated inputs only, all derived from --seed.

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory_resource>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/parallel.h"
#include "src/common/random.h"
#include "src/core/assignment.h"
#include "src/core/candidates.h"
#include "src/core/dynamic.h"
#include "src/core/filter_assign.h"
#include "src/core/metrics.h"
#include "src/core/problem.h"
#include "src/core/slp.h"
#include "src/core/subscription_assign.h"
#include "src/match/match_index.h"
#include "src/network/tree_builder.h"
#include "src/sim/churn_scenarios.h"
#include "src/sim/dissemination.h"
#include "src/sim/fault_plan.h"
#include "src/workload/grid.h"

namespace slp::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// ---- Workload sizes (README.md explains the choices) ----

// A run solves several independent instances, each generated from its own
// seed derived from --seed, and reports the interquartile mean of the
// per-instance values: one instance's cost depends strongly on its random
// structure (hot-spot cells, tree shape, which brokers crash) and on the
// algorithm's own random choices, while the mean over many instances stays
// steady from seed to seed.
struct Size {
  int instances;
  int subscribers;
  int brokers;
  int max_out_degree;
  int events;
};
constexpr Size kSolveSize = {100, 5000, 20, 5, 10000};
constexpr Size kServeSize = {40, 12000, 100, 15, 12000};
constexpr Size kChurnSize = {40, 1500, 100, 15, 750};

// Events per seeded sample checked by brute force.
constexpr int kCheckSample = 200;

// Salts that derive every input's seed from the one --seed argument.
enum Salt : uint64_t {
  kSaltInstance = 1000,
  kSaltWorkload = 1,
  kSaltTree,
  kSaltEvents,
  kSaltSample,
  kSaltSlp,
  kSaltChurnPlan,
  kSaltSlowPlan,
  kSaltFlakyPlan,
  kSaltReplay,
};

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + salt * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Interquartile mean: the mean of the middle half of the sorted values (of
// all of them when there are fewer than four). Robust to the odd slow
// instance like a median, and steadier than a median on the rest.
double InterquartileMean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t drop = v.size() / 4;
  double sum = 0;
  for (size_t i = drop; i < v.size() - drop; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * drop);
}

// Nearest-rank percentile (q in (0, 1]) of a sample.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}


// Process CPU time: every thread of the process, the shared pool's workers
// included. Times are taken this way rather than from the wall clock, which
// also counts the time the process waits for a core: on a shared machine
// that wait is set by other tenants, and it made the same run's wall times
// spread several times wider than its CPU times.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---- Machine speed ----

// CPU time alone does not make a shared machine steady: other tenants'
// memory traffic can make the same work take 1.8 times as much CPU time,
// for minutes at a time.
// So before each instance the benchmark times a fixed reference kernel of
// its own, independent of the library and of --seed, whose slowdown tracks
// the library's: inserts into and lookups in a hash table of several
// megabytes, beyond the per-core cache. The end-to-end times are CPU
// seconds scaled by that instance's speed, kReferenceSeconds / kernel CPU
// seconds: CPU seconds at the speed the machine had when the kernel took
// kReferenceSeconds (README.md, "Machine speed").
constexpr double kReferenceSeconds = 0.025;
constexpr int kReferenceOps = 250000;

class ReferenceKernel {
 public:
  // The kernel's memory is allocated and touched here, once, so the timed
  // passes see the same addresses every time, whatever the instances left
  // on the heap. The fill is non-zero so that every page becomes resident:
  // a zero fill may compile to calloc, which leaves fresh pages untouched.
  ReferenceKernel() : arena_(16 << 20, std::byte{1}) { Seconds(); }

  // The kernel's buffer, resident for as long as the kernel lives.
  double resident_mb() const {
    return static_cast<double>(arena_.size()) / (1 << 20);
  }

  // CPU seconds of one pass.
  double Seconds() {
    const double start = CpuSeconds();
    std::pmr::monotonic_buffer_resource memory(
        arena_.data(), arena_.size(), std::pmr::null_memory_resource());
    std::pmr::unordered_map<uint64_t, uint64_t> table(&memory);
    table.reserve(kReferenceOps);
    uint64_t x = 0x9e3779b97f4a7c15ull;
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    for (int i = 0; i < kReferenceOps; ++i) table[next() % 4000037] += i;
    uint64_t sum = 0;
    for (int i = 0; i < kReferenceOps; ++i) {
      const auto it = table.find(next() % 4000037);
      if (it != table.end()) sum += it->second;
    }
    sink_ = sum;
    return CpuSeconds() - start;
  }

 private:
  std::vector<std::byte> arena_;
  volatile uint64_t sink_ = 0;
};

// ---- Tracing: spans around the benchmark's own calls ----

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  // Opens a span under the innermost open span; -1 when tracing is off.
  int Begin(const char* name) {
    if (!enabled_) return -1;
    spans_.push_back({name, Now(), -1, 0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  // Closes span `id`, which used `cpu_seconds` of process CPU time.
  void End(int id, double cpu_seconds) {
    if (id < 0) return;
    spans_[id].end = Now();
    spans_[id].cpu = cpu_seconds;
    current_ = spans_[id].parent;
  }

  // Records a counter at the boundary where the work was done; a counter
  // recorded once per instance reports the interquartile mean over them.
  void Count(const std::string& name, double value) {
    if (enabled_) counters_[name].push_back(value);
  }

  // Interquartile mean CPU time of the spans called `name` (0 if none).
  double SpanSeconds(const std::string& name) const {
    std::vector<double> cpu;
    for (const SpanRecord& s : spans_) {
      if (s.name == name) cpu.push_back(s.cpu);
    }
    return InterquartileMean(cpu);
  }

  bool HasCounter(const std::string& name) const {
    return counters_.count(name) > 0;
  }
  double Counter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : InterquartileMean(it->second);
  }
  int num_spans() const { return static_cast<int>(spans_.size()); }

  // Writes every span as a Chrome trace-event "complete" event on the wall
  // clock, with its CPU time. Self time is the span's duration minus the
  // part its child spans cover.
  bool WriteChromeTrace(const std::string& path) const {
    std::vector<double> child_time(spans_.size(), 0);
    for (const SpanRecord& s : spans_) {
      if (s.parent >= 0) child_time[s.parent] += s.end - s.start;
    }
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"self_us\":%.3f,\"cpu_us\":%.3f}}",
                   i == 0 ? "" : ",", s.name, s.start * 1e6,
                   (s.end - s.start) * 1e6, i, s.parent,
                   (s.end - s.start - child_time[i]) * 1e6, s.cpu * 1e6);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct SpanRecord {
    const char* name;
    double start;  // wall clock, seconds since the tracer started
    double end;
    double cpu;    // process CPU seconds
    int parent;
  };

  double Now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  int current_ = -1;
  std::map<std::string, std::vector<double>> counters_;
};

// Times one call: a span in traced runs, and its CPU seconds in every run
// (the clock reads sit inside the span, so Stop() excludes tracer cost).
class Span {
 public:
  Span(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.Begin(name)), start_(CpuSeconds()) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { Stop(); }

  double Stop() {
    if (!stopped_) {
      seconds_ = CpuSeconds() - start_;
      tracer_.End(id_, seconds_);
      stopped_ = true;
    }
    return seconds_;
  }

 private:
  Tracer& tracer_;
  int id_;
  double start_;
  bool stopped_ = false;
  double seconds_ = 0;
};

// Per-run cost of one span open/close pair, measured on a scratch tracer.
double SpanCostNs() {
  constexpr int kPairs = 100000;
  Tracer scratch(true);
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kPairs; ++i) {
    Span span(scratch, "calibration");
  }
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
             .count() /
         kPairs;
}

// ---- Results ----

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  // Per-instance values of the end-to-end metrics.
  std::map<std::string, std::vector<double>> samples;
  // The current instance's machine speed (see ReferenceKernel).
  double speed = 1;

  void Sample(const std::string& name, double value) {
    samples[name].push_back(value);
  }
  // CPU seconds, at the reference speed.
  void SampleSeconds(const std::string& name, double cpu_seconds) {
    Sample(name, cpu_seconds * speed);
  }
  // Operations per CPU second, at the reference speed.
  void SampleRate(const std::string& name, double count, double cpu_seconds) {
    Sample(name, count / (cpu_seconds * speed));
  }
};

void Fail(Outcome* out, const char* what) {
  std::fprintf(stderr, "check failed: %s\n", what);
  out->correct = false;
}

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Per-layer metrics, emitted by every traced run in this order. A time
// metric "<span>_s" is the interquartile mean duration of the spans named
// "<span>" (one per instance); every other metric is a counter recorded
// where its work happened. A layer a workload never enters reads 0.
constexpr MetricSpec kLayerMetrics[] = {
    // Set-up.
    {"common.thread_pool_s", "s"},
    {"common.pool_threads", "count"},
    {"workload.generate_s", "s"},
    {"network.build_tree_s", "s"},
    {"core.problem_s", "s"},
    {"core.assigner_s", "s"},
    {"workload.events_s", "s"},
    {"sim.fault_plan_s", "s"},
    // Offline assignment (solve).
    {"core.run_slp_s", "s"},
    {"core.child_targets_s", "s"},
    {"core.filter_assign_s", "s"},
    {"core.max_flow_assign_s", "s"},
    {"core.run_slp.rest_s", "s"},
    {"core.filter_assign.lp_calls", "count"},
    {"core.filter_assign.iterations", "count"},
    {"core.filter_assign.budget_exhausted", "count"},
    {"core.max_flow_assign.achieved_beta", "ratio"},
    {"core.compute_metrics_s", "s"},
    {"core.validate_s", "s"},
    // Online admission (serve, churn).
    {"core.add_batch_s", "s"},
    {"core.add_calls", "count"},
    {"core.add_us.p50", "us"},
    {"core.add_us.p90", "us"},
    {"core.add_us.p99", "us"},
    {"core.current_bandwidth_s", "s"},
    // Deployment build (all).
    {"sim.rebuild_s", "s"},
    {"core.snapshot_s", "s"},
    {"sim.simulate_empty_s", "s"},
    {"match.build_broker_index_s", "s"},
    {"match.build_subscriber_index_s", "s"},
    {"match.broker_rects", "count"},
    {"match.subscriber_rects", "count"},
    // Routing (all).
    {"sim.simulate_s", "s"},
    {"sim.stream_events", "count"},
    {"match.broker_probe_ns", "ns"},
    {"match.subscriber_append_ns", "ns"},
    {"match.brokers_matched_per_event", "count"},
    {"match.subscribers_matched_per_event", "count"},
    {"sim.msgs_per_event", "count"},
    {"sim.deliveries_per_event", "count"},
    {"sim.leaf_useful_ratio", "ratio"},
    // Control plane under failures (churn).
    {"sim.replay_s", "s"},
    {"liveness.heartbeats_sent", "count"},
    {"liveness.false_suspicions", "count"},
    {"liveness.premature_evacuations", "count"},
    {"liveness.lease_expirations", "count"},
    {"sim.reconnects", "count"},
    {"core.repair.orphaned", "count"},
    {"core.repair.repaired", "count"},
    {"core.repair.degraded", "count"},
    {"sim.missed_undetected", "count"},
    {"sim.missed_outage", "count"},
    // Correctness checks, the tracer itself and the machine speed.
    {"check.bruteforce_s", "s"},
    {"check.sample_pairs", "count"},
    {"check.selftest_failures", "count"},
    {"trace.spans", "count"},
    {"trace.span_cost_ns", "ns"},
    {"bench.speed", "ratio"},
};

// ---- Inputs ----

wl::Workload GenerateGrid(const Size& size, uint64_t seed) {
  wl::GridParams params;
  params.num_subscribers = size.subscribers;
  params.num_brokers = size.brokers;
  params.seed = SubSeed(seed, kSaltWorkload);
  return wl::GenerateGrid(params);
}

net::BrokerTree BuildTree(const wl::Workload& w, const Size& size,
                          uint64_t seed) {
  Rng rng(SubSeed(seed, kSaltTree));
  return net::BuildMultiLevelTree(w.publisher, w.broker_locations,
                                  size.max_out_degree, rng);
}

std::vector<geo::Point> UniformEvents(int n, uint64_t seed) {
  Rng rng(SubSeed(seed, kSaltEvents));
  std::vector<geo::Point> events;
  events.reserve(n);
  for (int i = 0; i < n; ++i) {
    const double x = rng.Uniform(0, 1);
    events.push_back({x, rng.Uniform(0, 1)});
  }
  return events;
}

std::vector<geo::Point> SampleOf(const std::vector<geo::Point>& events,
                                 uint64_t seed) {
  Rng rng(SubSeed(seed, kSaltSample));
  std::vector<int> picks = UniformSampleWithoutReplacement(
      static_cast<int>(events.size()), kCheckSample, rng);
  std::sort(picks.begin(), picks.end());
  std::vector<geo::Point> sample;
  sample.reserve(picks.size());
  for (int i : picks) sample.push_back(events[i]);
  return sample;
}

// ---- Engine-independent delivery check ----

bool Contains(const geo::Rectangle& r, const geo::Point& p) {
  for (int d = 0; d < r.dim(); ++d) {
    if (p[d] < r.lo(d) || p[d] > r.hi(d)) return false;
  }
  return true;
}

bool Inside(const geo::Rectangle& inner, const geo::Rectangle& outer) {
  for (int d = 0; d < inner.dim(); ++d) {
    if (inner.lo(d) < outer.lo(d) || inner.hi(d) > outer.hi(d)) return false;
  }
  return true;
}

bool FilterContains(const geo::Filter& f, const geo::Point& p) {
  for (const geo::Rectangle& r : f.rects()) {
    if (Contains(r, p)) return true;
  }
  return false;
}

struct DeliveryCheck {
  int64_t uncovered = 0;  // placed subscriptions outside their leaf filter
  int64_t pairs = 0;      // matching (placed subscriber, event) pairs
  int64_t delivered = 0;  // pairs whose whole filter path admits the event
  int64_t missed = 0;     // pairs some filter on the path drops

  int64_t failures() const { return uncovered + missed; }
};

// Brute force, written against rectangles only: a matching subscriber
// receives an event iff every broker filter from its leaf up to the
// publisher contains the event (the forwarding rule), and every placed
// subscription must lie inside one rectangle of its leaf's filter.
DeliveryCheck BruteForceDeliveries(const core::SaProblem& problem,
                                   const core::SaSolution& solution,
                                   const std::vector<geo::Point>& sample) {
  const net::BrokerTree& tree = problem.tree();
  DeliveryCheck check;
  for (int j = 0; j < problem.num_subscribers(); ++j) {
    const int leaf = solution.assignment[j];
    if (leaf < 0) continue;
    const geo::Rectangle& sub = problem.subscriber(j).subscription;
    bool inside = false;
    for (const geo::Rectangle& r : solution.filters[leaf].rects()) {
      inside = inside || Inside(sub, r);
    }
    if (!inside) ++check.uncovered;
  }
  for (const geo::Point& e : sample) {
    for (int j = 0; j < problem.num_subscribers(); ++j) {
      const int leaf = solution.assignment[j];
      if (leaf < 0 || !Contains(problem.subscriber(j).subscription, e)) {
        continue;
      }
      ++check.pairs;
      bool reached = true;
      for (int v = leaf; v != net::BrokerTree::kPublisher && reached;
           v = tree.parent(v)) {
        reached = FilterContains(solution.filters[v], e);
      }
      ++(reached ? check.delivered : check.missed);
    }
  }
  return check;
}

// Gates a deployment on the brute-force check, compares it with the
// simulator's deliveries on the same sample, and proves the check has
// teeth: shrinking the busiest leaf's filter in a copy must trip it.
void CheckDeployment(Tracer& tracer, const core::SaProblem& problem,
                     const core::SaSolution& solution,
                     const std::vector<geo::Point>& sample, Outcome* out) {
  Span span(tracer, "check.bruteforce");
  const DeliveryCheck check = BruteForceDeliveries(problem, solution, sample);
  if (check.uncovered > 0) Fail(out, "subscription outside its leaf filter");
  if (check.missed > 0) Fail(out, "brute force found missed deliveries");
  const sim::DisseminationStats sampled =
      sim::Simulate(problem, solution, sample);
  if (sampled.deliveries != check.delivered ||
      sampled.missed_deliveries != check.missed) {
    Fail(out, "simulator deliveries disagree with brute force");
  }

  std::vector<int> load(problem.tree().num_nodes(), 0);
  for (int leaf : solution.assignment) {
    if (leaf >= 0) ++load[leaf];
  }
  const int busiest = static_cast<int>(
      std::max_element(load.begin(), load.end()) - load.begin());
  core::SaSolution broken = solution;
  geo::Filter shrunk;
  for (const geo::Rectangle& r : solution.filters[busiest].rects()) {
    std::vector<double> lo = r.lo(), hi = r.hi();
    for (int d = 0; d < r.dim(); ++d) {
      const double quarter = 0.25 * r.length(d);
      lo[d] += quarter;
      hi[d] -= quarter;
    }
    shrunk.Add(geo::Rectangle(std::move(lo), std::move(hi)));
  }
  broken.filters[busiest] = shrunk;
  const int64_t selftest =
      BruteForceDeliveries(problem, broken, sample).failures();
  if (selftest == 0) Fail(out, "self-test: shrunk leaf filter not detected");
  span.Stop();

  tracer.Count("check.sample_pairs", static_cast<double>(check.pairs));
  tracer.Count("check.selftest_failures", static_cast<double>(selftest));
}

// ---- Shared deployment phases ----

// Builds the deployment's match tables: Simulate over an empty stream.
double SimulateEmpty(Tracer& tracer, const core::SaProblem& problem,
                     const core::SaSolution& solution) {
  Span span(tracer, "sim.simulate_empty");
  sim::Simulate(problem, solution, {});
  return span.Stop();
}

// Records the routing counters of one Simulate call over the stream.
void CountRouting(Tracer& tracer, const core::SaProblem& problem,
                  const sim::DisseminationStats& stats) {
  const double events = std::max(1, stats.events);
  int64_t leaf_entries = 0;
  for (int v = 1; v < problem.tree().num_nodes(); ++v) {
    if (problem.tree().is_leaf(v)) leaf_entries += stats.broker_hits[v];
  }
  tracer.Count("sim.stream_events", stats.events);
  tracer.Count("sim.msgs_per_event", stats.total_messages / events);
  tracer.Count("sim.deliveries_per_event", stats.deliveries / events);
  tracer.Count("sim.leaf_useful_ratio",
               leaf_entries > 0 ? 1.0 - static_cast<double>(
                                            stats.wasted_leaf_hits) /
                                            leaf_entries
                                : 1.0);
}

// Traced runs only: rebuilds the two global match tables Simulate builds
// (broker filters, owner = node id; placed subscriptions, owner =
// subscriber) and times the two probes routing pays per event.
void TraceMatchLayer(Tracer& tracer, const core::SaProblem& problem,
                     const core::SaSolution& solution,
                     const std::vector<geo::Point>& events) {
  const net::BrokerTree& tree = problem.tree();
  std::vector<match::OwnedRect> broker_rects;
  for (int v = 1; v < tree.num_nodes(); ++v) {
    for (const geo::Rectangle& r : solution.filters[v].rects()) {
      broker_rects.push_back({v, r});
    }
  }
  std::vector<match::OwnedRect> sub_rects;
  for (int j = 0; j < problem.num_subscribers(); ++j) {
    if (solution.assignment[j] >= 0) {
      sub_rects.push_back({j, problem.subscriber(j).subscription});
    }
  }
  tracer.Count("match.broker_rects", static_cast<double>(broker_rects.size()));
  tracer.Count("match.subscriber_rects",
               static_cast<double>(sub_rects.size()));

  Span broker_build(tracer, "match.build_broker_index");
  const match::MatchIndex brokers =
      match::BuildIndex(broker_rects, tree.num_nodes());
  broker_build.Stop();
  Span sub_build(tracer, "match.build_subscriber_index");
  const match::MatchIndex subscribers =
      match::BuildIndex(sub_rects, problem.num_subscribers());
  sub_build.Stop();

  const double n = std::max<size_t>(1, events.size());
  match::MatchBatch batch(&brokers);
  int64_t matched = 0;
  Span broker_probe(tracer, "match.broker_probe");
  for (const geo::Point& e : events) matched += batch.Probe(e).size();
  tracer.Count("match.broker_probe_ns", broker_probe.Stop() * 1e9 / n);
  tracer.Count("match.brokers_matched_per_event", matched / n);

  std::vector<int32_t> out;
  int64_t appended = 0;
  Span sub_probe(tracer, "match.subscriber_append");
  for (const geo::Point& e : events) {
    out.clear();
    subscribers.AppendContaining(e[0], e[1], &out);
    appended += static_cast<int64_t>(out.size());
  }
  tracer.Count("match.subscriber_append_ns", sub_probe.Stop() * 1e9 / n);
  tracer.Count("match.subscribers_matched_per_event", appended / n);
}

// Snapshot + empty Simulate: the cost of (re)building a deployment.
struct Rebuilt {
  std::pair<core::SaProblem, core::SaSolution> snapshot;
  double seconds;
};
Rebuilt Rebuild(Tracer& tracer, const core::DynamicAssigner& dyn) {
  Span span(tracer, "sim.rebuild");
  Span snap_span(tracer, "core.snapshot");
  auto snapshot = dyn.Snapshot();
  snap_span.Stop();
  SimulateEmpty(tracer, snapshot.first, snapshot.second);
  return {std::move(snapshot), span.Stop()};
}

// Routes the stream through a deployment and gates it on zero misses.
double RouteStream(Tracer& tracer, const core::SaProblem& problem,
                   const core::SaSolution& solution,
                   const std::vector<geo::Point>& events, Outcome* out) {
  Span span(tracer, "sim.simulate");
  const sim::DisseminationStats stats =
      sim::Simulate(problem, solution, events);
  const double seconds = span.Stop();
  out->attempted += stats.deliveries + stats.missed_deliveries;
  out->failed += stats.missed_deliveries;
  if (stats.missed_deliveries > 0) Fail(out, "stream missed deliveries");
  CountRouting(tracer, problem, stats);
  return seconds;
}

// Starts the shared pool once per process, before any instance, so no
// timed call pays for spawning its threads.
void CreatePool(Tracer& tracer) {
  Span span(tracer, "common.thread_pool");
  tracer.Count("common.pool_threads", ThreadPool::Global().num_workers() + 1);
}

core::SaConfig LooseConfig() {
  core::SaConfig config;
  config.max_delay = 1.0;  // the paper's loose multi-level setting
  return config;
}

// ---- solve: offline SLP ----

struct SolveInputs {
  core::SaProblem problem;
  std::vector<geo::Point> events;
  std::vector<geo::Point> sample;
};

SolveInputs MakeSolveInputs(Tracer& tracer, uint64_t seed) {
  Span gen(tracer, "workload.generate");
  wl::Workload w = GenerateGrid(kSolveSize, seed);
  gen.Stop();
  Span tree_span(tracer, "network.build_tree");
  net::BrokerTree tree = BuildTree(w, kSolveSize, seed);
  tree_span.Stop();
  Span problem_span(tracer, "core.problem");
  core::SaProblem problem(std::move(tree), std::move(w.subscribers),
                          LooseConfig());
  problem_span.Stop();
  Span events_span(tracer, "workload.events");
  std::vector<geo::Point> events = UniformEvents(kSolveSize.events, seed);
  std::vector<geo::Point> sample = SampleOf(events, seed);
  events_span.Stop();
  return {std::move(problem), std::move(events), std::move(sample)};
}

// Traced runs only: re-drives SLP's root stage through the stage functions
// RunSlp calls, from a copy of the stream RunSlp started with.
void TraceRootStage(Tracer& tracer, const core::SaProblem& problem,
                    const core::SlpOptions& options, Rng stream,
                    double run_slp_s) {
  const net::BrokerTree& tree = problem.tree();
  Rng rng = stream.Fork(net::BrokerTree::kPublisher);
  int node = net::BrokerTree::kPublisher;
  while (tree.children(node).size() == 1) node = tree.children(node)[0];
  if (node != net::BrokerTree::kPublisher && tree.is_leaf(node)) return;
  const int shards = std::clamp(ThreadPool::Global().num_workers() + 1, 1,
                                problem.num_subscribers());

  Span stage(tracer, "core.root_stage");
  Span targets_span(tracer, "core.child_targets");
  const core::Targets targets = core::BuildChildTargets(
      problem, core::AllSubscribers(problem), node, shards);
  targets_span.Stop();
  Span fa_span(tracer, "core.filter_assign");
  Result<core::FilterAssignResult> fa = core::FilterAssign(
      problem, targets, options.slp1.filter_assign, rng);
  fa_span.Stop();
  if (!fa.ok()) return;
  tracer.Count("core.filter_assign.lp_calls", fa.value().lp_calls);
  tracer.Count("core.filter_assign.iterations", fa.value().iterations);
  tracer.Count("core.filter_assign.budget_exhausted",
               fa.value().budget_exhausted ? 1 : 0);
  std::vector<geo::Filter> filters = fa.value().filters;
  Span flow_span(tracer, "core.max_flow_assign");
  Result<core::SubscriptionAssignResult> sa = core::AssignByMaxFlow(
      problem, targets, &filters, rng, options.slp1.subscription_assign);
  flow_span.Stop();
  if (sa.ok()) {
    tracer.Count("core.max_flow_assign.achieved_beta",
                 sa.value().achieved_beta);
  }
  tracer.Count("core.run_slp.rest_s", run_slp_s - stage.Stop());
}

void SolveInstance(Tracer& tracer, uint64_t seed, Outcome* out) {
  Span setup(tracer, "setup");
  const SolveInputs in = MakeSolveInputs(tracer, seed);
  out->SampleSeconds("setup_s", setup.Stop());
  const core::SaProblem& problem = in.problem;

  const core::SlpOptions options;
  Rng rng(SubSeed(seed, kSaltSlp));
  const Rng stream_at_start = rng;
  Span slp_span(tracer, "core.run_slp");
  const Result<core::SaSolution> solved = core::RunSlp(problem, options, rng);
  const double solve_s = slp_span.Stop();
  ++out->attempted;
  if (!solved.ok()) {
    std::fprintf(stderr, "RunSlp failed: %s\n",
                 solved.status().ToString().c_str());
    std::exit(1);
  }
  const core::SaSolution& solution = solved.value();
  out->SampleSeconds("assign_cpu_s", solve_s);

  Span metrics_span(tracer, "core.compute_metrics");
  const core::SolutionMetrics metrics = core::ComputeMetrics(problem, solution);
  metrics_span.Stop();
  out->Sample("qt", metrics.total_bandwidth);
  out->Sample("lbf", metrics.lbf);
  core::ValidationOptions validation;
  validation.check_load = false;
  Span validate_span(tracer, "core.validate");
  const Status valid = core::ValidateSolution(problem, solution, validation);
  validate_span.Stop();
  if (!valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.ToString().c_str());
    ++out->failed;
    Fail(out, "SLP solution does not validate");
  }

  Span rebuild(tracer, "sim.rebuild");
  SimulateEmpty(tracer, problem, solution);
  out->SampleSeconds("deploy_cpu_s", rebuild.Stop());
  const double route_s = RouteStream(tracer, problem, solution, in.events, out);
  out->SampleRate("events_per_cpu_s", in.events.size(), route_s);
  CheckDeployment(tracer, problem, solution, in.sample, out);

  if (tracer.enabled()) {
    TraceRootStage(tracer, problem, options, stream_at_start, solve_s);
    TraceMatchLayer(tracer, problem, solution, in.events);
  }
}

// ---- serve and churn: online deployments on grid set #3 ----

struct OnlineInputs {
  wl::Workload workload;
  core::DynamicAssigner assigner;
  std::vector<geo::Point> events;
  std::vector<geo::Point> sample;
  sim::FaultPlan plan;
};

OnlineInputs MakeOnlineInputs(Tracer& tracer, uint64_t seed, const Size& size,
                              bool with_plan) {
  Span gen(tracer, "workload.generate");
  wl::Workload w = GenerateGrid(size, seed);
  gen.Stop();
  Span tree_span(tracer, "network.build_tree");
  net::BrokerTree tree = BuildTree(w, size, seed);
  tree_span.Stop();

  sim::FaultPlan plan;
  if (with_plan) {
    // 5% of brokers crash and recover twice, 5% are alive but miss
    // heartbeats on a duty cycle, 2% of clients bounce offline long enough
    // to expire their leases.
    Span plan_span(tracer, "sim.fault_plan");
    const int n = size.events;
    Rng churn_rng(SubSeed(seed, kSaltChurnPlan));
    const sim::FaultPlan churn =
        sim::SustainedChurn(tree, n, 0.05, n / 8, 2, churn_rng);
    Rng slow_rng(SubSeed(seed, kSaltSlowPlan));
    const sim::FaultPlan slow =
        sim::SlowBrokers(tree, n, 0.05, n / 10, 8, slow_rng);
    Rng flaky_rng(SubSeed(seed, kSaltFlakyPlan));
    const sim::FaultPlan flaky =
        sim::FlakyClients(size.subscribers, n, 0.02, n / 16, 2, flaky_rng);
    std::vector<sim::FaultEvent> merged = churn.events();
    merged.insert(merged.end(), slow.events().begin(), slow.events().end());
    plan = sim::FaultPlan::Scripted(std::move(merged), flaky.client_events());
  }

  Span assigner_span(tracer, "core.assigner");
  core::DynamicAssigner assigner(std::move(tree), LooseConfig(),
                                 size.subscribers);
  assigner_span.Stop();
  Span events_span(tracer, "workload.events");
  std::vector<geo::Point> events = UniformEvents(size.events, seed);
  std::vector<geo::Point> sample = SampleOf(events, seed);
  events_span.Stop();
  return {std::move(w), std::move(assigner), std::move(events),
          std::move(sample), std::move(plan)};
}

// Admits subscribers [begin, end) with one AddBatch; returns its CPU seconds.
double AdmitBatch(Tracer& tracer, core::DynamicAssigner& dyn,
                  const std::vector<wl::Subscriber>& subs, int begin, int end,
                  Outcome* out) {
  const std::vector<wl::Subscriber> batch(subs.begin() + begin,
                                          subs.begin() + end);
  Span span(tracer, "core.add_batch");
  const Result<std::vector<int>> handles = dyn.AddBatch(batch);
  const double seconds = span.Stop();
  out->attempted += end - begin;
  if (!handles.ok()) {
    out->failed += end - begin;
    Fail(out, "AddBatch failed");
  }
  return seconds;
}

// serve: admit a population online, then route a stream.
void ServeInstance(Tracer& tracer, uint64_t seed, Outcome* out) {
  Span setup(tracer, "setup");
  OnlineInputs in = MakeOnlineInputs(tracer, seed, kServeSize, false);
  out->SampleSeconds("setup_s", setup.Stop());
  core::DynamicAssigner& dyn = in.assigner;
  const std::vector<wl::Subscriber>& subs = in.workload.subscribers;
  const int half = static_cast<int>(subs.size()) / 2;

  // First half in one batch, second half one Add at a time (a closed loop
  // with a single caller).
  const double batch_s = AdmitBatch(tracer, dyn, subs, 0, half, out);
  std::vector<double> add_us;
  add_us.reserve(subs.size() - half);
  int64_t add_failures = 0;
  Span adds(tracer, "core.add");
  for (size_t j = half; j < subs.size(); ++j) {
    const Clock::time_point start = Clock::now();
    const Result<int> handle = dyn.Add(subs[j]);
    add_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count());
    if (!handle.ok()) ++add_failures;
  }
  out->SampleSeconds("assign_cpu_s", batch_s + adds.Stop());
  out->attempted += static_cast<int64_t>(add_us.size());
  out->failed += add_failures;
  if (add_failures > 0) Fail(out, "Add failed");
  tracer.Count("core.add_calls", static_cast<double>(add_us.size()));
  tracer.Count("core.add_us.p50", Percentile(add_us, 0.50));
  tracer.Count("core.add_us.p90", Percentile(add_us, 0.90));
  tracer.Count("core.add_us.p99", Percentile(add_us, 0.99));

  Span qt_span(tracer, "core.current_bandwidth");
  out->Sample("qt", dyn.CurrentBandwidth());
  qt_span.Stop();
  const Rebuilt deployed = Rebuild(tracer, dyn);
  out->SampleSeconds("deploy_cpu_s", deployed.seconds);
  const auto& [problem, solution] = deployed.snapshot;
  out->Sample("lbf", core::LoadBalanceFactor(problem, solution));
  const double route_s = RouteStream(tracer, problem, solution, in.events, out);
  out->SampleRate("events_per_cpu_s", in.events.size(), route_s);
  CheckDeployment(tracer, problem, solution, in.sample, out);
  if (tracer.enabled()) TraceMatchLayer(tracer, problem, solution, in.events);
}

// churn: admit a population, then replay a stream under broker crashes,
// slow brokers and flaky clients, with lease-based failure detection.
void ChurnInstance(Tracer& tracer, uint64_t seed, Outcome* out) {
  Span setup(tracer, "setup");
  OnlineInputs in = MakeOnlineInputs(tracer, seed, kChurnSize, true);
  out->SampleSeconds("setup_s", setup.Stop());
  core::DynamicAssigner& dyn = in.assigner;
  out->SampleSeconds("assign_cpu_s",
                     AdmitBatch(tracer, dyn, in.workload.subscribers, 0,
                                kChurnSize.subscribers, out));

  sim::FaultReplayOptions options;
  options.epoch_length = kChurnSize.events / 10;
  liveness::LeaseConfig lease;
  lease.heartbeat_interval = 2;
  lease.miss_suspect = 2;
  lease.miss_dead = 4;
  lease.subscriber_interval = 4;
  lease.subscriber_miss_dead = 4;
  options.lease = lease;
  Rng rng(SubSeed(seed, kSaltReplay));
  Span replay_span(tracer, "sim.replay");
  const Result<sim::FaultReplayResult> replayed =
      sim::ReplayWithFaults(dyn, in.plan, in.events, options, rng);
  const double replay_s = replay_span.Stop();
  if (!replayed.ok()) {
    std::fprintf(stderr, "ReplayWithFaults failed: %s\n",
                 replayed.status().ToString().c_str());
    std::exit(1);
  }
  const sim::FaultReplayResult& r = replayed.value();
  out->SampleRate("events_per_cpu_s", in.events.size(), replay_s);
  out->Sample("qt", r.qt_final);
  // Misses of detached or undetected subscribers are the price of lease-
  // based failure detection, counted but not failed; a placed subscriber
  // missing an event is a routing bug.
  const int64_t misses = r.missed_live + r.missed_degraded;
  out->attempted += r.stats.deliveries + misses + r.missed_outage +
                    r.missed_undetected + r.missed_expired;
  out->failed += misses;
  if (misses > 0) Fail(out, "placed subscribers missed events in the replay");
  tracer.Count("liveness.heartbeats_sent", r.heartbeats_sent);
  tracer.Count("liveness.false_suspicions", r.false_suspicions);
  tracer.Count("liveness.premature_evacuations", r.premature_evacuations);
  tracer.Count("liveness.lease_expirations", r.lease_expirations);
  tracer.Count("sim.reconnects", r.reconnects);
  tracer.Count("core.repair.orphaned", r.total_orphaned);
  tracer.Count("core.repair.repaired", r.total_repaired);
  tracer.Count("core.repair.degraded", r.total_degraded_placed);
  tracer.Count("sim.missed_undetected", r.missed_undetected);
  tracer.Count("sim.missed_outage", r.missed_outage);

  const Rebuilt deployed = Rebuild(tracer, dyn);
  out->SampleSeconds("deploy_cpu_s", deployed.seconds);
  const auto& [problem, solution] = deployed.snapshot;
  out->Sample("lbf", core::LoadBalanceFactor(problem, solution));
  if (tracer.enabled()) {
    // Layer view of the replay's routing, on the post-replay deployment.
    // Brokers still believed down keep stale filters in this static-tree
    // snapshot, so its misses are not gated.
    Span span(tracer, "sim.simulate");
    CountRouting(tracer, problem, sim::Simulate(problem, solution, in.events));
    span.Stop();
    TraceMatchLayer(tracer, problem, solution, in.events);
  }
}

Outcome RunWorkload(Tracer& tracer, uint64_t seed, const Size& size,
                    void (*instance)(Tracer&, uint64_t, Outcome*)) {
  Outcome out;
  CreatePool(tracer);
  ReferenceKernel kernel;
  for (int i = 0; i < size.instances; ++i) {
    Span reference(tracer, "bench.reference");
    out.speed = kReferenceSeconds / kernel.Seconds();
    reference.Stop();
    tracer.Count("bench.speed", out.speed);
    Span span(tracer, "instance");
    instance(tracer, SubSeed(seed, kSaltInstance + i), &out);
    std::fprintf(stderr, "instance %d (%.2f cpu s, speed %.3f):", i,
                 span.Stop(), out.speed);
    for (const auto& [name, values] : out.samples) {
      std::fprintf(stderr, " %s=%.4g", name.c_str(), values.back());
    }
    std::fprintf(stderr, "\n");
  }
  // The peak of the library's and the instances' memory: the kernel's
  // buffer is resident throughout, so it adds exactly its size to the peak.
  out.Sample("peak_rss_mb", PeakRssMb() - kernel.resident_mb());
  return out;
}

// ---- Output and command line ----

void PrintResult(const Outcome& out, const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += out.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    line += buf;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

// End-to-end metrics, emitted by every untraced run in this order: the
// interquartile mean over the run's instances.
std::vector<Metric> EndToEndMetrics(const Outcome& out) {
  constexpr MetricSpec kEndToEnd[] = {
      {"setup_s", "s"}, {"peak_rss_mb", "MB"},  {"qt", "vol"},
      {"lbf", "ratio"}, {"assign_cpu_s", "s"},  {"deploy_cpu_s", "s"},
      {"events_per_cpu_s", "1/s"},
  };
  std::vector<Metric> metrics;
  for (const MetricSpec& m : kEndToEnd) {
    const auto it = out.samples.find(m.name);
    const double value =
        it == out.samples.end() ? 0 : InterquartileMean(it->second);
    metrics.push_back({m.name, value, m.unit});
  }
  return metrics;
}

std::vector<Metric> LayerMetrics(const Tracer& tracer) {
  std::vector<Metric> metrics;
  for (const MetricSpec& m : kLayerMetrics) {
    const std::string name = m.name;
    double value = tracer.Counter(name);
    const bool span_time = name.size() > 2 &&
                           name.compare(name.size() - 2, 2, "_s") == 0 &&
                           !tracer.HasCounter(name);
    if (span_time) {
      value = tracer.SpanSeconds(name.substr(0, name.size() - 2));
    }
    metrics.push_back({name, value, m.unit});
  }
  return metrics;
}

int Usage() {
  std::fprintf(stderr,
               "usage: slp_perfbench --workload solve|serve|churn --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, trace_out;
  uint64_t seed = 1;
  double seconds = 0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || (trace != 0 && trace != 1)) return Usage();

  // Fixed allocator thresholds: glibc otherwise moves its mmap threshold as
  // large blocks are freed, so whether an instance's big arrays reuse heap
  // pages or map fresh ones (and so the peak resident set) would depend on
  // the instances that ran before it.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  Tracer tracer(trace == 1);
  const Clock::time_point start = Clock::now();
  Outcome out;
  if (workload == "solve") {
    out = RunWorkload(tracer, seed, kSolveSize, SolveInstance);
  } else if (workload == "serve") {
    out = RunWorkload(tracer, seed, kServeSize, ServeInstance);
  } else if (workload == "churn") {
    out = RunWorkload(tracer, seed, kChurnSize, ChurnInstance);
  } else {
    return Usage();
  }
  std::fprintf(stderr, "%s seed %llu: %.2f s wall (--seconds %.0f)\n",
               workload.c_str(), static_cast<unsigned long long>(seed),
               std::chrono::duration<double>(Clock::now() - start).count(),
               seconds);

  if (!tracer.enabled()) {
    PrintResult(out, EndToEndMetrics(out));
    return 0;
  }
  tracer.Count("trace.spans", tracer.num_spans());
  tracer.Count("trace.span_cost_ns", SpanCostNs());
  if (!trace_out.empty() && !tracer.WriteChromeTrace(trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
    return 1;
  }
  PrintResult(out, LayerMetrics(tracer));
  return 0;
}

}  // namespace
}  // namespace slp::perfbench

int main(int argc, char** argv) { return slp::perfbench::Main(argc, argv); }
