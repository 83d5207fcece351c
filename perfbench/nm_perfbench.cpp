// The repository benchmark: one seeded workload per invocation,
// measured from outside through public calls on the product path
//
//   LoopSource -> FlowCache(65536) -> Classifier(OnlineNuevoMatch,
//                 TupleMerge remainder, default config) -> CheckSink
//
// over a seeded 500k-rule ClassBench ACL rule-set. See perfbench/README.md
// for the workloads, the metrics and how each is measured.
//
//   nm_perfbench --workload uniform|churn --seed N
//                --seconds S --trace 0|1
//
// The last line of standard output is the JSON result.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "classbench/generator.hpp"
#include "classifiers/linear.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/zipf.hpp"
#include "cutsplit/cutsplit.hpp"
#include "elements.hpp"
#include "nuevomatch/online.hpp"
#include "pipeline/elements.hpp"
#include "pipeline/graph.hpp"
#include "pipeline/replicate.hpp"
#include "rqrmi/kernel.hpp"
#include "trace/trace.hpp"
#include "tuplemerge/tuplemerge.hpp"

namespace perfbench {
namespace {

using nuevomatch::mean;
using nuevomatch::MatchResult;
using nuevomatch::OnlineNuevoMatch;
using nuevomatch::Rule;
using nuevomatch::RuleSet;
namespace pl = nuevomatch::pipeline;

// --- fixed benchmark parameters ----------------------------------------------

constexpr size_t kRules = 500'000;  // the paper's headline scale
constexpr size_t kTraceLen = size_t{1} << 21;
constexpr size_t kCacheCapacity = 65'536;
constexpr double kZipfAlpha = 1.25;        // most skewed point of Fig. 12
constexpr int kRuleSets = 3;  // untraced runs measure this many seeded rule-sets
constexpr size_t kSpotChecks = 64;         // oracle vs LinearSearch per rule-set
constexpr size_t kMaxRecorded = size_t{1} << 18;  // miss lanes kept for replay
constexpr int kReplayReps = 3;
constexpr double kWarmSeconds = 0.5;
// churn writer: open loop, fixed schedule. The rate is what the engine can
// sustain: every erase journaled during a retrain replays at ~1 ms onto the
// fresh generation (TupleMerge table stats are recomputed per erase), so at
// a standing window a retrain only converges below ~1k erases/s, and the
// default 5% absorption threshold (25k inserts at 500k rules) is not
// reached within a run at such a rate. README.md has the measurements.
constexpr uint64_t kWriterBurstsPerSec = 100;
constexpr size_t kWriterBurstInserts = 8;
constexpr size_t kWriterWindow = 4096;     // standing live inserted copies
// Traced-run self-check: the layer self times must cover the traced
// thread time to within this share.
constexpr double kUnattributedTolerance = 0.05;

struct Spec {
  const char* name;
  bool zipf;
  bool churn;
  uint32_t replicas;
  int threads;  // CPUs pinned: pipeline threads + writer + retrain worker
  // Traced runs only: replicas (= scheduler threads, = CPUs) of an extra
  // untraced ReplicatedGraph window that measures the scheduler and
  // replicate layers; 0 = none.
  uint32_t sched_replicas;
};

constexpr Spec kSpecs[] = {
    {"uniform", false, false, 1, 1, 2},
    {"churn", true, true, 1, 3, 0},
};

uint64_t sub_seed(uint64_t seed, uint64_t tag) {
  nuevomatch::Rng r{seed * 0x9E3779B97F4A7C15ull + tag};
  return r.next_u64();
}

double ns_to_s(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Quantile `q` in [0, 1], interpolated between ranks (common/stats.hpp).
template <typename T>
double percentile(const std::vector<T>& v, double q) {
  const std::vector<double> d(v.begin(), v.end());
  return nuevomatch::percentile(d, q * 100.0);
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

// --- pinning -------------------------------------------------------------------

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

bool pin_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0;
}

std::string cpu_list(const std::vector<int>& cpus) {
  std::string s;
  for (const int c : cpus) {
    if (!s.empty()) s += ',';
    s += std::to_string(c);
  }
  return s;
}

// --- inputs ----------------------------------------------------------------------

/// Everything derived from the seed before anything is timed.
struct Inputs {
  RuleSet rules;  // ClassBench ACL, priority = 2 * index (gapped for copies)
  std::shared_ptr<const std::vector<nuevomatch::Packet>> trace;
  std::shared_ptr<Oracle> oracle;
  size_t distinct_flows = 0;
  size_t spot_checked = 0;
  size_t spot_mismatches = 0;
  std::string spot_first;
  double input_s = 0.0;
};

Inputs make_inputs(size_t n_rules, bool zipf, size_t trace_len, uint64_t seed) {
  const uint64_t t0 = now_ns();
  Inputs in;
  in.rules = nuevomatch::generate_classbench(nuevomatch::AppClass::kAcl, 1, n_rules,
                                             sub_seed(seed, 1));
  for (Rule& r : in.rules) r.priority = static_cast<int32_t>(2 * r.id);
  const std::vector<nuevomatch::Packet> reps =
      nuevomatch::representative_packets(in.rules, sub_seed(seed, 2));

  // Flow per trace position: uniform over every rule's representative flow,
  // or zipf over a seeded random ranking of them.
  nuevomatch::Rng rng{sub_seed(seed, 3)};
  std::vector<uint32_t> flow(trace_len);
  if (zipf) {
    std::vector<uint32_t> perm(reps.size());
    std::iota(perm.begin(), perm.end(), 0u);
    for (size_t i = perm.size(); i > 1; --i) std::swap(perm[i - 1], perm[rng.below(i)]);
    const nuevomatch::ZipfSampler z{reps.size(), kZipfAlpha};
    for (uint32_t& f : flow) f = perm[z.sample(rng)];
  } else {
    for (uint32_t& f : flow) f = static_cast<uint32_t>(rng.below(reps.size()));
  }
  auto trace = std::make_shared<std::vector<nuevomatch::Packet>>(trace_len);
  for (size_t i = 0; i < trace_len; ++i) (*trace)[i] = reps[flow[i]];

  // Expected decisions per distinct flow from CutSplit: an engine that
  // shares no code with the RQ-RMI / iSet path or the TupleMerge remainder.
  nuevomatch::CutSplit oracle_engine;
  oracle_engine.build(in.rules);
  constexpr int32_t kUnset = -3;
  std::vector<int32_t> per_flow(reps.size(), kUnset);
  in.oracle = std::make_shared<Oracle>();
  in.oracle->n_base = static_cast<uint32_t>(in.rules.size());
  in.oracle->expected.resize(trace_len);
  for (size_t i = 0; i < trace_len; ++i) {
    int32_t& e = per_flow[flow[i]];
    if (e == kUnset) {
      e = oracle_engine.match(reps[flow[i]]).rule_id;
      ++in.distinct_flows;
    }
    in.oracle->expected[i] = e;
  }

  // Spot-check the oracle itself against the linear-search ground truth.
  nuevomatch::LinearSearch linear;
  linear.build(in.rules);
  nuevomatch::Rng spot{sub_seed(seed, 4)};
  for (size_t k = 0; k < kSpotChecks; ++k) {
    const size_t pos = spot.below(trace_len);
    const int32_t want = linear.match((*trace)[pos]).rule_id;
    ++in.spot_checked;
    if (want != in.oracle->expected[pos]) {
      if (in.spot_mismatches++ == 0)
        in.spot_first = "position " + std::to_string(pos) + ": oracle " +
                        std::to_string(in.oracle->expected[pos]) + ", linear " +
                        std::to_string(want);
    }
  }
  in.trace = std::move(trace);
  in.input_s = ns_to_s(now_ns() - t0);
  return in;
}

std::shared_ptr<OnlineNuevoMatch> build_engine(const RuleSet& rules) {
  nuevomatch::OnlineConfig cfg;
  cfg.base.remainder_factory = [] { return std::make_unique<nuevomatch::TupleMerge>(); };
  auto engine = std::make_shared<OnlineNuevoMatch>(cfg);
  engine->build(rules);
  return engine;
}

// --- dataplane ----------------------------------------------------------------

/// Element handles of one graph (one replica).
struct Parts {
  LoopSource* src = nullptr;
  pl::FlowCacheElement* cache = nullptr;
  pl::ClassifierElement* cls = nullptr;
  CheckSink* sink = nullptr;
  SpanTap* at_cache = nullptr;  // traced only: spans at each boundary
  SpanTap* at_cls = nullptr;
  SpanTap* at_sink = nullptr;
};

struct Dataplane {
  std::optional<pl::Graph> graph;
  std::unique_ptr<pl::ReplicatedGraph> replicated;
  std::vector<Parts> parts;
  Window window;
  bool traced = false;
  uint64_t step_ns = 0;  // traced single graph: time inside in-window step()s
};

pl::Graph build_graph(const Inputs& in, const std::shared_ptr<OnlineNuevoMatch>& engine,
                      const pl::ClassifierElement* proto, bool traced,
                      const Window* window, Parts& p) {
  pl::Graph g;
  p.src = &g.add(std::make_unique<LoopSource>(in.trace, window), "src");
  p.cache = &g.add(std::make_unique<pl::FlowCacheElement>(kCacheCapacity), "cache");
  auto cls = std::make_unique<pl::ClassifierElement>();
  if (proto != nullptr) {
    cls->adopt_shared(*proto);
  } else {
    cls->attach(engine);
    cls->set_actions(in.rules);
  }
  p.cls = &g.add(std::move(cls), "cls");
  p.sink = &g.add(std::make_unique<CheckSink>(in.oracle, window), "sink");
  if (!traced) {
    g.connect(*p.src, 0, *p.cache);
    g.connect(*p.cache, 0, *p.cls);
    g.connect(*p.cls, 0, *p.sink);
    return g;
  }
  p.at_cache = &g.add(std::make_unique<SpanTap>(window, false, 0, &p.cache->cache()), "span_cache");
  p.at_cls = &g.add(std::make_unique<SpanTap>(window, true, kMaxRecorded), "span_cls");
  p.at_sink = &g.add(std::make_unique<SpanTap>(window), "span_sink");
  g.connect(*p.src, 0, *p.at_cache);
  g.connect(*p.at_cache, 0, *p.cache);
  g.connect(*p.cache, 0, *p.at_cls);
  g.connect(*p.at_cls, 0, *p.cls);
  g.connect(*p.cls, 0, *p.at_sink);
  g.connect(*p.at_sink, 0, *p.sink);
  return g;
}

std::unique_ptr<Dataplane> build_dataplane(const Spec& spec, const Inputs& in,
                                           const std::shared_ptr<OnlineNuevoMatch>& engine,
                                           bool traced) {
  auto dp = std::make_unique<Dataplane>();
  dp->traced = traced;
  dp->parts.resize(spec.replicas);
  if (spec.replicas == 1) {
    dp->graph.emplace(build_graph(in, engine, nullptr, traced, &dp->window, dp->parts[0]));
    dp->graph->initialize();
    return dp;
  }
  Dataplane* d = dp.get();
  dp->replicated = std::make_unique<pl::ReplicatedGraph>(
      spec.replicas, [&in, &engine, traced, d](uint32_t r, uint32_t) {
        const pl::ClassifierElement* proto = r == 0 ? nullptr : d->parts[0].cls;
        return build_graph(in, engine, proto, traced, &d->window, d->parts[r]);
      });
  return dp;
}

/// Place the window `warm_s` from now and drive the dataplane until the
/// window closes. A traced single graph also times each Graph::step().
/// Returns scheduler stats for replicated runs.
pl::SchedulerStats run_dataplane(Dataplane& dp, const Spec& spec, double warm_s,
                                 double measure_s) {
  const uint64_t t0 = now_ns();
  dp.window.start = t0 + static_cast<uint64_t>(warm_s * 1e9);
  dp.window.end = dp.window.start + static_cast<uint64_t>(measure_s * 1e9);
  if (dp.graph && !dp.traced) {
    while (dp.graph->step()) {
    }
  } else if (dp.graph) {
    for (bool more = true; more;) {
      const uint64_t s0 = now_ns();
      more = dp.graph->step();
      if (more && dp.window.contains(s0)) dp.step_ns += now_ns() - s0;
    }
  }
  if (dp.graph) {
    dp.graph->finish_run();
    return {};
  }
  pl::ReplicatedRunOptions opts;
  opts.threads = spec.replicas;
  dp.replicated->run(opts);
  return dp.replicated->last_stats();
}

// --- churn writer -------------------------------------------------------------

/// Open-loop update generator. A standing window of kWriterWindow copies is
/// preloaded; then burst k is due at start + k / rate; each burst inserts
/// kWriterBurstInserts copies of seeded source rules (copy of r at priority
/// 2r-1, so it wins exactly where r would) and erases the oldest copies
/// beyond the standing window. Copies folded into a
/// generation by a retrain swap are erased together in the next burst (a
/// base-remainder erase rebuilds the remainder once per commit, so a
/// controller batches them). Every burst is timed from when it was due.
class Writer {
 public:
  struct Burst {
    uint64_t due = 0;
    uint64_t sent = 0;
    uint64_t commit_start = 0;
    uint64_t done = 0;
    uint32_t ops = 0;
    uint32_t accepted = 0;
    uint32_t churn_rules = 0;
    uint32_t journal_depth = 0;
  };

  Writer(OnlineNuevoMatch& engine, const RuleSet& rules, std::vector<int32_t> sources,
         std::vector<int> cpus)
      : engine_(engine), rules_(rules), sources_(std::move(sources)), cpus_(std::move(cpus)) {
    log_.reserve(sources_.size() / kWriterBurstInserts + 1);
  }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;
  ~Writer() { stop(); }

  /// Establish the standing window before anything is timed.
  void preload() {
    std::vector<Rule> batch;
    const uint64_t gen = engine_.generations();
    while (live_.size() < kWriterWindow) {
      batch.push_back(next_copy());
      live_.push_back(Live{batch.back().id, gen});
    }
    if (engine_.insert_batch(batch) != batch.size())
      throw std::runtime_error("writer preload: inserts refused");
  }
  void start() {
    start_ns_ = now_ns();
    thread_ = std::thread([this] { loop(); });
  }
  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }
  /// Read after stop().
  [[nodiscard]] const std::vector<Burst>& log() const noexcept { return log_; }
  [[nodiscard]] const std::vector<double>& retrain_s() const noexcept { return retrain_s_; }
  [[nodiscard]] bool ran_out() const noexcept { return ran_out_; }

 private:
  struct Live {
    uint32_t id;
    uint64_t generation;  // generations() when inserted
  };

  /// Copy of the next scheduled source rule r: priority 2r-1, fresh id.
  Rule next_copy() {
    Rule c = rules_[static_cast<size_t>(sources_[next_copy_])];
    c.id = static_cast<uint32_t>(rules_.size() + next_copy_);
    c.priority -= 1;
    ++next_copy_;
    return c;
  }

  void loop() {
    if (!cpus_.empty()) pin_thread(cpus_);
    const uint64_t period = 1'000'000'000ull / kWriterBurstsPerSec;
    std::vector<Rule> ins;
    std::vector<uint32_t> del;
    bool retraining = false;
    uint64_t retrain_since = 0;
    for (uint64_t k = 0;; ++k) {
      const uint64_t due = start_ns_ + k * period;
      for (uint64_t t = now_ns(); t < due; t = now_ns()) {
        if (stop_.load(std::memory_order_relaxed)) return;
        const uint64_t nap = std::min<uint64_t>(due - t, 1'000'000);
        std::this_thread::sleep_for(std::chrono::nanoseconds(nap));
      }
      if (stop_.load(std::memory_order_relaxed)) return;
      if (next_copy_ + kWriterBurstInserts > sources_.size()) {
        ran_out_ = true;
        return;
      }
      Burst b;
      b.due = due;
      b.sent = now_ns();
      const uint64_t gen = engine_.generations();
      ins.clear();
      del.clear();
      for (size_t i = 0; i < kWriterBurstInserts; ++i) {
        ins.push_back(next_copy());
        live_.push_back(Live{ins.back().id, gen});
      }
      while (!live_.empty() &&
             (live_.front().generation < gen || live_.size() > kWriterWindow)) {
        del.push_back(live_.front().id);
        live_.pop_front();
      }
      b.ops = static_cast<uint32_t>(ins.size() + del.size());
      b.commit_start = now_ns();
      size_t accepted = engine_.insert_batch(ins);
      if (!del.empty()) accepted += engine_.erase_batch(del);
      b.done = now_ns();
      b.accepted = static_cast<uint32_t>(accepted);
      const nuevomatch::EngineHealth h = engine_.health();
      b.churn_rules = static_cast<uint32_t>(h.churn_rules);
      b.journal_depth = static_cast<uint32_t>(h.journal_depth);
      if (h.retrain_pending && !retraining) retrain_since = b.done;
      if (!h.retrain_pending && retraining) retrain_s_.push_back(ns_to_s(b.done - retrain_since));
      retraining = h.retrain_pending;
      log_.push_back(b);
    }
  }

  OnlineNuevoMatch& engine_;
  const RuleSet& rules_;
  std::vector<int32_t> sources_;
  std::vector<int> cpus_;
  std::deque<Live> live_;
  size_t next_copy_ = 0;
  std::vector<Burst> log_;
  std::vector<double> retrain_s_;
  bool ran_out_ = false;
  uint64_t start_ns_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: joins before the members it uses go away
};

/// Seeded source rule per copy, sized for `seconds` of writer schedule.
std::vector<int32_t> writer_sources(size_t n_rules, double seconds, uint64_t seed) {
  const auto bursts = static_cast<size_t>(seconds * static_cast<double>(kWriterBurstsPerSec)) + 1;
  std::vector<int32_t> src(kWriterWindow + bursts * kWriterBurstInserts);
  nuevomatch::Rng rng{sub_seed(seed, 5)};
  for (int32_t& s : src) s = static_cast<int32_t>(rng.below(n_rules));
  return src;
}

// --- results --------------------------------------------------------------------

struct PhaseResult {
  double seconds = 0.0;
  double thread_seconds = 0.0;  // window x pipeline threads
  uint64_t packets = 0;
  std::array<uint64_t, kSlices> slices{};
  uint64_t bursts = 0;
  uint64_t busy_ns = 0;  // in-window step time, else pump-to-sink burst time
  std::array<std::vector<uint32_t>, kSlices> lat_ns;
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  CheckSink::Mismatch first;
  nuevomatch::pipeline::FlowCache::Stats cache{};
  // traced only
  uint64_t span_cache_ns = 0, span_cls_ns = 0, span_sink_ns = 0;
  uint64_t misses = 0, calls = 0;
  pl::SchedulerStats sched;

  /// Latency percentile `q` of each slice, in us.
  [[nodiscard]] std::vector<double> slice_latency_us(double q) const {
    std::vector<double> per_slice;
    for (const auto& l : lat_ns) {
      if (!l.empty()) per_slice.push_back(percentile(l, q) * 1e-3);
    }
    return per_slice;
  }
  /// Delivered Mpps of each slice.
  [[nodiscard]] std::vector<double> slice_mpps() const {
    std::vector<double> rates;
    for (const uint64_t v : slices)
      rates.push_back(static_cast<double>(v) / (seconds / kSlices) * 1e-6);
    return rates;
  }
  /// Median slice rate: robust to a transient stall inside the window.
  [[nodiscard]] double mpps() const { return median(slice_mpps()); }
};

PhaseResult collect(const Dataplane& dp, pl::SchedulerStats sched, uint32_t threads) {
  PhaseResult r;
  r.seconds = dp.window.seconds();
  r.thread_seconds = r.seconds * threads;
  r.sched = std::move(sched);
  for (const Parts& p : dp.parts) {
    r.packets += p.sink->window_packets();
    for (size_t i = 0; i < kSlices; ++i) r.slices[i] += p.sink->slice_packets()[i];
    r.bursts += p.sink->window_bursts();
    r.busy_ns += p.sink->busy_ns();
    for (size_t i = 0; i < kSlices; ++i) {
      const std::vector<uint32_t>& l = p.sink->latencies_ns()[i];
      r.lat_ns[i].insert(r.lat_ns[i].end(), l.begin(), l.end());
    }
    if (p.sink->mismatches() > 0 && r.mismatches == 0) r.first = p.sink->first_mismatch();
    r.checked += p.sink->checked();
    r.mismatches += p.sink->mismatches();
    const auto now = p.cache->cache().stats();
    const auto d = p.at_cache != nullptr ? now - p.at_cache->cache_at_start() : now;
    r.cache.hits += d.hits;
    r.cache.misses += d.misses;
    r.cache.stale += d.stale;
    r.cache.inserts += d.inserts;
    if (p.at_cache != nullptr) {
      r.span_cache_ns += p.at_cache->ns();
      r.span_cls_ns += p.at_cls->ns();
      r.span_sink_ns += p.at_sink->ns();
      r.misses += p.at_cls->misses();
      r.calls += p.at_cls->calls();
    }
  }
  if (dp.step_ns > 0) r.busy_ns = dp.step_ns;  // covers the step's own epilogue too
  return r;
}

// --- staged replay of the recorded miss stream ----------------------------------

inline volatile int64_t g_guard = 0;

struct Replay {
  size_t packets = 0;
  size_t keys = 0;  // packets x iSets
  double predict_ns = 0, search_ns = 0, validate_ns = 0, remainder_ns = 0;
  double pin_ns = 0, fill_ns = 0;
  uint64_t iset_hits = 0;
  uint64_t floored = 0;
};

/// Times the public staged calls of the Classifier's engine on the
/// recorded miss stream, in its recorded batch shapes, each stage as one
/// pass over the whole stream (median of kReplayReps): IsetIndex
/// predict_batch / search_batch / validate, the remainder's
/// match_with_floor under the iSet floor, and Pin::match_batch (whose
/// residual over the staged calls is the churn-delta probe). Then the
/// FlowCache fill (insert_burst) of the same decisions.
Replay staged_replay(const OnlineNuevoMatch& engine, const std::vector<nuevomatch::Packet>& pk,
                     const std::vector<uint32_t>& batches) {
  Replay rp;
  const size_t n = pk.size();
  rp.packets = n;
  if (n == 0) return rp;
  const OnlineNuevoMatch::Pin pin = engine.pin();
  const nuevomatch::NuevoMatch& nm = pin.nm();
  const auto& isets = nm.isets();
  const size_t s_count = isets.size();
  rp.keys = n * s_count;
  std::vector<uint32_t> vals(n * s_count);
  std::vector<nuevomatch::rqrmi::Prediction> preds(n * s_count);
  std::vector<int32_t> pos(n * s_count);
  std::vector<MatchResult> best(n), out(n);
  for (size_t s = 0; s < s_count; ++s)
    for (size_t i = 0; i < n; ++i) vals[s * n + i] = pk[i][isets[s].field()];

  std::vector<double> t_pred, t_search, t_valid, t_rem, t_pin;
  int64_t guard = 0;  // folds every result in, so no stage is optimized away
  for (int rep = 0; rep < kReplayReps; ++rep) {
    uint64_t t = now_ns();
    for (size_t s = 0; s < s_count; ++s) {
      size_t off = s * n;
      for (const uint32_t b : batches) {
        isets[s].predict_batch({vals.data() + off, b}, {preds.data() + off, b});
        off += b;
      }
    }
    uint64_t t1 = now_ns();
    t_pred.push_back(static_cast<double>(t1 - t));
    t = t1;
    for (size_t s = 0; s < s_count; ++s) {
      size_t off = s * n;
      for (const uint32_t b : batches) {
        isets[s].search_batch({vals.data() + off, b}, {preds.data() + off, b},
                              {pos.data() + off, b});
        off += b;
      }
    }
    t1 = now_ns();
    t_search.push_back(static_cast<double>(t1 - t));
    t = t1;
    uint64_t hits = 0;
    for (size_t i = 0; i < n; ++i) {
      MatchResult b;
      for (size_t s = 0; s < s_count; ++s) {
        const MatchResult r = isets[s].validate(pos[s * n + i], pk[i], b.priority);
        if (r.beats(b)) b = r;
      }
      best[i] = b;
      hits += b.hit() ? 1 : 0;
    }
    t1 = now_ns();
    t_valid.push_back(static_cast<double>(t1 - t));
    t = t1;
    uint64_t floored = 0;
    const nuevomatch::Classifier& rem = nm.remainder();
    const bool et = nm.config().early_termination;
    for (size_t i = 0; i < n; ++i) {
      const bool floor = et && best[i].hit();
      floored += floor ? 1 : 0;
      const MatchResult r =
          floor ? rem.match_with_floor(pk[i], best[i].priority) : rem.match(pk[i]);
      if (r.beats(best[i])) best[i] = r;
      guard += best[i].rule_id;
    }
    t1 = now_ns();
    t_rem.push_back(static_cast<double>(t1 - t));
    t = t1;
    size_t off = 0;
    for (const uint32_t b : batches) {
      pin.match_batch({pk.data() + off, b}, {out.data() + off, b});
      off += b;
    }
    t1 = now_ns();
    t_pin.push_back(static_cast<double>(t1 - t));
    for (const MatchResult& r : out) guard += r.rule_id;
    rp.iset_hits = hits;
    rp.floored = floored;
  }
  rp.predict_ns = median(t_pred);
  rp.search_ns = median(t_search);
  rp.validate_ns = median(t_valid);
  rp.remainder_ns = median(t_rem);
  rp.pin_ns = median(t_pin);

  // Fill: a cache of the pipeline's capacity, one warming pass, one timed.
  pl::FlowCache fc(kCacheCapacity);
  std::vector<pl::Decision> d(n);
  for (size_t i = 0; i < n; ++i) d[i] = pl::Decision{out[i].rule_id, out[i].priority, -1};
  uint64_t fill = 0;
  for (int pass = 0; pass < 2; ++pass) {
    const uint64_t t = now_ns();
    size_t off = 0;
    for (const uint32_t b : batches) {
      const uint32_t mask = b >= 32 ? ~uint32_t{0} : (1u << b) - 1;
      fc.insert_burst(pk.data() + off, b, mask, d.data() + off, fc.current_stamp());
      off += b;
    }
    fill = now_ns() - t;
  }
  rp.fill_ns = static_cast<double>(fill);
  g_guard = guard;
  return rp;
}

// --- output -----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, uint64_t attempted, uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    s += (i ? ", " : "") + ("\"" + metrics[i].name + "\": {\"value\": ") + buf +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

// --- self-test: the correctness check is not vacuous ------------------------------

/// Runs a small instance of the checked pipeline twice: with the true
/// oracle (must report no mismatch) and with one expected entry corrupted
/// (must report error_ratio > 0 at exactly that trace position).
bool self_test() {
  const Spec spec{"self-test", false, false, 1, 1, 0};
  Inputs in = make_inputs(2000, false, 4096, 7);
  const auto engine = build_engine(in.rules);
  const auto run_once = [&] {
    auto dp = build_dataplane(spec, in, engine, false);
    run_dataplane(*dp, spec, 0.0, 0.05);
    return collect(*dp, {}, 1);
  };
  const PhaseResult clean = run_once();
  const size_t victim = 123;
  auto corrupted = std::make_shared<Oracle>(*in.oracle);
  corrupted->expected[victim] = corrupted->expected[victim] == 0 ? 1 : 0;
  in.oracle = corrupted;
  const PhaseResult bad = run_once();
  const double ratio =
      bad.checked ? static_cast<double>(bad.mismatches) / static_cast<double>(bad.checked) : 0.0;
  const bool ok = in.spot_mismatches == 0 && clean.checked > 0 && clean.mismatches == 0 &&
                  bad.mismatches > 0 && ratio > 0.0 && bad.first.position == victim;
  std::printf("self-test: clean run %llu decisions, %llu mismatches; corrupted entry at "
              "position %zu -> error_ratio %.3g, first mismatch at position %llu "
              "(got %d, expected %d): %s\n",
              static_cast<unsigned long long>(clean.checked),
              static_cast<unsigned long long>(clean.mismatches), victim, ratio,
              static_cast<unsigned long long>(bad.first.position), bad.first.got,
              bad.first.expected, ok ? "PASS" : "FAIL");
  return ok;
}

// --- arguments -------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = std::stoi(value()) != 0;
    else throw std::runtime_error("unknown argument " + k);
  }
  if (a.seconds <= 0) throw std::runtime_error("--seconds must be positive");
  return a;
}

// --- one rule-set's run ---------------------------------------------------------

/// One seeded rule-set, measured end to end: its own inputs, engine,
/// dataplane and, for churn, writer. The traced run adds a traced window on
/// the same engine and the staged replay.
struct SubRun {
  size_t spot_mismatches = 0;
  double setup_s = 0.0;
  double index_kb = 0.0;
  PhaseResult plain;
  std::optional<PhaseResult> traced;
  std::optional<PhaseResult> sched;  // traced runs with Spec::sched_replicas
  Replay replay;
  size_t replay_calls = 0;
  uint64_t swaps = 0;
  std::vector<Writer::Burst> writer_window;  // bursts due inside `plain`
  uint64_t writer_ops = 0;
  uint64_t writer_accepted = 0;
  std::vector<double> retrain_s;
  bool writer_ran_out = false;
};

SubRun run_rule_set(const Spec& spec, const Args& args, const std::vector<int>& cpus,
                    uint64_t seed, double measure_s) {
  SubRun sr;
  Inputs in = make_inputs(kRules, spec.zipf, kTraceLen, seed);
  if (spec.churn)
    in.oracle->copy_source =
        writer_sources(in.rules.size(), 2 * (kWarmSeconds + measure_s) + 30.0, seed);
  sr.spot_mismatches = in.spot_mismatches;
  std::printf("inputs: %zu rules, %zu trace packets over %zu distinct flows, oracle=cutsplit, "
              "spot-check vs linear %zu/%zu agree, %.2f s (untimed)\n",
              in.rules.size(), in.trace->size(), in.distinct_flows,
              in.spot_checked - in.spot_mismatches, in.spot_checked, in.input_s);
  if (in.spot_mismatches > 0)
    std::printf("oracle spot-check mismatch: %s\n", in.spot_first.c_str());

  pin_thread(cpus);  // the engine's retrain worker inherits the whole set
  const uint64_t t0 = now_ns();
  auto engine = build_engine(in.rules);
  auto dp = build_dataplane(spec, in, engine, false);
  sr.setup_s = ns_to_s(now_ns() - t0);
  sr.index_kb = static_cast<double>(engine->memory_bytes()) / 1024.0;
  {
    const auto pin = engine->pin();
    std::printf("setup: %.3f s (engine build + graph), index %.1f kB, %zu iSets, coverage "
                "%.1f%%, remainder %zu rules\n",
                sr.setup_s, sr.index_kb, pin.nm().isets().size(), pin.nm().coverage() * 100.0,
                pin.nm().remainder_size());
  }

  std::unique_ptr<Writer> writer;
  const uint64_t gen0 = engine->generations();
  if (spec.churn) {
    // Pipeline on the first CPU, writer on the second; the retrain worker
    // keeps the whole set.
    writer = std::make_unique<Writer>(*engine, in.rules, in.oracle->copy_source,
                                      std::vector<int>{cpus[std::min<size_t>(1, cpus.size() - 1)]});
    writer->preload();
  }
  pin_thread({cpus[0]});  // a single graph runs on the first CPU
  if (writer) writer->start();
  sr.plain = collect(*dp, run_dataplane(*dp, spec, kWarmSeconds, measure_s), spec.replicas);
  const Window plain_window = dp->window;
  if (args.trace) {
    dp.reset();
    dp = build_dataplane(spec, in, engine, true);
    sr.traced = collect(*dp, run_dataplane(*dp, spec, kWarmSeconds, measure_s), spec.replicas);
    const SpanTap& tap = *dp->parts[0].at_cls;
    sr.replay = staged_replay(*engine, tap.recorded(), tap.batches());
    sr.replay_calls = tap.batches().size();
  }
  if (args.trace && spec.sched_replicas > 1) {
    // The scheduler and replicate layers: the same traffic and engine
    // through a ReplicatedGraph, one scheduler thread per replica, each
    // on its own CPU of the pinned set.
    Spec rs = spec;
    rs.replicas = spec.sched_replicas;
    dp.reset();
    pin_thread(cpus);
    dp = build_dataplane(rs, in, engine, false);
    sr.sched = collect(*dp, run_dataplane(*dp, rs, kWarmSeconds, measure_s), rs.replicas);
  }
  sr.swaps = engine->generations() - gen0;
  if (writer) {
    writer->stop();
    for (const Writer::Burst& b : writer->log()) {
      sr.writer_ops += b.ops;
      sr.writer_accepted += b.accepted;
      if (plain_window.contains(b.due)) sr.writer_window.push_back(b);
    }
    sr.retrain_s = writer->retrain_s();
    sr.writer_ran_out = writer->ran_out();
  }

  std::string sl;
  for (const double v : sr.plain.slice_mpps()) {
    char buf[32];
    std::snprintf(buf, sizeof buf, " %.3g", v);
    sl += buf;
  }
  std::printf("window: %llu packets measured, %.4f Mpps median of %zu slices of %.2f s:%s; "
              "cache hit %.1f%% (whole run)\n",
              static_cast<unsigned long long>(sr.plain.packets), sr.plain.mpps(), kSlices,
              sr.plain.seconds / kSlices, sl.c_str(), sr.plain.cache.hit_rate() * 100.0);
  for (const PhaseResult* r :
       {&sr.plain, sr.traced ? &*sr.traced : nullptr, sr.sched ? &*sr.sched : nullptr}) {
    if (r != nullptr && r->mismatches > 0)
      std::printf("first mismatch: trace position %llu got rule %d expected rule %d\n",
                  static_cast<unsigned long long>(r->first.position), r->first.got,
                  r->first.expected);
  }
  return sr;
}

// --- main -------------------------------------------------------------------------

int run(const Args& args) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) throw std::runtime_error("unknown workload '" + args.workload + "'");

  // Pin to the last `threads` CPUs of the allowed set, before any thread
  // exists, so every thread this process starts inherits the set.
  const std::vector<int> allowed = allowed_cpus();
  if (allowed.empty()) throw std::runtime_error("sched_getaffinity failed");
  const int threads =
      std::max(spec->threads, args.trace ? static_cast<int>(spec->sched_replicas) : 0);
  const auto n_cpus = std::min<size_t>(static_cast<size_t>(threads), allowed.size());
  const std::vector<int> cpus(allowed.end() - static_cast<std::ptrdiff_t>(n_cpus), allowed.end());
  const bool pinned = pin_thread(cpus);
  std::printf("stamp: workload=%s seed=%llu seconds=%g trace=%d nproc=%ld pinned=%s cpus=[%s] "
              "simd=%s NM_METRICS=%d rules=%zu trace_len=%zu cache=%zu\n",
              spec->name, static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN), pinned ? "yes" : "no",
              cpu_list(cpus).c_str(),
              nuevomatch::rqrmi::to_string(
                  nuevomatch::rqrmi::batch_level(nuevomatch::rqrmi::dispatch_ceiling()))
                  .c_str(),
              NM_METRICS, kRules, kTraceLen, kCacheCapacity);

  if (!self_test()) {
    std::fprintf(stderr, "self-test failed: the decision check is vacuous\n");
    return 3;
  }

  // The rule-sets are measured one after another, each for its share of
  // the window. Each rule-set's figures are medians over its slices; the
  // run reports their mean (setup_s: their median), since throughput
  // differs by up to ~20% between seeded rule-sets of this size.
  const int n_sets = args.trace ? 1 : kRuleSets;
  // A traced run splits the window between the untraced, the traced and
  // (with Spec::sched_replicas) the replicated phase.
  const double measure_s =
      args.trace ? args.seconds / (spec->sched_replicas > 1 ? 3 : 2) : args.seconds / n_sets;
  std::vector<SubRun> subs;
  for (int k = 0; k < n_sets; ++k)
    subs.push_back(run_rule_set(*spec, args, cpus, sub_seed(args.seed, 100 + k), measure_s));

  // --- correctness ---
  uint64_t decisions = 0, mismatches = 0, ops = 0, ops_ok = 0;
  size_t spot_bad = 0;
  bool ran_out = false;
  std::vector<double> rates, p50s, p90s, p99s, setup_s, index_kb;
  for (const SubRun& sr : subs) {
    for (const PhaseResult* r :
         {&sr.plain, sr.traced ? &*sr.traced : nullptr, sr.sched ? &*sr.sched : nullptr}) {
      if (r == nullptr) continue;
      decisions += r->checked;
      mismatches += r->mismatches;
    }
    spot_bad += sr.spot_mismatches;
    ops += sr.writer_ops;
    ops_ok += sr.writer_accepted;
    ran_out = ran_out || sr.writer_ran_out;
    rates.push_back(sr.plain.mpps());
    p50s.push_back(median(sr.plain.slice_latency_us(0.5)));
    p90s.push_back(median(sr.plain.slice_latency_us(0.9)));
    p99s.push_back(median(sr.plain.slice_latency_us(0.99)));
    setup_s.push_back(sr.setup_s);
    index_kb.push_back(sr.index_kb);
  }
  const uint64_t attempted = decisions + ops;
  const uint64_t failed = mismatches + spot_bad + (ops - ops_ok);
  const bool correct = failed == 0 && !ran_out;
  const double error_ratio =
      decisions ? static_cast<double>(mismatches) / static_cast<double>(decisions) : 0.0;
  const double mpps = mean(rates);
  const double p50 = mean(p50s);
  const double p90 = mean(p90s);
  const double p99 = mean(p99s);
  uint64_t bursts = 0;
  for (const SubRun& sr : subs) bursts += sr.plain.bursts;
  std::printf("result: %.4f Mpps, burst latency p50 %.2f us p90 %.2f us p99 %.2f us (%llu "
              "bursts; mean over %d rule-set(s) of medians over %zu slices), setup %.3f s, "
              "index %.1f kB, error_ratio %.3g over %llu decisions\n",
              mpps, p50, p90, p99, static_cast<unsigned long long>(bursts), n_sets, kSlices,
              median(setup_s), mean(index_kb), error_ratio,
              static_cast<unsigned long long>(decisions));

  // --- churn writer, over the untraced windows (all zero without one) ---
  std::vector<double> upd_us, late_us, commit_us, delta, depth, retrain;
  uint64_t w_ops = 0, w_ok = 0, swaps = 0;
  double window_s = 0.0;
  for (const SubRun& sr : subs) {
    window_s += sr.plain.seconds;
    swaps += sr.swaps;
    retrain.insert(retrain.end(), sr.retrain_s.begin(), sr.retrain_s.end());
    for (const Writer::Burst& b : sr.writer_window) {
      upd_us.push_back(static_cast<double>(b.done - b.due) * 1e-3);
      late_us.push_back(static_cast<double>(b.sent - b.due) * 1e-3);
      commit_us.push_back(static_cast<double>(b.done - b.commit_start) * 1e-3);
      delta.push_back(b.churn_rules);
      depth.push_back(b.journal_depth);
      w_ops += b.ops;
      w_ok += b.accepted;
    }
  }
  const double offered =
      spec->churn ? static_cast<double>(kWriterBurstsPerSec * kWriterBurstInserts * 2) : 0.0;
  const double achieved = static_cast<double>(w_ok) / window_s;
  const double fail_ratio =
      w_ops ? static_cast<double>(w_ops - w_ok) / static_cast<double>(w_ops) : 0.0;
  const double depth_max = depth.empty() ? 0.0 : *std::max_element(depth.begin(), depth.end());
  const double retrain_med = retrain.empty() ? 0.0 : median(retrain);
  if (spec->churn) {
    std::printf("writer: open loop, %llu bursts/s x (%zu inserts + erases), standing window %zu "
                "copies; %zu bursts in window%s\n",
                static_cast<unsigned long long>(kWriterBurstsPerSec), kWriterBurstInserts,
                kWriterWindow, upd_us.size(), ran_out ? " [schedule exhausted]" : "");
    std::printf("writer: update p50 %.1f us, p99 %.1f us (from due time, %zu samples); lateness "
                "p99 %.1f us; commit p50 %.1f us; offered %.0f ops/s, achieved %.0f ops/s; "
                "update_fail_ratio %.3g; churn delta mean %.0f rules; journal depth max %.0f; "
                "swaps %llu; retrain median %.3f s\n",
                percentile(upd_us, 0.5), percentile(upd_us, 0.99), upd_us.size(),
                percentile(late_us, 0.99), percentile(commit_us, 0.5), offered, achieved,
                fail_ratio, mean(delta), depth_max, static_cast<unsigned long long>(swaps),
                retrain_med);
  }

  if (!args.trace) {
    print_result(correct, attempted, failed,
                 {{"mpps", mpps, "Mpps"},
                  {"burst_p50_us", p50, "us"},
                  {"burst_p90_us", p90, "us"},
                  {"setup_s", median(setup_s), "s"},
                  {"index_kb", mean(index_kb), "kB"}});
    return 0;
  }

  // --- traced split ---
  const PhaseResult& plain = subs[0].plain;
  const PhaseResult& t = *subs[0].traced;
  const Replay& replay = subs[0].replay;
  const double pk = static_cast<double>(std::max<uint64_t>(t.packets, 1));
  const double thread_ns = t.thread_seconds * 1e9;
  const double graph_ns = static_cast<double>(t.busy_ns) - static_cast<double>(t.span_cache_ns);
  const double cache_ns = static_cast<double>(t.span_cache_ns) - static_cast<double>(t.span_cls_ns);
  const double cls_ns = static_cast<double>(t.span_cls_ns) - static_cast<double>(t.span_sink_ns);
  const double sink_ns = static_cast<double>(t.span_sink_ns);
  const double unattributed = 1.0 - (graph_ns + cache_ns + cls_ns + sink_ns) / thread_ns;
  const double rn = static_cast<double>(std::max<size_t>(replay.packets, 1));
  const double rk = static_cast<double>(std::max<size_t>(replay.keys, 1));
  const double staged =
      replay.predict_ns + replay.search_ns + replay.validate_ns + replay.remainder_ns;
  const double misses = static_cast<double>(std::max<uint64_t>(t.misses, 1));
  const double engine_per_miss = replay.pin_ns / rn;
  const double fill_per_miss = replay.fill_ns / rn;
  const double cls_self_per_miss = cls_ns / misses - engine_per_miss - fill_per_miss;
  const double lookups = static_cast<double>(std::max<uint64_t>(t.cache.lookups(), 1));
  const pl::SchedulerStats st = subs[0].sched ? subs[0].sched->sched : pl::SchedulerStats{};
  double fire_imbalance = 0.0, idle_ratio = 0.0;
  if (!st.fires_per_thread.empty() && st.fires > 0) {
    const std::vector<uint64_t>& per = st.fires_per_thread;
    const double fair = static_cast<double>(st.fires) / static_cast<double>(per.size());
    fire_imbalance = static_cast<double>(*std::max_element(per.begin(), per.end())) / fair - 1.0;
    idle_ratio = static_cast<double>(st.idle_fires) / static_cast<double>(st.fires);
  }
  if (subs[0].sched)
    std::printf("sched: %u replicas on %zu scheduler threads: %.4f Mpps, %llu steals, idle "
                "fires %.1f%%, fire imbalance %.1f%%\n",
                spec->sched_replicas, st.fires_per_thread.size(), subs[0].sched->mpps(),
                static_cast<unsigned long long>(st.steals), idle_ratio * 100.0,
                fire_imbalance * 100.0);
  const double overhead = plain.mpps() > 0 ? 1.0 - t.mpps() / plain.mpps() : 0.0;
  const double engine_share = cls_ns > 0 ? std::min(1.0, engine_per_miss * misses / cls_ns) : 0.0;
  std::printf("trace: %.4f Mpps traced vs %.4f untraced (overhead %.2f%%); thread time %.3f s: "
              "graph %.1f%%, flow_cache %.1f%%, classifier %.1f%% (engine %.0f%% of it by "
              "replay), sink %.1f%%, unattributed %.2f%% (tolerance %.0f%%: %s)\n",
              t.mpps(), plain.mpps(), overhead * 100.0, t.thread_seconds,
              graph_ns / thread_ns * 100.0, cache_ns / thread_ns * 100.0,
              cls_ns / thread_ns * 100.0,
              engine_share * 100.0, sink_ns / thread_ns * 100.0, unattributed * 100.0,
              kUnattributedTolerance * 100.0,
              std::abs(unattributed) <= kUnattributedTolerance ? "ok" : "EXCEEDED");
  std::printf("replay: %zu miss lanes in %zu calls; per key: infer %.1f ns, search %.1f ns, "
              "validate %.1f ns; per packet: remainder %.1f ns, Pin::match_batch %.1f ns "
              "(residual over stages %.1f ns), fill %.1f ns\n",
              replay.packets, subs[0].replay_calls, replay.predict_ns / rk,
              replay.search_ns / rk, replay.validate_ns / rk, replay.remainder_ns / rn,
              replay.pin_ns / rn, (replay.pin_ns - staged) / rn, fill_per_miss);
  if (std::string(spec->name) == "uniform")
    std::printf("split check: uniform: classifier layers largest share: %s\n",
                cls_ns > cache_ns + graph_ns && cls_ns > sink_ns ? "yes" : "NO");

  print_result(correct, attempted, failed, {
      {"graph.self_ns_per_pkt", graph_ns / pk, "ns"},
      {"flow_cache.probe_ns_per_pkt", cache_ns / pk, "ns"},
      {"flow_cache.fill_ns_per_miss", fill_per_miss, "ns"},
      {"flow_cache.hit_ratio", t.cache.hit_rate(), "ratio"},
      {"flow_cache.stale_ratio", static_cast<double>(t.cache.stale) / lookups, "ratio"},
      {"classify.lanes_per_call",
       static_cast<double>(t.misses) / static_cast<double>(std::max<uint64_t>(t.calls, 1)),
       "count"},
      {"classify.self_ns_per_miss", cls_self_per_miss, "ns"},
      {"sink.self_ns_per_pkt", sink_ns / pk, "ns"},
      {"rqrmi.infer_ns_per_key", replay.predict_ns / rk, "ns"},
      {"isets.search_ns_per_key", replay.search_ns / rk, "ns"},
      {"isets.validate_ns_per_key", replay.validate_ns / rk, "ns"},
      {"isets.match_ratio", static_cast<double>(replay.iset_hits) / rn, "ratio"},
      {"remainder.ns_per_pkt", replay.remainder_ns / rn, "ns"},
      {"remainder.floored_ratio", static_cast<double>(replay.floored) / rn, "ratio"},
      {"churn.probe_ns_per_pkt", (replay.pin_ns - staged) / rn, "ns"},
      {"sched.steals", static_cast<double>(st.steals), "count"},
      {"sched.idle_fire_ratio", idle_ratio, "ratio"},
      {"sched.fire_imbalance", fire_imbalance, "ratio"},
      {"trace.overhead_ratio", overhead, "ratio"},
      {"trace.unattributed_ratio", unattributed, "ratio"},
      {"error_ratio", error_ratio, "ratio"},
      {"burst_p99_us", p99, "us"},
      {"update_p50_us", percentile(upd_us, 0.5), "us"},
      {"update_p99_us", percentile(upd_us, 0.99), "us"},
      {"update_fail_ratio", fail_ratio, "ratio"},
      {"writer.late_p99_us", percentile(late_us, 0.99), "us"},
      {"writer.offered_ops_per_s", offered, "1/s"},
      {"writer.achieved_ops_per_s", achieved, "1/s"},
      {"churn.delta_rules", mean(delta), "count"},
      {"online.commit_us", percentile(commit_us, 0.5), "us"},
      {"online.swaps", static_cast<double>(swaps), "count"},
      {"online.retrain_s", retrain_med, "s"},
      {"online.journal_depth_max", depth_max, "count"},
  });
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nm_perfbench: %s\n", e.what());
    return 2;
  }
}
