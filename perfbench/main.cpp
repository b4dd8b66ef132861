// perfbench: the repository benchmark.  Four seeded workloads fed from
// SWF bytes through the entry points users call (GridSim, ShardGridSim,
// StreamGridSim), every output checked.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// Workloads (all on make_skewed_grid(8, 64, 2.0), Lublin-style
// make_large_trace jobs at most 32 wide at load 0.85, written as SWF
// text in the batch engine's routing order before any clock starts):
//   exchange      threshold routing + EASY, batch: the paper's
//                 decentralized exchange (routing/bids and EASY dispatch
//                 carry the replay; the sharded engine runs time windows).
//   central       isolated + FCFS with a central best-effort campaign and
//                 capacity churn, batch: the paper's centralized
//                 management (kill/resubmit/volatility path, no bids; the
//                 sharded engine runs lockstep).
//   stream        isolated + FCFS as the streaming service, closed loop:
//                 pipeline throughput from SWF bytes to NDJSON bytes with
//                 one checkpoint/restore restart at the midpoint.
//   stream-paced  threshold + EASY as the service, its whole trace fed
//                 open loop at a fixed rate and drained: placement
//                 latency with small polls, bids through the streaming
//                 per-job route events.
//
// Every workload reports every end-to-end metric.  exchange, central
// and stream also feed a prefix of their bytes to the service at a
// fixed rate (the latency probe, not drained), and the streaming
// workloads replay their bytes through the serial and the sharded
// engine, so each metric is measured on each workload's own
// configuration.  After one untimed warm-up, iterations repeat while
// they fit in --seconds: setup_s is their median, throughputs are the
// run's total jobs over total seconds, and latency percentiles are
// taken over every placement of the run.  --trace 1 instead reports the
// per-layer metrics, from spans around each public call and the
// profiler's counters and zones, writes the span tree as Chrome
// trace-event JSON, and compares traced with untraced throughput.
//
// The last stdout line is the result object; any failed check makes it
// report correct=false and the exit status 1.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/profiler.h"
#include "core/report.h"
#include "grid_golden_scenarios.h"
#include "harness.h"
#include "sim/grid_sim.h"
#include "sim/shard_sim.h"
#include "sim/stream_sim.h"
#include "workload/generators.h"
#include "workload/swf.h"
#include "workload/swf_stream.h"

namespace perfbench {
namespace {

using lgs::GridRouting;
using lgs::GridSim;
using lgs::GridSimOptions;
using lgs::GridSimResult;
using lgs::JobStore;
using lgs::LightGrid;
using lgs::ShardGridSim;
using lgs::StreamGridSim;
using lgs::SwfStreamParser;

constexpr int kShardWorkers = 2;
/// Set-ups and serial replays per batch iteration: one sample of setup_s
/// and of jobs_per_s spans several of the host's fast and slow phases,
/// which last a few tenths of a second each.
constexpr int kSerialReplays = 3;
constexpr std::size_t kParseChunk = 64 * 1024;
constexpr std::size_t kRingCapacity = 1024;
constexpr std::size_t kPollBatch = 256;
/// Simulated time between {"type":"metrics"} records of the service.
constexpr double kMetricsInterval = 500.0;
/// Service constructions timed between two phases of a stream-paced
/// iteration (its setup_s sample is their median).
constexpr int kConstructionsPerPhase = 16;
/// The placement-latency tail percentile reported as place_p75_us.
/// Higher percentiles are set by a few long polls (a lull's worth of
/// completions and NDJSON records at once) and swing with the trace and
/// the host far more than the benchmark's bound.
constexpr double kTailPercentile = 75.0;
constexpr int kMainTid = 0;
constexpr int kProducerTid = 1;

enum class Mode { kBatch, kStream, kPaced };

struct Workload {
  const char* name;
  Mode mode;
  GridRouting routing;
  const char* policy;
  bool central;        ///< best-effort campaign + capacity churn
  std::size_t jobs;    ///< trace length
  double rate;         ///< open-loop feed rate (jobs/s) of paced feeds
  std::size_t probe_jobs;  ///< lines of the latency probe (0: none)
};

/// Placement latency is measured open loop at a fixed rate, well below
/// each configuration's saturation (about a fifth of it on a 4-core x86
/// box): nearer saturation, queueing multiplies the host's speed swings
/// and no percentile stays steady.  The rates are constants, so two
/// commits are offered the same load.  stream-paced feeds its whole
/// trace at the rate; the other workloads feed a prefix of their bytes
/// to the service (the latency probe, not drained).
const Workload kWorkloads[] = {
    {"exchange", Mode::kBatch, GridRouting::kThreshold, "easy-backfill",
     false, 60000, 15000.0, 10000},
    {"central", Mode::kBatch, GridRouting::kIsolated, "fcfs-list", true,
     60000, 10000.0, 10000},
    {"stream", Mode::kStream, GridRouting::kIsolated, "fcfs-list", false,
     100000, 25000.0, 10000},
    {"stream-paced", Mode::kPaced, GridRouting::kThreshold, "easy-backfill",
     false, 30000, 15000.0, 0},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

// ---------------------------------------------------------------------------
// Inputs: generated from the seed before any clock starts.
// ---------------------------------------------------------------------------

struct Trace {
  std::string swf;                    ///< header comments + one line per job
  std::size_t header_bytes = 0;       ///< bytes before the first job line
  std::vector<std::size_t> line_end;  ///< one past each job line's '\n'
  double last_release = 0.0;
  std::size_t jobs() const { return line_end.size(); }
  /// Bytes of the header plus the first `n` job lines.
  std::size_t prefix_bytes(std::size_t n) const {
    return n == 0 ? header_bytes : line_end[n - 1];
  }
};

/// make_large_trace jobs as SWF text whose lines follow the batch
/// engine's routing order (grouped by home = community % clusters, then
/// stably sorted by release), so a release-ordered stream of the lines
/// replays exactly the batch run.  Times are written with 17 significant
/// digits, which round-trip every double exactly.
Trace make_trace(const LightGrid& grid, std::size_t n, std::uint64_t seed) {
  lgs::LargeTraceSpec spec;
  spec.max_procs = 32;
  spec.communities = 8;
  spec.target_capacity = grid.total_processors();
  spec.load = 0.85;
  const JobStore store = lgs::make_large_trace_store(n, seed, spec);

  lgs::ArenaVec<lgs::GridPending> pending;
  lgs::group_pending_by_home(store, grid.clusters.size(), pending);
  std::vector<std::uint32_t> order(pending.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return lgs::effective_grid_release(
                                store[pending[a].index].release) <
                            lgs::effective_grid_release(
                                store[pending[b].index].release);
                   });

  Trace t;
  t.swf = "; perfbench trace, seed " + std::to_string(seed) +
          "\n; Fields: id submit wait run procs -1 -1 req_procs -1 -1 "
          "status user -1 -1 -1 -1 -1 -1\n";
  t.header_bytes = t.swf.size();
  t.line_end.reserve(n);
  char line[256];
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t i = pending[order[k]].index;
    const lgs::HotJob& h = store[i];
    const int len = std::snprintf(
        line, sizeof line,
        "%zu %.17g -1 %.17g %d -1 -1 %d -1 -1 -1 %d -1 -1 -1 -1 -1 -1\n",
        k + 1, h.release, store.time(i, h.min_procs), h.min_procs,
        h.max_procs, h.community);
    t.swf.append(line, static_cast<std::size_t>(len));
    t.line_end.push_back(t.swf.size());
    t.last_release = std::max(t.last_release, h.release);
  }
  return t;
}

GridSimOptions make_options(const Workload& w, const Trace& t,
                            std::uint64_t seed) {
  GridSimOptions o;
  o.routing = w.routing;
  o.wait_threshold = 4.0;
  o.cluster.policy = w.policy;
  if (w.central) {
    // Ten 20-unit runs per local job keep the campaign active through
    // much of the trace, so kills and resubmissions recur throughout.
    o.bags = {{"central-campaign", static_cast<int>(10 * w.jobs), 20.0, 2,
               1.0}};
    o.volatility.events = 200;
    o.volatility.window = t.last_release;
    o.volatility.floor_fraction = 0.5;
    o.volatility_seed = lgs::mix_seed(seed, 0x5eedu);
  }
  return o;
}

struct Env {
  const Workload& w;
  LightGrid grid;
  Trace trace;
  GridSimOptions opts;
  /// The whole trace parsed once, for the reference and sharded replays
  /// of the streaming workloads.
  JobStore store;
};

// ---------------------------------------------------------------------------
// Engine runs.
// ---------------------------------------------------------------------------

/// Profiler snapshot of one engine run (trace mode): prof::reset()
/// before it, prof::snapshot() after.
struct ProfDelta {
  lgs::prof::Snapshot snap;
  double zone_self(const std::string& name) const {
    double sum = 0.0;
    std::function<void(const lgs::prof::ZoneReport&)> walk =
        [&](const lgs::prof::ZoneReport& z) {
          if (z.name == name) sum += z.self_s;
          for (const auto& c : z.children) walk(c);
        };
    for (const auto& r : snap.roots) walk(r);
    return sum;
  }
  double counter(const std::string& name) const {
    return static_cast<double>(snap.counter(name));
  }
};

/// Parse SWF bytes into a store the way a batch user does: fed in
/// chunks through the streaming parser, checked against the generator.
JobStore parse_bytes(const Env& env, Tracer& tr, Checks& checks,
                     lgs::SwfParseStats* stats = nullptr) {
  SwfStreamParser parser;
  const std::string& swf = env.trace.swf;
  {
    SpanScope parse(tr, kMainTid, "parse");
    for (std::size_t off = 0; off < swf.size(); off += kParseChunk) {
      SpanScope s(tr, kMainTid, "SwfStreamParser::feed");
      parser.feed(swf.data() + off, std::min(kParseChunk, swf.size() - off));
    }
    SpanScope s(tr, kMainTid, "SwfStreamParser::finish");
    parser.finish();
  }
  checks.expect(parser.stats().parsed == static_cast<long>(env.trace.jobs()),
                "parse: rows != generated jobs");
  checks.expect(parser.stats().dropped_invalid == 0, "parse: dropped rows");
  if (stats != nullptr) *stats = parser.stats();
  return parser.take_store();
}

struct BatchRun {
  double setup_s = 0.0;  ///< construct + submit (+ parse, by the caller)
  double run_s = 0.0;
  std::uint64_t digest = 0;
  GridSimResult result;
  std::size_t arena_peak = 0;
  ProfDelta prof;
};

BatchRun run_serial(const Env& env, const JobStore& store, Tracer& tr,
                    Checks& checks, bool prof_on) {
  BatchRun out;
  if (prof_on) lgs::prof::reset();
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<GridSim> sim;
  {
    SpanScope s(tr, kMainTid, "GridSim::GridSim");
    sim = std::make_unique<GridSim>(env.grid, env.opts);
  }
  {
    SpanScope s(tr, kMainTid, "GridSim::submit_store");
    sim->submit_store(store);
  }
  const Clock::time_point t1 = Clock::now();
  {
    SpanScope s(tr, kMainTid, "GridSim::run");
    out.result = sim->run();
  }
  const Clock::time_point t2 = Clock::now();
  if (prof_on) out.prof.snap = lgs::prof::snapshot();
  out.setup_s = seconds_between(t0, t1);
  out.run_s = seconds_between(t1, t2);
  out.digest = lgs::digest_grid_result(*sim, out.result);
  out.arena_peak = sim->arena_stats().bytes_peak;
  const std::vector<std::string> v = lgs::validate_grid_result(*sim, out.result);
  checks.expect(v.empty(), "serial: validate_grid_result: " +
                               (v.empty() ? std::string() : v.front()));
  checks.expect(out.result.jobs_completed ==
                    static_cast<long>(store.size()),
                "serial: jobs completed != jobs submitted");
  return out;
}

struct ShardRun {
  double wall_s = 0.0;
  std::uint64_t digest = 0;
  ProfDelta prof;
};

ShardRun run_sharded(const Env& env, const JobStore& store, Tracer& tr,
                     Checks& checks, bool prof_on) {
  ShardRun out;
  if (prof_on) lgs::prof::reset();
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<ShardGridSim> sim;
  GridSimResult res;
  {
    SpanScope s(tr, kMainTid, "ShardGridSim::ShardGridSim");
    sim = std::make_unique<ShardGridSim>(env.grid, env.opts, kShardWorkers);
  }
  {
    SpanScope s(tr, kMainTid, "ShardGridSim::submit_store");
    sim->submit_store(store);
  }
  {
    SpanScope s(tr, kMainTid, "ShardGridSim::run");
    res = sim->run();
  }
  out.wall_s = seconds_between(t0, Clock::now());
  if (prof_on) out.prof.snap = lgs::prof::snapshot();
  out.digest = lgs::digest_grid_result(*sim, res);
  const std::vector<std::string> v = lgs::validate_grid_result(*sim, res);
  checks.expect(v.empty(), "sharded: validate_grid_result: " +
                               (v.empty() ? std::string() : v.front()));
  return out;
}

// ---------------------------------------------------------------------------
// The streaming service: one producer thread feeding SWF bytes, the
// service polled on the calling thread.
// ---------------------------------------------------------------------------

/// NDJSON sink: counts bytes and records and checks that every job's
/// record arrives exactly once.
struct NdjsonSink {
  explicit NdjsonSink(std::size_t jobs) : seen(jobs, 0) {}
  void operator()(const std::string& line) {
    bytes += line.size() + 1;  // + the "\n" framing
    static constexpr char kJob[] = "{\"type\":\"job\"";
    if (line.compare(0, sizeof kJob - 1, kJob) != 0) return;  // metrics
    ++job_records;
    const std::size_t at = line.find(",\"job\":");
    const unsigned long long id =
        at == std::string::npos ? ~0ull
                                : std::strtoull(line.c_str() + at + 7, nullptr, 10);
    if (id < seen.size()) {
      ++seen[id];
    } else {
      ++bad_ids;
    }
  }
  std::vector<std::uint8_t> seen;
  std::uint64_t bytes = 0;
  std::uint64_t job_records = 0;
  std::uint64_t bad_ids = 0;
};

struct StreamSpec {
  std::size_t jobs = 0;   ///< job lines fed (a prefix of the trace)
  bool paced = false;     ///< open loop at `rate`; else closed loop
  double rate = 0.0;
  bool restart = false;   ///< checkpoint/restore after jobs/2 rows
  bool sink = true;       ///< NDJSON records to the counting sink
  bool drain = true;      ///< false: stop once every row is ingested
};

struct StreamRun {
  std::uint32_t span_root = 0;  ///< the run's "stream" span (traced runs)
  double wall_s = 0.0;       ///< first byte fed -> final result
  double feed_s = 0.0;       ///< first byte fed -> last row pushed
  double construct_s = 0.0;  ///< every service construction + restore
  double checkpoint_s = 0.0;
  double restore_s = 0.0;
  std::size_t checkpoint_bytes = 0;
  std::vector<double> place_us;
  std::vector<double> late_us;  ///< paced: producer lateness per row
  BacklogTrend backlog;
  std::uint64_t polls = 0;
  std::uint64_t digest = 0;
  GridSimResult result;
  std::size_t arena_peak = 0;
  std::size_t hot_bytes = 0;
  lgs::SwfParseStats parse;
  NdjsonSink sink{0};
};

/// A streaming run that throws cannot be wound down: the other thread
/// may be blocked on the ring for good.  The run ends here, with exit
/// status 1 and no result line.
[[noreturn]] void fail_stream(const char* side, const std::exception& e) {
  std::cerr << "perfbench: streaming " << side << " failed: " << e.what()
            << std::endl;
  std::_Exit(1);
}

StreamRun run_stream(const Env& env, const StreamSpec& spec, Tracer& tr,
                     Checks& checks) {
  const std::size_t n = spec.jobs;
  const Trace& trace = env.trace;
  StreamRun out;
  out.sink = NdjsonSink(n);
  StreamGridSim::Options sopts;
  sopts.ring_capacity = kRingCapacity;
  sopts.batch = kPollBatch;
  sopts.metrics_interval = kMetricsInterval;
  StreamGridSim::SinkFn sink_fn;
  if (spec.sink) sink_fn = [&out](const std::string& line) { out.sink(line); };
  const lgs::TablePool no_tables;  // SWF rows are rigid: no table refs

  Clock::time_point c0 = Clock::now();
  std::unique_ptr<StreamGridSim> svc;
  {
    SpanScope s(tr, kMainTid, "StreamGridSim::StreamGridSim");
    svc = std::make_unique<StreamGridSim>(env.grid, env.opts, sopts, sink_fn);
  }
  out.construct_s = seconds_between(c0, Clock::now());

  // due[k]: when row k was due at the service — its slot in the
  // open-loop schedule, or (closed loop) when the producer had it
  // parsed and started pushing it.  Written by the producer before the
  // row is pushed, read by the service only after ingesting it.
  std::vector<Clock::time_point> due(n);
  std::vector<double> late_us(spec.paced ? n : 0);
  std::atomic<StreamGridSim*> target{svc.get()};
  std::atomic<bool> restarted{false};
  std::atomic<std::size_t> pushed{0};
  const std::size_t cut = spec.restart ? n / 2 : n;
  const std::size_t end_bytes = trace.prefix_bytes(n);
  const std::uint32_t root = tr.begin(kMainTid, "stream");
  out.span_root = root;
  tr.set_cross_parent(kProducerTid, root);
  Clock::time_point feed_end;
  std::vector<double> release(n);

  const Clock::time_point t0 = Clock::now();
  auto produce = [&] {
    SpanScope loop(tr, kProducerTid, "producer");
    SwfStreamParser parser;
    StreamGridSim* s = target.load(std::memory_order_acquire);
    std::size_t sent = 0;
    auto feed = [&](std::size_t from, std::size_t to) {
      SpanScope f(tr, kProducerTid, "SwfStreamParser::feed");
      parser.feed(trace.swf.data() + from, to - from);
    };
    auto hand_over = [&] {
      // The restart: the service drains the first half, snapshots and
      // restores into a fresh service, which takes the rest.
      if (sent != cut || !spec.restart || cut == n) return;
      while (!restarted.load(std::memory_order_acquire))
        std::this_thread::yield();
      s = target.load(std::memory_order_acquire);
    };
    if (spec.paced) {
      feed(0, trace.header_bytes);
      const double gap_s = 1.0 / spec.rate;
      for (std::size_t k = 0; k < n; ++k) {
        const Clock::time_point when =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(gap_s * double(k)));
        due[k] = when;
        Clock::time_point now = Clock::now();
        while (now < when) now = Clock::now();
        late_us[k] = std::chrono::duration<double, std::micro>(now - when).count();
        feed(k == 0 ? trace.header_bytes : trace.line_end[k - 1],
             trace.line_end[k]);
        if (parser.store().size() != k + 1) break;  // fails the row checks
        {
          SpanScope p(tr, kProducerTid, "StreamGridSim::push");
          s->push(parser.store()[k]);
        }
        sent = k + 1;
        pushed.store(sent, std::memory_order_release);
        hand_over();
      }
    } else {
      for (std::size_t off = 0; off < end_bytes;) {
        const std::size_t to = std::min(end_bytes, off + kParseChunk);
        feed(off, to);
        off = to;
        const JobStore& st = parser.store();
        while (sent < st.size()) {
          const std::size_t upto = sent < cut ? std::min(st.size(), cut)
                                              : st.size();
          const Clock::time_point now = Clock::now();
          for (std::size_t k = sent; k < upto; ++k) due[k] = now;
          {
            SpanScope p(tr, kProducerTid, "StreamGridSim::push_n");
            s->push_n(&st[sent], upto - sent);
          }
          sent = upto;
          pushed.store(sent, std::memory_order_release);
          hand_over();
        }
      }
    }
    {
      SpanScope f(tr, kProducerTid, "SwfStreamParser::finish");
      parser.finish();
    }
    feed_end = Clock::now();
    {
      SpanScope c(tr, kProducerTid, "StreamGridSim::close");
      s->close();
    }
    out.parse = parser.stats();
    out.hot_bytes = parser.store().hot_bytes();
    for (std::size_t k = 0; k < n && k < parser.store().size(); ++k)
      release[k] = parser.store()[k].release;
  };
  std::thread producer([&] {
    try {
      produce();
    } catch (const std::exception& e) {
      fail_stream("producer", e);
    }
  });

  // Service loop on this thread.  After each poll, new entries in some
  // cluster's local_records() are the jobs placed by that poll.
  std::vector<std::uint8_t> placed(n, 0);
  std::vector<std::size_t> cursor(env.grid.clusters.size(), 0);
  std::vector<BacklogSample> backlog;
  out.place_us.reserve(n);
  std::unique_ptr<StreamGridSim> svc2;
  StreamGridSim* s = svc.get();
  std::uint64_t bad_ids = 0;
  auto observe = [&](const StreamGridSim& sv) {
    const Clock::time_point now = Clock::now();
    for (std::size_t c = 0; c < cursor.size(); ++c) {
      const auto& recs = sv.grid_sim().cluster(c).local_records();
      for (std::size_t i = cursor[c]; i < recs.size(); ++i) {
        const std::size_t id = static_cast<std::size_t>(recs[i].id);
        if (id >= n) {
          ++bad_ids;
          continue;
        }
        ++placed[id];
        out.place_us.push_back(
            std::chrono::duration<double, std::micro>(now - due[id]).count());
      }
      cursor[c] = recs.size();
    }
    const double t = seconds_between(t0, now);
    double due_rows = static_cast<double>(pushed.load(std::memory_order_acquire));
    if (spec.paced)
      due_rows = std::min(static_cast<double>(n), std::floor(t * spec.rate) + 1.0);
    backlog.push_back({t, due_rows - static_cast<double>(sv.ingested())});
  };
  try {
    for (;;) {
      if (spec.restart && svc2 == nullptr && s->ingested() == cut) {
        std::vector<unsigned char> blob;
        const Clock::time_point k0 = Clock::now();
        {
          SpanScope sp(tr, kMainTid, "StreamGridSim::checkpoint");
          blob = s->checkpoint();
        }
        const Clock::time_point k1 = Clock::now();
        {
          SpanScope sp(tr, kMainTid, "StreamGridSim::StreamGridSim");
          svc2 = std::make_unique<StreamGridSim>(env.grid, env.opts, sopts,
                                                 sink_fn);
        }
        const Clock::time_point k2 = Clock::now();
        {
          SpanScope sp(tr, kMainTid, "StreamGridSim::restore");
          svc2->restore(blob);
        }
        const Clock::time_point k3 = Clock::now();
        out.checkpoint_s = seconds_between(k0, k1);
        out.restore_s = seconds_between(k2, k3);
        out.construct_s += seconds_between(k1, k3);
        out.checkpoint_bytes = blob.size();
        s = svc2.get();
        target.store(s, std::memory_order_release);
        restarted.store(true, std::memory_order_release);
      }
      if (!spec.drain && s->ingested() == n) break;
      bool more = false;
      {
        SpanScope sp(tr, kMainTid, "StreamGridSim::poll");
        more = s->poll(no_tables);
      }
      ++out.polls;
      observe(*s);
      if (!more) break;
    }
  } catch (const std::exception& e) {
    fail_stream("service", e);
  }
  producer.join();
  const Clock::time_point t_end = Clock::now();
  tr.end(kMainTid, root);
  out.wall_s = seconds_between(t0, t_end);
  out.feed_s = seconds_between(t0, feed_end);
  out.late_us = std::move(late_us);
  out.arena_peak = s->grid_sim().arena_stats().bytes_peak;
  out.backlog = backlog_trend(backlog, out.feed_s);

  // ---- checks --------------------------------------------------------
  const std::string tag = spec.paced ? "paced stream" : "stream";
  checks.expect(out.parse.parsed == static_cast<long>(n),
                tag + ": parsed rows != generated jobs");
  checks.expect(out.parse.dropped_invalid == 0, tag + ": dropped rows");
  checks.expect(bad_ids == 0, tag + ": placed job ids outside the trace");
  std::uint64_t twice = 0, missing = 0;
  const double frontier =
      n > 0 ? *std::max_element(release.begin(), release.end()) : 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    if (placed[k] > 1) ++twice;
    // Undrained probes leave the rows at the last release instant
    // pending by design (the frontier instant stays open).
    if (placed[k] == 0 && (spec.drain || release[k] != frontier)) ++missing;
  }
  if (twice > 0) checks.fail_jobs(twice, tag + ": jobs placed twice");
  if (missing > 0) checks.fail_jobs(missing, tag + ": jobs never placed");
  if (spec.paced && out.backlog.grows)
    checks.fail_jobs(n, tag + ": backlog grew (" +
                            std::to_string(out.backlog.first_half_mean) +
                            " -> " +
                            std::to_string(out.backlog.second_half_mean) +
                            " rows), latency not reported from a saturated run");
  if (spec.drain) {
    out.result = s->result();
    out.digest = lgs::digest_grid_result(s->grid_sim(), out.result);
    const std::vector<std::string> v =
        lgs::validate_grid_result(s->grid_sim(), out.result);
    checks.expect(v.empty(), tag + ": validate_grid_result: " +
                                 (v.empty() ? std::string() : v.front()));
    if (spec.sink) {
      std::uint64_t not_once = out.sink.bad_ids;
      for (const std::uint8_t c : out.sink.seen) not_once += c != 1;
      if (not_once > 0)
        checks.fail_jobs(not_once, tag + ": NDJSON records not exactly once");
      checks.expect(s->records_emitted() == n,
                    tag + ": records emitted != jobs");
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Iterations.
// ---------------------------------------------------------------------------

/// Numbers of one iteration: end-to-end metrics, plus layer figures
/// when traced.
struct Iteration {
  std::map<std::string, double> e2e;
  /// Throughput metrics as (jobs, seconds), so a run can report its
  /// aggregate rate.
  std::map<std::string, std::pair<double, double>> rates;
  std::map<std::string, double> layer;
  std::vector<float> place_us;  ///< placement latencies, for pooling
  std::uint64_t digest = 0;
  GridSimResult result;
};

void add_placement(Iteration& it, const StreamRun& r) {
  it.place_us.assign(r.place_us.begin(), r.place_us.end());
}

/// Total duration of the spans named `names` below the span `root`.
double span_total(const Tracer& tr, std::initializer_list<const char*> names,
                  std::uint32_t root) {
  const std::vector<Span> spans = tr.spans();
  std::unordered_map<std::uint32_t, std::uint32_t> parent;
  for (const Span& s : spans) parent[s.id] = s.parent;
  double sum = 0.0;
  for (const Span& s : spans) {
    bool named = false;
    for (const char* n : names) named = named || std::strcmp(s.name, n) == 0;
    std::uint32_t up = s.parent;
    while (named && up != 0 && up != root) up = parent[up];
    if (named && up == root) sum += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  return sum;
}

/// Layer figures of the streaming run (primary or probe).
void add_stream_layers(Iteration& it, const StreamRun& r, const Tracer& tr) {
  auto& L = it.layer;
  L["stream.producer_blocked_s"] = span_total(
      tr, {"StreamGridSim::push", "StreamGridSim::push_n"}, r.span_root);
  L["stream.poll_s"] = span_total(tr, {"StreamGridSim::poll"}, r.span_root);
  L["stream.polls"] = static_cast<double>(r.polls);
  L["stream.rows_per_poll"] =
      r.polls > 0 ? static_cast<double>(r.parse.parsed) / r.polls : 0.0;
  L["stream.backlog_max"] = r.backlog.max;
  L["stream.gen_late_p99_us"] = percentile(r.late_us, 99.0);
  L["report.job_records"] = static_cast<double>(r.sink.job_records);
  L["report.sink_bytes"] = static_cast<double>(r.sink.bytes);
  L["checkpoint.save_s"] = r.checkpoint_s;
  L["checkpoint.restore_s"] = r.restore_s;
  L["checkpoint.bytes"] = static_cast<double>(r.checkpoint_bytes);
}

/// Parse figures of the workload's primary parse.
void add_input_layers(Iteration& it, double parse_s,
                      const lgs::SwfParseStats& stats, std::size_t hot_bytes) {
  it.layer["workload.parse_s"] = parse_s;
  it.layer["workload.rows"] = static_cast<double>(stats.parsed);
  it.layer["workload.dropped"] = static_cast<double>(stats.dropped_invalid);
  it.layer["store.hot_bytes"] = static_cast<double>(hot_bytes);
}

/// Kernel / cluster / grid layer figures, from the profiler around the
/// serial batch replay of the workload's bytes.  (The streaming service
/// routes through per-job events outside any profiler zone, so every
/// workload takes these from the same replay.)
void add_engine_layers(Iteration& it, const BatchRun& serial) {
  const ProfDelta& p = serial.prof;
  auto& L = it.layer;
  const double events = p.counter("sim.events");
  L["sim.events"] = events;
  L["sim.cancelled_skips"] = p.counter("sim.cancelled_skips");
  L["sim.ns_per_event"] = events > 0 ? serial.run_s * 1e9 / events : 0.0;
  L["cluster.dispatch_s"] = p.zone_self("cluster.dispatch");
  L["cluster.dispatch_cycles"] = p.counter("cluster.dispatch_cycles");
  L["cluster.queue_depth_highwater"] =
      p.counter("cluster.queue_depth_highwater");
  L["policy.skyline_rebuilds"] = p.counter("policy.skyline_rebuilds");
  L["grid.exchange_bids"] = p.counter("grid.exchange_bids");
  L["cluster.expected_wait_calls"] = p.counter("cluster.expected_wait_calls");
  L["grid.migrations"] = p.counter("grid.migrations");
  L["cluster.be_kills"] = p.counter("cluster.be_kills");
  L["grid.be_resubmits"] = p.counter("grid.be_resubmits");
  double done = 0.0, wasted = 0.0, preempt = 0.0;
  for (const auto& c : serial.result.clusters) {
    done += c.be.completed_time;
    wasted += c.be.wasted_time;
    preempt += static_cast<double>(c.volatility.local_preemptions);
  }
  // 0 when no best-effort work ran at all.
  L["besteffort.useful_ratio"] = done + wasted > 0 ? done / (done + wasted) : 0.0;
  L["volatility.local_preemptions"] = preempt;
}

class Bench {
 public:
  Bench(const Workload& w, std::uint64_t seed)
      : env_{w, lgs::make_skewed_grid(8, 64, 2.0), {}, {}, {}} {
    // Each workload draws its own trace from the run's seed.
    const std::uint64_t trace_seed =
        lgs::mix_seed(seed, static_cast<std::uint64_t>(&w - kWorkloads));
    env_.trace = make_trace(env_.grid, w.jobs, trace_seed);
    env_.opts = make_options(w, env_.trace, seed);
    if (w.mode != Mode::kBatch) {
      Tracer off(false);
      env_.store = parse_bytes(env_, off, checks_);
    }
  }

  Checks& checks() { return checks_; }
  const Checks& checks() const { return checks_; }
  const Env& env() const { return env_; }

  /// One iteration of the workload.  With `traced`, spans and profiler
  /// snapshots are taken and the layer figures filled in.
  Iteration iterate(Tracer& tr, bool traced) {
    Iteration it;
    const Workload& w = env_.w;
    SpanScope iter(tr, kMainTid, "iteration");
    if (w.mode == Mode::kBatch) {
      // kSerialReplays times: parse the bytes, construct, submit, run.
      // The samples are totals over the replays.
      BatchRun first;
      JobStore store;
      lgs::SwfParseStats stats;
      double setup_s = 0.0, run_s = 0.0, parse_s = 0.0;
      for (int r = 0; r < kSerialReplays; ++r) {
        const Clock::time_point t0 = Clock::now();
        store = parse_bytes(env_, tr, checks_, &stats);
        const double p = seconds_between(t0, Clock::now());
        checks_.attempt(store.size());
        BatchRun serial = run_serial(env_, store, tr, checks_, traced && r == 0);
        check_digest(serial.digest, "serial");
        setup_s += p + serial.setup_s;
        run_s += serial.run_s;
        if (r == 0) {
          parse_s = p;
          first = std::move(serial);
        }
      }
      const double n = static_cast<double>(store.size());
      checks_.attempt(store.size());
      const ShardRun sharded = run_sharded(env_, store, tr, checks_, traced);
      check_digest(sharded.digest, "sharded");
      const StreamRun pr = probe(tr);
      it.e2e["setup_s"] = setup_s / kSerialReplays;
      it.rates["jobs_per_s"] = {n * kSerialReplays, run_s};
      it.rates["sharded_jobs_per_s"] = {n, sharded.wall_s};
      add_placement(it, pr);
      it.result = first.result;
      it.digest = first.digest;
      if (traced) {
        add_engine_layers(it, first);
        add_shard_layers(it, first, sharded);
        add_stream_layers(it, pr, tr);
        add_input_layers(it, parse_s, stats, store.hot_bytes());
        it.layer["arena.peak_bytes"] = static_cast<double>(first.arena_peak);
      }
      return it;
    }

    // Streaming workloads: the service run, then the reference serial
    // replay and the sharded replay of the same bytes.
    const std::size_t n = env_.trace.jobs();
    // stream-paced sets up by constructing the service, a few
    // microseconds; its sample is the median of constructions timed
    // between the phases of the iteration.
    std::vector<double> constructions;
    const bool paced = w.mode == Mode::kPaced;
    if (paced) time_constructions(constructions);
    StreamSpec spec;
    spec.jobs = n;
    spec.paced = w.mode == Mode::kPaced;
    spec.rate = w.rate;
    spec.restart = w.mode == Mode::kStream;
    checks_.attempt(n);
    const StreamRun run = run_stream(env_, spec, tr, checks_);
    if (paced) time_constructions(constructions);
    const StreamRun pr = w.probe_jobs > 0 ? probe(tr) : StreamRun{};
    checks_.attempt(n);
    const BatchRun serial = run_serial(env_, env_.store, tr, checks_, traced);
    if (paced) time_constructions(constructions);
    checks_.attempt(n);
    const ShardRun sharded = run_sharded(env_, env_.store, tr, checks_, traced);
    if (paced) time_constructions(constructions);
    const double setup_s = paced ? median(constructions) : run.construct_s;
    check_digest(serial.digest, "serial reference");
    check_digest(sharded.digest, "sharded");
    check_digest(run.digest, spec.paced ? "paced stream" : "stream");
    it.e2e["setup_s"] = setup_s;
    it.rates["jobs_per_s"] = {static_cast<double>(n), run.wall_s};
    it.rates["sharded_jobs_per_s"] = {static_cast<double>(n), sharded.wall_s};
    add_placement(it, w.probe_jobs > 0 ? pr : run);
    it.result = run.result;
    it.digest = run.digest;
    if (traced) {
      add_engine_layers(it, serial);
      add_shard_layers(it, serial, sharded);
      add_stream_layers(it, run, tr);
      if (w.probe_jobs > 0)  // the open-loop feed of this workload
        it.layer["stream.gen_late_p99_us"] = percentile(pr.late_us, 99.0);
      add_input_layers(it,
                       span_total(tr,
                                  {"SwfStreamParser::feed",
                                   "SwfStreamParser::finish"},
                                  run.span_root),
                       run.parse, run.hot_bytes);
      it.layer["arena.peak_bytes"] = static_cast<double>(run.arena_peak);
    }
    return it;
  }

  /// The latency probe: the first probe_jobs lines fed to the service
  /// at the workload's rate; stops once every row is ingested.
  StreamRun probe(Tracer& tr) {
    StreamSpec spec;
    spec.jobs = env_.w.probe_jobs;
    spec.paced = true;
    spec.rate = env_.w.rate;
    spec.drain = false;
    checks_.attempt(spec.jobs);
    return run_stream(env_, spec, tr, checks_);
  }

  /// stream only: the same rows with no sink, for report.ndjson_s.
  double poll_seconds_without_sink() {
    Tracer tr(true);
    StreamSpec spec;
    spec.jobs = env_.trace.jobs();
    spec.restart = true;
    spec.sink = false;
    Checks rerun_checks;
    const StreamRun r = run_stream(env_, spec, tr, rerun_checks);
    for (const std::string& m : rerun_checks.messages())
      checks_.expect(false, m);
    return span_total(tr, {"StreamGridSim::poll"}, r.span_root);
  }

 private:
  void check_digest(std::uint64_t d, const std::string& what) {
    if (!have_ref_) {
      ref_digest_ = d;
      have_ref_ = true;
      return;
    }
    checks_.expect_digest(d, ref_digest_, what + " vs first replay");
  }

  static void add_shard_layers(Iteration& it, const BatchRun& serial,
                               const ShardRun& sharded) {
    it.layer["shard.speedup"] = serial.run_s / sharded.wall_s;
    it.layer["grid.shard_barrier_waits"] =
        sharded.prof.counter("grid.shard_barrier_waits");
    it.layer["grid.arrival_batches"] =
        sharded.prof.counter("grid.arrival_batches");
    it.layer["grid.route_s"] = serial.prof.zone_self("grid.arrival_pump");
  }

  void time_constructions(std::vector<double>& t) const {
    StreamGridSim::Options sopts;
    sopts.ring_capacity = kRingCapacity;
    sopts.batch = kPollBatch;
    sopts.metrics_interval = kMetricsInterval;
    for (int i = 0; i < kConstructionsPerPhase; ++i) {
      const Clock::time_point t0 = Clock::now();
      StreamGridSim svc(env_.grid, env_.opts, sopts, nullptr);
      t.push_back(seconds_between(t0, Clock::now()));
    }
  }

  Env env_;
  Checks checks_;
  std::uint64_t ref_digest_ = 0;
  bool have_ref_ = false;
};

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"jobs_per_s", "jobs/s"},
    {"sharded_jobs_per_s", "jobs/s"},
    {"place_p50_us", "us"},
    {"place_p75_us", "us"},
    {"peak_rss_mb", "MB"},
};

const MetricDef kPerLayer[] = {
    {"workload.parse_s", "s"},
    {"workload.bytes", "bytes"},
    {"workload.rows", "count"},
    {"workload.dropped", "count"},
    {"sim.events", "count"},
    {"sim.cancelled_skips", "count"},
    {"sim.ns_per_event", "ns"},
    {"cluster.dispatch_s", "s"},
    {"cluster.dispatch_cycles", "count"},
    {"cluster.queue_depth_highwater", "count"},
    {"policy.skyline_rebuilds", "count"},
    {"grid.route_s", "s"},
    {"grid.exchange_bids", "count"},
    {"cluster.expected_wait_calls", "count"},
    {"grid.migrations", "count"},
    {"cluster.be_kills", "count"},
    {"grid.be_resubmits", "count"},
    {"besteffort.useful_ratio", "fraction"},
    {"volatility.local_preemptions", "count"},
    {"shard.speedup", "ratio"},
    {"grid.shard_barrier_waits", "count"},
    {"grid.arrival_batches", "count"},
    {"stream.producer_blocked_s", "s"},
    {"stream.poll_s", "s"},
    {"stream.polls", "count"},
    {"stream.rows_per_poll", "count"},
    {"stream.backlog_max", "count"},
    {"stream.gen_late_p99_us", "us"},
    {"report.job_records", "count"},
    {"report.sink_bytes", "bytes"},
    {"report.ndjson_s", "s"},
    {"checkpoint.save_s", "s"},
    {"checkpoint.restore_s", "s"},
    {"checkpoint.bytes", "bytes"},
    {"arena.peak_bytes", "bytes"},
    {"store.hot_bytes", "bytes"},
    {"trace.overhead", "fraction"},
};

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string metrics_json(const MetricDef* defs, std::size_t n,
                         const std::map<std::string, double>& values) {
  std::string out = "{";
  for (std::size_t i = 0; i < n; ++i) {
    auto it = values.find(defs[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    if (i) out += ", ";
    out += "\"" + std::string(defs[i].name) + "\": {\"value\": " + num(v) +
           ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  return out + "}";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
      if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
    } else if (k == "--out") {
      a.out_dir = v;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (find_workload(a.workload) == nullptr)
    throw std::invalid_argument("unknown workload " + a.workload);
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

/// A throughput metric over the whole run: all its jobs over all its
/// seconds.  The host runs in fast and slow phases; a median over
/// iterations jumps with the phase that holds the majority, while the
/// aggregate rate moves in proportion to the mix.
double aggregate_rate(const std::vector<Iteration>& its,
                      const std::string& name) {
  double jobs = 0.0, seconds = 0.0;
  for (const Iteration& it : its) {
    const auto f = it.rates.find(name);
    if (f == it.rates.end()) continue;
    jobs += f->second.first;
    seconds += f->second.second;
  }
  return seconds > 0.0 ? jobs / seconds : 0.0;
}

/// Median of one metric over iterations.
double median_of(const std::vector<Iteration>& its, const std::string& name,
                 bool layer) {
  std::vector<double> v;
  for (const Iteration& it : its) {
    const auto& m = layer ? it.layer : it.e2e;
    auto f = m.find(name);
    if (f != m.end()) v.push_back(f->second);
  }
  return median(v);
}

/// Informational line before the result: host facts, inputs, the result
/// digest and simulated outcome (so a change of behaviour shows), and
/// the failure accounting.
std::string info_json(const Args& a, const Bench& b,
                      const std::vector<Iteration>& its, double elapsed_s,
                      const std::string& trace_base) {
  const Workload& w = b.env().w;
  std::ostringstream o;
  const GridSimResult& r = its.back().result;
  long kills = 0, be_started = 0, preempt = 0;
  for (const auto& c : r.clusters) {
    kills += c.be.killed;
    be_started += c.be.started;
    preempt += c.volatility.local_preemptions;
  }
  std::size_t samples = 0;
  for (const Iteration& it : its) samples += it.place_us.size();
  o << "{\"info\": {\"workload\": \"" << w.name << "\", \"seed\": " << a.seed
    << ", \"trace\": " << (a.trace ? 1 : 0)
    << ", \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"compiler\": \"" << PERFBENCH_COMPILER << "\", \"build_type\": \""
    << PERFBENCH_BUILD_TYPE << "\", \"profiler_enabled\": "
    << (lgs::prof::enabled() ? "true" : "false")
    << ", \"shard_workers\": " << kShardWorkers
    << ", \"producer_threads\": 1}"
    << ", \"jobs\": " << b.env().trace.jobs()
    << ", \"swf_bytes\": " << b.env().trace.swf.size()
    << ", \"paced_rate_jobs_per_s\": " << num(w.rate)
    << ", \"probe_jobs\": " << w.probe_jobs
    << ", \"iterations\": " << its.size()
    << ", \"measured_s\": " << num(elapsed_s)
    << ", \"place_samples\": " << samples
    << ", \"tail_percentile\": " << num(kTailPercentile)
    << ", \"digest\": \"" << hex_digest(its.back().digest) << "\""
    << ", \"simulated\": {\"horizon\": " << num(r.horizon)
    << ", \"jobs_completed\": " << r.jobs_completed
    << ", \"mean_wait\": " << num(r.mean_wait)
    << ", \"mean_slowdown\": " << num(r.mean_slowdown)
    << ", \"utilization\": " << num(r.global_utilization)
    << ", \"migrations\": " << r.migrations
    << ", \"besteffort_started\": " << be_started
    << ", \"besteffort_kills\": " << kills
    << ", \"grid_resubmissions\": " << r.grid_resubmissions
    << ", \"local_preemptions\": " << preempt << "}";
  if (!trace_base.empty())
    o << ", \"trace_files\": [\"" << lgs::json_escape(trace_base)
      << ".trace.json\", \"" << lgs::json_escape(trace_base) << ".spans.json\"]";
  const Checks& c = b.checks();
  o << ", \"failed_share\": "
    << num(c.attempted() > 0 ? double(c.failed()) / double(c.attempted()) : 0.0)
    << ", \"failures\": [";
  for (std::size_t i = 0; i < c.messages().size() && i < 20; ++i)
    o << (i ? ", " : "") << "\"" << lgs::json_escape(c.messages()[i]) << "\"";
  o << "]}}";
  return o.str();
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  f << text;
  if (!f) throw std::runtime_error("cannot write " + path);
}

int run(const Args& a) {
  const Workload& w = *find_workload(a.workload);
  Bench bench(w, a.seed);  // inputs made before any clock starts
  Tracer on(true), off(false);
  std::vector<Iteration> timed, traced;
  std::vector<Span> first_spans;
  // Warm-up, untimed: the first iteration of a process pays first-touch
  // page faults and cold caches (enough to saturate a latency probe).
  // It runs every phase of the workload, so its peak is the workload's.
  bench.iterate(off, false);
  const double rss_mb = peak_rss_mb();
  const Clock::time_point start = Clock::now();
  // Iterate while another iteration as long as the last one fits in
  // --seconds, at least three times; trace mode alternates untraced and
  // traced iterations, at least one of each.
  for (;;) {
    const bool trace_this = a.trace && timed.size() > traced.size();
    Tracer& tr = trace_this ? on : off;
    tr.clear();
    const Clock::time_point t0 = Clock::now();
    Iteration it = bench.iterate(tr, trace_this);
    const double last = seconds_between(t0, Clock::now());
    const std::vector<double> pl(it.place_us.begin(), it.place_us.end());
    std::cout << (trace_this ? "traced" : "timed") << " iteration "
              << (trace_this ? traced.size() : timed.size()) + 1 << " ("
              << num(last) << " s):";
    for (const auto& [k, v] : it.e2e) std::cout << " " << k << "=" << num(v);
    for (const auto& [k, r] : it.rates)
      std::cout << " " << k << "=" << num(r.first / r.second);
    std::cout << " place_p50_us=" << num(percentile(pl, 50.0))
              << " place_p75_us=" << num(percentile(pl, kTailPercentile))
              << "\n";
    if (trace_this && traced.empty()) first_spans = tr.spans();
    (trace_this ? traced : timed).push_back(std::move(it));
    const double elapsed = seconds_between(start, Clock::now());
    const bool enough =
        a.trace ? !traced.empty() : timed.size() >= 3;
    if (!bench.checks().ok() || (enough && elapsed + last > a.seconds)) break;
  }
  const double elapsed = seconds_between(start, Clock::now());

  std::map<std::string, double> metrics;
  std::string trace_base;
  if (!a.trace) {
    metrics["setup_s"] = median_of(timed, "setup_s", false);
    for (const char* r : {"jobs_per_s", "sharded_jobs_per_s"})
      metrics[r] = aggregate_rate(timed, r);
    metrics["peak_rss_mb"] = rss_mb;
    // Latency percentiles over every placement of the run.
    std::vector<double> place;
    for (const Iteration& it : timed)
      place.insert(place.end(), it.place_us.begin(), it.place_us.end());
    bench.checks().expect(percentile_supported(place.size(), kTailPercentile),
                          "too few placements for the tail percentile");
    metrics["place_p50_us"] = percentile(place, 50.0);
    metrics["place_p75_us"] = percentile(place, kTailPercentile);
    std::cout << "placement latency over " << place.size()
              << " jobs (us): p50=" << num(metrics["place_p50_us"])
              << " p75=" << num(metrics["place_p75_us"])
              << " p90=" << num(percentile(place, 90.0))
              << " p99=" << num(percentile(place, 99.0)) << "\n";
  } else {
    for (const MetricDef& m : kPerLayer)
      metrics[m.name] = median_of(traced, m.name, true);
    metrics["workload.bytes"] = static_cast<double>(bench.env().trace.swf.size());
    if (w.mode == Mode::kStream)
      metrics["report.ndjson_s"] =
          metrics["stream.poll_s"] - bench.poll_seconds_without_sink();
    metrics["trace.overhead"] = aggregate_rate(timed, "jobs_per_s") /
                                    aggregate_rate(traced, "jobs_per_s") -
                                1.0;
    trace_base = a.out_dir + "/" + w.name + "-seed" + std::to_string(a.seed);
    write_text(trace_base + ".trace.json",
               Tracer::chrome_trace(first_spans, w.name));
    const std::vector<SpanStat> tree = span_stats(first_spans);
    std::string summary = "{\"workload\": \"" + std::string(w.name) +
                          "\", \"spans\": [";
    for (std::size_t i = 0; i < tree.size(); ++i)
      summary += std::string(i ? ",\n" : "\n") + "{\"name\": \"" +
                 lgs::json_escape(tree[i].name) + "\", \"count\": " +
                 std::to_string(tree[i].count) + ", \"total_s\": " +
                 num(tree[i].total_s) + ", \"self_s\": " +
                 num(tree[i].self_s) + "}";
    write_text(trace_base + ".spans.json", summary + "]}\n");
  }

  std::cout << info_json(a, bench, a.trace ? traced : timed, elapsed,
                         trace_base)
            << "\n";
  const Checks& c = bench.checks();
  for (const std::string& m : c.messages()) std::cerr << "FAILED: " << m << "\n";
  std::cout << result_line(
                   c, a.trace ? metrics_json(kPerLayer, std::size(kPerLayer),
                                             metrics)
                              : metrics_json(kEndToEnd, std::size(kEndToEnd),
                                             metrics))
            << std::endl;
  return exit_status(c);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#ifdef __GLIBC__
  // Keep freed memory in the heap: every iteration then reuses pages the
  // warm-up already faulted in, instead of paying first-touch faults
  // whose cost depends on the host.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, -1);
#endif
  perfbench::Args args;
  try {
    args = perfbench::parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what()
              << "\nusage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR]\n";
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
