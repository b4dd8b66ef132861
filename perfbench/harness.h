// Measurement plumbing of the perfbench workloads (main.cpp): order
// statistics, open-loop backlog checks, correctness accounting and the
// in-memory span tracer.  Kept apart from the workloads so
// selftest.cpp can pin each rule on hand-made inputs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- order statistics --------------------------------------------------

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> v);

/// Nearest-rank percentile `p` (0 < p <= 100) of `v`: the smallest sample
/// with at least p% of the samples at or below it.  0 when empty.
double percentile(std::vector<double> v, double p);

/// A percentile is reported only when at least `min_beyond` samples lie
/// beyond it: p99 needs 1000 samples, p99.9 needs 10000.
bool percentile_supported(std::size_t samples, double p,
                          std::size_t min_beyond = 10);

// ---- open-loop backlog -------------------------------------------------

/// One service-side observation: `backlog` jobs were due but not yet
/// ingested `t` seconds after the feed started.
struct BacklogSample {
  double t = 0.0;
  double backlog = 0.0;
};

struct BacklogTrend {
  double first_half_mean = 0.0;
  double second_half_mean = 0.0;
  double max = 0.0;
  bool grows = false;
};

/// Compare the mean backlog of the second half of the feed with the
/// first.  A sustainable rate keeps both near the same small level; an
/// unsustainable one grows the queue for as long as the run lasts, so
/// the second half averages about three times the first.  Growth is
/// declared when the second-half mean exceeds twice the first-half mean
/// plus `slack_jobs` (which absorbs short bursts at a small level).
BacklogTrend backlog_trend(const std::vector<BacklogSample>& samples,
                           double feed_seconds, double slack_jobs = 64.0);

// ---- correctness accounting --------------------------------------------

/// Every correctness check of a run: a failed check is recorded with
/// its message and counts toward `failed`; jobs of an invalid run count
/// as failed too.  The run's exit status follows `ok()`.
class Checks {
 public:
  void expect(bool cond, const std::string& what);
  /// Two result digests of the same SWF bytes must be identical.
  void expect_digest(std::uint64_t got, std::uint64_t want,
                     const std::string& what);
  /// Count `jobs` attempted jobs as failed (lost, duplicated, invalid,
  /// or part of a run whose measurement is invalid).
  void fail_jobs(std::uint64_t jobs, const std::string& what);
  void attempt(std::uint64_t jobs) { attempted_ += jobs; }

  bool ok() const { return failed_ == 0; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// The run's last stdout line: {"correct", "attempted", "failed",
/// "metrics"} with `metrics_json` (an object) as the metrics.
std::string result_line(const Checks& checks, const std::string& metrics_json);

/// Exit status of a run: 0 only when every check passed.
inline int exit_status(const Checks& checks) { return checks.ok() ? 0 : 1; }

/// Digest as the 16-digit hex string the informational output uses.
std::string hex_digest(std::uint64_t d);

// ---- spans -------------------------------------------------------------

/// One timed call: name, start, end, the span that caused it, and the
/// thread it ran on (0 = the main/service thread, 1 = the producer).
struct Span {
  const char* name = "";
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::uint32_t tid = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Aggregate of every span with one name.
struct SpanStat {
  std::string name;
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;  ///< total minus the time covered by child spans
};

/// Per-name totals and self times.  A span's self time is its duration
/// minus the union of its children's intervals clipped to it (children
/// on another thread may overlap each other; covered time counts once).
std::vector<SpanStat> span_stats(const std::vector<Span>& spans);

/// Spans of one benchmark run, kept in memory until the run ends.  Each
/// thread records into its own log (no locking on the hot path); ids
/// come from one shared counter so parents can cross threads.  A
/// disabled tracer records nothing and reads no clock.
class Tracer {
 public:
  static constexpr int kThreads = 2;

  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Open a span on thread `tid`, parented to the thread's innermost
  /// open span, or to `cross_parent` when the thread has none.  Returns
  /// its id (0 when disabled).
  std::uint32_t begin(int tid, const char* name);
  void end(int tid, std::uint32_t id);
  /// Parent for the outermost spans of thread `tid` (e.g. the producer
  /// loop under the main thread's iteration span).
  void set_cross_parent(int tid, std::uint32_t parent) {
    logs_[tid].cross_parent = parent;
  }

  /// Every recorded span, ordered by start.
  std::vector<Span> spans() const;
  /// Drop the recorded spans (ids keep increasing).
  void clear();

  /// Chrome trace-event JSON (Perfetto opens it): one complete ("X")
  /// event per span with its id, parent and the workload as arguments.
  static std::string chrome_trace(const std::vector<Span>& spans,
                                  const std::string& workload);

 private:
  struct Log {
    std::vector<Span> spans;
    std::vector<std::size_t> open;  ///< indices into spans
    std::uint32_t cross_parent = 0;
  };
  bool enabled_;
  Clock::time_point epoch_;
  std::atomic<std::uint32_t> next_id_{1};
  Log logs_[kThreads];
};

/// RAII span; a no-op on a disabled tracer.
class SpanScope {
 public:
  SpanScope(Tracer& t, int tid, const char* name)
      : t_(t), tid_(tid), id_(t.begin(tid, name)) {}
  ~SpanScope() { t_.end(tid_, id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  Tracer& t_;
  int tid_;
  std::uint32_t id_;
};

}  // namespace perfbench
