#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {
/// 1-based nearest rank of percentile p among n samples.  The epsilon
/// keeps exact products (99.9% of 10000 = 9990) from rounding up.
double nearest_rank(double p, std::size_t n) {
  return std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
}
}  // namespace

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = nearest_rank(p, v.size());
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

bool percentile_supported(std::size_t samples, double p,
                          std::size_t min_beyond) {
  // Samples strictly above the nearest-rank position.
  return static_cast<double>(samples) - nearest_rank(p, samples) >=
         static_cast<double>(min_beyond);
}

BacklogTrend backlog_trend(const std::vector<BacklogSample>& samples,
                           double feed_seconds, double slack_jobs) {
  BacklogTrend out;
  double sum[2] = {0.0, 0.0};
  std::size_t n[2] = {0, 0};
  const double mid = feed_seconds / 2.0;
  for (const BacklogSample& s : samples) {
    if (s.t > feed_seconds) continue;  // the drain after the last row
    const int half = s.t < mid ? 0 : 1;
    sum[half] += s.backlog;
    ++n[half];
    out.max = std::max(out.max, s.backlog);
  }
  out.first_half_mean = n[0] > 0 ? sum[0] / static_cast<double>(n[0]) : 0.0;
  out.second_half_mean = n[1] > 0 ? sum[1] / static_cast<double>(n[1]) : 0.0;
  out.grows =
      out.second_half_mean > 2.0 * out.first_half_mean + slack_jobs;
  return out;
}

void Checks::expect(bool cond, const std::string& what) {
  if (cond) return;
  ++failed_;
  messages_.push_back(what);
}

void Checks::expect_digest(std::uint64_t got, std::uint64_t want,
                           const std::string& what) {
  expect(got == want, what + ": digest " + hex_digest(got) + " != " +
                          hex_digest(want));
}

void Checks::fail_jobs(std::uint64_t jobs, const std::string& what) {
  failed_ += jobs;
  messages_.push_back(what + " (" + std::to_string(jobs) + " jobs)");
}

std::string result_line(const Checks& checks,
                        const std::string& metrics_json) {
  return std::string("{\"correct\": ") + (checks.ok() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(checks.attempted()) +
         ", \"failed\": " + std::to_string(checks.failed()) +
         ", \"metrics\": " + metrics_json + "}";
}

std::string hex_digest(std::uint64_t d) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(d));
  return buf;
}

std::vector<SpanStat> span_stats(const std::vector<Span>& spans) {
  // Children of each span, as intervals.
  std::unordered_map<std::uint32_t, std::vector<std::pair<std::int64_t,
                                                          std::int64_t>>>
      children;
  for (const Span& s : spans)
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);

  std::vector<SpanStat> out;
  std::unordered_map<std::string, std::size_t> by_name;
  for (const Span& s : spans) {
    const std::int64_t dur = s.end_ns - s.start_ns;
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<std::int64_t, std::int64_t>>& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
        } else {
          if (open) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
          open = true;
        }
      }
      if (open) covered += cur_hi - cur_lo;
    }
    auto [pos, fresh] = by_name.emplace(s.name, out.size());
    if (fresh) out.push_back(SpanStat{s.name, 0, 0.0, 0.0});
    SpanStat& st = out[pos->second];
    ++st.count;
    st.total_s += static_cast<double>(dur) * 1e-9;
    st.self_s += static_cast<double>(dur - covered) * 1e-9;
  }
  return out;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

std::uint32_t Tracer::begin(int tid, const char* name) {
  if (!enabled_) return 0;
  Log& log = logs_[tid];
  Span s;
  s.name = name;
  s.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  s.parent = log.open.empty() ? log.cross_parent
                              : log.spans[log.open.back()].id;
  s.tid = static_cast<std::uint32_t>(tid);
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
                   .count();
  log.open.push_back(log.spans.size());
  log.spans.push_back(s);
  return s.id;
}

void Tracer::end(int tid, std::uint32_t id) {
  if (!enabled_) return;
  Log& log = logs_[tid];
  Span& s = log.spans[log.open.back()];
  if (s.id != id) return;  // unbalanced end: keep the tree intact
  s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Clock::now() - epoch_)
                 .count();
  log.open.pop_back();
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> all;
  for (const Log& log : logs_)
    all.insert(all.end(), log.spans.begin(), log.spans.end());
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

void Tracer::clear() {
  for (Log& log : logs_) {
    log.spans.clear();
    log.open.clear();
    log.cross_parent = 0;
  }
}

std::string Tracer::chrome_trace(const std::vector<Span>& spans,
                                 const std::string& workload) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                  "\"parent\":%u,\"workload\":\"",
                  i == 0 ? "" : ",\n", s.name, s.tid,
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.id,
                  s.parent);
    out += buf;
    out += workload;
    out += "\"}}";
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
