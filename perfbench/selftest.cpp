// Self-tests of the benchmark's own rules (harness.h): percentile
// choice, self time over nested spans, backlog-growth detection, and a
// digest mismatch failing the run.  Each failed CHECK is printed (it
// works in every build type); the exit status is the failure count.
//
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

namespace {

using namespace perfbench;

int failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);    \
      ++failures;                                                    \
    }                                                                \
  } while (0)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

const SpanStat* find(const std::vector<SpanStat>& s, const char* name) {
  for (const SpanStat& x : s)
    if (x.name == name) return &x;
  return nullptr;
}

Span span(const char* name, std::uint32_t id, std::uint32_t parent,
          std::int64_t start, std::int64_t end, std::uint32_t tid = 0) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.tid = tid;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void test_percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted 1..100
  CHECK(percentile(v, 50.0) == 50.0);
  CHECK(percentile(v, 99.0) == 99.0);
  CHECK(percentile(v, 100.0) == 100.0);
  CHECK(percentile(v, 0.5) == 1.0);
  CHECK(percentile({}, 99.0) == 0.0);
  CHECK(median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(median({4.0, 1.0, 3.0, 2.0}) == 2.5);

  // p99 needs ten samples beyond it: 1000 samples, not 999.
  CHECK(percentile_supported(1000, 99.0));
  CHECK(!percentile_supported(999, 99.0));
  CHECK(percentile_supported(10000, 99.9));
  CHECK(!percentile_supported(9999, 99.9));
  CHECK(percentile_supported(20, 50.0));
  CHECK(!percentile_supported(19, 50.0));
}

void test_self_time() {
  // root [0,100] on the main thread; A [10,40] and B [30,60] overlap
  // (B ran on the producer thread); A has a child [15,20]; C [90,120]
  // outlives root and counts only up to root's end.
  const std::vector<Span> spans = {
      span("root", 1, 0, 0, 100),       span("A", 2, 1, 10, 40),
      span("B", 3, 1, 30, 60, 1),       span("A.child", 4, 2, 15, 20),
      span("C", 5, 1, 90, 120),         span("root", 6, 0, 200, 210),
  };
  const std::vector<SpanStat> st = span_stats(spans);
  const SpanStat* root = find(st, "root");
  const SpanStat* a = find(st, "A");
  const SpanStat* b = find(st, "B");
  CHECK(root != nullptr && a != nullptr && b != nullptr);
  if (root == nullptr || a == nullptr || b == nullptr) return;
  CHECK(root->count == 2);
  CHECK(near(root->total_s, 110e-9));
  // covered: [10,60] and [90,100] -> 60 of the first root's 100.
  CHECK(near(root->self_s, (100 - 60 + 10) * 1e-9));
  CHECK(near(a->self_s, 25e-9));
  CHECK(near(b->self_s, 30e-9));

  // The tracer nests by thread and parents a thread's outer spans to
  // the cross parent.
  Tracer tr(true);
  std::uint32_t outer = 0, inner = 0, prod = 0;
  {
    SpanScope o(tr, 0, "outer");
    outer = o.id();
    tr.set_cross_parent(1, outer);
    {
      SpanScope i(tr, 0, "inner");
      inner = i.id();
    }
    SpanScope p(tr, 1, "producer");
    prod = p.id();
  }
  const std::vector<Span> rec = tr.spans();
  CHECK(rec.size() == 3);
  for (const Span& s : rec) {
    if (s.id == outer) CHECK(s.parent == 0);
    if (s.id == inner) CHECK(s.parent == outer && s.tid == 0);
    if (s.id == prod) CHECK(s.parent == outer && s.tid == 1);
    CHECK(s.end_ns >= s.start_ns);
  }
  Tracer off(false);
  { SpanScope s(off, 0, "ignored"); }
  CHECK(off.spans().empty());
}

void test_backlog() {
  std::vector<BacklogSample> flat, growing, burst;
  for (int i = 0; i < 1000; ++i) {
    const double t = i / 1000.0;
    flat.push_back({t, 5.0 + (i % 7)});
    growing.push_back({t, 2000.0 * t});
    // A burst of 300 rows early on, otherwise a small level.
    burst.push_back({t, (i > 100 && i < 110) ? 300.0 : 4.0});
  }
  // After the feed ended, the drain may leave a large backlog: ignored.
  flat.push_back({1.5, 1e6});
  const BacklogTrend f = backlog_trend(flat, 1.0);
  CHECK(!f.grows);
  CHECK(f.max < 20.0);
  const BacklogTrend g = backlog_trend(growing, 1.0);
  CHECK(g.grows);
  CHECK(g.second_half_mean > 2.5 * g.first_half_mean);
  CHECK(!backlog_trend(burst, 1.0).grows);
  // A burst late in the run is not growth either.
  std::vector<BacklogSample> late = burst;
  for (BacklogSample& s : late) s.t = 1.0 - s.t;
  CHECK(!backlog_trend(late, 1.0).grows);
}

void test_digest_mismatch_fails_run() {
  Checks ok;
  ok.attempt(100);
  ok.expect_digest(0xabcull, 0xabcull, "sharded");
  CHECK(ok.ok());
  CHECK(exit_status(ok) == 0);
  CHECK(result_line(ok, "{}") ==
        "{\"correct\": true, \"attempted\": 100, \"failed\": 0, "
        "\"metrics\": {}}");

  Checks bad;
  bad.attempt(100);
  bad.expect_digest(0x1ull, 0x2ull, "stream vs first replay");
  CHECK(!bad.ok());
  CHECK(bad.failed() == 1);
  CHECK(exit_status(bad) == 1);
  CHECK(bad.messages().size() == 1 &&
        bad.messages()[0].find("0000000000000001 != 0000000000000002") !=
            std::string::npos);
  CHECK(result_line(bad, "{}").find("\"correct\": false") != std::string::npos);
  // Lost or duplicated jobs count one failure each.
  bad.fail_jobs(7, "jobs never placed");
  CHECK(bad.failed() == 8);
}

}  // namespace

int main() {
  test_percentiles();
  test_self_time();
  test_backlog();
  test_digest_mismatch_fails_run();
  std::printf("perfbench selftest: %d failure(s)\n", failures);
  return failures;
}
