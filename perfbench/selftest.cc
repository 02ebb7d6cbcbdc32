// Checks the benchmark's own arithmetic (harness.h). Exits non-zero on the
// first failed check. Build and run:
//
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest line %d: %s\n", line, what);
    ++failures;
  }
}
#define CHECK(cond) Check((cond), #cond, __LINE__)

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // descending: order-free
  return v;
}

void PercentileRule() {
  // Ten samples must lie beyond a percentile for it to be reported.
  CHECK(MinSamplesFor(9900) == 1000);
  CHECK(MinSamplesFor(9000) == 100);
  CHECK(MinSamplesFor(5000) == 20);
  CHECK(SamplesBeyond(1000, 9900) == 10);
  CHECK(SamplesBeyond(999, 9900) == 9);
  CHECK(SamplesBeyond(100, 9000) == 10);
  CHECK(SamplesBeyond(19, 5000) == 9);

  double out = 0.0;
  std::string error;
  // read_p99_ms is refused below 1000 samples, write_p90_ms below 100.
  CHECK(!Percentile(Ramp(999), 9900, "read_p99_ms", &out, &error));
  CHECK(error.find("1000") != std::string::npos);
  CHECK(Percentile(Ramp(1000), 9900, "read_p99_ms", &out, &error));
  CHECK(out == 990.0);
  CHECK(!Percentile(Ramp(99), 9000, "write_p90_ms", &out, &error));
  CHECK(Percentile(Ramp(100), 9000, "write_p90_ms", &out, &error));
  CHECK(out == 90.0);
  CHECK(Percentile(Ramp(101), 5000, "median", &out, &error));
  CHECK(out == 51.0);
  CHECK(Median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(Median({}) == 0.0);
}

void SliceMedians() {
  constexpr int64_t kMs = 1'000'000;
  const double inf = std::numeric_limits<double>::infinity();
  // Three 1-s slices and a partial fourth, which is ignored. Slice 0 holds
  // four 1-ms operations; slice 1 one, plus a failed one; slice 2 three. A
  // 500-ms operation ending at 1250 ms counts half in slice 0 and half in
  // slice 1.
  const std::vector<double> v = {1, 1, 1, 1, 500, 1, inf, 1, 1, 1, 1};
  const std::vector<int64_t> t = {100 * kMs,  200 * kMs,  300 * kMs,
                                  400 * kMs,  1250 * kMs, 1300 * kMs,
                                  1400 * kMs, 2100 * kMs, 2200 * kMs,
                                  2300 * kMs, 3100 * kMs};
  SliceSummary s = SummarizeSlices(v, t, 1000 * kMs, 3500 * kMs);
  CHECK(s.slices == 3);
  CHECK(s.rates.size() == 3);
  CHECK(std::fabs(s.rates[0] - 4.5) < 1e-9);
  CHECK(std::fabs(s.rates[1] - 1.5) < 1e-9);
  CHECK(std::fabs(s.rates[2] - 3.0) < 1e-9);
  CHECK(std::fabs(s.median_rate - 3.0) < 1e-9);
  // Slice medians: 1, median(500, 1, inf) = 500, 1.
  CHECK(s.median_of_medians == 1.0);
  CHECK(SummarizeSlices(v, t, 1000 * kMs, 500 * kMs).slices == 0);
}

Span At(int64_t start, int64_t end) {
  Span s;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void SpanSelfTime() {
  const Span parent = At(100, 200);
  CHECK(SelfTimeNs(parent, {}) == 100);
  CHECK(SelfTimeNs(parent, {At(110, 130), At(150, 170)}) == 60);
  // Overlapping children count once.
  CHECK(SelfTimeNs(parent, {At(110, 150), At(140, 160)}) == 50);
  // Nested children count once.
  CHECK(SelfTimeNs(parent, {At(110, 190), At(120, 130)}) == 20);
  // Children are clipped to the parent's interval.
  CHECK(SelfTimeNs(parent, {At(50, 120), At(190, 260)}) == 70);
  CHECK(SelfTimeNs(parent, {At(0, 50), At(250, 300)}) == 100);
  CHECK(SelfTimeNs(parent, {At(0, 300)}) == 0);

  SpanLog log(3);
  int64_t root = log.Begin("root", -1, 7);
  int64_t child = log.Add("child", root, 7, 5, 9);
  log.End(root);
  CHECK(log.spans().size() == 2);
  CHECK(root != child);
  CHECK((root >> 40) == 3);
  CHECK(log.spans()[1].parent == root);
  CHECK(log.spans()[0].end_ns >= log.spans()[0].start_ns);
}

void OpenLoopLatency() {
  OpenLoopSchedule s;
  s.start_ns = 1000;
  s.interval_ns = 100;
  CHECK(s.DueNs(0) == 1000);
  CHECK(s.DueNs(3) == 1300);
  // Op 0 stalls for 250 ns; op 1 was due at 1100 but could only be sent at
  // 1250: its latency counts the wait from its due time, and the generator
  // reports that it ran 150 ns late.
  CHECK(s.LatencyNs(0, 1250) == 250);
  CHECK(s.LagNs(1, 1250) == 150);
  CHECK(s.LatencyNs(1, 1280) == 180);
  // Sending early is no lag.
  CHECK(s.LagNs(2, 1150) == 0);
}

void FailureCounting() {
  OpCounts reads;
  reads.Record(true);
  reads.Record(false);
  reads.Record(true);
  reads.Record(true);
  CHECK(reads.attempted == 4);
  CHECK(reads.failed == 1);
  CHECK(reads.ErrorRate() == 0.25);
  OpCounts writes;
  writes.Record(true);
  writes.wrong = 1;  // a wrong result breaks the run; it is not an error
  reads.Add(writes);
  CHECK(reads.attempted == 5);
  CHECK(reads.failed == 1);
  CHECK(reads.wrong == 1);
  CHECK(reads.ErrorRate() == 0.2);
  CHECK(OpCounts{}.ErrorRate() == 0.0);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::PercentileRule();
  perfbench::SliceMedians();
  perfbench::SpanSelfTime();
  perfbench::OpenLoopLatency();
  perfbench::FailureCounting();
  if (perfbench::failures != 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n",
                 perfbench::failures);
    return 1;
  }
  std::fprintf(stderr, "selftest: all checks passed\n");
  return 0;
}
