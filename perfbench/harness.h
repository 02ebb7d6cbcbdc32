// The benchmark's own arithmetic, kept free of the library so that
// selftest.cc can check it in isolation: the percentile rule, slice medians,
// span self time, open-loop latency and failure counting.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// ---- Percentiles ----------------------------------------------------------
//
// Percentiles are nearest-rank and given in basis points (5000 = p50,
// 9900 = p99) so the rank arithmetic is exact integer arithmetic.
//
// A percentile is reported only when at least kMinBeyond samples lie beyond
// it: p99 needs 1000 samples, p90 needs 100, p50 needs 20.
inline constexpr int64_t kMinBeyond = 10;

/// 1-based nearest rank of percentile `bp` among `n` samples:
/// ceil(n * bp / 10000), at least 1.
constexpr int64_t NearestRank(int64_t n, int bp) {
  const int64_t rank = (n * bp + 9999) / 10000;
  return rank < 1 ? 1 : rank;
}

/// Samples strictly beyond the nearest-rank percentile `bp` of `n` samples.
constexpr int64_t SamplesBeyond(int64_t n, int bp) {
  return n <= 0 ? 0 : n - NearestRank(n, bp);
}

/// Smallest sample count for which percentile `bp` has kMinBeyond samples
/// beyond it.
constexpr int64_t MinSamplesFor(int bp) {
  int64_t n = 1;
  while (SamplesBeyond(n, bp) < kMinBeyond) ++n;
  return n;
}

/// Nearest-rank percentile `bp` of `values` (any order). Fails with a
/// message naming `what` when fewer than MinSamplesFor(bp) samples exist.
bool Percentile(std::vector<double> values, int bp, const std::string& what,
                double* out, std::string* error);

/// Median of `values` without the sample-count rule (for per-layer medians
/// of small serial replays). 0 for an empty vector.
double Median(std::vector<double> values);

/// A window cut into equal time slices. Slowdowns of the machine that last
/// a few seconds move a slice median much less than a whole-window figure.
struct SliceSummary {
  int slices = 0;
  /// Operations completed per second in each slice, in slice order. An
  /// operation that spans slices counts in each in proportion to the part
  /// of it the slice holds; a failed one (infinite value) counts nowhere.
  std::vector<double> rates;
  /// Median of `rates`.
  double median_rate = 0.0;
  /// Median over slices of the values of the operations that finished in
  /// the slice.
  double median_of_medians = 0.0;
};

/// Summarizes operations of `values_ms[i]` milliseconds that finished
/// `end_ns[i]` after the window started, over the whole slices of
/// `slice_ns` that fit in `window_ns`. Time past the last whole slice is
/// ignored.
SliceSummary SummarizeSlices(const std::vector<double>& values_ms,
                             const std::vector<int64_t>& end_ns,
                             int64_t slice_ns, int64_t window_ns);

// ---- Spans ----------------------------------------------------------------

/// One traced interval. `parent` is the id of the span that caused it, -1
/// for a root; spans of one request share `request`.
struct Span {
  const char* name = "";
  int64_t id = -1;
  int64_t parent = -1;
  int64_t request = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// A span's self time: its duration minus the part of it that the union of
/// `children` covers (children clipped to the parent; overlapping children
/// are counted once).
int64_t SelfTimeNs(const Span& parent, const std::vector<Span>& children);

/// Spans recorded by one thread, appended without synchronisation. Ids are
/// unique across logs as long as each log has its own `log_id`.
class SpanLog {
 public:
  explicit SpanLog(int log_id) : log_id_(log_id) {}

  /// Opens a span now and returns its id.
  int64_t Begin(const char* name, int64_t parent, int64_t request);
  /// Closes span `id` now.
  void End(int64_t id);
  /// Records a finished span with explicit times and returns its id.
  int64_t Add(const char* name, int64_t parent, int64_t request,
              int64_t start_ns, int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  int64_t NextId() const {
    return (static_cast<int64_t>(log_id_) << 40) |
           static_cast<int64_t>(spans_.size());
  }
  int log_id_;
  std::vector<Span> spans_;
};

/// Monotonic clock in nanoseconds (std::chrono::steady_clock).
int64_t NowNs();

/// Writes `spans` as one JSON object per line. Returns false on an I/O
/// error.
bool DumpSpans(const std::vector<Span>& spans, const std::string& path);

// ---- Open-loop schedule ----------------------------------------------------

/// A fixed-rate send schedule: operation i is due at start + i * interval.
/// Latency is measured from the due time, so a stall also charges the wait
/// it imposes on the operations queued behind it; lag is how late the
/// generator actually sent.
struct OpenLoopSchedule {
  int64_t start_ns = 0;
  int64_t interval_ns = 0;

  int64_t DueNs(int64_t i) const { return start_ns + i * interval_ns; }
  int64_t LatencyNs(int64_t i, int64_t done_ns) const {
    return done_ns - DueNs(i);
  }
  int64_t LagNs(int64_t i, int64_t sent_ns) const {
    int64_t lag = sent_ns - DueNs(i);
    return lag > 0 ? lag : 0;
  }
};

// ---- Failure counting ------------------------------------------------------

/// Operations attempted and failed. A failure is an operation that returned
/// a non-OK status; a wrong result is not a failure but a broken run, and
/// is counted separately.
struct OpCounts {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t wrong = 0;

  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Add(const OpCounts& other) {
    attempted += other.attempted;
    failed += other.failed;
    wrong += other.wrong;
  }
  double ErrorRate() const {
    return attempted > 0 ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 0.0;
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
