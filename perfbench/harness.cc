#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench {

bool Percentile(std::vector<double> values, int bp, const std::string& what,
                double* out, std::string* error) {
  const int64_t n = static_cast<int64_t>(values.size());
  if (SamplesBeyond(n, bp) < kMinBeyond) {
    *error = what + ": percentile " + std::to_string(bp) +
             " bp needs at least " + std::to_string(MinSamplesFor(bp)) +
             " samples, got " + std::to_string(n);
    return false;
  }
  const size_t k = static_cast<size_t>(NearestRank(n, bp) - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  *out = values[k];
  return true;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t k =
      static_cast<size_t>(NearestRank(static_cast<int64_t>(values.size()),
                                      5000) - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

SliceSummary SummarizeSlices(const std::vector<double>& values_ms,
                             const std::vector<int64_t>& end_ns,
                             int64_t slice_ns, int64_t window_ns) {
  SliceSummary out;
  out.slices = static_cast<int>(window_ns / slice_ns);
  if (out.slices <= 0) return out;
  const auto slices = static_cast<size_t>(out.slices);
  std::vector<std::vector<double>> by_slice(slices);
  std::vector<double> credit(slices, 0.0);
  for (size_t i = 0; i < values_ms.size() && i < end_ns.size(); ++i) {
    const int64_t end = end_ns[i];
    if (end >= 0 && end / slice_ns < out.slices) {
      by_slice[static_cast<size_t>(end / slice_ns)].push_back(values_ms[i]);
    }
    if (!std::isfinite(values_ms[i])) continue;  // failed: completes nothing
    // Credit each slice with the share of the operation it contains.
    const double hi = static_cast<double>(end);
    const double lo = hi - values_ms[i] * 1e6;
    const double slice = static_cast<double>(slice_ns);
    if (hi <= lo) {
      if (end >= 0 && end / slice_ns < out.slices) {
        credit[static_cast<size_t>(end / slice_ns)] += 1.0;
      }
      continue;
    }
    for (int k = std::max(0, static_cast<int>(std::floor(lo / slice)));
         k < out.slices && k * slice < hi; ++k) {
      const double overlap =
          std::min(hi, (k + 1) * slice) - std::max(lo, k * slice);
      if (overlap > 0) credit[static_cast<size_t>(k)] += overlap / (hi - lo);
    }
  }
  std::vector<double> medians;
  for (size_t k = 0; k < slices; ++k) {
    out.rates.push_back(credit[k] * 1e9 / static_cast<double>(slice_ns));
    if (!by_slice[k].empty()) medians.push_back(Median(by_slice[k]));
  }
  out.median_rate = Median(out.rates);
  out.median_of_medians = Median(medians);
  return out;
}

int64_t SelfTimeNs(const Span& parent, const std::vector<Span>& children) {
  std::vector<std::pair<int64_t, int64_t>> covered;
  covered.reserve(children.size());
  for (const Span& c : children) {
    int64_t lo = std::max(c.start_ns, parent.start_ns);
    int64_t hi = std::min(c.end_ns, parent.end_ns);
    if (hi > lo) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  int64_t union_ns = 0;
  int64_t run_lo = 0;
  int64_t run_hi = -1;
  bool open = false;
  for (const auto& [lo, hi] : covered) {
    if (!open || lo > run_hi) {
      if (open) union_ns += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    } else {
      run_hi = std::max(run_hi, hi);
    }
  }
  if (open) union_ns += run_hi - run_lo;
  return parent.duration_ns() - union_ns;
}

int64_t SpanLog::Begin(const char* name, int64_t parent, int64_t request) {
  int64_t now = NowNs();
  return Add(name, parent, request, now, now);
}

void SpanLog::End(int64_t id) {
  spans_[static_cast<size_t>(id & ((int64_t{1} << 40) - 1))].end_ns = NowNs();
}

int64_t SpanLog::Add(const char* name, int64_t parent, int64_t request,
                     int64_t start_ns, int64_t end_ns) {
  Span s;
  s.name = name;
  s.id = NextId();
  s.parent = parent;
  s.request = request;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(s);
  return s.id;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool DumpSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%lld,\"parent\":%lld,"
                 "\"request\":%lld,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.name, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
