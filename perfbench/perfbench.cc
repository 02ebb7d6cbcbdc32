// The repository benchmark: drives the public serving API (Server,
// ServerSession::Sql / ApplyDelta / ExecuteDdl, ServerQuery::Execute) from
// one process on one of three seeded workloads and prints every metric by
// name and unit.
//
//   perfbench --workload dss_mix --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
// the separate traced run: an untraced reference window, the same load with
// spans around every Server call (part 1), then a serial replay of the same
// stream through the layers the server calls, one span per layer (part 2).
// The last line of standard output is the result object; the human report
// goes to standard error. Any wrong result exits non-zero.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

using aggview::MaintenanceReport;
using aggview::OptimizedQuery;
using aggview::PlanCacheStats;
using aggview::QueryResult;
using aggview::Result;
using aggview::ServerQuery;
using aggview::ServerSession;
using aggview::Status;

constexpr int kSetupReps = 3;
constexpr int64_t kMinReads = MinSamplesFor(9900);   // for read_p99_ms
constexpr int64_t kMinWrites = MinSamplesFor(9000);  // for write_p90_ms
/// A window that has not reached its minimum sample counts by then stops
/// anyway (and the run fails on the refused percentile).
constexpr double kMaxWindowSeconds = 120.0;
/// The unmeasured window that ends every set-up.
constexpr double kWarmupSeconds = 0.5;
/// Reads per client whose latency vectors are reserved up front (address
/// space only; see ClientLoop).
constexpr size_t kReadReserve = size_t{1} << 22;
/// Pause between the writes of the closed-loop write probe. A longer pause
/// lets the core go idle between writes, which spreads their latencies.
constexpr std::chrono::milliseconds kProbeThink{1};
/// Slice length for the per-slice medians of the timed window.
constexpr int64_t kSliceNs = 1'000'000'000;
/// Seeds 1..10 tune the benchmark; claims are re-checked on these.
constexpr uint64_t kHeldOutSeeds[] = {1001, 1002, 1003, 1004, 1005,
                                      1006, 1007, 1008, 1009, 1010};
constexpr const char* kRefusedEnv[] = {
    "AGGVIEW_TEST_THREADS", "AGGVIEW_TEST_BATCH_SIZE", "AGGVIEW_TEST_BACKEND",
    "AGGVIEW_VERIFY_BYTECODE"};
constexpr double kInf = std::numeric_limits<double>::infinity();

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) {
        *error = "bad --seed";
        return false;
      }
    } else if (flag == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || args->seconds < 1 || args->seconds > 60) {
        *error = "--seconds must be 1..60";
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace must be 0 or 1";
        return false;
      }
      args->trace = value == "1" ? 1 : 0;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (args->workload.empty() || args->seconds == 0 || args->trace < 0) {
    *error = "usage: perfbench --workload <name> --seed <n> --seconds <s> "
             "--trace <0|1>";
    return false;
  }
  return true;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// One metric of the result object.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// ---------------------------------------------------------------------------
// Part 1: the concurrent window.

struct ReadRecord {
  int64_t pos = 0;
  bool hit = false;
};

/// Everything one window measured. Latencies of failed operations are +inf,
/// so a failure counts as missing every latency limit.
struct Window {
  double seconds = 0.0;
  OpCounts reads;
  OpCounts writes;
  std::vector<double> read_ms;
  /// When each read finished, from the start of the window.
  std::vector<int64_t> read_end_ns;
  std::vector<double> sql_hit_us;
  std::vector<double> sql_miss_us;
  std::vector<double> execute_ms;
  std::vector<double> write_ms;
  std::vector<double> writer_lag_ms;
  std::vector<double> apply_delta_ms;
  std::vector<double> refresh_ms;
  std::vector<MaintenanceReport> reports;
  std::vector<ReadRecord> served;
  PlanCacheStats cache_before;
  PlanCacheStats cache_after;
  std::vector<std::string> problems;

  /// Appends `other`'s samples and frees them in `other`, so that a merge
  /// holds each sample once: the first non-empty part is moved, not copied.
  void Absorb(Window&& other) {
    reads.Add(other.reads);
    writes.Add(other.writes);
    Append(&read_ms, &other.read_ms);
    Append(&read_end_ns, &other.read_end_ns);
    Append(&sql_hit_us, &other.sql_hit_us);
    Append(&sql_miss_us, &other.sql_miss_us);
    Append(&execute_ms, &other.execute_ms);
    Append(&write_ms, &other.write_ms);
    Append(&writer_lag_ms, &other.writer_lag_ms);
    Append(&apply_delta_ms, &other.apply_delta_ms);
    Append(&refresh_ms, &other.refresh_ms);
    Append(&reports, &other.reports);
    Append(&served, &other.served);
    Append(&problems, &other.problems);
  }

 private:
  template <typename T>
  static void Append(std::vector<T>* to, std::vector<T>* from) {
    if (to->empty()) {
      to->swap(*from);
    } else {
      to->insert(to->end(), from->begin(), from->end());
    }
    std::vector<T>().swap(*from);
  }
};

/// Replayed time of one statement (or template) name.
struct StatementTime {
  int64_t count = 0;
  int64_t prepare_ns = 0;
  int64_t execute_ns = 0;
};

/// Part 2 results: the serial decomposition of one replayed stream.
struct Decomposition {
  std::map<std::string, StatementTime> by_name;
  int64_t statements = 0;
  int64_t prepares = 0;
  std::vector<double> parse_bind_us;
  std::vector<double> rewrite_us;
  std::vector<double> optimize_us;
  std::vector<double> clamp_us;
  int64_t rewrite_answered = 0;
  aggview::EnumerationCounters counters;
  std::map<std::string, double> self_ms;
  int64_t rows_out = 0;
  int64_t hash_build_rows = 0;
  int64_t hash_probes = 0;
  int64_t io_pages = 0;
  int64_t prepare_ns = 0;
  int64_t execute_ns = 0;
  int64_t covered_ns = 0;
};

/// Operator classes the interpreting backend lowers to (exec/lowering.cc);
/// each gets an exec.self_ms.<name> metric.
const char* const kOperators[] = {"TableScan",     "Filter",
                                  "Project",       "HashJoin",
                                  "SortMergeJoin", "NestedLoopJoin",
                                  "HashAggregate", "Sort"};

class Runner {
 public:
  Runner(Workload* workload, bool traced_spans)
      : w_(workload), keep_spans_(traced_spans) {}

  /// Runs the closed-loop readers (and the open-loop writer, if the
  /// workload has one) for at least `seconds` and, when `measured`, until
  /// the minimum sample counts are reached.
  Window RunWindow(double seconds, bool traced, bool measured) {
    ++window_count_;  // each window's span logs get fresh ids
    aggview::Server& server = w_->server();
    Window out;
    out.cache_before = server.cache_stats();
    std::atomic<bool> stop{false};
    std::atomic<int64_t> stop_ns{std::numeric_limits<int64_t>::max()};
    std::atomic<int64_t> reads_done{0};
    const bool writer = w_->write_rate() > 0.0;
    std::vector<Window> parts(static_cast<size_t>(w_->clients()) + 1);
    std::vector<std::vector<Span>> spans(parts.size());
    const int64_t start = NowNs();
    std::vector<std::thread> threads;
    for (int c = 0; c < w_->clients(); ++c) {
      threads.emplace_back([&, c] {
        ClientLoop(c, start, traced, stop, reads_done,
                   &parts[static_cast<size_t>(c)],
                   &spans[static_cast<size_t>(c)]);
      });
    }
    if (writer) {
      threads.emplace_back([&] {
        WriterLoop(start, traced, stop, stop_ns, &parts.back(), &spans.back());
      });
    }
    // A measured window lasts until it has kMinReads reads and kMinWrites
    // writes have fallen due.
    int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    if (measured && writer) {
      deadline = std::max<int64_t>(
          deadline, start + static_cast<int64_t>(kMinWrites * 1e9 /
                                                 w_->write_rate()));
    }
    const int64_t cap = start + static_cast<int64_t>(kMaxWindowSeconds * 1e9);
    while (NowNs() < cap &&
           (NowNs() < deadline || (measured && reads_done.load() < kMinReads))) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop_ns.store(NowNs());
    stop.store(true);
    for (int c = 0; c < w_->clients(); ++c) {
      threads[static_cast<size_t>(c)].join();
    }
    out.seconds = static_cast<double>(NowNs() - start) / 1e9;
    // The writer still issues every write that fell due in the window.
    if (writer) threads.back().join();
    for (size_t i = 0; i < parts.size(); ++i) {
      out.Absorb(std::move(parts[i]));
      KeepSpans(std::move(spans[i]));
    }
    out.cache_after = server.cache_stats();
    std::sort(out.served.begin(), out.served.end(),
              [](const ReadRecord& a, const ReadRecord& b) {
                return a.pos < b.pos;
              });
    return out;
  }

  /// Runs writes [begin, end) in a closed loop with a short think time:
  /// the write probe of workloads without an open-loop writer.
  Window RunProbe(bool traced, int64_t begin, int64_t end) {
    Window out;
    SpanLog log(kWriterLog);
    ServerSession session = w_->server().Connect();
    for (int64_t k = begin; k < end; ++k) {
      if (k > begin) std::this_thread::sleep_for(kProbeThink);
      w_->Write(k);  // generates the delta outside the clock
      const int64_t sent = NowNs();
      DoWrite(&session, k, sent, sent, traced, &log, &out);
    }
    KeepSpans(std::vector<Span>(log.spans()));
    return out;
  }

  /// Part 2: replays the reads of `window` in stream order on this thread,
  /// through the functions Server::Prepare and ServerQuery::Execute call, for
  /// at most `budget_s` seconds. A read the window served from the plan
  /// cache reuses this replay's earlier plan for the same text, like the
  /// cache did.
  Decomposition Replay(const Window& window, double budget_s,
                       std::vector<std::string>* problems) {
    Decomposition d;
    const aggview::Catalog& catalog = w_->server().catalog();
    const aggview::ServerOptions& options = w_->server().options();
    std::unique_ptr<aggview::ThreadPool> pool;
    if (options.threads > 1) {
      pool = std::make_unique<aggview::ThreadPool>(options.threads);
    }
    SpanLog log(kReplayLog);
    std::unordered_map<std::string, std::shared_ptr<const OptimizedQuery>>
        plans;
    const int64_t deadline = NowNs() + static_cast<int64_t>(budget_s * 1e9);
    const int64_t writes_done = writes_done_.load();
    for (const ReadRecord& rec : window.served) {
      if (NowNs() >= deadline) break;
      const std::string& sql = w_->ReadSql(rec.pos);
      const int64_t root = log.Begin("replay", -1, rec.pos);
      const size_t first_child = log.spans().size();
      auto cached = plans.find(sql);
      if (!rec.hit || cached == plans.end()) {
        int64_t t0 = NowNs();
        Result<aggview::Query> query = aggview::ParseAndBind(catalog, sql);
        int64_t t1 = NowNs();
        log.Add("sql.parse_bind", root, rec.pos, t0, t1);
        d.parse_bind_us.push_back(Us(t1 - t0));
        if (!query.ok()) {
          problems->push_back("replay parse: " + query.status().ToString());
          continue;
        }
        int rewrites = 0;
        if (options.use_materialized_views && catalog.num_views() > 0) {
          t0 = NowNs();
          Result<int> n =
              aggview::RewriteWithMaterializedViews(catalog, &*query, nullptr);
          t1 = NowNs();
          log.Add("view.rewrite", root, rec.pos, t0, t1);
          d.rewrite_us.push_back(Us(t1 - t0));
          if (!n.ok()) {
            problems->push_back("replay rewrite: " + n.status().ToString());
            continue;
          }
          rewrites = *n;
          if (rewrites > 0) ++d.rewrite_answered;
        }
        t0 = NowNs();
        Result<OptimizedQuery> optimized =
            aggview::OptimizeQueryWithAggViews(*query, options.optimizer);
        t1 = NowNs();
        log.Add("optimizer.optimize", root, rec.pos, t0, t1);
        d.optimize_us.push_back(Us(t1 - t0));
        if (!optimized.ok()) {
          problems->push_back("replay optimize: " +
                              optimized.status().ToString());
          continue;
        }
        d.counters.joins_considered += optimized->counters.joins_considered;
        d.counters.plans_checked += optimized->counters.plans_checked;
        d.counters.groupby_placements +=
            optimized->counters.groupby_placements;
        if (rewrites > 0) {
          t0 = NowNs();
          optimized->plan = aggview::ClampEstimatesToProvableBounds(
              optimized->plan, optimized->query);
          t1 = NowNs();
          log.Add("analysis.clamp", root, rec.pos, t0, t1);
          d.clamp_us.push_back(Us(t1 - t0));
        }
        ++d.prepares;
        cached = plans
                     .insert_or_assign(sql, std::make_shared<const OptimizedQuery>(
                                                std::move(*optimized)))
                     .first;
      }
      const OptimizedQuery& plan = *cached->second;
      aggview::RuntimeStatsCollector stats;
      aggview::IoAccountant io;
      const int64_t t0 = NowNs();
      Result<QueryResult> result = aggview::ExecutePlan(
          plan.plan, plan.query,
          PinnedExecContext(options.threads, pool.get())
              .WithStats(&stats)
              .WithIo(&io));
      const int64_t t1 = NowNs();
      log.Add("exec.execute", root, rec.pos, t0, t1);
      log.End(root);
      if (!result.ok()) {
        problems->push_back("replay execute: " + result.status().ToString());
        continue;
      }
      ++d.statements;
      d.execute_ns += t1 - t0;
      d.rows_out += static_cast<int64_t>(result->rows.size());
      d.io_pages += io.total();
      AccumulateOperators(stats, &d);

      const std::vector<Span>& all = log.spans();
      const Span& root_span = all[first_child - 1];
      std::vector<Span> children(all.begin() + static_cast<long>(first_child),
                                 all.end());
      d.covered_ns += root_span.duration_ns() - SelfTimeNs(root_span, children);
      StatementTime& by_name = d.by_name[w_->ReadName(rec.pos)];
      ++by_name.count;
      by_name.execute_ns += t1 - t0;
      for (const Span& c : children) {
        if (std::string(c.name) == "exec.execute") continue;
        d.prepare_ns += c.duration_ns();
        by_name.prepare_ns += c.duration_ns();
      }
      if (!w_->CheckRead(rec.pos, ChecksumOf(result->rows), writes_done,
                         writes_done)) {
        problems->push_back("replay: wrong result for " + w_->ReadName(rec.pos));
      }
    }
    KeepSpans(std::vector<Span>(log.spans()));
    return d;
  }

  /// Times ComputeStats on the table the deltas mutated (the call
  /// ApplyTableDelta makes once per delta), `reps` times.
  std::vector<double> ProbeComputeStats(int reps) {
    SpanLog log(kReplayLog + 1);
    const aggview::Table& table =
        *w_->server().catalog().table(w_->write_table()).data;
    std::vector<double> ms;
    for (int i = 0; i < reps; ++i) {
      const int64_t t0 = NowNs();
      aggview::ComputeStats(table);
      const int64_t t1 = NowNs();
      log.Add("catalog.compute_stats", -1, i, t0, t1);
      ms.push_back(Ms(t1 - t0));
    }
    KeepSpans(std::vector<Span>(log.spans()));
    return ms;
  }

  int64_t writes_done() const { return writes_done_.load(); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  static constexpr int kWriterLog = 100;
  static constexpr int kReplayLog = 200;

  void KeepSpans(std::vector<Span>&& spans) {
    if (!keep_spans_) return;
    spans_.insert(spans_.end(), spans.begin(), spans.end());
  }

  void ClientLoop(int c, int64_t start, bool traced,
                  const std::atomic<bool>& stop,
                  std::atomic<int64_t>& reads_done, Window* out,
                  std::vector<Span>* spans) {
    ServerSession session = w_->server().Connect();
    SpanLog log(c + 1 + 10 * window_count_);
    // Reserved address space becomes resident only as it is written, so a
    // read costs 16 resident bytes and the vectors never grow by copying:
    // peak_rss_mb then barely moves with the number of reads.
    out->read_ms.reserve(kReadReserve);
    out->read_end_ns.reserve(kReadReserve);
    while (!stop.load(std::memory_order_relaxed)) {
      const int64_t pos = cursor_.fetch_add(1);
      const std::string& sql = w_->ReadSql(pos);
      const int64_t before = writes_done_.load(std::memory_order_acquire);
      const int64_t t0 = NowNs();
      Result<ServerQuery> query = session.Sql(sql);
      const int64_t t1 = NowNs();
      Result<QueryResult> result =
          query.ok() ? query->Execute() : Result<QueryResult>(query.status());
      const int64_t t2 = NowNs();
      const int64_t after = writes_done_.load(std::memory_order_acquire);
      const bool ok = result.ok();
      const bool hit = query.ok() && query->cache_hit();
      out->reads.Record(ok);
      out->read_ms.push_back(ok ? Ms(t2 - t0) : kInf);
      out->read_end_ns.push_back(t2 - start);
      if (traced) {
        // Per-layer samples: only the traced window reports them.
        out->served.push_back({pos, hit});
        if (query.ok()) {
          (hit ? out->sql_hit_us : out->sql_miss_us).push_back(Us(t1 - t0));
          out->execute_ms.push_back(ok ? Ms(t2 - t1) : kInf);
        }
        const int64_t root = log.Add("read", -1, pos, t0, t2);
        log.Add(hit ? "server.sql.hit" : "server.sql.miss", root, pos, t0, t1);
        if (query.ok()) log.Add("server.execute", root, pos, t1, t2);
      }
      // Outside the timed interval: the checksum check.
      if (ok && !w_->CheckRead(pos, ChecksumOf(result->rows), before, after)) {
        ++out->reads.wrong;
        if (out->problems.size() < 5) {
          out->problems.push_back("wrong result: " + w_->ReadName(pos) +
                                  " at stream position " + std::to_string(pos));
        }
      }
      if (!ok && out->problems.size() < 5) {
        out->problems.push_back("read failed: " + result.status().ToString());
      }
      reads_done.fetch_add(1, std::memory_order_relaxed);
    }
    *spans = log.spans();
  }

  void WriterLoop(int64_t start, bool traced, const std::atomic<bool>& stop,
                  const std::atomic<int64_t>& stop_ns, Window* out,
                  std::vector<Span>* spans) {
    ServerSession session = w_->server().Connect();
    SpanLog log(kWriterLog + window_count_);
    OpenLoopSchedule schedule;
    schedule.start_ns = start;
    schedule.interval_ns = static_cast<int64_t>(1e9 / w_->write_rate());
    for (int64_t i = 0;; ++i) {
      const int64_t due = schedule.DueNs(i);
      while (!stop.load() && NowNs() < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            std::min<int64_t>(due - NowNs(), 2'000'000)));
      }
      if (stop.load() && due >= stop_ns.load()) break;
      if (next_write_ >= w_->num_writes()) {
        out->problems.push_back("writer ran out of provisioned writes");
        ++out->writes.wrong;
        break;
      }
      const int64_t sent = NowNs();
      out->writer_lag_ms.push_back(Ms(schedule.LagNs(i, sent)));
      DoWrite(&session, next_write_++, due, sent, traced, &log, out);
    }
    *spans = log.spans();
  }

  /// Issues write k, which was due at `due` and sent at `sent`.
  void DoWrite(ServerSession* session, int64_t k, int64_t due, int64_t sent,
               bool traced, SpanLog* log, Window* out) {
    const WriteOp& op = w_->Write(k);
    MaintenanceReport report;
    const bool refresh = !op.refresh_sql.empty();
    Status status = refresh ? session->ExecuteDdl(op.refresh_sql).status()
                            : session->ApplyDelta(op.delta, &report);
    const int64_t done = NowNs();
    writes_done_.store(k + 1, std::memory_order_release);
    out->writes.Record(status.ok());
    out->write_ms.push_back(status.ok() ? Ms(done - due) : kInf);
    (refresh ? out->refresh_ms : out->apply_delta_ms).push_back(Ms(done - sent));
    if (!refresh) out->reports.push_back(report);
    if (traced) {
      const int64_t root = log->Add("write", -1, k, due, done);
      log->Add(refresh ? "server.refresh" : "server.apply_delta", root, k, sent,
               done);
    }
    if (!status.ok()) {
      out->problems.push_back("write failed: " + status.ToString());
    } else if (!w_->CheckWrite(k, report)) {
      ++out->writes.wrong;
      out->problems.push_back("write " + std::to_string(k) +
                              ": unexpected maintenance report");
    }
  }

  /// Adds one execution's per-operator counters: self time is an operator's
  /// inclusive time minus that of the operator(s) directly below it.
  static void AccumulateOperators(const aggview::RuntimeStatsCollector& stats,
                                  Decomposition* d) {
    std::unordered_map<const aggview::PlanNode*,
                       std::vector<const aggview::OpStats*>>
        by_node;
    for (const auto& e : stats.entries()) {
      by_node[e.node].push_back(e.stats.get());
    }
    std::function<int64_t(const aggview::PlanNode*)> top_ns =
        [&](const aggview::PlanNode* node) -> int64_t {
      if (node == nullptr) return 0;
      auto it = by_node.find(node);
      if (it != by_node.end()) return it->second.back()->total_ns();
      return top_ns(node->left.get()) + top_ns(node->right.get());
    };
    for (const auto& [node, ops] : by_node) {
      int64_t below = top_ns(node->left.get()) + top_ns(node->right.get());
      for (const aggview::OpStats* op : ops) {
        d->self_ms[op->op_name] += Ms(std::max<int64_t>(op->total_ns() - below,
                                                        0));
        d->hash_build_rows += op->hash_build_rows;
        d->hash_probes += op->hash_probes;
        below = op->total_ns();
      }
    }
  }

  Workload* w_;
  bool keep_spans_;
  std::atomic<int64_t> cursor_{0};
  std::atomic<int64_t> writes_done_{0};
  int64_t next_write_ = 0;
  int window_count_ = 0;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Reporting.

bool RequirePercentile(const std::vector<double>& v, int bp,
                       const std::string& name, double* out,
                       std::vector<std::string>* problems) {
  std::string error;
  if (Percentile(v, bp, name, out, &error)) return true;
  problems->push_back(error);
  return false;
}

/// Per-layer percentile: 0 when the layer saw too few samples (reported on
/// standard error).
double LayerPercentile(const std::vector<double>& v, int bp,
                       const std::string& name) {
  double out = 0.0;
  std::string error;
  if (Percentile(v, bp, name, &out, &error)) return out;
  std::fprintf(stderr, "note: %s reported as 0 (%s)\n", name.c_str(),
               error.c_str());
  return 0.0;
}

double Mean(int64_t total, int64_t n) {
  return n > 0 ? static_cast<double>(total) / static_cast<double>(n) : 0.0;
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

void PrintResult(bool correct, const OpCounts& ops,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ops.attempted);
  out += ", \"failed\": " + std::to_string(ops.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void PrintProvenance(const Args& args, const Workload& w) {
  std::string held_out;
  for (uint64_t s : kHeldOutSeeds) {
    held_out += (held_out.empty() ? "" : ", ") + std::to_string(s);
  }
  const std::string writer =
      w.write_rate() > 0.0
          ? "open loop, " + JsonNumber(w.write_rate()) + " writes/s"
          : "closed-loop probe, one burst per set-up, " +
                std::to_string(w.num_writes()) + " writes";
  std::printf(
      "{\"provenance\": {\"workload\": %s, \"why\": %s, \"seed\": %llu, "
      "\"held_out_seeds\": [%s], \"seconds\": %d, \"trace\": %d, "
      "\"nproc\": %d, \"compiler\": %s, \"build_type\": %s, "
      "\"git_sha\": %s, \"source_digest\": %s, \"scale\": %s, "
      "\"clients\": %d, \"pool_threads\": %d, \"writer\": %s, "
      "\"backend\": \"interpret\", \"batch_size\": %d, "
      "\"plan_cache_capacity\": %lld, \"max_concurrent_queries\": %d}}\n",
      JsonString(w.name()).c_str(), JsonString(w.why()).c_str(),
      static_cast<unsigned long long>(args.seed), held_out.c_str(),
      args.seconds, args.trace, aggview::ThreadPool::HardwareThreads(),
      JsonString(PERFBENCH_COMPILER).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(args.git_sha).c_str(),
      JsonString(args.source_digest).c_str(), JsonString(w.scale()).c_str(),
      w.clients(), w.pool_threads(), JsonString(writer).c_str(), kBatchSize,
      static_cast<long long>(kPlanCacheCapacity), w.clients());
}

void PrintComparisons(const SetupReport& report) {
  std::fprintf(stderr, "%-18s %14s %14s %9s %10s %10s\n", "statement",
               "aggview_cost", "trad_cost", "ratio", "agg_pages",
               "trad_pages");
  for (const PlanComparison& c : report.comparisons) {
    std::fprintf(stderr, "%-18s %14.1f %14.1f %9.4f %10lld %10lld%s\n",
                 c.name.c_str(), c.aggview_cost, c.traditional_cost,
                 c.traditional_cost > 0 ? c.aggview_cost / c.traditional_cost
                                        : 0.0,
                 static_cast<long long>(c.aggview_pages),
                 static_cast<long long>(c.traditional_pages),
                 c.view_backed ? "  (view-backed)" : "");
  }
}

/// The paper's guarantee: without view rewriting, the aggregate-view plan
/// is never estimated costlier than the traditional one. Returns the
/// largest cost ratio and the geometric mean of the measured page ratio.
bool PaperFidelity(const SetupReport& report, double* max_cost_ratio,
                   double* page_ratio, std::vector<std::string>* problems) {
  *max_cost_ratio = 0.0;
  std::vector<double> pages;
  bool ok = true;
  for (const PlanComparison& c : report.comparisons) {
    if (c.traditional_cost <= 0.0) continue;
    const double ratio = c.aggview_cost / c.traditional_cost;
    *max_cost_ratio = std::max(*max_cost_ratio, ratio);
    if (!c.view_backed && ratio > 1.0 + 1e-9) {
      problems->push_back("cost guarantee violated on " + c.name);
      ok = false;
    }
    if (c.traditional_pages > 0 && c.aggview_pages > 0) {
      pages.push_back(static_cast<double>(c.aggview_pages) /
                      static_cast<double>(c.traditional_pages));
    }
  }
  *page_ratio = GeoMean(pages);
  return ok;
}

int Run(const Args& args) {
  std::unique_ptr<Workload> w = MakeWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const int writer_threads = w->write_rate() > 0.0 ? 1 : 0;
  const int budget = w->clients() + writer_threads + w->pool_threads();
  if (budget > aggview::ThreadPool::HardwareThreads()) {
    std::fprintf(stderr,
                 "refusing to run: %d client threads + %d pool threads exceed "
                 "%d hardware threads\n",
                 w->clients() + writer_threads, w->pool_threads(),
                 aggview::ThreadPool::HardwareThreads());
    return 2;
  }
  const bool traced = args.trace == 1;
  // Writes to provision: an extended window lasts until it has kMinWrites
  // writes; a traced run has a reference window and a traced window.
  double window_s = static_cast<double>(args.seconds);
  if (w->write_rate() > 0.0) {
    window_s = std::max(window_s, static_cast<double>(kMinWrites + 5) /
                                      w->write_rate());
  }
  w->set_write_seconds(kWarmupSeconds + (traced ? 2.0 * window_s : window_s));

  std::vector<std::string> problems;
  OpCounts ops;
  SetupReport report;
  std::vector<double> setup_s;
  std::unique_ptr<Runner> runner_owner;
  // Without an open-loop writer, the writes are a closed-loop probe in one
  // burst per set-up: after the warm-up of each discarded set-up, and after
  // the timed window on the last. Each burst is cut into blocks of
  // kMinWrites consecutive writes. write_p90_ms is the median over all
  // blocks of each block's p90, so that a slow spell of the machine moves
  // only the blocks it overlaps. write_p50_ms is the mean of the blocks'
  // medians: block medians fall into a fast and a slow mode of the machine,
  // and a median over them would jump from one mode to the other.
  const bool probe_writes = w->write_rate() == 0.0;
  const int setups = traced ? 1 : kSetupReps;
  Window probe;
  std::vector<double> block_p50;
  std::vector<double> block_p90;
  auto probe_burst = [&](Runner* r, int burst) {
    const int64_t per_burst = w->num_writes() / kSetupReps;
    Window part = r->RunProbe(traced, burst * per_burst,
                              (burst + 1) * per_burst);
    ops.Add(part.writes);
    for (int64_t b = 0; b + kMinWrites <= per_burst; b += kMinWrites) {
      const std::vector<double> block(part.write_ms.begin() + b,
                                      part.write_ms.begin() + b + kMinWrites);
      double p50 = 0.0, p90 = 0.0;
      if (RequirePercentile(block, 5000, "write_p50_ms", &p50, &problems) &&
          RequirePercentile(block, 9000, "write_p90_ms", &p90, &problems)) {
        block_p50.push_back(p50);
        block_p90.push_back(p90);
      }
    }
    probe.Absorb(std::move(part));
  };
  for (int rep = 0; rep < setups; ++rep) {
    // Set-up ends with a short unmeasured window, so that the measured one
    // starts with warm caches, allocator arenas and thread pool.
    report = SetupReport();
    runner_owner.reset();
    const int64_t t0 = NowNs();
    Status st = w->Setup(args.seed, &report);
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    if (probe_writes && (w->num_writes() == 0 ||
                         w->num_writes() % (kSetupReps * kMinWrites) != 0)) {
      std::fprintf(stderr,
                   "set-up provisions %lld probe writes, not a positive "
                   "multiple of %lld\n",
                   static_cast<long long>(w->num_writes()),
                   static_cast<long long>(kSetupReps * kMinWrites));
      return 2;
    }
    runner_owner = std::make_unique<Runner>(w.get(), traced);
    Window warmup = runner_owner->RunWindow(kWarmupSeconds, /*traced=*/false,
                                            /*measured=*/false);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    problems.insert(problems.end(), warmup.problems.begin(),
                    warmup.problems.end());
    if (probe_writes && rep + 1 < setups) probe_burst(runner_owner.get(), rep);
  }
  Runner& runner = *runner_owner;
  PrintComparisons(report);
  double max_cost_ratio = 0.0;
  double page_ratio = 0.0;
  bool correct = PaperFidelity(report, &max_cost_ratio, &page_ratio, &problems);

  std::vector<Metric> metrics;
  double untraced_qps = 0.0;
  if (traced) {
    // The untraced reference window for the tracing overhead.
    Window reference = runner.RunWindow(window_s / 2.0, /*traced=*/false,
                                        /*measured=*/false);
    untraced_qps = static_cast<double>(reference.reads.attempted -
                                       reference.reads.failed) /
                   reference.seconds;
    ops.Add(reference.reads);
    ops.Add(reference.writes);
    problems.insert(problems.end(), reference.problems.begin(),
                    reference.problems.end());
  }
  Window window = runner.RunWindow(static_cast<double>(args.seconds), traced,
                                   /*measured=*/true);
  ops.Add(window.reads);
  ops.Add(window.writes);
  problems.insert(problems.end(), window.problems.begin(),
                  window.problems.end());
  const double qps =
      static_cast<double>(window.reads.attempted - window.reads.failed) /
      window.seconds;

  Decomposition decomposition;
  if (traced && probe_writes) {
    // Replay before the probe's deltas change the data.
    decomposition = runner.Replay(window, window_s / 2.0, &problems);
  }
  if (probe_writes) {
    probe_burst(&runner, setups - 1);
    problems.insert(problems.end(), probe.problems.begin(),
                    probe.problems.end());
  }
  // The write samples: the window's open-loop writer, or else the probe.
  const Window& writes = probe_writes ? probe : window;
  Status final_check = w->FinalCheck(runner.writes_done());
  if (!final_check.ok()) problems.push_back(final_check.ToString());
  if (traced && !probe_writes) {
    decomposition = runner.Replay(window, window_s / 2.0, &problems);
  }

  if (!traced) {
    // Throughput and the median read are medians over one-second slices of
    // the window; the tails need the whole window's samples.
    const SliceSummary slices = SummarizeSlices(
        window.read_ms, window.read_end_ns, kSliceNs,
        static_cast<int64_t>(window.seconds * 1e9));
    double read_p99 = 0, write_p50 = 0, write_p90 = 0;
    bool have = RequirePercentile(window.read_ms, 9900, "read_p99_ms", &read_p99,
                              &problems);
    if (probe_writes) {
      have &= static_cast<int64_t>(block_p90.size()) ==
              w->num_writes() / kMinWrites;
      for (double m : block_p50) write_p50 += m;
      write_p50 /= static_cast<double>(block_p50.size());
      write_p90 = Median(block_p90);
    } else {
      have &= RequirePercentile(writes.write_ms, 5000, "write_p50_ms",
                                &write_p50, &problems);
      have &= RequirePercentile(writes.write_ms, 9000, "write_p90_ms",
                                &write_p90, &problems);
    }
    if (!have) {
      for (const std::string& p : problems) {
        std::fprintf(stderr, "error: %s\n", p.c_str());
      }
      return 1;
    }
    metrics = {
        {"throughput_qps", slices.median_rate, "1/s"},
        {"read_p50_ms", slices.median_of_medians, "ms"},
        {"read_p99_ms", read_p99, "ms"},
        {"write_p50_ms", write_p50, "ms"},
        {"write_p90_ms", write_p90, "ms"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    std::fprintf(stderr,
                 "reads %lld in %.2f s, writes %lld, setup runs:",
                 static_cast<long long>(window.reads.attempted), window.seconds,
                 static_cast<long long>(writes.writes.attempted));
    for (double s : setup_s) std::fprintf(stderr, " %.3f s", s);
    if (probe_writes) {
      std::fprintf(stderr, "\nwrite blocks p50/p90 (ms):");
      for (size_t b = 0; b < block_p50.size(); ++b) {
        std::fprintf(stderr, " %.2f/%.2f", block_p50[b], block_p90[b]);
      }
    }
    std::fprintf(stderr, "\nreads per second, by slice:");
    for (double r : slices.rates) std::fprintf(stderr, " %.0f", r);
    std::fprintf(stderr, "\n");
  } else {
    const PlanCacheStats& before = window.cache_before;
    const PlanCacheStats& after = window.cache_after;
    const int64_t hits = after.hits - before.hits;
    const int64_t misses = after.misses - before.misses;
    int64_t touched = 0;
    int64_t recomputed = 0;
    for (const MaintenanceReport& r : writes.reports) {
      touched += r.groups_touched;
      recomputed += r.groups_recomputed;
    }
    const Decomposition& d = decomposition;
    std::vector<double> stats_ms = runner.ProbeComputeStats(5);
    // Part 1 request time per read against part 2 layer time per replay.
    int64_t read_ns = 0;
    int64_t read_spans = 0;
    for (const Span& s : runner.spans()) {
      if (std::string(s.name) == "read") {
        read_ns += s.duration_ns();
        ++read_spans;
      }
    }
    const double coverage = Mean(read_ns, read_spans) > 0
                                ? Mean(d.covered_ns, d.statements) /
                                      Mean(read_ns, read_spans)
                                : 0.0;
    const int64_t rewrites = static_cast<int64_t>(d.rewrite_us.size());
    const int64_t optimizes = static_cast<int64_t>(d.optimize_us.size());
    metrics = {
        {"server.sql_hit_us_p50",
         LayerPercentile(window.sql_hit_us, 5000, "server.sql_hit_us_p50"),
         "us"},
        {"server.sql_miss_us_p50",
         LayerPercentile(window.sql_miss_us, 5000, "server.sql_miss_us_p50"),
         "us"},
        {"server.execute_ms_p50",
         LayerPercentile(window.execute_ms, 5000, "server.execute_ms_p50"),
         "ms"},
        {"server.execute_ms_p99",
         LayerPercentile(window.execute_ms, 9900, "server.execute_ms_p99"),
         "ms"},
        {"server.apply_delta_ms_p50",
         LayerPercentile(writes.apply_delta_ms, 5000,
                         "server.apply_delta_ms_p50"),
         "ms"},
        {"server.refresh_ms_p50",
         LayerPercentile(writes.refresh_ms, 5000, "server.refresh_ms_p50"),
         "ms"},
        {"plan_cache.hit_ratio",
         hits + misses > 0 ? static_cast<double>(hits) /
                                 static_cast<double>(hits + misses)
                           : 0.0,
         "ratio"},
        {"plan_cache.misses", static_cast<double>(misses), "count"},
        {"plan_cache.evictions",
         static_cast<double>(after.evictions - before.evictions), "count"},
        {"plan_cache.invalidations",
         static_cast<double>(after.invalidations - before.invalidations),
         "count"},
        {"view.groups_touched",
         Mean(touched, static_cast<int64_t>(writes.reports.size())),
         "count"},
        {"view.groups_recomputed",
         Mean(recomputed, static_cast<int64_t>(writes.reports.size())),
         "count"},
        {"sql.parse_bind_us", Median(d.parse_bind_us), "us"},
        {"view.rewrite_us", Median(d.rewrite_us), "us"},
        {"view.answer_ratio", Mean(d.rewrite_answered, rewrites), "ratio"},
        {"optimizer.optimize_us", Median(d.optimize_us), "us"},
        {"optimizer.joins_considered",
         Mean(d.counters.joins_considered, optimizes), "count"},
        {"optimizer.plans_checked", Mean(d.counters.plans_checked, optimizes),
         "count"},
        {"optimizer.groupby_placements",
         Mean(d.counters.groupby_placements, optimizes), "count"},
        {"analysis.clamp_us", Median(d.clamp_us), "us"},
        {"exec.execute_ms", Mean(d.execute_ns, d.statements) / 1e6, "ms"},
    };
    for (const char* op : kOperators) {
      auto it = d.self_ms.find(op);
      const double total = it == d.self_ms.end() ? 0.0 : it->second;
      metrics.push_back({std::string("exec.self_ms.") + op,
                         d.statements > 0
                             ? total / static_cast<double>(d.statements)
                             : 0.0,
                         "ms"});
    }
    std::vector<Metric> tail = {
        {"exec.rows_out", Mean(d.rows_out, d.statements), "count"},
        {"exec.hash_build_rows", Mean(d.hash_build_rows, d.statements),
         "count"},
        {"exec.hash_probes", Mean(d.hash_probes, d.statements), "count"},
        {"exec.io_pages", Mean(d.io_pages, d.statements), "count"},
        {"catalog.compute_stats_ms", Median(stats_ms), "ms"},
        {"optimizer.est_cost_ratio", max_cost_ratio, "ratio"},
        {"exec.io_pages_ratio", page_ratio, "ratio"},
        {"trace.prepare_frac",
         d.prepare_ns + d.execute_ns > 0
             ? static_cast<double>(d.prepare_ns) /
                   static_cast<double>(d.prepare_ns + d.execute_ns)
             : 0.0,
         "ratio"},
        {"trace.coverage_frac", coverage, "ratio"},
        {"trace.overhead_frac", qps > 0 ? untraced_qps / qps - 1.0 : 0.0,
         "ratio"},
        // p90: p99 would need 1000 writes, over 80 s of writing at the rate.
        {"bench.writer_lag_ms_p90",
         LayerPercentile(writes.writer_lag_ms, 9000, "bench.writer_lag_ms_p90"),
         "ms"},
        {"error_rate", ops.ErrorRate(), "ratio"},
    };
    metrics.insert(metrics.end(), tail.begin(), tail.end());
    std::fprintf(stderr,
                 "part 1: %lld reads in %.2f s (untraced %.1f/s, traced "
                 "%.1f/s); part 2: %lld statements replayed, %lld prepared\n",
                 static_cast<long long>(window.reads.attempted), window.seconds,
                 untraced_qps, qps, static_cast<long long>(d.statements),
                 static_cast<long long>(d.prepares));
    std::fprintf(stderr, "%-18s %8s %14s %14s\n", "replayed", "count",
                 "prepare_us", "execute_us");
    for (const auto& [name, t] : d.by_name) {
      std::fprintf(stderr, "%-18s %8lld %14.1f %14.1f\n", name.c_str(),
                   static_cast<long long>(t.count),
                   Mean(t.prepare_ns, t.count) / 1e3,
                   Mean(t.execute_ns, t.count) / 1e3);
    }
    if (!args.trace_out.empty() &&
        !DumpSpans(runner.spans(), args.trace_out)) {
      std::fprintf(stderr, "note: could not write spans to %s\n",
                   args.trace_out.c_str());
    }
  }

  correct = correct && problems.empty() && ops.wrong == 0;
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-32s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  for (const std::string& p : problems) {
    std::fprintf(stderr, "error: %s\n", p.c_str());
  }
  PrintProvenance(args, *w);
  PrintResult(correct, ops, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string error;
  if (!perfbench::ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  for (const char* name : perfbench::kRefusedEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "refusing to run: %s is set; the benchmark pins its own "
                   "execution settings\n",
                   name);
      return 2;
    }
  }
  return perfbench::Run(args);
}
