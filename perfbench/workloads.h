// The benchmark's three workloads. Each one builds a Server from pinned
// options, generates its inputs from the seed, computes reference results in
// set-up and checks every result it is shown.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "aggview.h"

namespace perfbench {

/// Pinned execution settings shared by every workload: nothing is read from
/// the environment (ServerOptions::Default and ExecContext::Default are
/// never called).
inline constexpr int kBatchSize = 1024;
inline constexpr int64_t kPlanCacheCapacity = 256;

aggview::ServerOptions PinnedServerOptions(int pool_threads,
                                           int max_concurrent_queries);
aggview::ExecContext PinnedExecContext(int threads, aggview::ThreadPool* pool);

/// Cheap order-independent result checksum. Exact parts (row count, and a
/// multiset hash over every non-double value with its column position) must
/// match exactly; double values enter a sum weighted by their row's exact
/// part, compared with a relative tolerance, because the floating-point
/// summation order of an aggregate depends on the plan and on how morsels
/// fall to workers.
struct Checksum {
  int64_t rows = 0;
  uint64_t exact = 0;
  long double weighted = 0.0L;
  long double magnitude = 0.0L;

  bool Matches(const Checksum& other) const;
};

Checksum ChecksumOf(const std::vector<aggview::Row>& rows);

/// One write of a workload's write stream.
struct WriteOp {
  /// REFRESH MATERIALIZED VIEW text, or empty for a delta.
  std::string refresh_sql;
  aggview::TableDelta delta;
};

/// The plans of one statement under both optimizers (paper fidelity).
struct PlanComparison {
  std::string name;
  double aggview_cost = 0.0;
  double traditional_cost = 0.0;
  int64_t aggview_pages = 0;
  int64_t traditional_pages = 0;
  bool view_backed = false;
};

/// What one set-up produced, for the run report.
struct SetupReport {
  std::vector<PlanComparison> comparisons;
};

class Workload {
 public:
  virtual ~Workload() = default;

  const std::string& name() const { return name_; }
  /// Why the workload exists: the layer it loads and the one it bypasses.
  const std::string& why() const { return why_; }
  /// Data size, for the provenance stamp.
  const std::string& scale() const { return scale_; }
  int clients() const { return clients_; }
  int pool_threads() const { return pool_threads_; }
  /// Open-loop writes per second during the timed window; 0 when the
  /// workload's writes run as a closed-loop probe outside the window.
  double write_rate() const { return write_rate_; }
  /// Seconds of open-loop writing the next Setup() provisions writes for.
  void set_write_seconds(double seconds) { write_seconds_ = seconds; }

  /// Builds the server, data, statistics, views, inputs from `seed`,
  /// reference results, and warms the plan cache. Replaces any previous
  /// set-up. Fails on any error or on a reference mismatch.
  virtual aggview::Status Setup(uint64_t seed, SetupReport* report) = 0;

  aggview::Server& server() { return *server_; }

  /// The read stream: statement text at stream position `pos` (any
  /// non-negative position; the stream repeats).
  const std::string& ReadSql(int64_t pos) const {
    return statements_[StatementAt(pos)].sql;
  }
  const std::string& ReadName(int64_t pos) const {
    return statements_[StatementAt(pos)].name;
  }

  /// True when `got` is a correct result for the read at stream position
  /// `pos`, given that it ran while the number of completed writes moved
  /// from `writes_before` to `writes_after`.
  virtual bool CheckRead(int64_t pos, const Checksum& got,
                         int64_t writes_before,
                         int64_t writes_after) const = 0;

  /// Write k of the write stream (k < num_writes()). The reference stays
  /// valid until the next call; calls come from one thread at a time.
  virtual const WriteOp& Write(int64_t k) {
    return writes_[static_cast<size_t>(k)];
  }
  virtual int64_t num_writes() const {
    return static_cast<int64_t>(writes_.size());
  }
  /// True when write k reported the expected maintenance work.
  virtual bool CheckWrite(int64_t k,
                          const aggview::MaintenanceReport& report) const = 0;

  /// End-of-run check over the final catalog state (all writes issued so
  /// far have completed; `writes_done` of them).
  virtual aggview::Status FinalCheck(int64_t writes_done) = 0;

  /// The table every delta mutates (ComputeStats probe target).
  aggview::TableId write_table() const { return write_table_; }

 protected:
  struct Statement {
    std::string name;
    std::string sql;
    Checksum expected;
  };

  size_t StatementAt(int64_t pos) const {
    return static_cast<size_t>(
        stream_[static_cast<size_t>(pos) % stream_.size()]);
  }

  /// Destroys the previous set-up's server and reference pool.
  void ReleaseServer();

  /// Executes `sql` with the traditional optimizer (no view rewriting) on
  /// the server's catalog: the independent reference plan.
  aggview::Result<aggview::QueryResult> RunTraditional(const std::string& sql,
                                                       int64_t* pages,
                                                       double* cost);
  /// Runs `stmt` through a server session, checks it against the
  /// traditional plan by full fingerprint, and records the comparison.
  aggview::Status WarmAndCompare(const Statement& stmt,
                                 aggview::ServerSession* session,
                                 SetupReport* report);

  std::string name_;
  std::string why_;
  std::string scale_;
  int clients_ = 2;
  int pool_threads_ = 1;
  double write_rate_ = 0.0;
  double write_seconds_ = 0.0;

  std::unique_ptr<aggview::Server> server_;
  std::unique_ptr<aggview::ThreadPool> reference_pool_;
  std::vector<Statement> statements_;
  std::vector<int32_t> stream_;
  std::vector<WriteOp> writes_;
  aggview::TableId write_table_ = -1;
};

/// The workload named `name`, or null.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

/// Names of every workload, in BENCHMARK.json order.
std::vector<std::string> WorkloadNames();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
