#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <utility>

#include "common/random.h"
#include "storage/io_accountant.h"
#include "storage/table.h"

namespace perfbench {

using aggview::ExecBackend;
using aggview::MaintenanceReport;
using aggview::QueryResult;
using aggview::Result;
using aggview::Rng;
using aggview::Row;
using aggview::Server;
using aggview::ServerOptions;
using aggview::ServerQuery;
using aggview::ServerSession;
using aggview::Status;
using aggview::Value;

namespace {

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seeds the generator of one input stream: the run seed mixed with the
/// stream's own tag, so streams of one run are independent.
Rng StreamRng(uint64_t seed, uint64_t tag) { return Rng(Mix(seed ^ Mix(tag))); }

/// `count` distinct indices in [0, n), in draw order.
std::vector<int64_t> DistinctIndices(Rng* rng, int64_t n, int64_t count) {
  std::set<int64_t> seen;
  std::vector<int64_t> out;
  while (static_cast<int64_t>(out.size()) < count) {
    int64_t i = rng->Uniform(0, n - 1);
    if (seen.insert(i).second) out.push_back(i);
  }
  return out;
}

/// A seeded permutation of 0..n-1.
std::vector<int32_t> Permutation(Rng* rng, int n) {
  std::vector<int32_t> p(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) p[static_cast<size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    std::swap(p[static_cast<size_t>(i)],
              p[static_cast<size_t>(rng->Uniform(0, i))]);
  }
  return p;
}

/// A stream of `blocks` blocks, each a seeded permutation of the `n`
/// statements: every stretch of the stream has the same statement mix, so
/// the mix of a run does not vary with the seed.
std::vector<int32_t> BalancedStream(Rng* rng, int n, int blocks) {
  std::vector<int32_t> stream;
  stream.reserve(static_cast<size_t>(n) * static_cast<size_t>(blocks));
  for (int b = 0; b < blocks; ++b) {
    std::vector<int32_t> block = Permutation(rng, n);
    stream.insert(stream.end(), block.begin(), block.end());
  }
  return stream;
}

Status Mismatch(const std::string& what) {
  return Status::Internal("result mismatch: " + what);
}

}  // namespace

aggview::ServerOptions PinnedServerOptions(int pool_threads,
                                           int max_concurrent_queries) {
  ServerOptions options;
  options.threads = pool_threads;
  options.batch_size = kBatchSize;
  options.backend = ExecBackend::kInterpret;
  options.bytecode_verify = aggview::BytecodeVerifyMode::kOn;
  options.use_traditional = false;
  options.optimizer = aggview::OptimizerOptions{};
  options.use_materialized_views = true;
  options.plan_cache_capacity = kPlanCacheCapacity;
  options.max_concurrent_queries = max_concurrent_queries;
  return options;
}

aggview::ExecContext PinnedExecContext(int threads, aggview::ThreadPool* pool) {
  aggview::ExecContext ctx;
  ctx.batch_size = kBatchSize;
  ctx.threads = threads;
  ctx.morsel_rows = aggview::kDefaultMorselRows;
  ctx.backend = ExecBackend::kInterpret;
  ctx.bytecode_verify = aggview::BytecodeVerifyMode::kOn;
  ctx.pool = pool;
  return ctx;
}

bool Checksum::Matches(const Checksum& other) const {
  if (rows != other.rows || exact != other.exact) return false;
  const long double scale = std::max(magnitude, other.magnitude) + 1.0L;
  return std::fabs(weighted - other.weighted) <= 1e-9L * scale;
}

Checksum ChecksumOf(const std::vector<Row>& rows) {
  Checksum c;
  c.rows = static_cast<int64_t>(rows.size());
  for (const Row& row : rows) {
    uint64_t h = 0x51ed270b;
    for (size_t j = 0; j < row.size(); ++j) {
      const Value& v = row[j];
      uint64_t part = 0;
      if (v.is_null()) {
        part = 0x6e756c6cULL;
      } else if (v.is_int()) {
        part = Mix(static_cast<uint64_t>(v.AsInt()));
      } else if (v.is_string()) {
        part = std::hash<std::string>{}(v.AsString());
      } else {
        continue;  // doubles go to the weighted sum below
      }
      h = Mix(h ^ part ^ (static_cast<uint64_t>(j) << 56));
    }
    c.exact += Mix(h);
    for (size_t j = 0; j < row.size(); ++j) {
      if (!row[j].is_double()) continue;
      const long double w =
          1.0L + static_cast<long double>(Mix(h + j) % 1024) / 1024.0L;
      const long double v = row[j].AsDouble();
      c.weighted += v * w;
      c.magnitude += std::fabs(v) * w;
    }
  }
  return c;
}

void Workload::ReleaseServer() {
  server_.reset();
  reference_pool_.reset();
  // Hand the freed pages back, so that peak_rss_mb measures one set-up and
  // not what the allocator kept from the previous one.
  malloc_trim(0);
}

Result<QueryResult> Workload::RunTraditional(const std::string& sql,
                                             int64_t* pages, double* cost) {
  const aggview::Catalog& catalog = server_->catalog();
  AGGVIEW_ASSIGN_OR_RETURN(aggview::Query query,
                           aggview::ParseAndBind(catalog, sql));
  AGGVIEW_ASSIGN_OR_RETURN(aggview::OptimizedQuery optimized,
                           aggview::OptimizeTraditional(query));
  aggview::IoAccountant io;
  AGGVIEW_ASSIGN_OR_RETURN(
      QueryResult result,
      aggview::ExecutePlan(
          optimized.plan, optimized.query,
          PinnedExecContext(pool_threads_, reference_pool_.get()).WithIo(&io)));
  if (pages != nullptr) *pages = io.total();
  if (cost != nullptr) *cost = optimized.plan->cost;
  return result;
}

Status Workload::WarmAndCompare(const Statement& stmt, ServerSession* session,
                                SetupReport* report) {
  PlanComparison cmp;
  cmp.name = stmt.name;
  AGGVIEW_ASSIGN_OR_RETURN(
      QueryResult reference,
      RunTraditional(stmt.sql, &cmp.traditional_pages, &cmp.traditional_cost));
  AGGVIEW_ASSIGN_OR_RETURN(ServerQuery query, session->Sql(stmt.sql));
  AGGVIEW_ASSIGN_OR_RETURN(QueryResult served, query.Execute());
  if (served.Fingerprint() != reference.Fingerprint()) {
    return Mismatch(stmt.name + ": served plan differs from the traditional "
                    "plan");
  }
  if (!ChecksumOf(served.rows).Matches(stmt.expected)) {
    return Mismatch(stmt.name + ": served result differs from the reference "
                    "checksum");
  }
  cmp.aggview_cost = query.plan()->cost;
  cmp.aggview_pages = query.last_io_pages();
  cmp.view_backed = query.view_backed();
  report->comparisons.push_back(cmp);
  return Status::OK();
}

namespace {

// ---------------------------------------------------------------------------
// TPC-D helpers shared by dss_mix and adhoc_prepare.

struct TpcdData {
  aggview::TpcdTables tables;
  int64_t lineitem_rows = 0;
};

Result<TpcdData> LoadTpcd(Server* server, double scale_factor) {
  TpcdData out;
  AGGVIEW_ASSIGN_OR_RETURN(out.tables,
                           aggview::CreateTpcdSchema(&server->catalog()));
  aggview::DbgenOptions dbgen;
  dbgen.scale_factor = scale_factor;
  dbgen.seed = 42;  // fixed data: the seed drives the streams, not the data
  AGGVIEW_RETURN_NOT_OK(
      aggview::GenerateTpcdData(&server->catalog(), out.tables, dbgen));
  out.lineitem_rows =
      server->catalog().table(out.tables.lineitem).data->row_count();
  return out;
}

/// The closed-loop write probe on lineitem: deltas of 32 inserts and 32
/// deletes that keep the table size and every key unique (inserted line
/// numbers start above any generated one). Write k is generated on demand
/// from (seed, k), so a long probe holds one delta in memory, not all.
class LineitemProbe {
 public:
  LineitemProbe() = default;
  LineitemProbe(uint64_t seed, const aggview::Catalog& cat,
                const aggview::TpcdTables& t, int64_t count)
      : seed_(seed),
        count_(count),
        table_(t.lineitem),
        rows_(cat.table(t.lineitem).data->row_count()),
        orders_(cat.table(t.orders).data->row_count()),
        parts_(cat.table(t.part).data->row_count()),
        supps_(cat.table(t.supplier).data->row_count()) {}

  int64_t count() const { return count_; }

  /// Write k; the reference stays valid until the next call.
  const WriteOp& Write(int64_t k) {
    if (k == current_) return write_;
    Rng rng = StreamRng(seed_, 0x77726974 ^ Mix(static_cast<uint64_t>(k)));
    write_ = WriteOp();
    write_.delta.table = table_;
    int64_t line = 1000 + 32 * k;
    for (int i = 0; i < 32; ++i) {
      const int64_t part = rng.Uniform(1, parts_);
      const double qty = static_cast<double>(rng.Uniform(1, 50));
      write_.delta.inserts.push_back(
          {Value::Int(rng.Uniform(1, orders_)), Value::Int(line++),
           Value::Int(part), Value::Int(rng.Uniform(1, supps_)),
           Value::Real(qty),
           Value::Real(qty * (900.0 + static_cast<double>(part % 1000)) /
                       10.0),
           Value::Real(static_cast<double>(rng.Uniform(0, 10)) / 100.0),
           Value::Int(rng.Uniform(0, 2555))});
    }
    // Delete indices address the table before the delta; every delta keeps
    // it at `rows_` rows.
    write_.delta.deletes = DistinctIndices(&rng, rows_, 32);
    current_ = k;
    return write_;
  }

 private:
  uint64_t seed_ = 0;
  int64_t count_ = 0;
  aggview::TableId table_ = -1;
  int64_t rows_ = 0;
  int64_t orders_ = 0;
  int64_t parts_ = 0;
  int64_t supps_ = 0;
  int64_t current_ = -1;
  WriteOp write_;
};

/// Base class of the two read-only TPC-D workloads: every statement has one
/// fixed reference checksum, and writes are a closed-loop probe run outside
/// the timed window.
class TpcdWorkload : public Workload {
 public:
  bool CheckRead(int64_t pos, const Checksum& got, int64_t,
                 int64_t) const override {
    return got.Matches(statements_[StatementAt(pos)].expected);
  }

  const WriteOp& Write(int64_t k) override { return probe_.Write(k); }
  int64_t num_writes() const override { return probe_.count(); }

  bool CheckWrite(int64_t, const MaintenanceReport& report) const override {
    return report.views_maintained == 0 && report.views_marked_stale == 0;
  }

  Status FinalCheck(int64_t) override {
    // After the probe's deltas: the served plan (re-prepared, since every
    // delta invalidates it) must still agree with the traditional plan.
    const char* sql =
        "select l.l_suppkey, sum(l.l_extendedprice), count(*) "
        "from lineitem l group by l.l_suppkey";
    ServerSession session = server_->Connect();
    AGGVIEW_ASSIGN_OR_RETURN(ServerQuery query, session.Sql(sql));
    AGGVIEW_ASSIGN_OR_RETURN(QueryResult served, query.Execute());
    AGGVIEW_ASSIGN_OR_RETURN(QueryResult reference,
                             RunTraditional(sql, nullptr, nullptr));
    if (served.Fingerprint() != reference.Fingerprint()) {
      return Mismatch("post-probe aggregate differs from the traditional "
                      "plan");
    }
    return Status::OK();
  }

 protected:
  /// Builds the server and loads TPC-D at `scale_factor`.
  Result<TpcdData> BuildServer(double scale_factor) {
    ReleaseServer();
    server_ = std::make_unique<Server>(
        PinnedServerOptions(pool_threads_, /*max_concurrent_queries=*/clients_));
    if (pool_threads_ > 1) {
      reference_pool_ = std::make_unique<aggview::ThreadPool>(pool_threads_);
    }
    AGGVIEW_ASSIGN_OR_RETURN(TpcdData data, LoadTpcd(server_.get(),
                                                     scale_factor));
    write_table_ = data.tables.lineitem;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "tpcd sf=%g, lineitem %lld rows",
                  scale_factor, static_cast<long long>(data.lineitem_rows));
    scale_ = buf;
    return data;
  }

  /// Sets every statement's reference checksum from the traditional plan.
  Status ComputeReferences() {
    for (Statement& s : statements_) {
      AGGVIEW_ASSIGN_OR_RETURN(QueryResult r,
                               RunTraditional(s.sql, nullptr, nullptr));
      s.expected = ChecksumOf(r.rows);
    }
    return Status::OK();
  }

  LineitemProbe probe_;
};

// ---------------------------------------------------------------------------
// dss_mix: the paper's six aggregate-view queries, E14's four serving
// statements and a customer point lookup, repeated in a seeded order. All
// eleven fit in the plan cache, so after warm-up prepare is always a hit and
// the time goes to execution.

constexpr double kDssScale = 0.005;
/// Probe writes per run: one burst per set-up (three per run), cut into
/// blocks of 100. A dss_mix write rebuilds the statistics of 30k lineitem
/// rows (~50 ms), an adhoc_prepare write those of 3k (~3 ms), so the cheap
/// writes afford more blocks.
constexpr int kDssProbeWrites = 300;
constexpr int kAdhocProbeWrites = 1200;

class DssMix : public TpcdWorkload {
 public:
  DssMix() {
    name_ = "dss_mix";
    why_ = "loads exec (operators, hash join/aggregation, thread pool, result "
           "rows); bypasses prepare: 11 texts, every prepare a cache hit";
    clients_ = 2;
    pool_threads_ = 2;
  }

  Status Setup(uint64_t seed, SetupReport* report) override {
    AGGVIEW_ASSIGN_OR_RETURN(TpcdData data, BuildServer(kDssScale));
    statements_.clear();
    const char* paper_names[] = {"q15", "q17", "q2", "multi_view",
                                 "push_down", "coalesce"};
    std::vector<aggview::tpcd_queries::NamedQuery> paper =
        aggview::tpcd_queries::AllQueries();
    for (size_t i = 0; i < paper.size(); ++i) {
      statements_.push_back({paper_names[i], paper[i].sql, {}});
    }
    statements_.push_back(
        {"scan_join",
         "select l.l_orderkey, l.l_extendedprice, s.s_acctbal "
         "from lineitem l, supplier s "
         "where l.l_suppkey = s.s_suppkey and l.l_quantity >= 0",
         {}});
    statements_.push_back({"aggregate",
                           "select l.l_suppkey, sum(l.l_extendedprice), "
                           "count(*) from lineitem l group by l.l_suppkey",
                           {}});
    statements_.push_back(
        {"filtered_agg",
         "select l.l_orderkey, sum(l.l_extendedprice) from lineitem l "
         "where l.l_quantity >= 25 group by l.l_orderkey",
         {}});
    statements_.push_back(
        {"point", "select s.s_acctbal from supplier s where s.s_suppkey = 1",
         {}});
    // An eleventh, short statement: with an odd number of equally frequent
    // statements the median read falls inside one statement's latencies
    // instead of on the edge between two.
    statements_.push_back(
        {"point_customer",
         "select c.c_name, c.c_acctbal from customer c where c.c_custkey = 1",
         {}});

    Rng rng = StreamRng(seed, 0x647373);
    stream_ = BalancedStream(&rng, static_cast<int>(statements_.size()), 8192);
    probe_ = LineitemProbe(seed, server_->catalog(), data.tables,
                           kDssProbeWrites);

    AGGVIEW_RETURN_NOT_OK(ComputeReferences());
    ServerSession session = server_->Connect();
    for (const Statement& s : statements_) {
      AGGVIEW_RETURN_NOT_OK(WarmAndCompare(s, &session, report));
    }
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// adhoc_prepare: parameterized templates with seeded literals over a small
// TPC-D instance. Four statements in five walk a pool of fresh texts far
// larger than the plan cache (every reuse lies more than a thousand
// statements back, so it misses); the fifth comes from a hot set of 32
// texts, each reused every 160 statements, so it stays cached. Misses pay
// parse, bind and the two-phase optimizer with pull-up enumeration;
// execution is small.

constexpr double kAdhocScale = 0.0005;
constexpr int kFreshPool = 1024;
constexpr int kHotSet = 32;
constexpr int kTemplates = 5;
constexpr int kHotEvery = 5;  // one hot statement per 5 in the stream

struct AdhocDomain {
  int64_t customers = 0;
  int64_t orders = 0;
  int64_t parts = 0;
  int64_t suppliers = 0;
};

/// One statement of template `t` (0..kTemplates-1) with seeded literals.
std::pair<std::string, std::string> DrawAdhoc(Rng* rng, const AdhocDomain& d,
                                              int t) {
  auto num = [](int64_t v) { return std::to_string(v); };
  switch (t) {
    case 0:  // Q2: minimum-cost supplier for parts of one size
      return {"q2_size",
              "create view mincost (partkey, mc) as "
              "select ps2.ps_partkey, min(ps2.ps_supplycost) from partsupp ps2 "
              "group by ps2.ps_partkey; "
              "select s.s_name, p.p_partkey "
              "from part p, supplier s, partsupp ps, mincost m "
              "where p.p_partkey = ps.ps_partkey and "
              "s.s_suppkey = ps.ps_suppkey and m.partkey = p.p_partkey and "
              "ps.ps_supplycost = m.mc and p.p_size = " +
                  num(rng->Uniform(1, 50))};
    case 1: {  // Q15: revenue per supplier in a shipdate window
      const int64_t from = rng->Uniform(0, 2400);
      const int64_t width = 30 * rng->Uniform(1, 4);
      return {"q15_window",
              "create view revenue (suppkey, total_rev) as "
              "select l.l_suppkey, sum(l.l_extendedprice) from lineitem l "
              "where l.l_shipdate >= " + num(from) +
                  " and l.l_shipdate < " + num(from + width) +
                  " group by l.l_suppkey; "
                  "select s.s_name, r.total_rev from supplier s, revenue r "
                  "where s.s_suppkey = r.suppkey and r.total_rev > " +
                  num(500 * rng->Uniform(0, 100))};
    }
    case 2:  // customer profile above an order-total threshold
      return {"customer_profile",
              "create view ordagg (custkey, total) as "
              "select o.o_custkey, sum(o.o_totalprice) from orders o "
              "group by o.o_custkey; "
              "create view custbal (nationkey, avgbal) as "
              "select c2.c_nationkey, avg(c2.c_acctbal) from customer c2 "
              "group by c2.c_nationkey; "
              "select c.c_name, oa.total from customer c, ordagg oa, "
              "custbal cb where c.c_custkey = oa.custkey and "
              "c.c_nationkey = cb.nationkey and c.c_acctbal > cb.avgbal and "
              "oa.total > " +
                  num(1000 * rng->Uniform(0, 300))};
    case 3: {  // push-down: revenue per (supplier, balance) in a qty band
      const int64_t lo = rng->Uniform(1, 50);
      const int64_t hi = rng->Uniform(lo, 50);
      return {"push_down_qty",
              "select l.l_suppkey, s.s_acctbal, sum(l.l_extendedprice) "
              "from lineitem l, supplier s where l.l_suppkey = s.s_suppkey "
              "and l.l_quantity >= " + num(lo) +
                  " and l.l_quantity <= " + num(hi) +
                  " group by l.l_suppkey, s.s_acctbal"};
    }
    default:
      switch (rng->Uniform(0, 2)) {
        case 0:
          return {"point",
                  "select c.c_name, c.c_acctbal from customer c "
                  "where c.c_custkey = " +
                      num(rng->Uniform(1, d.customers))};
        case 1:
          return {"point",
                  "select o.o_totalprice, o.o_orderdate from orders o "
                  "where o.o_orderkey = " +
                      num(rng->Uniform(1, d.orders))};
        default:
          return {"point",
                  "select p.p_name, p.p_retailprice from part p "
                  "where p.p_partkey = " +
                      num(rng->Uniform(1, d.parts))};
      }
  }
}

class AdhocPrepare : public TpcdWorkload {
 public:
  AdhocPrepare() {
    name_ = "adhoc_prepare";
    why_ = "loads prepare (parse, bind, two-phase optimize with pull-up, plan "
           "cache misses and evictions); bypasses heavy execution";
    clients_ = 2;
    pool_threads_ = 1;
  }

  Status Setup(uint64_t seed, SetupReport* report) override {
    AGGVIEW_ASSIGN_OR_RETURN(TpcdData data, BuildServer(kAdhocScale));
    const aggview::Catalog& cat = server_->catalog();
    AdhocDomain domain;
    domain.customers = cat.table(data.tables.customer).data->row_count();
    domain.orders = cat.table(data.tables.orders).data->row_count();
    domain.parts = cat.table(data.tables.part).data->row_count();
    domain.suppliers = cat.table(data.tables.supplier).data->row_count();

    // Statements 0..kHotSet-1 are the hot set, the rest the fresh pool, in
    // rounds that use every template once. Texts are distinct except where
    // a template runs out of literals (Q2 has 50 sizes).
    Rng rng = StreamRng(seed, 0x61646863);
    statements_.clear();
    std::set<std::string> seen;
    std::vector<int32_t> round;
    for (int i = 0; i < kHotSet + kFreshPool; ++i) {
      if (i % kTemplates == 0) round = Permutation(&rng, kTemplates);
      const int t = round[static_cast<size_t>(i % kTemplates)];
      std::pair<std::string, std::string> drawn = DrawAdhoc(&rng, domain, t);
      for (int retry = 0; retry < 32 && seen.count(drawn.second) > 0; ++retry) {
        drawn = DrawAdhoc(&rng, domain, t);
      }
      seen.insert(drawn.second);
      statements_.push_back({drawn.first, drawn.second, {}});
    }
    // The stream: blocks of kHotEvery statements, one of them (at a seeded
    // place) the next hot text, the others the next fresh texts in pool
    // order.
    const std::vector<int32_t> hot = Permutation(&rng, kHotSet);
    stream_.clear();
    int64_t next_hot = 0;
    int64_t next_fresh = 0;
    for (int block = 0; block < (1 << 15); ++block) {
      const int64_t hot_at = rng.Uniform(0, kHotEvery - 1);
      for (int j = 0; j < kHotEvery; ++j) {
        stream_.push_back(j == hot_at ? hot[static_cast<size_t>(next_hot++ % kHotSet)]
                                      : kHotSet + static_cast<int32_t>(
                                                      next_fresh++ % kFreshPool));
      }
    }
    probe_ = LineitemProbe(seed, cat, data.tables, kAdhocProbeWrites);

    AGGVIEW_RETURN_NOT_OK(ComputeReferences());
    ServerSession session = server_->Connect();
    for (int i = 0; i < kHotSet; ++i) {
      AGGVIEW_RETURN_NOT_OK(WarmAndCompare(statements_[static_cast<size_t>(i)],
                                           &session, report));
    }
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// matview_rw: the paper's emp/dept example with two materialized views —
// mv_dsal over emp alone (maintained incrementally by every delta) and
// mv_budget over emp join dept (made stale by every delta, refreshed by every
// fourth write). Two readers issue view-answerable and base-only aggregates
// while one open-loop writer applies deltas at a fixed rate.

constexpr int64_t kEmployees = 50'000;
constexpr int64_t kDepartments = 200;
constexpr double kWriteRate = 12.0;  // writes per second
constexpr int kRefreshEvery = 4;     // every 4th write is a REFRESH
constexpr int kDeltaHalf = 32;       // inserts = deletes = 32 rows

const char* const kMvDsal =
    "create materialized view mv_dsal (dno, total, cnt) as "
    "select e.dno, sum(e.sal), count(*) from emp e group by e.dno";
const char* const kMvBudget =
    "create materialized view mv_budget (budget, total, cnt) as "
    "select d.budget, sum(e.sal), count(*) from emp e, dept d "
    "where e.dno = d.dno group by d.budget";
const char* const kRefreshBudget = "refresh materialized view mv_budget";

/// The emp row fields the reference aggregates read.
struct Emp {
  int64_t eno;
  int64_t dno;
  double sal;
  int64_t age;
};

class MatviewRw : public Workload {
 public:
  MatviewRw() {
    name_ = "matview_rw";
    why_ = "loads the view layer (rewrite, incremental maintenance, REFRESH) "
           "and the catalog write path (deltas, stats rebuild, plan "
           "invalidation); bypasses the TPC-D join workloads";
    clients_ = 2;
    pool_threads_ = 1;
    write_rate_ = kWriteRate;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "emp %lld rows, dept %lld rows",
                  static_cast<long long>(kEmployees),
                  static_cast<long long>(kDepartments));
    scale_ = buf;
  }

  Status Setup(uint64_t seed, SetupReport* report) override {
    ReleaseServer();
    server_ = std::make_unique<Server>(
        PinnedServerOptions(pool_threads_, /*max_concurrent_queries=*/clients_));
    AGGVIEW_ASSIGN_OR_RETURN(aggview::EmpDeptTables tables,
                             aggview::CreateEmpDeptSchema(&server_->catalog()));
    aggview::EmpDeptOptions gen;
    gen.num_employees = kEmployees;
    gen.num_departments = kDepartments;
    gen.seed = 7;  // fixed data: the seed drives the streams, not the data
    AGGVIEW_RETURN_NOT_OK(
        aggview::GenerateEmpDeptData(&server_->catalog(), tables, gen));
    write_table_ = tables.emp;
    ServerSession session = server_->Connect();
    AGGVIEW_RETURN_NOT_OK(session.ExecuteDdl(kMvDsal).status());
    AGGVIEW_RETURN_NOT_OK(session.ExecuteDdl(kMvBudget).status());

    statements_ = {
        {"view_dsal",
         "select e.dno, sum(e.sal), count(*) from emp e group by e.dno", {}},
        {"view_rollup", "select sum(e.sal), count(*) from emp e", {}},
        {"view_budget",
         "select d.budget, sum(e.sal), count(*) from emp e, dept d "
         "where e.dno = d.dno group by d.budget",
         {}},
        {"base_age", "select e.age, count(*) from emp e group by e.age", {}},
        {"base_young_max",
         "select e.dno, max(e.sal) from emp e where e.age < 30 "
         "group by e.dno",
         {}},
        {"view_dno_sum",
         "select e.dno, sum(e.sal) from emp e group by e.dno", {}},
        {"view_count", "select count(*) from emp e", {}},
    };
    // Four of the seven statements are always answered from mv_dsal, which
    // every delta keeps fresh; view_budget only while mv_budget is fresh.
    // The median read thus stays inside the view-answered group however
    // often mv_budget goes stale.
    Rng rng = StreamRng(seed, 0x6d7672);
    stream_ = BalancedStream(&rng, static_cast<int>(statements_.size()), 8192);

    // Writes, and the reference state after every delta, simulated on a
    // copy of emp exactly as the table applies deltas (deletes compact in
    // order, inserts append).
    const aggview::Catalog& cat = server_->catalog();
    budget_.assign(static_cast<size_t>(kDepartments) + 1, 0.0);
    for (const Row& r : cat.table(tables.dept).data->rows()) {
      budget_[static_cast<size_t>(r[0].AsInt())] = r[1].AsDouble();
    }
    std::vector<Emp> emp;
    for (const Row& r : cat.table(tables.emp).data->rows()) {
      emp.push_back({r[0].AsInt(), r[1].AsInt(), r[2].AsDouble(),
                     r[3].AsInt()});
    }
    const int64_t num_writes =
        static_cast<int64_t>(std::ceil(write_seconds_ * kWriteRate)) + 64;
    writes_.assign(static_cast<size_t>(num_writes), WriteOp{});
    deltas_before_.assign(static_cast<size_t>(num_writes) + 1, 0);
    expected_.assign(statements_.size(), {});
    AppendExpected(emp);
    int64_t next_eno = 10'000'000;
    for (int64_t k = 0; k < num_writes; ++k) {
      WriteOp& w = writes_[static_cast<size_t>(k)];
      const bool refresh = k % kRefreshEvery == kRefreshEvery - 1;
      deltas_before_[static_cast<size_t>(k) + 1] =
          deltas_before_[static_cast<size_t>(k)] + (refresh ? 0 : 1);
      if (refresh) {
        w.refresh_sql = kRefreshBudget;
        continue;
      }
      w.delta.table = tables.emp;
      std::vector<int64_t> deletes =
          DistinctIndices(&rng, static_cast<int64_t>(emp.size()), kDeltaHalf);
      w.delta.deletes = deletes;
      std::sort(deletes.begin(), deletes.end());
      size_t out = 0;
      size_t hole = 0;
      for (size_t i = 0; i < emp.size(); ++i) {
        if (hole < deletes.size() &&
            static_cast<int64_t>(i) == deletes[hole]) {
          ++hole;
          continue;
        }
        emp[out++] = emp[i];
      }
      emp.resize(out);
      for (int i = 0; i < kDeltaHalf; ++i) {
        Emp e{next_eno++, rng.Uniform(1, kDepartments),
              rng.UniformReal(20'000.0, 200'000.0), rng.Uniform(18, 65)};
        emp.push_back(e);
        w.delta.inserts.push_back({Value::Int(e.eno), Value::Int(e.dno),
                                   Value::Real(e.sal), Value::Int(e.age)});
      }
      AppendExpected(emp);
    }

    // Reference check of the simulation itself and warm-up: at state 0 the
    // traditional plan, the served plan and the simulated state agree.
    for (size_t i = 0; i < statements_.size(); ++i) {
      statements_[i].expected = expected_[i][0];
      AGGVIEW_RETURN_NOT_OK(WarmAndCompare(statements_[i], &session, report));
    }
    return Status::OK();
  }

  bool CheckRead(int64_t pos, const Checksum& got, int64_t writes_before,
                 int64_t writes_after) const override {
    // The read saw the state after some write between the ones completed
    // before it started and one past those completed after it ended.
    const size_t s = StatementAt(pos);
    const int64_t lo = StateAfter(writes_before);
    const int64_t hi = StateAfter(writes_after + 1);
    for (int64_t state = lo; state <= hi; ++state) {
      if (got.Matches(expected_[s][static_cast<size_t>(state)])) return true;
    }
    return false;
  }

  bool CheckWrite(int64_t k, const MaintenanceReport& report) const override {
    if (!writes_[static_cast<size_t>(k)].refresh_sql.empty()) return true;
    // mv_dsal maintained in place, mv_budget (a join view) left stale.
    return report.views_maintained == 1 && report.views_marked_stale == 1;
  }

  Status FinalCheck(int64_t writes_done) override {
    ServerSession session = server_->Connect();
    AGGVIEW_RETURN_NOT_OK(session.ExecuteDdl(kRefreshBudget).status());
    const int64_t state = StateAfter(writes_done);
    for (size_t i = 0; i < statements_.size(); ++i) {
      const Statement& s = statements_[i];
      AGGVIEW_ASSIGN_OR_RETURN(ServerQuery query, session.Sql(s.sql));
      AGGVIEW_ASSIGN_OR_RETURN(QueryResult served, query.Execute());
      AGGVIEW_ASSIGN_OR_RETURN(QueryResult base,
                               RunTraditional(s.sql, nullptr, nullptr));
      if (served.Fingerprint() != base.Fingerprint()) {
        return Mismatch(s.name + ": view-answered and base results differ "
                        "after the run");
      }
      if (!ChecksumOf(served.rows)
               .Matches(expected_[i][static_cast<size_t>(state)])) {
        return Mismatch(s.name + ": final result differs from the simulated "
                        "state");
      }
      if (s.name.rfind("view_", 0) == 0 && !query.view_backed()) {
        return Mismatch(s.name + ": not answered from a fresh view");
      }
    }
    return Status::OK();
  }

 private:
  int64_t StateAfter(int64_t writes) const {
    const int64_t last = static_cast<int64_t>(deltas_before_.size()) - 1;
    return deltas_before_[static_cast<size_t>(std::min(writes, last))];
  }

  /// Appends the reference checksum of every statement over `emp`.
  void AppendExpected(const std::vector<Emp>& emp) {
    std::map<int64_t, std::pair<double, int64_t>> by_dno;
    std::map<double, std::pair<double, int64_t>> by_budget;
    std::map<int64_t, int64_t> by_age;
    std::map<int64_t, double> young_max;
    double total = 0.0;
    for (const Emp& e : emp) {
      auto& d = by_dno[e.dno];
      d.first += e.sal;
      ++d.second;
      auto& b = by_budget[budget_[static_cast<size_t>(e.dno)]];
      b.first += e.sal;
      ++b.second;
      ++by_age[e.age];
      if (e.age < 30) {
        auto [it, fresh] = young_max.emplace(e.dno, e.sal);
        if (!fresh) it->second = std::max(it->second, e.sal);
      }
      total += e.sal;
    }
    std::vector<std::vector<Row>> rows(statements_.size());
    for (const auto& [dno, agg] : by_dno) {
      rows[0].push_back(
          {Value::Int(dno), Value::Real(agg.first), Value::Int(agg.second)});
    }
    rows[1].push_back({Value::Real(total),
                       Value::Int(static_cast<int64_t>(emp.size()))});
    for (const auto& [budget, agg] : by_budget) {
      rows[2].push_back({Value::Real(budget), Value::Real(agg.first),
                         Value::Int(agg.second)});
    }
    for (const auto& [age, n] : by_age) {
      rows[3].push_back({Value::Int(age), Value::Int(n)});
    }
    for (const auto& [dno, m] : young_max) {
      rows[4].push_back({Value::Int(dno), Value::Real(m)});
    }
    for (const auto& [dno, agg] : by_dno) {
      rows[5].push_back({Value::Int(dno), Value::Real(agg.first)});
    }
    rows[6].push_back({Value::Int(static_cast<int64_t>(emp.size()))});
    for (size_t i = 0; i < statements_.size(); ++i) {
      expected_[i].push_back(ChecksumOf(rows[i]));
    }
  }

  std::vector<double> budget_;
  /// deltas_before_[k]: deltas among the first k writes (the data state
  /// after k writes).
  std::vector<int64_t> deltas_before_;
  /// expected_[statement][state].
  std::vector<std::vector<Checksum>> expected_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "dss_mix") return std::make_unique<DssMix>();
  if (name == "adhoc_prepare") return std::make_unique<AdhocPrepare>();
  if (name == "matview_rw") return std::make_unique<MatviewRw>();
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  return {"dss_mix", "adhoc_prepare", "matview_rw"};
}

}  // namespace perfbench
