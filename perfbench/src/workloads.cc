// The four benchmark workloads. Each replays its pre-generated stream in
// 1024-tuple SoA blocks from one producer thread as a closed loop: the next
// block is handed in as soon as the previous call returned. The clock runs
// from the first tuple handed in to the last result drained (after the
// final watermark and, on the executor workloads, after Finish()).

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "aggregates/registry.h"
#include "core/general_slicing_operator.h"
#include "harness.h"
#include "query/query_def.h"
#include "query/query_registry.h"
#include "runtime/checkpoint.h"
#include "runtime/keyed_operator.h"
#include "runtime/parallel_executor.h"

namespace perfbench {
namespace {

using scotty::GeneralSlicingOperator;
using scotty::ParallelExecutor;
using scotty::QueryDef;
using scotty::QueryRegistry;
using scotty::TupleColumnsView;
using scotty::WindowDesc;
using scotty::WindowResult;

constexpr size_t kBlock = 1024;

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

double Micros(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e3;
}

WindowDesc Desc(const std::string& text) {
  WindowDesc d;
  if (!WindowDesc::Parse(text, &d)) {
    std::fprintf(stderr, "bad window description %s\n", text.c_str());
    std::abort();
  }
  return d;
}

std::unique_ptr<QueryRegistry> BuildRegistry(const std::vector<QueryDef>& qs,
                                             bool stream_in_order) {
  QueryRegistry::Options o;
  o.engine.stream_in_order = stream_in_order;
  o.engine.allowed_lateness = 0;
  auto reg = std::make_unique<QueryRegistry>(o);
  for (const QueryDef& q : qs) {
    std::string err;
    if (reg->Register(q, &err) == QueryRegistry::kInvalidQuery) {
      std::fprintf(stderr, "register failed: %s\n", err.c_str());
      std::abort();
    }
  }
  return reg;
}

/// Reference for a registry: one oracle pass per query, window ids mapped
/// to the dense global ids QueryRegistry::TakeResults reports.
Reference RegistryReference(const std::vector<QueryDef>& qs,
                            const QueryRegistry& reg, const Stream& s) {
  Reference ref;
  for (size_t q = 0; q < qs.size(); ++q) {
    std::vector<WindowDesc> descs;
    for (const std::string& w : qs[q].windows) descs.push_back(Desc(w));
    AppendOracle(descs, qs[q].aggs, s.tuples, s.final_wm, 0,
                 reg.GlobalWindowId(static_cast<int>(q), 0), &ref);
  }
  SortReference(&ref);
  return ref;
}

/// Plan and engine counts of a registry (the query layer's decisions).
void QueryPlanMetrics(const QueryRegistry& reg, size_t queries,
                      Metrics* out) {
  double shared = 0, dedup = 0, derived = 0;
  for (size_t q = 0; q < queries; ++q) {
    for (QueryRegistry::PlanKind k :
         reg.Plan(static_cast<int>(q)).windows) {
      if (k == QueryRegistry::PlanKind::kShared) ++shared;
      if (k == QueryRegistry::PlanKind::kSharedDedup) ++dedup;
      if (k == QueryRegistry::PlanKind::kDerived) ++derived;
    }
  }
  out->Set("query.engine_windows", static_cast<double>(reg.EngineWindows()),
           "count");
  out->Set("query.plans_shared", shared, "count");
  out->Set("query.plans_dedup", dedup, "count");
  out->Set("query.plans_derived", derived, "count");
}

void CoreStatMetrics(const scotty::OperatorStats& s, double slices_peak,
                     Metrics* out) {
  out->Set("core.slices_live_peak", slices_peak, "count");
  out->Set("core.slice_splits", static_cast<double>(s.slice_splits), "count");
  out->Set("core.slice_merges", static_cast<double>(s.slice_merges), "count");
  out->Set("core.slice_recomputes", static_cast<double>(s.slice_recomputes),
           "count");
  out->Set("core.out_of_order_tuples",
           static_cast<double>(s.out_of_order_tuples), "count");
  out->Set("core.late_tuples", static_cast<double>(s.late_tuples), "count");
  out->Set("core.dropped_tuples", static_cast<double>(s.dropped_tuples),
           "count");
  out->Set("core.windows_emitted", static_cast<double>(s.windows_emitted),
           "count");
  out->Set("core.window_updates_emitted",
           static_cast<double>(s.window_updates_emitted), "count");
}

/// Mean, p50 and p99 of one span name's durations.
struct SpanStats {
  uint64_t count = 0;
  double total_ns = 0, mean_ns = 0, p50_ns = 0, p99_ns = 0;
};

SpanStats StatsOf(const std::map<std::string, Tracer::Summary>& sums,
                  const std::string& name) {
  SpanStats st;
  auto it = sums.find(name);
  if (it == sums.end() || it->second.count == 0) return st;
  st.count = it->second.count;
  st.total_ns = it->second.total_ns;
  st.mean_ns = st.total_ns / static_cast<double>(st.count);
  st.p50_ns = Quantile(it->second.durations_ns, 0.5);
  st.p99_ns = Quantile(it->second.durations_ns, 0.99);
  return st;
}

/// Block boundaries: blocks of at most kBlock tuples that never straddle a
/// watermark position, so each watermark follows a block exactly.
template <typename OnBlock, typename OnWatermark>
void Replay(const Stream& s, OnBlock on_block, OnWatermark on_wm) {
  const size_t n = s.size();
  size_t next_wm = 0;
  for (size_t i = 0; i < n;) {
    size_t len = std::min(kBlock, n - i);
    if (next_wm < s.wm_after.size()) {
      len = std::min(len, s.wm_after[next_wm] - i);
    }
    on_block(s.cols.Subview(i, len));
    i += len;
    if (next_wm < s.wm_after.size() && s.wm_after[next_wm] == i) {
      on_wm(next_wm, s.wm_value[next_wm], i);
      ++next_wm;
    }
  }
}

// ---------------------------------------------------------------------------
// inorder_dashboard: a QueryRegistry serving 16 dashboard queries on the
// in-order stream. In-order streams self-trigger, so there are no
// watermarks until the final one; the fold and the registry demux dominate.

class InorderDashboard : public Workload {
 public:
  static std::vector<QueryDef> Queries() {
    // Tumbling windows register longest first, so each one is native
    // (kShared: a tumbling base must be shorter than the window it serves);
    // sliding windows then fold over the largest dividing base (kDerived)
    // and repeated descriptions subscribe to a live window (kSharedDedup).
    const char* spec[16][2] = {
        {"tumbling:20000", "sum"},     {"tumbling:10000", "max"},
        {"tumbling:7000", "min"},      {"tumbling:5000", "min"},
        {"tumbling:3000", "avg"},      {"tumbling:2000", "sum"},
        {"tumbling:1000", "avg"},      {"sliding:20000:5000", "sum"},
        {"sliding:10000:2000", "avg"}, {"sliding:6000:3000", "min"},
        {"sliding:15000:5000", "max"}, {"sliding:4000:1000", "sum"},
        {"tumbling:5000", "sum"},      {"tumbling:1000", "max"},
        {"tumbling:20000", "avg"},     {"tumbling:2000", "max"},
    };
    std::vector<QueryDef> qs;
    for (const auto& q : spec) qs.push_back(QueryDef{{q[0]}, {q[1]}});
    return qs;
  }

  void Prepare(uint64_t seed) override {
    StreamSpec spec;
    spec.tuples = 1 << 17;
    s_ = GenerateStream(spec, seed);
    auto reg = BuildRegistry(Queries(), /*stream_in_order=*/true);
    ref_ = RegistryReference(Queries(), *reg, s_);
    plan_metrics_ = Metrics();
    QueryPlanMetrics(*reg, Queries().size(), &plan_metrics_);
    s_.tuples = {};
  }

  double SetupOnce() override {
    const int64_t t0 = NowNs();
    auto reg = BuildRegistry(Queries(), true);
    return Seconds(t0, NowNs());
  }

  RoundResult Round(Tracer* tr) override {
    RoundResult r;
    const int64_t t0 = NowNs();
    auto reg = BuildRegistry(Queries(), true);
    r.setup_s = Seconds(t0, NowNs());

    std::vector<WindowResult>& got = got_;
    got.clear();
    size_t slices_peak = 0;
    auto sample_state = [&] {
      r.state_bytes =
          std::max(r.state_bytes, static_cast<double>(reg->MemoryUsageBytes()));
      const scotty::AggregateStore* st = reg->engine()->time_store();
      if (st != nullptr) slices_peak = std::max(slices_peak, st->NumSlices());
    };
    const int root = tr != nullptr ? tr->Begin("round") : -1;
    const int64_t start = NowNs();
    Replay(
        s_,
        [&](const TupleColumnsView& v) {
          const int64_t b0 = NowNs();
          {
            Scope sp(tr, "query.ingest");
            reg->ProcessTupleColumns(v);
          }
          const size_t before = got.size();
          {
            Scope sp(tr, "query.drain");
            reg->TakeResultsInto(&got);
          }
          if (got.size() > before) {
            r.latency_us.push_back(Micros(b0, NowNs()));
            sample_state();
          }
        },
        [](size_t, Time, size_t) {});
    const int64_t w0 = NowNs();
    {
      Scope sp(tr, "query.watermark");
      reg->ProcessWatermark(s_.final_wm);
    }
    {
      Scope sp(tr, "query.drain");
      reg->TakeResultsInto(&got);
    }
    const int64_t end = NowNs();
    if (tr != nullptr) tr->End(root);
    r.latency_us.push_back(Micros(w0, end));
    sample_state();
    r.clock_s = Seconds(start, end);
    r.tuples = s_.size();
    r.check = Compare(ref_, got, /*keyed=*/false);
    stats_ = reg->engine()->stats();
    slices_peak_ = static_cast<double>(slices_peak);
    return r;
  }

  void LayerMetrics(const Tracer& tr, Metrics* out) override {
    const auto sums = tr.Summarize();
    const SpanStats round = StatsOf(sums, "round");
    const double tuples = static_cast<double>(round.count * s_.size());
    out->Set("query.ingest_ns_per_tuple",
             StatsOf(sums, "query.ingest").total_ns / tuples, "ns");
    out->Set("query.drain_ns", StatsOf(sums, "query.drain").mean_ns, "ns");
    for (const Metrics::Entry& e : plan_metrics_.entries()) {
      out->Set(e.name, e.value, e.unit);
    }
    CoreStatMetrics(stats_, slices_peak_, out);
  }

  const scotty::TupleBatchSoA& Columns() const override { return s_.cols; }

 private:
  Stream s_;
  Reference ref_;
  std::vector<WindowResult> got_;  // reused so rounds do not page-fault
  Metrics plan_metrics_;
  scotty::OperatorStats stats_;
  double slices_peak_ = 0;
};

// ---------------------------------------------------------------------------
// ooo_sessions_ckpt: one eager slicing operator with tumbling, sliding and
// session windows on an out-of-order stream, checkpointed incrementally and
// asynchronously at a fixed watermark cadence.

class OooSessionsCkpt : public Workload {
 public:
  explicit OooSessionsCkpt(std::string work_dir)
      : work_dir_(std::move(work_dir)) {}

  static constexpr Time kLateness = 2000;
  /// A barrier every 64 watermarks (65536 tuples, ~33 s of event time).
  static constexpr size_t kBarrierEvery = 64;

  static std::vector<WindowDesc> Windows() {
    std::vector<WindowDesc> ws;
    // The ten dashboard tumbling lengths, 1 s to 20 s.
    for (int i = 0; i < 10; ++i) {
      ws.push_back(Desc("tumbling:" + std::to_string(1000 + 19000 * i / 9)));
    }
    ws.push_back(Desc("sliding:10000:1000"));
    ws.push_back(Desc("session:1000"));
    return ws;
  }
  static std::vector<std::string> Aggs() { return {"sum", "min", "max"}; }

  static std::unique_ptr<GeneralSlicingOperator> Build() {
    GeneralSlicingOperator::Options o;
    o.stream_in_order = false;
    o.allowed_lateness = kLateness;
    o.store_mode = scotty::StoreMode::kEager;
    auto op = std::make_unique<GeneralSlicingOperator>(o);
    for (const std::string& a : Aggs()) {
      op->AddAggregation(scotty::MakeAggregation(a));
    }
    for (const WindowDesc& w : Windows()) op->AddWindow(w.Instantiate());
    return op;
  }

  void Prepare(uint64_t seed) override {
    StreamSpec spec;
    spec.tuples = 1 << 19;
    spec.ooo_fraction = 0.2;
    spec.max_delay = 2000;
    spec.wm_every = 1024;
    spec.wm_lag = 2000;
    spec.lateness = kLateness;
    s_ = GenerateStream(spec, seed);
    ref_.clear();
    AppendOracle(Windows(), Aggs(), s_.tuples, s_.final_wm, 0, 0, &ref_);
    SortReference(&ref_);
    s_.tuples = {};
  }

  double SetupOnce() override {
    const std::string dir = NewDir();
    const int64_t t0 = NowNs();
    double s = 0;
    {
      auto op = Build();
      scotty::CheckpointCoordinator coord(Options(dir));
      s = Seconds(t0, NowNs());
    }
    RemoveDir(dir);
    return s;
  }

  RoundResult Round(Tracer* tr) override {
    RoundResult r;
    const std::string dir = NewDir();
    const int64_t t0 = NowNs();
    auto op = Build();
    auto coord = std::make_unique<scotty::CheckpointCoordinator>(Options(dir));
    r.setup_s = Seconds(t0, NowNs());

    std::vector<WindowResult>& got = got_;
    got.clear();
    size_t slices_peak = 0;
    uint64_t barriers = 0, barrier_skipped = 0;
    Time max_ts = scotty::kNoTime;
    auto watermark = [&](Time wm, size_t offset, bool barrier) {
      const int64_t w0 = NowNs();
      {
        Scope sp(tr, "core.watermark");
        op->ProcessWatermark(wm);
      }
      {
        Scope sp(tr, "core.drain");
        op->TakeResultsInto(&got);
      }
      r.latency_us.push_back(Micros(w0, NowNs()));
      r.state_bytes =
          std::max(r.state_bytes, static_cast<double>(op->MemoryUsageBytes()));
      slices_peak = std::max(slices_peak, op->time_store()->NumSlices());
      if (!barrier) return;
      Scope sp(tr, "state.barrier");
      scotty::state::CheckpointMetadata meta;
      meta.source_offset = offset;
      meta.next_seq = offset;
      meta.max_ts = max_ts;
      meta.last_wm = wm;
      ++barriers;
      if (coord->OnBarrier(*op, meta).empty()) ++barrier_skipped;
    };
    const int root = tr != nullptr ? tr->Begin("round") : -1;
    const int64_t start = NowNs();
    Replay(
        s_,
        [&](const TupleColumnsView& v) {
          Scope sp(tr, "core.ingest");
          op->ProcessTupleColumns(v);
          max_ts = std::max(max_ts, op->max_event_time());
        },
        [&](size_t k, Time wm, size_t offset) {
          watermark(wm, offset, (k + 1) % kBarrierEvery == 0);
        });
    watermark(s_.final_wm, s_.size(), false);
    const int64_t end = NowNs();
    if (tr != nullptr) tr->End(root);
    r.clock_s = Seconds(start, end);
    r.tuples = s_.size();

    {
      Scope sp(tr, "state.flush");
      coord->Flush();
    }
    const uint64_t durable = coord->bases_persisted() + coord->deltas_persisted();
    r.barriers_attempted = barriers;
    r.barriers_failed = barriers > durable ? barriers - durable : 0;
    r.barriers_failed = std::max(r.barriers_failed, barrier_skipped);
    bases_ += coord->bases_persisted();
    deltas_ += coord->deltas_persisted();
    dropped_ += coord->barriers_dropped();
    persist_failures_ += coord->persist_failures();
    barriers_ += barriers;
    coord.reset();
    std::error_code ec;
    for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
      bytes_ += static_cast<double>(e.file_size(ec));
    }
    RemoveDir(dir);

    r.check = Compare(ref_, got, /*keyed=*/false);
    stats_ = op->stats();
    slices_peak_ = static_cast<double>(slices_peak);
    return r;
  }

  void LayerMetrics(const Tracer& tr, Metrics* out) override {
    const auto sums = tr.Summarize();
    const SpanStats round = StatsOf(sums, "round");
    const double tuples = static_cast<double>(round.count * s_.size());
    const SpanStats wm = StatsOf(sums, "core.watermark");
    const SpanStats barrier = StatsOf(sums, "state.barrier");
    out->Set("core.ingest_ns_per_tuple",
             StatsOf(sums, "core.ingest").total_ns / tuples, "ns");
    out->Set("core.watermark_ns_p50", wm.p50_ns, "ns");
    out->Set("core.watermark_ns_p99", wm.p99_ns, "ns");
    CoreStatMetrics(stats_, slices_peak_, out);
    out->Set("state.barrier_ns_p50", barrier.p50_ns, "ns");
    out->Set("state.barrier_ns_p99", barrier.p99_ns, "ns");
    out->Set("state.barrier_share",
             round.total_ns > 0 ? barrier.total_ns / round.total_ns : 0.0,
             "frac");
    // Counters accumulate over every round of the run (traced or not).
    out->Set("state.bytes_per_barrier",
             barriers_ > 0 ? bytes_ / static_cast<double>(barriers_) : 0.0,
             "bytes");
    out->Set("state.bases_persisted", static_cast<double>(bases_), "count");
    out->Set("state.deltas_persisted", static_cast<double>(deltas_), "count");
    out->Set("state.barriers_dropped", static_cast<double>(dropped_), "count");
    out->Set("state.persist_failures", static_cast<double>(persist_failures_),
             "count");
    out->Set("state.flush_ns", StatsOf(sums, "state.flush").mean_ns, "ns");
  }

  const scotty::TupleBatchSoA& Columns() const override { return s_.cols; }

 private:
  scotty::CheckpointOptions Options(const std::string& dir) const {
    scotty::CheckpointOptions o;
    o.directory = dir;
    o.prefix = "bench";
    o.retain = 0;
    o.async = true;
    o.incremental = true;
    return o;
  }

  std::string NewDir() {
    const std::string dir =
        work_dir_ + "/ckpt-" + std::to_string(dir_counter_++);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(),
                   ec.message().c_str());
      std::abort();
    }
    return dir;
  }
  static void RemoveDir(const std::string& dir) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  std::string work_dir_;
  uint64_t dir_counter_ = 0;
  Stream s_;
  Reference ref_;
  std::vector<WindowResult> got_;  // reused so rounds do not page-fault
  scotty::OperatorStats stats_;
  double slices_peak_ = 0;
  uint64_t bases_ = 0, deltas_ = 0, dropped_ = 0, persist_failures_ = 0;
  uint64_t barriers_ = 0;
  double bytes_ = 0;
};

// ---------------------------------------------------------------------------
// Executor workloads share the worker-count switch used for the
// single-worker baseline of the traced run.

class ExecutorWorkload : public Workload {
 public:
  size_t Workers() const override { return workers_; }
  void SetWorkers(size_t n) override { workers_ = n; }

 protected:
  size_t workers_ = 3;
  std::vector<double> queue_fill_;  // traced rounds only
};

// keyed_parallel_m4: the Fig. 17 job. Key-partitioned executor, each worker
// a KeyedWindowOperator over lazy slicing with M4 over 80 dashboard
// windows; a watermark every 4096 tuples, results through result_sink.

class KeyedParallelM4 : public ExecutorWorkload {
 public:
  static constexpr Time kLateness = 2000;

  static std::vector<WindowDesc> Windows() {
    // DashboardTumblingWindows(80): lengths spread evenly over 1 s .. 20 s.
    std::vector<WindowDesc> ws;
    for (int i = 0; i < 80; ++i) {
      ws.push_back(Desc("tumbling:" + std::to_string(1000 + 19000 * i / 79)));
    }
    return ws;
  }

  static std::unique_ptr<scotty::WindowOperator> MakeKeyed() {
    return std::make_unique<scotty::KeyedWindowOperator>([] {
      GeneralSlicingOperator::Options o;
      o.stream_in_order = false;
      o.allowed_lateness = kLateness;
      o.store_mode = scotty::StoreMode::kLazy;
      auto op = std::make_unique<GeneralSlicingOperator>(o);
      op->AddAggregation(scotty::MakeAggregation("m4"));
      for (const WindowDesc& w : Windows()) op->AddWindow(w.Instantiate());
      return op;
    });
  }

  void Prepare(uint64_t seed) override {
    StreamSpec spec;
    spec.tuples = 1 << 19;
    spec.keys = 64;
    spec.ooo_fraction = 0.2;
    spec.max_delay = 2000;
    spec.wm_every = 4096;
    spec.wm_lag = 2000;
    spec.lateness = kLateness;
    s_ = GenerateStream(spec, seed);
    // Per-key reference: each key is an independent operator instance.
    std::map<int64_t, std::vector<scotty::Tuple>> by_key;
    for (const scotty::Tuple& t : s_.tuples) by_key[t.key].push_back(t);
    ref_.clear();
    const std::vector<WindowDesc> ws = Windows();
    for (const auto& [key, tuples] : by_key) {
      AppendOracle(ws, {"m4"}, tuples, s_.final_wm, key, 0, &ref_);
    }
    SortReference(&ref_);
    s_.tuples = {};
  }

  double SetupOnce() override {
    Sink sink;
    sink.Reset(workers_);
    const int64_t t0 = NowNs();
    auto exec = Build(&sink);
    exec->Start();
    const double s = Seconds(t0, NowNs());
    exec->Finish();
    return s;
  }

  RoundResult Round(Tracer* tr) override {
    RoundResult r;
    const size_t wms = s_.wm_after.size() + 1;  // + the final watermark
    Sink& sink = sink_;
    sink.Reset(workers_);
    const int64_t t0 = NowNs();
    auto exec = Build(&sink);
    exec->Start();
    r.setup_s = Seconds(t0, NowNs());

    std::vector<int64_t> pushed_ns;
    pushed_ns.reserve(wms);
    auto push_wm = [&](Time wm) {
      pushed_ns.push_back(NowNs());
      Scope sp(tr, "runtime.watermark_push");
      exec->PushWatermark(wm);
    };
    const int root = tr != nullptr ? tr->Begin("round") : -1;
    const int64_t start = NowNs();
    Replay(
        s_,
        [&](const TupleColumnsView& v) {
          {
            Scope sp(tr, "runtime.push");
            exec->PushColumns(v);
          }
          if (tr != nullptr) queue_fill_.push_back(exec->ApproxMaxQueueFraction());
        },
        [&](size_t, Time wm, size_t) { push_wm(wm); });
    push_wm(s_.final_wm);
    {
      Scope sp(tr, "runtime.finish");
      exec->Finish();
    }
    const int64_t end = NowNs();
    if (tr != nullptr) tr->End(root);
    r.clock_s = Seconds(start, end);
    r.tuples = s_.size();

    // Watermark k's results are complete when the last worker's k-th sink
    // call returned; the spread is first to last worker.
    for (size_t k = 0; k < pushed_ns.size(); ++k) {
      int64_t first = INT64_MAX, last = INT64_MIN;
      bool complete = true;
      for (size_t w = 0; w < workers_; ++w) {
        if (sink.calls[w].size() <= k) {
          complete = false;
          break;
        }
        const int64_t e = sink.calls[w][k].second;
        first = std::min(first, e);
        last = std::max(last, e);
      }
      if (!complete) continue;  // the result check reports what is missing
      r.latency_us.push_back(Micros(pushed_ns[k], last));
      if (tr != nullptr) sink_spread_us_.push_back(Micros(first, last));
    }
    if (tr != nullptr) {
      for (size_t w = 0; w < workers_; ++w) {
        for (const auto& [s, e] : sink.calls[w]) {
          tr->AddSpan("runtime.sink", static_cast<int>(w) + 1, -1, s, e);
        }
      }
    }
    r.state_bytes = static_cast<double>(exec->MemoryUsageBytes());
    std::vector<WindowResult>& got = got_;
    got.clear();
    for (const auto& part : sink.results) {
      got.insert(got.end(), part.begin(), part.end());
    }
    r.check = Compare(ref_, got, /*keyed=*/true);
    return r;
  }

  void LayerMetrics(const Tracer& tr, Metrics* out) override {
    const auto sums = tr.Summarize();
    const SpanStats round = StatsOf(sums, "round");
    const SpanStats push = StatsOf(sums, "runtime.push");
    const SpanStats wm = StatsOf(sums, "runtime.watermark_push");
    const double tuples = static_cast<double>(round.count * s_.size());
    out->Set("runtime.watermark_push_ns_p50", wm.p50_ns, "ns");
    out->Set("runtime.watermark_push_ns_p99", wm.p99_ns, "ns");
    out->Set("runtime.sink_spread_us_p50", Quantile(sink_spread_us_, 0.5),
             "us");
    out->Set("runtime.push_ns_per_tuple", push.total_ns / tuples, "ns");
    out->Set("runtime.push_share",
             round.total_ns > 0 ? push.total_ns / round.total_ns : 0.0,
             "frac");
    out->Set("runtime.queue_fill_p50", Quantile(queue_fill_, 0.5), "frac");
    out->Set("runtime.queue_fill_p99", Quantile(queue_fill_, 0.99), "frac");
    out->Set("runtime.finish_ns", StatsOf(sums, "runtime.finish").mean_ns,
             "ns");
    // Tuples per worker under the executor's key routing.
    std::vector<double> per_worker(workers_, 0.0);
    const int64_t* keys = s_.cols.key();
    for (size_t i = 0; i < s_.size(); ++i) {
      per_worker[ParallelExecutor::WorkerIndexForKey(keys[i], workers_)] += 1;
    }
    const double mean = static_cast<double>(s_.size()) /
                        static_cast<double>(workers_);
    out->Set("runtime.partition_skew",
             *std::max_element(per_worker.begin(), per_worker.end()) / mean,
             "ratio");
  }

  const scotty::TupleBatchSoA& Columns() const override { return s_.cols; }

 private:
  /// Per-worker result and sink-call buffers, reused across rounds so the
  /// workers do not page-fault. Each worker thread claims one slot on its
  /// first call and touches only that slot afterwards.
  struct Sink {
    void Reset(size_t workers) {
      results.resize(workers);
      calls.resize(workers);
      for (auto& v : results) v.clear();
      for (auto& v : calls) v.clear();
      next_slot = 0;
    }
    std::vector<std::vector<WindowResult>> results;
    std::vector<std::vector<std::pair<int64_t, int64_t>>> calls;
    std::atomic<size_t> next_slot{0};
  };

  std::unique_ptr<ParallelExecutor> Build(Sink* sink) const {
    ParallelExecutor::Options o;
    o.result_sink = [sink](const std::vector<WindowResult>& rs) {
      // Worker threads are created per executor, so every round's workers
      // claim fresh slots.
      thread_local size_t slot = SIZE_MAX;
      thread_local const Sink* owner = nullptr;
      if (owner != sink) {
        owner = sink;
        slot = sink->next_slot.fetch_add(1);
      }
      const int64_t s = NowNs();
      std::vector<WindowResult>& out = sink->results[slot];
      out.insert(out.end(), rs.begin(), rs.end());
      sink->calls[slot].emplace_back(s, NowNs());
    };
    return std::make_unique<ParallelExecutor>(workers_, &MakeKeyed, o);
  }

  Stream s_;
  Reference ref_;
  Sink sink_;
  std::vector<WindowResult> got_;
  std::vector<double> sink_spread_us_;
};

// shared_preagg_queries: a shared pre-aggregation executor whose factory is
// a QueryRegistry serving 8 commutative time queries on the in-order
// stream, with a watermark only every 65536 tuples.

class SharedPreaggQueries : public ExecutorWorkload {
 public:
  static std::vector<QueryDef> Queries() {
    const char* spec[8][2] = {
        {"tumbling:20000", "sum"},     {"tumbling:10000", "max"},
        {"tumbling:5000", "min"},      {"tumbling:2000", "count"},
        {"tumbling:1000", "sum"},      {"sliding:10000:5000", "sum"},
        {"sliding:4000:2000", "max"},  {"sliding:20000:10000", "count"},
    };
    std::vector<QueryDef> qs;
    for (const auto& q : spec) qs.push_back(QueryDef{{q[0]}, {q[1]}});
    return qs;
  }

  void Prepare(uint64_t seed) override {
    StreamSpec spec;
    spec.tuples = 1 << 17;
    spec.wm_every = 65536;
    spec.wm_lag = 1;  // in-order: every later tuple is above the watermark
    s_ = GenerateStream(spec, seed);
    auto reg = BuildRegistry(Queries(), /*stream_in_order=*/false);
    ref_ = RegistryReference(Queries(), *reg, s_);
    plan_metrics_ = Metrics();
    QueryPlanMetrics(*reg, Queries().size(), &plan_metrics_);
    s_.tuples = {};
  }

  double SetupOnce() override {
    const int64_t t0 = NowNs();
    auto exec = Build();
    exec->Start();
    exec->PushWatermark(-1);
    const double s = Seconds(t0, NowNs());
    exec->Finish();
    return s;
  }

  RoundResult Round(Tracer* tr) override {
    RoundResult r;
    const int64_t t0 = NowNs();
    auto exec = Build();
    exec->Start();
    // Pins the shared engine's watermark floor below all data.
    exec->PushWatermark(-1);
    r.setup_s = Seconds(t0, NowNs());

    std::vector<WindowResult> got;
    const int root = tr != nullptr ? tr->Begin("round") : -1;
    const int64_t start = NowNs();
    Replay(
        s_,
        [&](const TupleColumnsView& v) {
          {
            Scope sp(tr, "runtime.push");
            exec->PushColumns(v);
          }
          if (tr != nullptr) queue_fill_.push_back(exec->ApproxMaxQueueFraction());
        },
        [&](size_t, Time wm, size_t) {
          Scope sp(tr, "runtime.watermark_push");
          exec->PushWatermark(wm);
        });
    // Shared pre-aggregation hands results out only after Finish(), so the
    // emit latency is the final watermark's: from its hand-in until Finish
    // returned and every result was drained.
    const int64_t w0 = NowNs();
    {
      Scope sp(tr, "runtime.watermark_push");
      exec->PushWatermark(s_.final_wm);
    }
    {
      Scope sp(tr, "runtime.finish");
      exec->Finish();
    }
    {
      Scope sp(tr, "runtime.take_results");
      got = exec->TakeSharedResults();
    }
    const int64_t end = NowNs();
    if (tr != nullptr) tr->End(root);
    r.latency_us.push_back(Micros(w0, end));
    r.clock_s = Seconds(start, end);
    r.tuples = s_.size();
    r.state_bytes = static_cast<double>(exec->MemoryUsageBytes());
    r.check = Compare(ref_, got, /*keyed=*/false);
    stats_ = exec->SharedOperator()->stats();
    const scotty::AggregateStore* st = exec->SharedOperator()->time_store();
    slices_ = st != nullptr ? static_cast<double>(st->NumSlices()) : 0.0;
    return r;
  }

  void LayerMetrics(const Tracer& tr, Metrics* out) override {
    const auto sums = tr.Summarize();
    const SpanStats round = StatsOf(sums, "round");
    const SpanStats push = StatsOf(sums, "runtime.push");
    const SpanStats wm = StatsOf(sums, "runtime.watermark_push");
    const double tuples = static_cast<double>(round.count * s_.size());
    out->Set("runtime.watermark_push_ns_p50", wm.p50_ns, "ns");
    out->Set("runtime.watermark_push_ns_p99", wm.p99_ns, "ns");
    out->Set("runtime.push_ns_per_tuple", push.total_ns / tuples, "ns");
    out->Set("runtime.push_share",
             round.total_ns > 0 ? push.total_ns / round.total_ns : 0.0,
             "frac");
    out->Set("runtime.queue_fill_p50", Quantile(queue_fill_, 0.5), "frac");
    out->Set("runtime.queue_fill_p99", Quantile(queue_fill_, 0.99), "frac");
    out->Set("runtime.finish_ns", StatsOf(sums, "runtime.finish").mean_ns,
             "ns");
    for (const Metrics::Entry& e : plan_metrics_.entries()) {
      out->Set(e.name, e.value, e.unit);
    }
    // The shared engine after the last round's Finish(): slices left live.
    CoreStatMetrics(stats_, slices_, out);
  }

  const scotty::TupleBatchSoA& Columns() const override { return s_.cols; }

 private:
  std::unique_ptr<ParallelExecutor> Build() const {
    ParallelExecutor::Options o;
    o.shared_preagg = true;
    o.preagg_slice_len = 1000;  // divides every window length and slide
    return std::make_unique<ParallelExecutor>(
        workers_,
        [] { return BuildRegistry(Queries(), /*stream_in_order=*/false); }, o);
  }

  Stream s_;
  Reference ref_;
  Metrics plan_metrics_;
  scotty::OperatorStats stats_;
  double slices_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& work_dir) {
  if (name == "inorder_dashboard") return std::make_unique<InorderDashboard>();
  if (name == "ooo_sessions_ckpt") {
    return std::make_unique<OooSessionsCkpt>(work_dir);
  }
  if (name == "keyed_parallel_m4") return std::make_unique<KeyedParallelM4>();
  if (name == "shared_preagg_queries") {
    return std::make_unique<SharedPreaggQueries>();
  }
  return nullptr;
}

}  // namespace perfbench
