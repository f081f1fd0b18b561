#ifndef SCOTTY_CORE_GENERAL_SLICING_OPERATOR_H_
#define SCOTTY_CORE_GENERAL_SLICING_OPERATOR_H_

#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "core/aggregate_store.h"
#include "core/count_lane.h"
#include "core/query_set.h"
#include "core/slice_manager.h"
#include "core/stream_slicer.h"
#include "core/window_manager.h"
#include "core/window_operator.h"

namespace scotty {

/// The paper's primary contribution (Section 5): a general stream-slicing
/// window aggregation operator that serves multiple concurrent queries with
/// diverse window types (CF / FCF / FCA / sessions), window measures (time,
/// arbitrary advancing, count), aggregation functions (distributive,
/// algebraic, holistic; commutative or not; invertible or not), and both
/// in-order and out-of-order streams — while adapting its strategy to the
/// workload (tuples are retained only when the decision tree of Fig. 4
/// requires it; splits/merges/removals follow Figs. 5 and 6).
///
/// Usage:
///
///   GeneralSlicingOperator op({.stream_in_order = false,
///                              .allowed_lateness = 2000});
///   int sum = op.AddAggregation(MakeAggregation("sum"));
///   int w1 = op.AddWindow(std::make_shared<TumblingWindow>(1000));
///   int w2 = op.AddWindow(std::make_shared<SessionWindow>(500));
///   for (const Tuple& t : stream) op.ProcessTuple(t);
///   op.ProcessWatermark(wm);
///   for (const WindowResult& r : op.TakeResults()) ...;
///
/// Aggregations must all be registered before the first tuple; windows can
/// be added and removed at any time (the operator re-characterizes the
/// workload and adapts, dropping retained tuples when they are no longer
/// needed).
class GeneralSlicingOperator : public WindowOperator {
 public:
  struct Options {
    /// Declared stream property. In-order streams trigger windows on every
    /// tuple (each tuple acts as a watermark) and drop the rare
    /// out-of-order tuple; out-of-order streams trigger on explicit
    /// watermarks and accept late tuples within the allowed lateness.
    bool stream_in_order = false;
    /// How long after the watermark aggregates remain updatable (paper
    /// Section 2).
    Time allowed_lateness = 0;
    /// Lazy: combine slices on demand (highest throughput). Eager:
    /// maintain a FlatFAT over slices (lowest latency).
    StoreMode store_mode = StoreMode::kLazy;
    /// Experiment override: retain tuples regardless of the decision tree.
    bool force_store_tuples = false;
  };

  GeneralSlicingOperator();  // default options
  explicit GeneralSlicingOperator(Options opts);
  ~GeneralSlicingOperator() override = default;

  GeneralSlicingOperator(const GeneralSlicingOperator&) = delete;
  GeneralSlicingOperator& operator=(const GeneralSlicingOperator&) = delete;

  /// Registers an aggregation function; returns its agg_id. Must be called
  /// before the first tuple.
  int AddAggregation(AggregateFunctionPtr fn);

  /// Registers a window assigner; returns its window_id. Windows may be
  /// added while the stream is running.
  int AddWindow(WindowPtr w);

  /// Removes a window; the operator re-characterizes the workload and drops
  /// retained tuples if no remaining query needs them.
  void RemoveWindow(int window_id);

  void ProcessTuple(const Tuple& t) override;

  /// Columnar batch ingestion hot path. Splits the batch into maximal runs
  /// of in-order, non-late, non-punctuation tuples that all fall before the
  /// next slice edge (and, on declared-in-order streams, before the next
  /// trigger edge) — run ends are found by a vectorized monotone scan over
  /// the dense ts column (aggregates/kernels.h) — folds each run into the
  /// open slice with one LiftCombineColumns dispatch per aggregation via
  /// Slice::AddTupleColumns, and routes every other tuple through the full
  /// ProcessTuple machinery. Bit-identical to calling ProcessTuple per
  /// element.
  void ProcessTupleColumns(const TupleColumnsView& cols) override;

  /// Merges a slice that a shared-mode ParallelExecutor worker folded from
  /// its share of the stream into this operator's AggregateStore: finds or
  /// inserts the engine slice covering `local.start()` (the same lookup as
  /// an out-of-order tuple), whose bounds must equal the local slice's —
  /// the worker cuts on this operator's own window edges — then combines
  /// the partials and accounts the tuple metadata. Only valid for the pure
  /// time-lane, context-free workload shape (no sessions, no count
  /// measures) and for commutative aggregations: cross-worker merge order
  /// is arbitrary, so non-commutative folds and FP-rounding bit-identity
  /// across different worker interleavings are out of scope by design (as
  /// in any parallel pre-aggregation). The caller serializes calls (the
  /// executor holds its merge mutex).
  void MergePreAggregatedSlice(const Slice& local);

  void ProcessWatermark(Time wm) override;
  void TakeResultsInto(std::vector<WindowResult>* out) override;
  size_t MemoryUsageBytes() const override;
  std::string Name() const override;

  /// Snapshot support: the full operator state (slices with their partials,
  /// slicer position, window context, trigger progress, pending results) is
  /// serialized so a freshly constructed operator with the same query set
  /// resumes bit-identically. The restore target must have the same windows,
  /// aggregations, and options registered (in the same order) as the source
  /// had at snapshot time; a fingerprint in the stream detects mismatches.
  /// A delta differs from a base only in the slice store, which dominates
  /// snapshot size: clean slices become references (AggregateStore).
  void SerializeState(state::Writer& w) const override;
  void SerializeDelta(state::Writer& w) const override;
  void DeserializeState(state::Reader& r) override;
  void MarkSnapshotClean() override;

  const QuerySet& queries() const { return queries_; }
  const OperatorStats& stats() const { return stats_; }
  const AggregateStore* time_store() const { return time_store_.get(); }
  const CountLane* count_lane() const { return count_lane_.get(); }
  Time last_watermark() const { return last_wm_; }
  /// Largest event time observed so far (kNoTime before the first tuple).
  Time max_event_time() const { return max_ts_; }
  const Options& options() const { return opts_; }

 private:
  void EnsureInitialized();
  void CreateTimeLane();
  void CreateCountLane();
  void RefreshLanes(bool recache_edges = true);
  void SerializeImpl(state::Writer& w, bool delta) const;
  void TriggerAll(Time wm);
  void Evict(Time wm);
  Time NextTriggerEdge() const;

  Options opts_;
  QuerySet queries_;
  OperatorStats stats_;
  bool initialized_ = false;
  bool has_ca_windows_ = false;
  Time max_ts_ = kNoTime;
  Time last_wm_ = kNoTime;
  Time wm_floor_ = kNoTime;  // initial last_wm_: no windows end at or before
  int64_t last_cwm_ = 0;
  Time next_trigger_edge_ = kNoTime;  // early-out cache for per-tuple triggers

  /// Min-heap of (next window edge, window id) over context-free time-lane
  /// windows: a watermark only visits windows whose edge it passed, keeping
  /// trigger cost independent of the number of idle concurrent queries.
  using HeapEntry = std::pair<Time, int>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      cf_trigger_heap_;
  std::vector<Time> win_prev_wm_;  // per-window last triggered watermark

  std::unique_ptr<AggregateStore> time_store_;
  std::unique_ptr<StreamSlicer> slicer_;
  std::unique_ptr<SliceManager> slice_mgr_;
  std::unique_ptr<WindowManager> window_mgr_;
  std::unique_ptr<CountLane> count_lane_;
  std::vector<std::pair<int, ContextAwareWindow*>> ca_windows_;
  std::vector<WindowResult> results_;
};

}  // namespace scotty

#endif  // SCOTTY_CORE_GENERAL_SLICING_OPERATOR_H_
