#ifndef SCOTTY_RUNTIME_PARALLEL_EXECUTOR_H_
#define SCOTTY_RUNTIME_PARALLEL_EXECUTOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/tuple_batch.h"
#include "core/query_set.h"
#include "core/window_operator.h"

namespace scotty {

class GeneralSlicingOperator;
class PartitionedOperator;

/// Single-producer single-consumer channel between the source thread and
/// one worker, split into two rings:
///
///  - a columnar (SoA) tuple data ring: five parallel column arrays, so a
///    block of tuples transfers as five memcpys per ring segment (at most
///    two segments when the block wraps) instead of one struct copy per
///    tuple, and the consumer pops directly into a TupleBatchSoA that feeds
///    WindowOperator::ProcessTupleColumns without any re-layout;
///  - a small control ring for watermarks / snapshot barriers / stop
///    markers. Each control is stamped with the data-ring position it was
///    pushed at (`data_pos`), which restores the producer's exact
///    tuple/control interleaving on the consumer side: PopTuples never
///    returns tuples past the earliest pending control, and PopControl
///    only delivers a control once the data before it is consumed.
///
/// Memory ordering: the producer release-publishes each ring's tail; the
/// consumer refreshes its cached copy of the DATA tail before the CONTROL
/// tail. A control stamped with data_pos = P is pushed (and its ctrl tail
/// released) before any data beyond P is published, so by the time the
/// consumer's data-tail acquire observes data past P, a subsequent
/// control-tail acquire is guaranteed to observe the control — the consumer
/// can never consume data across an unseen control boundary.
///
/// Both endpoints keep cached copies of the other side's positions and only
/// refresh (acquire loads) when the cache says full/empty, amortizing the
/// atomic traffic to a handful of operations per block.
class SpscQueue {
 public:
  /// `capacity` must be a power of two (ring indices are masked) and a
  /// multiple of kBatchAlignElems (wrapped column segments then keep the
  /// SoA alignment quantum); violating either aborts with a diagnostic.
  explicit SpscQueue(size_t capacity = 1 << 14);

  struct Control {
    enum class Kind : uint8_t { kWatermark, kSnapshot, kStop };
    Kind kind = Kind::kWatermark;
    /// kSnapshot only: write the state's delta instead of its base.
    bool delta = false;
    Time watermark = kNoTime;
    /// Data-ring position this control was pushed at: every tuple with ring
    /// position < data_pos precedes it in the stream. Stamped by
    /// PushControl; callers never set it.
    uint64_t data_pos = 0;
  };

  size_t capacity() const { return cap_; }

  /// Appends all tuples of the view to the data ring with per-column
  /// segment memcpys; blocks (spins + yields) while full. A null punct
  /// column is materialized as zeros in the ring.
  void PushTuples(const TupleColumnsView& cols) {
    TryPushTuplesFor(cols, std::chrono::nanoseconds::max());
  }

  /// Bounded-blocking twin of PushTuples: spins at most until `timeout`
  /// elapses while the ring is full, then gives up and returns how many
  /// tuples actually transferred (a short count IS the backpressure signal;
  /// the transferred prefix stays in the ring and must not be re-pushed).
  /// This is what keeps a dead or stalled consumer from livelocking the
  /// producer forever — the unbounded PushTuples spin has no exit once the
  /// peer thread stops consuming. `nanoseconds::max()` means no deadline;
  /// the clock is then never read.
  size_t TryPushTuplesFor(const TupleColumnsView& cols,
                          std::chrono::nanoseconds timeout);

  /// Appends a control marker at the current data position; blocks while
  /// the control ring is full.
  void PushControl(Control c) {
    TryPushControlFor(c, std::chrono::nanoseconds::max());
  }

  /// Bounded-blocking twin of PushControl: returns false (control NOT
  /// enqueued) if the control ring stays full past `timeout`
  /// (`nanoseconds::max()` = no deadline, as for TryPushTuplesFor).
  bool TryPushControlFor(Control c, std::chrono::nanoseconds timeout);

  /// Appends up to `max_n` tuples to `*out`, never crossing the earliest
  /// pending control. Returns the number appended (0 when empty or when a
  /// control is due first).
  size_t PopTuples(TupleBatchSoA* out, size_t max_n);

  /// Pops the next control, but only once every tuple pushed before it has
  /// been consumed; returns false when no control is deliverable yet.
  bool PopControl(Control* out);

  /// Monitoring-grade data-ring fill fraction in [0, 1]: relaxed loads of
  /// both positions, so the value may lag either endpoint by a few blocks —
  /// fine for admission decisions, never for correctness.
  double ApproxOccupancy() const;

 private:
  TupleColumnsView RingView(size_t pos, size_t n) const;
  void CopyIn(size_t pos, const TupleColumnsView& v);

  static constexpr size_t kCtrlCapacity = 256;  // power of two

  size_t cap_ = 0;
  size_t mask_ = 0;
  TupleBatchSoA ring_;  // used as raw aligned column storage, size unused
  std::vector<Control> ctrl_;
  alignas(64) std::atomic<uint64_t> data_head_{0};  // consumer position
  alignas(64) std::atomic<uint64_t> data_tail_{0};  // producer position
  alignas(64) std::atomic<uint64_t> ctrl_head_{0};
  alignas(64) std::atomic<uint64_t> ctrl_tail_{0};
  // Position caches, each owned exclusively by one side. Always <= the true
  // value, so capacity/occupancy estimates are conservative.
  alignas(64) uint64_t data_head_cache_ = 0;  // producer-owned
  uint64_t ctrl_head_cache_ = 0;              // producer-owned
  alignas(64) uint64_t data_tail_cache_ = 0;  // consumer-owned
  uint64_t ctrl_tail_cache_ = 0;              // consumer-owned
};

/// Parallel execution of window aggregation (paper Section 5.3,
/// "Parallelization", and the scaling experiment of Section 6.4) in one of
/// two modes:
///
///  - Key-partitioned (default): tuples route to workers by key hash,
///    watermarks broadcast, every worker runs an independent operator —
///    the standard intra-node parallelism of Flink/Spark/Storm. The
///    workers' operators are the partitions of one PartitionedOperator,
///    which is what a barrier snapshots and a restore rebuilds.
///  - Shared pre-aggregation (Options::shared_preagg, NebulaStream-style):
///    ONE shared GeneralSlicingOperator, the PartitionedOperator's only
///    partition; tuples route round-robin in chunks. Each worker folds its
///    share into a private lazy AggregateStore of ordinary engine slices,
///    cut at the shared operator's own window edges by the lookup an
///    out-of-order tuple takes (AggregateStore::FindOrInsertCovering), so
///    the workers and the engine cut exactly the slices a sequential run
///    would. At each watermark a worker merges its finished slices into
///    the engine under a merge mutex (MergePreAggregatedSlice); whenever
///    the smallest watermark every worker has merged up to rises, that
///    worker triggers the shared operator there and drains its results.
///    The constructor aborts unless every window is context free on the
///    time lane and every aggregation commutative.
///
/// Ingestion is columnar end to end: the producer stages tuples per worker
/// in SoA batches, transfers them with per-column memcpys through the SPSC
/// data ring, and workers feed the popped batches straight to
/// ProcessTupleColumns. Watermarks flush all staging first, so the
/// per-worker item order is identical to unbatched execution.
class ParallelExecutor {
 public:
  struct Options {
    /// Ring capacity per worker queue; must be a power of two and a
    /// multiple of kBatchAlignElems.
    size_t queue_capacity = 1 << 14;
    /// Producer-side staging batch per worker (also the workers' pop batch).
    /// 0 or 1 flushes staging after every tuple: each tuple is pushed
    /// individually.
    size_t batch_size = 256;
    /// Shared-operator pre-aggregation mode (see class comment). The
    /// factory must produce a GeneralSlicingOperator — or a QueryRegistry,
    /// whose inner engine then receives the merged slices while the
    /// registry demuxes results to its queries — whose windows are all
    /// context free on the time lane (no session, punctuation, frames,
    /// last-N or count window) and whose aggregations are all commutative;
    /// anything else aborts at construction. A registry factory must
    /// register its queries before returning: the workers cut their slices
    /// on a copy of the operator's windows taken at construction.
    bool shared_preagg = false;
    /// Unused: shared-mode workers cut their slices at the shared
    /// operator's own window edges, so no slice length is picked by hand.
    /// Kept declared so that callers which still set it compile unchanged.
    Time preagg_slice_len = 0;
    /// Key-partitioned mode only: called from each worker thread with the
    /// results drained at every watermark/stop control (instead of
    /// discarding them after counting), before the worker serializes the
    /// next barrier. Invoked concurrently from all workers — the callback
    /// must provide its own synchronization.
    ResultSink result_sink;
    /// Called once per worker-loop iteration from the worker's own thread
    /// (argument = worker index), BEFORE it attempts to pop. Testing hook:
    /// sleeping in it simulates a stalled/slow consumer so the producer-side
    /// backpressure and shedding paths can be driven deterministically.
    std::function<void(size_t)> worker_tick_hook;
  };

  ParallelExecutor(size_t num_workers, OperatorFactory factory);
  ParallelExecutor(size_t num_workers, OperatorFactory factory, Options opts);
  /// Key-partitioned executor over the partitions of `restored`, which must
  /// be a PartitionedOperator: the one RestoreOperator or RecoverNewestValid
  /// returned onto PartitionedOperator::Factory, or a fresh one. Its
  /// partition count becomes the worker count. Anything else, or
  /// `opts.shared_preagg`, aborts with a diagnostic.
  ParallelExecutor(std::unique_ptr<WindowOperator> restored, Options opts);
  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  void Start();
  /// Ingestion: routes a block of tuples (key hash in key-partitioned mode,
  /// round-robin chunks in shared mode) through the per-worker staging
  /// buffers, reading the SoA columns directly. In shared mode whole
  /// sub-ranges forward zero-copy into the worker rings.
  void PushColumns(const TupleColumnsView& cols);
  /// PushColumns of a one-tuple view.
  void Push(const Tuple& t);
  /// Bounded-blocking admission call for overload control (meaningful with
  /// batch_size <= 1, where nothing is staged): returns false — tuple NOT
  /// enqueued — if the target worker's ring stays full past `timeout`. The
  /// caller decides what a false means (shed the tuple, raise an error);
  /// the executor itself never drops anything.
  bool TryPushFor(const Tuple& t, std::chrono::nanoseconds timeout);
  void PushWatermark(Time wm);
  /// Bounded-blocking twin of PushWatermark (key-partitioned mode only):
  /// flushes staging, then pushes the watermark control to every queue with
  /// a per-queue timeout. Returns false when any queue stayed full — the
  /// watermark may then have reached only a prefix of the workers, so a
  /// false is a fatal stall signal (a dead worker thread), not a retryable
  /// condition. Punctuation-bearing controls are never shed: the caller
  /// either delivers them everywhere or aborts the run.
  bool TryPushWatermarkFor(Time wm, std::chrono::nanoseconds timeout);
  /// Sends stop markers, drains, and joins all workers. Idempotent: a
  /// second call (e.g. the destructor after an error-path Finish) is a
  /// no-op, so error handling can always call Finish unconditionally.
  /// In shared mode every worker merges its remaining local slices into
  /// the shared operator before exiting; windows past the last watermark
  /// have NOT been triggered — finalize via SharedOperator().
  void Finish();

  /// Snapshot barrier (DESIGN.md §7), key-partitioned mode only: broadcasts
  /// a barrier marker to every worker queue — after flushing staged tuples,
  /// so the barrier sits at the exact point of the item stream the caller
  /// chose (canonically right after PushWatermark) — then blocks until
  /// every worker has written its partition's base (or, with `delta`, its
  /// delta) and marked it clean. Each partition is serialized inside its
  /// own worker thread between two items, never concurrently with
  /// processing, so the captured state is exactly what a sequential
  /// per-worker run would have had. Writes the PartitionedOperator state
  /// into `w`. CheckpointCoordinator::OnBarrier is the caller.
  void SnapshotAtBarrier(state::Writer& w, bool delta);

  uint64_t TotalResults() const { return total_results_.load(); }
  /// How many of TotalResults() are late updates (is_update).
  uint64_t TotalUpdates() const { return total_updates_.load(); }
  /// Max data-ring fill fraction across all worker queues (see
  /// SpscQueue::ApproxOccupancy) — the admission signal a
  /// BackpressureController samples between pushes.
  double ApproxMaxQueueFraction() const;
  size_t MemoryUsageBytes() const;
  size_t num_workers() const { return num_workers_; }
  const Options& options() const { return opts_; }

  /// Shared mode only: the one shared slicing engine (null otherwise).
  /// With a QueryRegistry factory this is the registry's inner engine.
  /// Only touch it before Start() or after Finish() — workers merge into
  /// it concurrently in between.
  GeneralSlicingOperator* SharedOperator() { return shared_op_; }

  /// Shared mode only: moves out every result the shared operator emitted
  /// at watermarks so far. Call after Finish() (workers append
  /// concurrently while running).
  std::vector<WindowResult> TakeSharedResults();

  /// The key-routing function: which of `workers` queues a key hashes to.
  /// Exposed so rescaled restore (and its tests) re-bucket per-key state
  /// with the exact same placement live tuples will use afterwards.
  static size_t WorkerIndexForKey(int64_t key, size_t workers) {
    return static_cast<size_t>(
               static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ULL >> 32) %
           workers;
  }

 private:
  void BuildQueues();
  void WorkerLoop(size_t i);
  void SharedWorkerLoop(size_t i);
  void FlushStaging(size_t w);
  void FlushAllStaging();
  void AdvanceRoundRobin() { rr_worker_ = (rr_worker_ + 1) % num_workers_; }

  Options opts_;
  size_t num_workers_ = 0;
  std::unique_ptr<PartitionedOperator> partitions_;
  GeneralSlicingOperator* shared_op_ = nullptr;  // shared mode only
  std::vector<std::unique_ptr<SpscQueue>> queues_;
  std::vector<TupleBatchSoA> staging_;  // producer-owned, one per worker
  size_t rr_worker_ = 0;                // shared-mode chunk routing cursor
  std::vector<std::thread> workers_;
  std::atomic<uint64_t> total_results_{0};
  bool started_ = false;
  bool finished_ = false;

  // Shared mode. The workers cut their slices on this copy of the shared
  // operator's query set, so none reads the engine's own while another
  // triggers it. The merge mutex serializes every access to shared_op_
  // while workers run, and guards the rest: merged_to_[i] is the largest
  // watermark worker i has merged its slices up to, and merged_min_ the
  // smallest of them at which the shared operator last triggered.
  QuerySet shared_queries_;
  std::mutex merge_mu_;
  std::vector<Time> merged_to_;
  Time merged_min_ = kNoTime;
  std::vector<WindowResult> shared_results_;

  // In-flight snapshot barrier: the producer parks on snap_remaining_ while
  // each worker serializes into its slot. Only one barrier is in flight at
  // a time (SnapshotAtBarrier blocks), so plain slots + one atomic counter
  // (release on the worker side, acquire on the producer side) suffice.
  std::vector<std::vector<uint8_t>> snap_slots_;
  std::atomic<size_t> snap_remaining_{0};

  std::atomic<uint64_t> total_updates_{0};  // added to at each worker's stop
};

/// A key-partitioned operator: `size()` partitions built by one factory.
/// Tuples route by ParallelExecutor::WorkerIndexForKey; watermarks, clean
/// marks and delta-restore catch-ups go to every partition; results come
/// out in partition order. It holds a ParallelExecutor's operators and, run
/// inline, is the executor's deterministic twin. Its state is the parallel
/// blob: tag + version + partition count + one length-prefixed base or
/// delta per partition. A blob with another partition count is
/// re-partitioned by RepartitionKeyedStates (keyed partitions only); any
/// other mismatch or decode failure fails the reader.
class PartitionedOperator : public WindowOperator {
 public:
  static constexpr char kName[] = "parallel";

  PartitionedOperator(size_t partitions, const OperatorFactory& factory);

  /// Builds PartitionedOperators of `partitions` partitions: the factory
  /// RestoreOperator and RecoverNewestValid restore a parallel snapshot
  /// onto.
  static OperatorFactory Factory(size_t partitions, OperatorFactory factory);

  size_t size() const { return partitions_.size(); }
  WindowOperator& partition(size_t i) { return *partitions_[i]; }

  void ProcessTuple(const Tuple& t) override;
  void ProcessWatermark(Time wm) override;
  void TakeResultsInto(std::vector<WindowResult>* out) override;
  size_t MemoryUsageBytes() const override;
  std::string Name() const override { return kName; }

  void SerializeState(state::Writer& w) const override { Serialize(w, false); }
  void SerializeDelta(state::Writer& w) const override { Serialize(w, true); }
  void DeserializeState(state::Reader& r) override;
  void MarkSnapshotClean() override;
  void FinishDeltaRestore() override;

 private:
  void Serialize(state::Writer& w, bool delta) const;

  std::vector<std::unique_ptr<WindowOperator>> partitions_;
};

/// Re-partitions per-worker keyed operator states (the partition states of
/// a PartitionedOperator blob taken with W partitions) onto `new_workers`
/// buckets: every state must parse as a KeyedWindowOperator base or delta,
/// all of one layout version (one keyed lane); inline keys, key references
/// and pending results are re-routed by ParallelExecutor::WorkerIndexForKey
/// and reassembled into one canonical state per new worker (empty workers
/// get an empty keyed state carrying the merged watermark and the inputs'
/// version). A re-partitioned delta applies onto the
/// re-partitioned previous barrier: each reference goes where its key's
/// state already is. Returns false with `*error` set when any state is not
/// keyed — non-keyed operator state has no per-key decomposition.
bool RepartitionKeyedStates(
    const std::vector<std::vector<uint8_t>>& worker_states,
    size_t new_workers, std::vector<std::vector<uint8_t>>* out,
    std::string* error);

}  // namespace scotty

#endif  // SCOTTY_RUNTIME_PARALLEL_EXECUTOR_H_
