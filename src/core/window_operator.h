#ifndef SCOTTY_CORE_WINDOW_OPERATOR_H_
#define SCOTTY_CORE_WINDOW_OPERATOR_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/time.h"
#include "common/tuple.h"
#include "common/tuple_batch.h"
#include "common/value.h"
#include "state/serde.h"
#include "state/serde_types.h"

namespace scotty {

/// One produced window aggregate.
struct WindowResult {
  /// Index of the window assigner (AddWindow order).
  int window_id = 0;
  /// Index of the aggregation (AddAggregation order).
  int agg_id = 0;
  /// Window extent [start, end) on the window's measure.
  Time start = 0;
  Time end = 0;
  Value value;
  /// Partition key, when produced by a keyed operator (0 otherwise).
  int64_t key = 0;
  /// True when this re-emits a window that was already output and whose
  /// aggregate changed because a tuple arrived after the watermark but
  /// within the allowed lateness (paper Section 2 / Section 5.3 Step 3).
  bool is_update = false;
};

inline std::ostream& operator<<(std::ostream& os, const WindowResult& r) {
  return os << "Window{w=" << r.window_id << ", a=" << r.agg_id << ", ["
            << r.start << "," << r.end << "), value=" << r.value
            << (r.is_update ? ", update" : "") << "}";
}

inline void SerializeWindowResult(state::Writer& w, const WindowResult& r) {
  w.U32(static_cast<uint32_t>(r.window_id));
  w.U32(static_cast<uint32_t>(r.agg_id));
  w.I64(r.start);
  w.I64(r.end);
  state::SerializeValue(w, r.value);
  w.I64(r.key);
  w.Bool(r.is_update);
}

inline WindowResult DeserializeWindowResult(state::Reader& r) {
  WindowResult res;
  res.window_id = static_cast<int>(r.U32());
  res.agg_id = static_cast<int>(r.U32());
  res.start = r.I64();
  res.end = r.I64();
  res.value = state::DeserializeValue(r);
  res.key = r.I64();
  res.is_update = r.Bool();
  return res;
}

/// Common interface of all window-aggregation operators: the general slicing
/// operator and the baseline techniques of paper Section 3 (tuple buffer,
/// aggregate tree, buckets, pairs, cutty). Benchmarks and the streaming
/// pipeline treat them interchangeably — the paper's point that general
/// slicing is a drop-in replacement for alternative window operators.
class WindowOperator {
 public:
  virtual ~WindowOperator() = default;

  /// Processes one stream tuple (in-order or out-of-order).
  virtual void ProcessTuple(const Tuple& t) = 0;

  /// Processes a batch of consecutive stream tuples (arrival order = column
  /// order), delivered as parallel SoA columns — the one batch entry point.
  /// Semantically identical to calling ProcessTuple for every element;
  /// operators with a batch-aware hot path (the general slicing operator,
  /// the keyed wrapper, the query registry) override this to amortize
  /// dispatch, branching, and slice lookups across the batch (vectorized run
  /// scans, per-key column shuffles). Results must be bit-identical to the
  /// per-tuple path — the differential fuzzer checks. The default
  /// materializes per tuple so every operator accepts columnar input.
  /// Callers holding row-major tuples stage them through
  /// TupleBatchSoA::PushBack/AppendTuples at the edge.
  virtual void ProcessTupleColumns(const TupleColumnsView& cols) {
    for (size_t i = 0; i < cols.size; ++i) ProcessTuple(cols.Get(i));
  }

  /// Processes a low-watermark: triggers all windows that ended at or before
  /// `wm` and evicts state outside the allowed lateness.
  virtual void ProcessWatermark(Time wm) = 0;

  /// Appends the window aggregates produced so far to `*out` and clears
  /// the internal buffer: the one drain. Drivers that drain results in a
  /// loop (the pipeline, the parallel workers) pass the same vector every
  /// time, and operators keep their internal buffer's capacity, so both
  /// sides reach a steady state with zero allocations.
  virtual void TakeResultsInto(std::vector<WindowResult>* out) = 0;

  /// Returns and clears the window aggregates produced so far.
  std::vector<WindowResult> TakeResults() {
    std::vector<WindowResult> out;
    TakeResultsInto(&out);
    return out;
  }

  /// Accounted bytes of live state (tuples, partials, metadata); the
  /// native-code stand-in for the paper's ObjectSizeCalculator measurements.
  virtual size_t MemoryUsageBytes() const = 0;

  virtual std::string Name() const = 0;

  /// Snapshot support. Every operator has one encoding: SerializeState
  /// writes a base, a self-contained image of the live state, and
  /// SerializeDelta writes the same encoding in which units unchanged since
  /// the last barrier (clean slices, clean keys) may be references instead
  /// of inline bytes. A base is thus a delta without references.
  /// DeserializeState reads either form: inline units replace the state, and
  /// each reference resolves against the operator's current state (the
  /// previous barrier's image); an unresolvable reference fails the reader.
  /// Onto a freshly constructed operator with the *same* query set and
  /// options, a base restores bit-identically: replaying the remaining
  /// stream yields byte-for-byte the same results as an uninterrupted run.
  /// Recovery reads a base, then every delta of its segment in barrier
  /// order, then calls FinishDeltaRestore once. MarkSnapshotClean is
  /// invoked after a barrier has serialized this operator (base or delta
  /// alike), establishing the "clean = unchanged since last barrier"
  /// invariant the next delta's references rely on. Operators without dirty
  /// tracking keep the default delta, their full state.
  virtual void SerializeState(state::Writer& w) const = 0;
  virtual void SerializeDelta(state::Writer& w) const { SerializeState(w); }
  virtual void DeserializeState(state::Reader& r) = 0;
  virtual void MarkSnapshotClean() {}
  virtual void FinishDeltaRestore() {}
};

/// Builds a fresh operator with a fixed query set: restore targets,
/// executor workers and the partitions of a PartitionedOperator.
using OperatorFactory = std::function<std::unique_ptr<WindowOperator>()>;

/// Receives drained results, one call per drain. The pipeline driver calls
/// it on its own thread after every watermark; a ParallelExecutor's workers
/// call it concurrently from their threads, so a sink shared by workers
/// brings its own synchronization. A sink that records results durably
/// sees them before the barrier that follows the watermark is taken.
using ResultSink = std::function<void(const std::vector<WindowResult>&)>;

}  // namespace scotty

#endif  // SCOTTY_CORE_WINDOW_OPERATOR_H_
