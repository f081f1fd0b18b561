#ifndef SCOTTY_CORE_STREAM_SLICER_H_
#define SCOTTY_CORE_STREAM_SLICER_H_

#include "common/time.h"
#include "core/aggregate_store.h"
#include "core/query_set.h"

namespace scotty {

/// Step 1 of the slicing pipeline (paper Section 5.3): initializes slices
/// on the fly as in-order tuples arrive. The slicer caches the timestamp of
/// the next upcoming window edge; the common case is a single comparison
/// per tuple. When the cached edge is passed, the open slice is closed at
/// that edge and a new slice opens at the latest window edge at or before
/// the new tuple (empty stream regions produce no slices, keeping the slice
/// count minimal).
///
/// On streams declared in-order it suffices to start slices at window
/// *starts* (the Cutty optimization [10]); on out-of-order streams slices
/// must also begin at window ends so late tuples can update the last slice
/// of a window.
class StreamSlicer {
 public:
  StreamSlicer(AggregateStore* store, const QuerySet* queries)
      : store_(store), queries_(queries) {}

  /// Ensures the open slice exists and covers `ts`; cuts at passed window
  /// edges. Must be called for every in-order tuple before context
  /// processing and before the tuple is added to its slice.
  void OnInOrderTuple(Time ts) {
    if (store_->Empty()) {
      const Time start = LastEdgeOrTs(ts);
      next_edge_ = ComputeNextEdge(ts);
      store_->Append(start, next_edge_);
      return;
    }
    if (ts >= next_edge_) {
      // The cached edge was passed: the open slice is complete. Close it at
      // the passed edge — context modifications (session extensions) may
      // have stretched its provisional end further out.
      Slice* cur = store_->Current();
      if (cur->end() > next_edge_) cur->set_end(next_edge_);
      // Open the next slice at the latest edge <= ts (skipping empty
      // regions).
      Time start = LastEdgeOrTs(ts);
      if (start < next_edge_) start = next_edge_;
      next_edge_ = ComputeNextEdge(ts);
      store_->Append(start, next_edge_);
    }
  }

  /// Recomputes the cached edge after the current tuple was processed.
  /// Needed whenever context-aware windows are present (their edges move
  /// with the stream, e.g., a session timeout extends with every tuple);
  /// context-free edges are already cached correctly.
  void Recache(Time ts) {
    next_edge_ = ComputeNextEdge(ts);
    if (Slice* cur = store_->Current()) {
      // The open slice's provisional end follows the next edge.
      if (next_edge_ > cur->start()) cur->set_end(next_edge_);
    }
  }

  Time next_edge() const { return next_edge_; }

  /// Snapshot support: the slicer's only state is the cached edge (store and
  /// query set are wiring re-established on restore).
  void Serialize(state::Writer& w) const { w.I64(next_edge_); }
  void Deserialize(state::Reader& r) { next_edge_ = r.I64(); }

 private:
  /// min over time-lane windows of the next edge after ts.
  Time ComputeNextEdge(Time ts) const {
    Time edge = kMaxTime;
    for (const WindowPtr& w : queries_->windows) {
      if (!QuerySet::OnTimeLane(w)) continue;
      const bool starts_only =
          queries_->stream_in_order && !queries_->slice_at_window_ends;
      const Time e =
          starts_only ? w->GetNextStartEdge(ts) : w->GetNextEdge(ts);
      if (e < edge) edge = e;
    }
    return edge;
  }

  /// The latest time-lane window edge at or before ts, or ts itself when
  /// no window announces one.
  Time LastEdgeOrTs(Time ts) const {
    const Time edge = queries_->LastTimeWindowEdgeAtOrBefore(ts);
    return edge == kNoTime ? ts : edge;
  }

  AggregateStore* store_;
  const QuerySet* queries_;
  Time next_edge_ = kMaxTime;
};

}  // namespace scotty

#endif  // SCOTTY_CORE_STREAM_SLICER_H_
