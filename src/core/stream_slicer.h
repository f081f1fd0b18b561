#ifndef SCOTTY_CORE_STREAM_SLICER_H_
#define SCOTTY_CORE_STREAM_SLICER_H_

#include <algorithm>

#include "common/time.h"
#include "core/aggregate_store.h"
#include "core/query_set.h"

namespace scotty {

/// Step 1 of the slicing pipeline (paper Section 5.3): initializes slices
/// on the fly as in-order tuples arrive. The slicer caches the timestamp of
/// the next upcoming window edge; the common case is a single comparison
/// per tuple. When the cached edge is passed, the open slice is closed at
/// that edge and the next one opens as the grid cell around the new tuple
/// (QuerySet::TimeGridCell), so empty stream regions produce no slices.
///
/// Slices begin at every window edge, starts and ends alike, whatever the
/// stream order: the same grid that out-of-order inserts cut
/// (AggregateStore::FindOrInsertCovering). Cutting at window starts only
/// [10] would save nothing: a sliding window whose length is a multiple of
/// its slide ends on starts, and one whose length is not must cut at its
/// ends to stay correct.
class StreamSlicer {
 public:
  StreamSlicer(AggregateStore* store, const QuerySet* queries)
      : store_(store), queries_(queries) {}

  /// Ensures the open slice exists and covers `ts`; cuts at passed window
  /// edges. Must be called for every in-order tuple before context
  /// processing and before the tuple is added to its slice.
  void OnInOrderTuple(Time ts) {
    if (store_->Empty()) {
      const auto [start, end] = queries_->TimeGridCell(ts);
      store_->Append(start, end);
      next_edge_ = end;
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
      const auto [start, end] = queries_->TimeGridCell(ts);
      store_->Append(std::max(start, next_edge_), end);
      next_edge_ = end;
    }
  }

  /// Recomputes the cached edge after the current tuple was processed.
  /// Needed whenever context-aware windows are present (their edges move
  /// with the stream, e.g., a session timeout extends with every tuple);
  /// context-free edges are already cached correctly.
  void Recache(Time ts) {
    next_edge_ = queries_->FirstTimeWindowEdgeAtOrAfter(ts + 1);
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
  AggregateStore* store_;
  const QuerySet* queries_;
  Time next_edge_ = kMaxTime;
};

}  // namespace scotty

#endif  // SCOTTY_CORE_STREAM_SLICER_H_
