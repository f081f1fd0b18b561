#ifndef SCOTTY_CORE_AGGREGATE_STORE_H_
#define SCOTTY_CORE_AGGREGATE_STORE_H_

#include <cstddef>
#include <deque>
#include <vector>

#include "aggregates/aggregate_function.h"
#include "core/flat_fat.h"
#include "core/slice.h"
#include "windows/window.h"

namespace scotty {

struct QuerySet;

/// Lazy vs eager aggregate store (paper Section 3.4): the lazy variant keeps
/// only slices and combines them on demand; the eager variant additionally
/// maintains a FlatFAT aggregate tree over the slice partials, trading
/// per-update tree maintenance for O(log |slices|) window queries.
enum class StoreMode { kLazy, kEager };

/// The shared slice container of the slicing operator (paper Figure 7): the
/// Stream Slicer appends slices, the Slice Manager updates/merges/splits
/// them, the Window Manager queries ranges of them.
///
/// Slices are kept ordered by start timestamp; their ranges never overlap
/// but may leave uncovered gaps (stream regions without tuples, e.g.,
/// between sessions).
class AggregateStore : public StreamStateView {
 public:
  static constexpr size_t kNpos = static_cast<size_t>(-1);

  AggregateStore(StoreMode mode, std::vector<AggregateFunctionPtr> fns);

  StoreMode mode() const { return mode_; }
  const std::vector<AggregateFunctionPtr>& fns() const { return fns_; }
  size_t NumSlices() const { return slices_.size(); }
  bool Empty() const { return slices_.empty(); }

  Slice& At(size_t i) { return slices_[i]; }
  const Slice& At(size_t i) const { return slices_[i]; }

  /// The open (latest) slice, or nullptr if none exists yet.
  Slice* Current() { return slices_.empty() ? nullptr : &slices_.back(); }

  /// Index of the slice covering `ts` (start <= ts < end), or kNpos.
  size_t FindCovering(Time ts) const;

  /// Index of the last slice with start <= ts, or kNpos.
  size_t FindByStart(Time ts) const;

  /// Index of the slice covering `ts`. In an uncovered region (between
  /// sessions, before the first slice or past the last) it first inserts
  /// the grid cell around ts (QuerySet::TimeGridCell), clamped to its
  /// neighbours so slices stay disjoint and ordered and slice edges keep
  /// matching window edges.
  size_t FindOrInsertCovering(Time ts, const QuerySet& queries);

  /// Index of the first slice with end > ts (i.e., the first slice that can
  /// intersect a range beginning at ts), or NumSlices().
  size_t FirstEndingAfter(Time ts) const;

  /// Appends a new latest slice [start, end). Requires start >= previous
  /// slice's end.
  Slice& Append(Time start, Time end);

  /// Inserts a slice at position `idx` (used for out-of-order session
  /// creation in uncovered regions).
  Slice& InsertAt(size_t idx, Time start, Time end);

  /// Merges slice i with slice i+1 (paper's Merge operation).
  void MergeWithNext(size_t i);

  /// Splits slice i at t (paper's Split operation); the right half becomes
  /// slice i+1.
  void SplitAt(size_t i, Time t);

  /// Notifies the store that slice i's aggregates changed (eager mode
  /// refreshes the tree leaves). Call after AddTuple/Recompute.
  void OnSliceAggUpdated(size_t i);

  /// Drops all slices with end <= t (outside the allowed lateness).
  void EvictBefore(Time t);

  /// Ordered combine of the partials of slices [i, j) for aggregation
  /// `agg`. Eager mode answers from the tree in O(log n).
  Partial QuerySlices(size_t agg, size_t i, size_t j) const;

  /// Ordered combine over all slices intersecting the window [start, end).
  /// Slice boundaries are expected to align with window edges; slices
  /// partially overlapping the range are included in full (callers split
  /// slices first when exact bounds are required).
  Partial QueryRange(size_t agg, Time start, Time end) const;

  /// StreamStateView: timestamp of the n-th most recent stored tuple with
  /// ts < t (requires tuple retention; returns kNoTime otherwise).
  Time NthRecentTupleTime(Time t, int64_t n) const override;

  /// Total stored tuples across slices (metadata count, not retained count).
  uint64_t TotalTupleCount() const { return total_tuples_; }
  void NoteTupleAdded() { ++total_tuples_; }
  void NoteTuplesAdded(uint64_t n) { total_tuples_ += n; }

  /// Retired slices currently parked on the freelist (observability/tests).
  size_t FreeListSize() const { return free_slices_.size(); }

  /// Lifetime count of slices ever created (appends, inserts, splits);
  /// eviction does not decrease it. Drives the slice-minimality assertions
  /// and the Figure 8 slice-count comparison (Pairs vs Cutty vs general).
  uint64_t SlicesCreated() const { return slices_created_; }

  size_t MemoryBytes() const;

  /// All slices created by this store maintain last-timestamp side partials
  /// (see Slice::EnableLastTsTracking). Enabled by the slicing operator for
  /// in-order FCF workloads without tuple retention so punctuation edges can
  /// split occupied timestamps exactly.
  void EnableLastTsTracking() { track_last_ts_ = true; }

  /// Snapshot support, one encoding for bases and deltas: the counters, the
  /// full slice sequence, and only the (capacity, offset, size) layout of
  /// each eager tree, whose nodes Deserialize rebuilds from the slices'
  /// partials. In a base every slice is inline; with `delta` set, clean
  /// slices — bit-identical to their image at the previous barrier — are
  /// written as start-time references instead. Deserialize reads either
  /// form, resolving references against this store's current slices, which
  /// must hold the previous barrier's state; an unresolvable or still-dirty
  /// reference — a delta gap — poisons the reader and leaves the store
  /// untouched. The freelist is a pure performance cache and is skipped;
  /// mode and functions are construction parameters re-established by the
  /// restoring operator. MarkAllClean clears every slice's dirty bit once a
  /// barrier has serialized the store.
  void Serialize(state::Writer& w, bool delta = false) const;
  void Deserialize(state::Reader& r);
  void MarkAllClean();

 private:
  /// Takes a recycled slice off the freelist (or constructs one) reset to
  /// [start, end). Slices churn constantly — one per window edge passed,
  /// plus splits and session inserts — and each carries two vectors; the
  /// freelist keeps those buffers alive across the evict/append cycle so
  /// the steady-state hot path never touches the allocator.
  Slice MakeSlice(Time start, Time end);

  /// Parks a dead slice on the freelist (bounded; drops when full).
  void Retire(Slice&& s);

  /// Freelist bound: enough to absorb a full eviction sweep of a typical
  /// multi-query slice population without hoarding unbounded memory.
  static constexpr size_t kMaxFreeSlices = 64;

  StoreMode mode_;
  std::vector<AggregateFunctionPtr> fns_;
  bool track_last_ts_ = false;
  std::deque<Slice> slices_;
  std::vector<Slice> free_slices_;  // recycled slices (capacity preserved)
  std::vector<FlatFat> trees_;  // eager mode: one per aggregation
  uint64_t total_tuples_ = 0;
  uint64_t slices_created_ = 0;
};

}  // namespace scotty

#endif  // SCOTTY_CORE_AGGREGATE_STORE_H_
