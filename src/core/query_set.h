#ifndef SCOTTY_CORE_QUERY_SET_H_
#define SCOTTY_CORE_QUERY_SET_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "aggregates/aggregate_function.h"
#include "core/workload.h"
#include "windows/window.h"

namespace scotty {

/// Operational counters exposed for tests, benchmarks, and the ablation
/// experiments (split/merge/recompute frequencies drive the performance
/// model of paper Section 5.2).
struct OperatorStats {
  uint64_t tuples_processed = 0;
  uint64_t out_of_order_tuples = 0;
  uint64_t late_tuples = 0;     // after watermark, within allowed lateness
  uint64_t dropped_tuples = 0;  // beyond allowed lateness
  uint64_t slice_merges = 0;
  uint64_t slice_splits = 0;
  uint64_t slice_recomputes = 0;
  uint64_t count_shifts = 0;  // tuple moves between count-measure slices
  uint64_t windows_emitted = 0;
  uint64_t window_updates_emitted = 0;
};

/// The mutable query context shared by the slicing components: the
/// registered windows and aggregations plus the derived workload decisions.
/// Re-characterized whenever a query is added or removed (the paper's
/// adaptivity: "our aggregator adapts when one adds or removes queries").
struct QuerySet {
  std::vector<WindowPtr> windows;  // window_id == index; removed -> nullptr
  std::vector<AggregateFunctionPtr> aggs;
  bool stream_in_order = false;
  bool force_store_tuples = false;  // experiment override

  WorkloadCharacteristics chars;
  StorageDecision storage;
  RemovalStrategy removal = RemovalStrategy::kNotNeeded;
  bool splits_possible = false;

  void Recharacterize() {
    chars = Characterize(windows, aggs, stream_in_order);
    storage = DecideStorage(chars);
    removal = DecideRemoval(chars);
    splits_possible = SplitsPossible(chars);
  }

  bool StoreTuples() const {
    return force_store_tuples || storage.store_tuples;
  }

  bool AllCommutative() const { return chars.all_commutative; }

  /// True if `w` participates in the time lane (event-time / arbitrary
  /// advancing measures are processed identically, paper Section 4.3).
  static bool OnTimeLane(const WindowPtr& w) {
    return w && w->measure() != Measure::kCount;
  }

  static bool OnCountLane(const WindowPtr& w) {
    return w && w->measure() == Measure::kCount;
  }

  bool HasTimeLane() const {
    for (const WindowPtr& w : windows) {
      if (OnTimeLane(w)) return true;
    }
    return false;
  }

  bool HasCountLane() const {
    for (const WindowPtr& w : windows) {
      if (OnCountLane(w)) return true;
    }
    return false;
  }

  /// Whether any time-lane window has an edge in the inclusive range
  /// [from, to]. Merging two slices separated by an empty gap must not
  /// swallow an edge that lies inside the gap.
  bool AnyTimeWindowEdgeInRange(Time from, Time to) const {
    if (from > to) return false;
    for (const WindowPtr& w : windows) {
      if (!OnTimeLane(w)) continue;
      if (w->GetNextEdge(from - 1) <= to) return true;
    }
    return false;
  }

  /// Time-lane state ending at or before this bound is read by no pending,
  /// future or late-updated window at watermark `wm`: min EvictionSafePoint
  /// − allowed lateness. kNoTime when some window knows no safe point.
  Time TimeEvictionBound(Time wm, Time allowed_lateness) const {
    Time safe = wm;
    for (const WindowPtr& w : windows) {
      if (!OnTimeLane(w)) continue;
      const Time p = w->EvictionSafePoint(wm);
      if (p == kNoTime) return kNoTime;
      safe = std::min(safe, p);
    }
    return safe - allowed_lateness;
  }

  /// Smallest time-lane window edge at or after `t` (kMaxTime if none).
  Time FirstTimeWindowEdgeAtOrAfter(Time t) const {
    Time edge = kMaxTime;
    for (const WindowPtr& w : windows) {
      if (!OnTimeLane(w)) continue;
      edge = std::min(edge, w->GetNextEdge(t - 1));
    }
    return edge;
  }

  /// Largest time-lane window edge at or before `t` (kNoTime if none).
  Time LastTimeWindowEdgeAtOrBefore(Time t) const {
    Time edge = kNoTime;
    for (const WindowPtr& w : windows) {
      if (!OnTimeLane(w)) continue;
      const Time e = w->LastEdgeAtOrBefore(t);
      if (e != kNoTime && e > edge) edge = e;
    }
    return edge;
  }

  /// The grid cell around `ts` that every time-lane slice store cuts
  /// (paper Section 5.3, Step 1): [latest window edge at or before ts — ts
  /// itself when no window announces one; first window edge after ts).
  std::pair<Time, Time> TimeGridCell(Time ts) const {
    const Time start = LastTimeWindowEdgeAtOrBefore(ts);
    return {start == kNoTime ? ts : start,
            FirstTimeWindowEdgeAtOrAfter(ts + 1)};
  }
};

}  // namespace scotty

#endif  // SCOTTY_CORE_QUERY_SET_H_
