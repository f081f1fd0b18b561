#ifndef SCOTTY_CORE_WINDOW_MANAGER_H_
#define SCOTTY_CORE_WINDOW_MANAGER_H_

#include <utility>
#include <vector>

#include "core/aggregate_store.h"
#include "core/query_set.h"
#include "core/slice_manager.h"
#include "core/window_operator.h"

namespace scotty {

/// Step 3 of the slicing pipeline (paper Section 5.3): computes final window
/// aggregates from slice aggregates when windows end, and re-emits updated
/// aggregates when tuples arrive after the watermark but within the allowed
/// lateness, or when context changes alter already-output windows.
///
/// Handles time-lane windows; count-measure windows are handled by the
/// CountLane.
class WindowManager {
 public:
  WindowManager(AggregateStore* store, QuerySet* queries,
                SliceManager* slice_mgr, OperatorStats* stats)
      : store_(store),
        queries_(queries),
        slice_mgr_(slice_mgr),
        stats_(stats) {}

  /// Windows ending at or before the floor were never emitted (the stream's
  /// first observed point in time initializes the watermark) and never will
  /// be: late-update and changed-window emission must not resurrect them.
  void SetWatermarkFloor(Time floor) { wm_floor_ = floor; }

  /// Triggers all time-lane windows with end in (prev_wm, curr_wm].
  void Trigger(Time prev_wm, Time curr_wm, std::vector<WindowResult>* out);

  /// Triggers one window (identified by id) with end in (prev_wm, curr_wm].
  /// Used by the operator's trigger heap so that a watermark only visits
  /// windows that actually have an edge in range.
  void TriggerWindow(int window_id, Time prev_wm, Time curr_wm,
                     std::vector<WindowResult>* out);

  /// A tuple arrived at `ts` after watermark `last_wm` (but within the
  /// allowed lateness): re-emit every already-output window containing ts.
  /// `skip` (optional, indexed by window id) suppresses windows whose
  /// updates were already reported through context modifications.
  void EmitLateUpdates(Time ts, Time last_wm, const std::vector<char>* skip,
                       std::vector<WindowResult>* out);

  /// Context changes reported a set of changed window instances for window
  /// `window_id`; re-emit those that ended at or before `last_wm`.
  void EmitChangedWindows(int window_id,
                          const std::vector<std::pair<Time, Time>>& wins,
                          Time last_wm, std::vector<WindowResult>* out);

 private:
  /// Computes [start, end) for aggregation `agg`, splitting slices on demand
  /// when a window edge falls inside a slice (forward-context-aware starts).
  Value ComputeWindow(size_t agg, Time start, Time end);

  void EmitAllAggs(int window_id, Time start, Time end, bool is_update,
                   std::vector<WindowResult>* out);

  AggregateStore* store_;
  QuerySet* queries_;
  SliceManager* slice_mgr_;
  OperatorStats* stats_;
  Time wm_floor_ = kNoTime;
};

}  // namespace scotty

#endif  // SCOTTY_CORE_WINDOW_MANAGER_H_
