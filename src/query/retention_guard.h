#ifndef SCOTTY_QUERY_RETENTION_GUARD_H_
#define SCOTTY_QUERY_RETENTION_GUARD_H_

#include <algorithm>
#include <string>

#include "common/time.h"
#include "windows/window.h"

namespace scotty {

/// An edge-less, trigger-less window the QueryRegistry keeps at engine slot 0
/// to pin slice retention for its derived (Factor-Windows-rewritten) queries.
///
/// A derived query owns no engine window: its results are folded from the
/// slices of a coarser base window *after* the engine's ProcessWatermark
/// returns. Engine eviction, however, runs *inside* ProcessWatermark — on a
/// large watermark jump it would discard exactly the slices the
/// post-delegation derived evaluation still needs. The guard closes that
/// race: its EvictionSafePoint reports the registry-maintained floor (the
/// oldest slice any derived query could still read, given what it has
/// emitted so far), and the engine's safe point is the minimum across
/// windows, so slices at or after the floor survive the jump.
class RetentionGuardWindow : public ContextFreeWindow {
 public:
  std::string Name() const override { return "retention-guard"; }

  // No edges, no triggers: the guard contributes nothing to the slice
  // stream or the result stream.
  Time GetNextEdge(Time /*t*/) const override { return kMaxTime; }
  Time LastEdgeAtOrBefore(Time /*t*/) const override { return kNoTime; }
  bool IsWindowEdge(Time /*t*/) const override { return false; }
  void TriggerWindows(WindowCallback& /*callback*/, Time /*prev*/,
                      Time /*curr*/) override {}

  Time EvictionSafePoint(Time wm) const override {
    if (!active_) return wm;            // no derived queries: fully neutral
    if (floor_ == kNoTime) return kNoTime;  // un-emitted query: keep all
    return std::min(wm, floor_);
  }

  /// Registry hook. `active=false` makes the guard neutral (no derived
  /// queries registered); otherwise `floor` is the oldest time any derived
  /// query may still fold over, with kNoTime meaning "retain everything"
  /// (a derived query exists but has not emitted yet and has no horizon).
  void SetRetentionFloor(bool active, Time floor) {
    active_ = active;
    floor_ = floor;
  }

  // Intentionally no SerializeState override: the registry recomputes the
  // floor from its restored query table before the next watermark, which is
  // the earliest point eviction can run again.

 private:
  bool active_ = false;
  Time floor_ = kNoTime;
};

}  // namespace scotty

#endif  // SCOTTY_QUERY_RETENTION_GUARD_H_
