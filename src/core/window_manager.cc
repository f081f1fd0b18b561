#include "core/window_manager.h"

#include <algorithm>

namespace scotty {

Value WindowManager::ComputeWindow(size_t agg, Time start, Time end) {
  if (queries_->splits_possible) {
    // Forward-context-aware window edges may fall strictly inside slices;
    // materialize them (split + recompute from tuples) before combining.
    slice_mgr_->EnsureEdge(start);
    slice_mgr_->EnsureEdge(end);
  }
  return store_->fns()[agg]->Lower(store_->QueryRange(agg, start, end));
}

void WindowManager::EmitAllAggs(int window_id, Time start, Time end,
                                bool is_update,
                                std::vector<WindowResult>* out) {
  for (size_t a = 0; a < store_->fns().size(); ++a) {
    WindowResult r;
    r.window_id = window_id;
    r.agg_id = static_cast<int>(a);
    r.start = start;
    r.end = end;
    r.value = ComputeWindow(a, start, end);
    r.is_update = is_update;
    out->push_back(std::move(r));
    if (is_update) {
      ++stats_->window_updates_emitted;
    } else {
      ++stats_->windows_emitted;
    }
  }
}

void WindowManager::Trigger(Time prev_wm, Time curr_wm,
                            std::vector<WindowResult>* out) {
  if (curr_wm <= prev_wm) return;
  for (size_t w = 0; w < queries_->windows.size(); ++w) {
    TriggerWindow(static_cast<int>(w), prev_wm, curr_wm, out);
  }
}

void WindowManager::TriggerWindow(int window_id, Time prev_wm, Time curr_wm,
                                  std::vector<WindowResult>* out) {
  if (curr_wm <= prev_wm) return;
  const WindowPtr& win = queries_->windows[static_cast<size_t>(window_id)];
  if (!QuerySet::OnTimeLane(win)) return;
  WindowCollector c;
  win->TriggerWindows(c, prev_wm, curr_wm);
  for (const auto& [s, e] : c.windows) {
    EmitAllAggs(window_id, s, e, /*is_update=*/false, out);
  }
}

void WindowManager::EmitLateUpdates(Time ts, Time last_wm,
                                    const std::vector<char>* skip,
                                    std::vector<WindowResult>* out) {
  if (last_wm == kNoTime || ts > last_wm) return;
  for (size_t w = 0; w < queries_->windows.size(); ++w) {
    const WindowPtr& win = queries_->windows[w];
    if (!QuerySet::OnTimeLane(win)) continue;
    if (skip && w < skip->size() && (*skip)[w]) continue;
    WindowCollector c;
    // Already-emitted windows end in (max(ts, floor), last_wm]; of those,
    // the ones containing the late tuple have start <= ts. The floor clamp
    // keeps windows from before the first observed point in time — which no
    // trigger ever emitted — from appearing as "updates".
    win->TriggerWindows(c, std::max(ts, wm_floor_), last_wm);
    for (const auto& [s, e] : c.windows) {
      if (s > ts) continue;
      EmitAllAggs(static_cast<int>(w), s, e, /*is_update=*/true, out);
    }
  }
}

void WindowManager::EmitChangedWindows(
    int window_id, const std::vector<std::pair<Time, Time>>& wins,
    Time last_wm, std::vector<WindowResult>* out) {
  if (last_wm == kNoTime) return;
  for (const auto& [s, e] : wins) {
    if (e > last_wm) continue;  // not emitted yet; the next trigger covers it
    if (wm_floor_ != kNoTime && e <= wm_floor_) continue;  // before the stream
    EmitAllAggs(window_id, s, e, /*is_update=*/true, out);
  }
}

}  // namespace scotty
