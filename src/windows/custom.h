#ifndef SCOTTY_WINDOWS_CUSTOM_H_
#define SCOTTY_WINDOWS_CUSTOM_H_

#include <cassert>
#include <functional>
#include <string>
#include <utility>

#include "windows/window.h"

namespace scotty {

/// User-defined context-free window (the paper's extension point, Section
/// 5.4.2: "One can add additional window types by implementing the
/// respective interface", and Cutty's user-defined CF windows [10]).
///
/// The window is specified by a single edge function `next_edge(t)` — the
/// smallest window edge strictly after t. Windows span consecutive edges
/// (like tumbling windows with irregular lengths): calendar months, billing
/// cycles, shift boundaries, Fibonacci backoff windows, etc.
///
/// `max_extent` bounds the longest possible window and drives state
/// eviction.
class CustomContextFreeWindow : public ContextFreeWindow {
 public:
  using EdgeFn = std::function<Time(Time)>;

  CustomContextFreeWindow(std::string name, EdgeFn next_edge, Time max_extent,
                          Measure measure = Measure::kEventTime)
      : name_(std::move(name)),
        next_edge_(std::move(next_edge)),
        max_extent_(max_extent),
        measure_(measure) {}

  Measure measure() const override { return measure_; }

  Time GetNextEdge(Time t) const override { return next_edge_(t); }

  Time LastEdgeAtOrBefore(Time t) const override {
    // Derived from next_edge by stepping from one extent before t; the
    // extent bound guarantees at least one edge in (t - max_extent, t].
    Time probe = t - max_extent_ - 1;
    Time last = kNoTime;
    for (Time e = next_edge_(probe); e <= t; e = next_edge_(e)) {
      last = e;
      assert(e > probe && "next_edge must be strictly increasing");
      probe = e;
    }
    return last;
  }

  void TriggerWindows(WindowCallback& cb, Time prev_wm,
                      Time curr_wm) override {
    // Windows [e_i, e_{i+1}) with e_{i+1} in (prev_wm, curr_wm].
    Time end = next_edge_(prev_wm);
    Time start = LastEdgeAtOrBefore(prev_wm);
    if (start == kNoTime) start = end;  // before the first known edge
    while (end <= curr_wm) {
      if (start < end) cb.OnWindow(start, end);
      start = end;
      end = next_edge_(end);
    }
  }

  Time EvictionSafePoint(Time wm) const override { return wm - max_extent_; }

  std::string Name() const override { return "custom(" + name_ + ")"; }

 private:
  std::string name_;
  EdgeFn next_edge_;
  Time max_extent_;
  Measure measure_;
};

}  // namespace scotty

#endif  // SCOTTY_WINDOWS_CUSTOM_H_
