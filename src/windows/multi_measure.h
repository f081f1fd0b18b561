#ifndef SCOTTY_WINDOWS_MULTI_MEASURE_H_
#define SCOTTY_WINDOWS_MULTI_MEASURE_H_

#include <algorithm>
#include <string>

#include "windows/window.h"

namespace scotty {

/// Multi-measure window, the paper's forward-context-aware example
/// (Section 4.4): "output the last N tuples (count-measure) every T time
/// units (time-measure)". The window *end* is a context-free time edge, but
/// the window *start* is only known once all tuples up to the end have been
/// processed — it is the timestamp of the N-th most recent tuple, derived
/// from the aggregate store at trigger time.
///
/// Because starts generally fall strictly inside slices, triggering requests
/// slice splits, and the workload characterization therefore stores tuples
/// whenever an FCA window is active (Fig. 4, in-order branch).
class LastNEveryTWindow : public ContextAwareWindow {
 public:
  LastNEveryTWindow(int64_t n, Time period,
                    Measure measure = Measure::kEventTime)
      : n_(n), period_(period), measure_(measure) {}

  int64_t n() const { return n_; }
  Time period() const { return period_; }
  Measure measure() const override { return measure_; }
  ContextClass context_class() const override {
    return ContextClass::kForwardContextAware;
  }

  ContextModifications ProcessContext(const Tuple&) override {
    return {};  // edges are derived lazily at trigger time
  }

  Time GetNextEdge(Time t) const override {
    return (t / period_ + 1) * period_;
  }

  Time LastEdgeAtOrBefore(Time t) const override {
    return (t / period_) * period_;
  }

  void TriggerWindows(WindowCallback& cb, Time prev_wm,
                      Time curr_wm) override {
    for (Time end = GetNextEdge(prev_wm); end <= curr_wm; end += period_) {
      // The forward context: the N-th most recent tuple before `end`.
      const Time start = view_ ? view_->NthRecentTupleTime(end, n_) : kNoTime;
      if (start == kNoTime) continue;  // fewer than N tuples so far
      cb.OnWindow(start, end);
    }
  }

  Time EvictionSafePoint(Time wm) const override {
    // Future windows look back N tuples from edges after wm; as tuples only
    // accumulate, the N-th most recent tuple before wm is a safe lower
    // bound for every future window start.
    if (!view_) return kNoTime;
    const Time t = view_->NthRecentTupleTime(wm, n_);
    return t == kNoTime ? kNoTime : std::min(t, wm);
  }

  std::string Name() const override {
    return "last-" + std::to_string(n_) + "-every-" + std::to_string(period_);
  }

 private:
  int64_t n_;
  Time period_;
  Measure measure_;
};

}  // namespace scotty

#endif  // SCOTTY_WINDOWS_MULTI_MEASURE_H_
