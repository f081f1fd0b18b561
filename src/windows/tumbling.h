#ifndef SCOTTY_WINDOWS_TUMBLING_H_
#define SCOTTY_WINDOWS_TUMBLING_H_

#include <string>

#include "windows/window.h"

namespace scotty {

/// Tumbling (fixed) window of length `l`: windows [k*l, (k+1)*l) for all
/// integer k >= 0. Context free. Timestamps are assumed non-negative.
class TumblingWindow : public ContextFreeWindow {
 public:
  explicit TumblingWindow(Time length, Measure measure = Measure::kEventTime)
      : length_(length), measure_(measure) {}

  Time length() const { return length_; }
  Measure measure() const override { return measure_; }

  Time GetNextEdge(Time t) const override {
    // The paper's example: timestamp + l - (timestamp mod l).
    return (t / length_ + 1) * length_;
  }

  Time LastEdgeAtOrBefore(Time t) const override {
    return (t / length_) * length_;
  }

  void TriggerWindows(WindowCallback& cb, Time prev_wm,
                      Time curr_wm) override {
    // First window end strictly after prev_wm.
    for (Time end = GetNextEdge(prev_wm); end <= curr_wm;
         end += length_) {
      cb.OnWindow(end - length_, end);
    }
  }

  Time EvictionSafePoint(Time wm) const override { return wm - length_; }

  std::string Name() const override {
    return "tumbling(" + std::to_string(length_) + ")";
  }

 private:
  Time length_;
  Measure measure_;
};

}  // namespace scotty

#endif  // SCOTTY_WINDOWS_TUMBLING_H_
