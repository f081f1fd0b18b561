#ifndef SCOTTY_WINDOWS_SLIDING_H_
#define SCOTTY_WINDOWS_SLIDING_H_

#include <algorithm>
#include <string>

#include "windows/window.h"

namespace scotty {

/// Sliding window of length `l` and slide `ls`: windows [k*ls, k*ls + l) for
/// all integer k >= 0. Consecutive windows overlap when ls < l; a tuple then
/// belongs to up to ceil(l / ls) windows. Context free.
class SlidingWindow : public ContextFreeWindow {
 public:
  SlidingWindow(Time length, Time slide, Measure measure = Measure::kEventTime)
      : length_(length), slide_(slide), measure_(measure) {}

  Time length() const { return length_; }
  Time slide() const { return slide_; }
  Measure measure() const override { return measure_; }

  Time GetNextEdge(Time t) const override {
    const Time next_start = NextMultiple(t, slide_);
    // Ends lie at k*ls + l: shift into the start lattice and back.
    const Time next_end = t >= length_
                              ? NextMultiple(t - length_, slide_) + length_
                              : length_;
    return std::min(next_start, next_end);
  }

  Time LastEdgeAtOrBefore(Time t) const override {
    const Time last_start = (t / slide_) * slide_;
    const Time last_end =
        t >= length_ ? ((t - length_) / slide_) * slide_ + length_ : kNoTime;
    return std::max(last_start, last_end);
  }

  void TriggerWindows(WindowCallback& cb, Time prev_wm,
                      Time curr_wm) override {
    // Window ends are start + l for starts k*ls; first end > prev_wm.
    Time end = prev_wm >= length_
                   ? NextMultiple(prev_wm - length_, slide_) + length_
                   : length_;
    for (; end <= curr_wm; end += slide_) cb.OnWindow(end - length_, end);
  }

  Time EvictionSafePoint(Time wm) const override { return wm - length_; }

  std::string Name() const override {
    return "sliding(" + std::to_string(length_) + "," +
           std::to_string(slide_) + ")";
  }

 private:
  static Time NextMultiple(Time t, Time step) { return (t / step + 1) * step; }

  Time length_;
  Time slide_;
  Measure measure_;
};

}  // namespace scotty

#endif  // SCOTTY_WINDOWS_SLIDING_H_
