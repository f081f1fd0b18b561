#ifndef SCOTTY_WINDOWS_FRAMES_H_
#define SCOTTY_WINDOWS_FRAMES_H_

#include <algorithm>
#include <string>
#include <vector>

#include "windows/window.h"

namespace scotty {

/// Threshold frames — a data-driven window type (the paper's preliminaries
/// cite Grossniklaus et al., "Frames: data-driven windows" [17]). A frame
/// covers a maximal run of tuples whose value is at or above a threshold;
/// it opens at the first qualifying tuple after a non-qualifying one and
/// closes at the next non-qualifying tuple: window = [first_qual, break).
///
/// Like punctuation windows, frames are forward context free: once all
/// tuples up to t are processed, all edges up to t are known. Edges are
/// *data-driven* rather than marker-driven, so every tuple can move them:
/// an out-of-order non-qualifying tuple lands inside a known frame and
/// splits it in two (slice split + recomputation from stored tuples); an
/// out-of-order qualifying tuple can open a frame retroactively or extend
/// the next frame backward.
///
/// Demonstrates the extension point of paper Section 5.4.2: a new window
/// type with non-trivial context, added without touching the slicing core.
class ThresholdFrameWindow : public ContextAwareWindow {
 public:
  explicit ThresholdFrameWindow(double threshold, Measure m = Measure::kEventTime)
      : threshold_(threshold), measure_(m) {}

  double threshold() const { return threshold_; }
  Measure measure() const override { return measure_; }
  ContextClass context_class() const override {
    return ContextClass::kForwardContextFree;
  }

  ContextModifications ProcessContext(const Tuple& t) override {
    ContextModifications mods;
    if (t.is_punctuation) return mods;
    const bool in_order = max_ts_ == kNoTime || t.ts >= max_ts_;
    max_ts_ = std::max(max_ts_ == kNoTime ? t.ts : max_ts_, t.ts);
    const bool qual = t.value >= threshold_;

    if (qual) {
      const bool duplicate = Contains(quals_, t.ts);
      if (!duplicate) InsertSorted(&quals_, t.ts);
      if (in_order) {
        // Opens a new frame only if a break (or nothing) precedes it.
        const Time prev_qual = LastBelow(quals_, t.ts);
        const Time prev_break = LastBelow(breaks_, t.ts);
        if (prev_qual == kNoTime || prev_break > prev_qual) {
          mods.split_edges.push_back(t.ts);  // frame start edge (cheap cut)
        }
        return mods;
      }
      // Out of order: the tuple may open a frame retroactively or extend
      // the following frame backward; re-deriving the touched frame and
      // reporting it as changed keeps all cases correct.
      const auto [fs, fe] = FrameAround(t.ts);
      mods.split_edges.push_back(fs);
      if (fe != kMaxTime) mods.changed_windows.push_back({fs, fe});
      return mods;
    }

    // Non-qualifying tuple: a break.
    const bool duplicate = Contains(breaks_, t.ts);
    if (!duplicate) InsertSorted(&breaks_, t.ts);
    if (in_order) {
      // Closes the open frame (if any): all tuples so far are < t.ts, so
      // the cut is metadata-only.
      const Time prev_qual = LastBelow(quals_, t.ts);
      const Time prev_break = LastBelow(breaks_, t.ts);
      if (prev_qual != kNoTime && prev_qual > prev_break) {
        mods.split_edges.push_back(t.ts);  // frame end edge
        // Under per-tuple watermarking a same-ts marker may have advanced
        // the watermark to t.ts before this break arrived; the trigger
        // pass for (.., t.ts] has then already run and would never
        // enumerate the frame this break just closed. Reporting the frame
        // as changed emits it retroactively in exactly that case — the
        // window manager skips changed windows the watermark has not
        // reached, so the normal trigger path stays the sole emitter
        // otherwise.
        mods.changed_windows.push_back({FrameStartOf(prev_qual), t.ts});
      }
      return mods;
    }
    // Out of order: if the break lands strictly inside a known frame, that
    // frame splits in two.
    const Time prev_qual = LastBelow(quals_, t.ts);
    const Time next_qual = FirstAbove(quals_, t.ts);
    const Time prev_break = LastBelow(breaks_, t.ts);
    const Time next_break = FirstAbove(breaks_, t.ts);
    const bool inside_frame = prev_qual != kNoTime && prev_qual > prev_break &&
                              next_qual != kMaxTime &&
                              (next_break == kMaxTime || next_qual < next_break);
    if (inside_frame) {
      mods.split_edges.push_back(t.ts);
      const Time fs = FrameStartOf(prev_qual);
      const auto [rs, re] = FrameAround(next_qual);
      mods.changed_windows.push_back({fs, t.ts});
      if (re != kMaxTime) mods.changed_windows.push_back({rs, re});
    }
    return mods;
  }

  Time GetNextEdge(Time) const override {
    // Frame edges are created by the tuples themselves (split_edges); the
    // slicer has no forward knowledge.
    return kMaxTime;
  }

  Time LastEdgeAtOrBefore(Time t) const override {
    // Edges: frame starts (qualifying tuple after a break) and breaks that
    // end a frame. Conservative: the latest qual-or-break <= t.
    const Time q = LastAtOrBelow(quals_, t);
    const Time b = LastAtOrBelow(breaks_, t);
    if (q == kNoTime && b == kNoTime) return kNoTime;
    return std::max(q, b);
  }

  void TriggerWindows(WindowCallback& cb, Time prev_wm,
                      Time curr_wm) override {
    // Enumerate closed frames with end (the break) in (prev_wm, curr_wm].
    size_t qi = 0;
    while (qi < quals_.size()) {
      const Time start = quals_[qi];
      // Frame start only if preceded by a break (or nothing).
      const Time prev_break = LastBelow(breaks_, start);
      const Time prev_qual = qi == 0 ? kNoTime : quals_[qi - 1];
      if (prev_qual != kNoTime && prev_qual > prev_break) {
        ++qi;  // interior qualifying tuple
        continue;
      }
      const Time end = FirstAbove(breaks_, start);
      if (end == kMaxTime || end > curr_wm) {
        ++qi;
        continue;  // frame still open or beyond the watermark
      }
      if (end > prev_wm) cb.OnWindow(start, end);
      ++qi;
    }
  }

  Time EvictionSafePoint(Time wm) const override {
    // An open frame's slices must be retained from its start.
    if (!quals_.empty()) {
      const Time last_qual = quals_.back();
      if (FirstAbove(breaks_, last_qual) == kMaxTime) {
        return std::min(FrameStartOf(last_qual), wm);
      }
    }
    return wm;
  }

  void EvictState(Time t) override {
    // Keep one break before t as the context anchor.
    auto qcut = std::lower_bound(quals_.begin(), quals_.end(), t);
    quals_.erase(quals_.begin(), qcut);
    auto bcut = std::lower_bound(breaks_.begin(), breaks_.end(), t);
    if (bcut != breaks_.begin()) --bcut;
    breaks_.erase(breaks_.begin(), bcut);
  }

  std::string Name() const override {
    return "frames(v>=" + std::to_string(threshold_) + ")";
  }

  void SerializeState(state::Writer& w) const override {
    w.I64(max_ts_);
    w.U64(quals_.size());
    for (Time t : quals_) w.I64(t);
    w.U64(breaks_.size());
    for (Time t : breaks_) w.I64(t);
  }

  void DeserializeState(state::Reader& r) override {
    max_ts_ = r.I64();
    for (std::vector<Time>* v : {&quals_, &breaks_}) {
      const uint64_t n = r.U64();
      if (n > r.remaining()) {
        r.Fail();
        return;
      }
      v->clear();
      v->reserve(static_cast<size_t>(n));
      for (uint64_t i = 0; i < n && r.ok(); ++i) v->push_back(r.I64());
    }
  }

 private:
  static void InsertSorted(std::vector<Time>* v, Time t) {
    v->insert(std::upper_bound(v->begin(), v->end(), t), t);
  }

  static bool Contains(const std::vector<Time>& v, Time t) {
    return std::binary_search(v.begin(), v.end(), t);
  }

  /// Largest element < t, or kNoTime.
  static Time LastBelow(const std::vector<Time>& v, Time t) {
    auto it = std::lower_bound(v.begin(), v.end(), t);
    return it == v.begin() ? kNoTime : *(it - 1);
  }

  /// Largest element <= t, or kNoTime.
  static Time LastAtOrBelow(const std::vector<Time>& v, Time t) {
    auto it = std::upper_bound(v.begin(), v.end(), t);
    return it == v.begin() ? kNoTime : *(it - 1);
  }

  /// Smallest element > t, or kMaxTime.
  static Time FirstAbove(const std::vector<Time>& v, Time t) {
    auto it = std::upper_bound(v.begin(), v.end(), t);
    return it == v.end() ? kMaxTime : *it;
  }

  /// Start of the frame containing the qualifying timestamp q.
  Time FrameStartOf(Time q) const {
    const Time prev_break = LastBelow(breaks_, q + 1);
    // First qualifying tuple after that break.
    auto it = std::upper_bound(quals_.begin(), quals_.end(),
                               prev_break == kNoTime ? kNoTime : prev_break);
    return it == quals_.end() ? q : std::min(*it, q);
  }

  /// [start, end) of the frame containing or adjacent to ts (end kMaxTime
  /// if the frame is still open).
  std::pair<Time, Time> FrameAround(Time ts) const {
    const Time start = FrameStartOf(ts);
    const Time end = FirstAbove(breaks_, ts);
    return {start, end};
  }

  double threshold_;
  Measure measure_;
  Time max_ts_ = kNoTime;
  std::vector<Time> quals_;   // timestamps of qualifying tuples
  std::vector<Time> breaks_;  // timestamps of non-qualifying tuples
};

}  // namespace scotty

#endif  // SCOTTY_WINDOWS_FRAMES_H_
