#ifndef SCOTTY_WINDOWS_PUNCTUATION_H_
#define SCOTTY_WINDOWS_PUNCTUATION_H_

#include <algorithm>
#include <string>
#include <vector>

#include "windows/window.h"

namespace scotty {

/// Punctuation-based window (forward context free, paper Section 4.4):
/// punctuation tuples embedded in the stream mark window edges; a window
/// spans [e_i, e_{i+1}) between consecutive punctuations. Once all tuples up
/// to timestamp t are processed, all edges up to t are known.
///
/// On in-order streams punctuations only ever cut the open slice (cheap). An
/// out-of-order punctuation introduces a *backward* edge: the slice spanning
/// it must be split and both halves recomputed from stored tuples — which is
/// why the decision tree (Fig. 4) stores tuples for FCF windows on
/// out-of-order streams.
class PunctuationWindow : public ContextAwareWindow {
 public:
  explicit PunctuationWindow(Measure measure = Measure::kEventTime)
      : measure_(measure) {}

  Measure measure() const override { return measure_; }
  ContextClass context_class() const override {
    return ContextClass::kForwardContextFree;
  }

  ContextModifications ProcessContext(const Tuple& t) override {
    ContextModifications mods;
    // Strictly greater: a punctuation at exactly max_ts_ is retroactive too.
    // A same-timestamp data tuple that arrived first may already have driven
    // a trigger at t.ts (in-order mode treats every tuple as a watermark),
    // so the window this edge closes must go through the changed-windows
    // path — its end is at or before the passed watermark and the regular
    // trigger scan will never revisit it.
    const bool advanced = max_ts_ == kNoTime || t.ts > max_ts_;
    max_ts_ = std::max(max_ts_, t.ts);
    if (!t.is_punctuation) return mods;

    auto it = std::lower_bound(edges_.begin(), edges_.end(), t.ts);
    if (it != edges_.end() && *it == t.ts) return mods;  // duplicate marker
    const bool has_prev = it != edges_.begin();
    const bool has_next = it != edges_.end();
    const Time prev_edge = has_prev ? *(it - 1) : kNoTime;
    const Time next_edge = has_next ? *it : kMaxTime;
    edges_.insert(it, t.ts);

    mods.split_edges.push_back(t.ts);
    if (!advanced) {
      // A retroactive edge: the newly revealed window ending here, and (when
      // the edge lands inside an already-known window) the right half, may
      // both need (re-)emission.
      if (has_prev) mods.changed_windows.push_back({prev_edge, t.ts});
      if (has_next) mods.changed_windows.push_back({t.ts, next_edge});
    }
    return mods;
  }

  Time GetNextEdge(Time t) const override {
    auto it = std::upper_bound(edges_.begin(), edges_.end(), t);
    return it != edges_.end() ? *it : kMaxTime;
  }

  Time LastEdgeAtOrBefore(Time t) const override {
    auto it = std::upper_bound(edges_.begin(), edges_.end(), t);
    return it != edges_.begin() ? *(it - 1) : kNoTime;
  }

  void TriggerWindows(WindowCallback& cb, Time prev_wm,
                      Time curr_wm) override {
    // Windows between consecutive punctuations whose end is in
    // (prev_wm, curr_wm].
    for (size_t i = 1; i < edges_.size(); ++i) {
      if (edges_[i] <= prev_wm) continue;
      if (edges_[i] > curr_wm) break;
      cb.OnWindow(edges_[i - 1], edges_[i]);
    }
  }

  Time EvictionSafePoint(Time wm) const override {
    // The window opened by the newest edge at or before wm is still
    // pending; its slices must be retained.
    const Time e = LastEdgeAtOrBefore(wm);
    return e == kNoTime ? kNoTime : std::min(e, wm);
  }

  void EvictState(Time t) override {
    // Keep the newest edge at or before t: it still opens a live window.
    auto it = std::upper_bound(edges_.begin(), edges_.end(), t);
    if (it == edges_.begin()) return;
    edges_.erase(edges_.begin(), it - 1);
  }

  size_t EdgeCount() const { return edges_.size(); }

  std::string Name() const override { return "punctuation"; }

  void SerializeState(state::Writer& w) const override {
    w.I64(max_ts_);
    w.U64(edges_.size());
    for (Time e : edges_) w.I64(e);
  }

  void DeserializeState(state::Reader& r) override {
    max_ts_ = r.I64();
    const uint64_t n = r.U64();
    if (n > r.remaining()) {
      r.Fail();
      return;
    }
    edges_.clear();
    edges_.reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n && r.ok(); ++i) edges_.push_back(r.I64());
  }

 private:
  Measure measure_;
  Time max_ts_ = kNoTime;
  std::vector<Time> edges_;  // sorted punctuation timestamps
};

}  // namespace scotty

#endif  // SCOTTY_WINDOWS_PUNCTUATION_H_
