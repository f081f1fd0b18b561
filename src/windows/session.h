#ifndef SCOTTY_WINDOWS_SESSION_H_
#define SCOTTY_WINDOWS_SESSION_H_

#include <algorithm>
#include <string>
#include <vector>

#include "windows/window.h"

namespace scotty {

/// Session window with inactivity gap `gap`: a session covers a period of
/// activity and times out when no tuple arrives for `gap` time units. The
/// session containing tuples with timestamps {t_first..t_last} is the window
/// [t_first, t_last + gap).
///
/// Sessions are context aware, but they are the paper's special case
/// (Section 5.1 condition 2): out-of-order tuples can only *extend* sessions,
/// *merge* sessions, or *create* sessions — never split them — so session
/// processing never recomputes slice aggregates and never forces tuple
/// storage by itself.
class SessionWindow : public ContextAwareWindow {
 public:
  explicit SessionWindow(Time gap, Measure measure = Measure::kEventTime)
      : gap_(gap), measure_(measure) {}

  Time gap() const { return gap_; }
  Measure measure() const override { return measure_; }
  ContextClass context_class() const override {
    return ContextClass::kForwardContextAware;
  }
  bool IsSession() const override { return true; }

  ContextModifications ProcessContext(const Tuple& t) override {
    ContextModifications mods;
    const bool in_order = t.ts >= max_ts_;
    max_ts_ = std::max(max_ts_, t.ts);

    // Sessions the tuple's proto-window [t.ts, t.ts + gap) touches. The
    // invariant that consecutive sessions are >= gap apart means at most the
    // two neighbours of t.ts can be involved.
    const size_t next = FirstSessionStartingAfter(t.ts);
    const bool joins_prev =
        next > 0 && t.ts < sessions_[next - 1].last + gap_;
    const bool joins_next = next < sessions_.size() &&
                            t.ts + gap_ > sessions_[next].start;

    if (!joins_prev && !joins_next) {
      // A brand-new session. The slice manager creates a covering slice when
      // it stores the tuple; no structural change is needed here.
      sessions_.insert(sessions_.begin() + static_cast<ptrdiff_t>(next),
                       Session{t.ts, t.ts});
      if (!in_order) {
        mods.changed_windows.push_back({t.ts, t.ts + gap_});
      }
      return mods;
    }

    if (joins_prev && joins_next) {
      // The tuple bridges two sessions: merge them (paper: merge slices,
      // combine aggregates, no recomputation).
      Session& a = sessions_[next - 1];
      const Session b = sessions_[next];
      const Time new_start = std::min(a.start, t.ts);
      const Time new_last = b.last;  // t.ts < b.start <= b.last
      mods.merged_ranges.push_back({new_start, new_last + gap_});
      mods.resizes.push_back({a.start, new_start, new_last + gap_});
      mods.changed_windows.push_back({new_start, new_last + gap_});
      a.start = new_start;
      a.last = new_last;
      sessions_.erase(sessions_.begin() + static_cast<ptrdiff_t>(next));
      return mods;
    }

    Session& s = joins_prev ? sessions_[next - 1] : sessions_[next];
    if (t.ts >= s.start && t.ts <= s.last) {
      // Inside the session's span: only the aggregate changes.
      if (!in_order) mods.changed_windows.push_back({s.start, s.last + gap_});
      return mods;
    }
    const Time old_start = s.start;
    s.start = std::min(s.start, t.ts);
    s.last = std::max(s.last, t.ts);
    if (in_order) return mods;  // the stream slicer maintains the open slice
    // Out-of-order extension (backward start move or forward end move):
    // a slice-metadata update, never a recomputation.
    mods.resizes.push_back({old_start, s.start, s.last + gap_});
    mods.changed_windows.push_back({s.start, s.last + gap_});
    return mods;
  }

  Time GetNextEdge(Time t) const override {
    const size_t next = FirstSessionStartingAfter(t);
    if (next > 0 && t < sessions_[next - 1].last + gap_) {
      return sessions_[next - 1].last + gap_;  // current session's timeout
    }
    if (next < sessions_.size()) return sessions_[next].start;
    return kMaxTime;
  }

  Time LastEdgeAtOrBefore(Time t) const override {
    const size_t next = FirstSessionStartingAfter(t);
    if (next == 0) return t;  // a tuple here would start a new session at t
    const Session& s = sessions_[next - 1];
    if (t < s.last + gap_) return s.start;  // inside the session
    if (t == s.last + gap_) return t;       // exactly on the session end
    return t;  // past the session: a new session would start at t
  }

  void TriggerWindows(WindowCallback& cb, Time prev_wm,
                      Time curr_wm) override {
    for (const Session& s : sessions_) {
      const Time end = s.last + gap_;
      if (end > prev_wm && end <= curr_wm) cb.OnWindow(s.start, end);
      if (s.start > curr_wm) break;
    }
  }

  Time EvictionSafePoint(Time wm) const override {
    // Slices of sessions that have not timed out yet must be retained
    // however old their start is.
    for (const Session& s : sessions_) {
      if (s.last + gap_ > wm) return std::min(s.start, wm);
    }
    return wm;
  }

  void EvictState(Time t) override {
    size_t keep = 0;
    while (keep < sessions_.size() && sessions_[keep].last + gap_ <= t) ++keep;
    sessions_.erase(sessions_.begin(),
                    sessions_.begin() + static_cast<ptrdiff_t>(keep));
  }

  size_t ActiveSessionCount() const { return sessions_.size(); }

  std::string Name() const override {
    return "session(" + std::to_string(gap_) + ")";
  }

  void SerializeState(state::Writer& w) const override {
    w.I64(max_ts_);
    w.U64(sessions_.size());
    for (const Session& s : sessions_) {
      w.I64(s.start);
      w.I64(s.last);
    }
  }

  void DeserializeState(state::Reader& r) override {
    max_ts_ = r.I64();
    const uint64_t n = r.U64();
    if (n > r.remaining()) {
      r.Fail();
      return;
    }
    sessions_.clear();
    sessions_.reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n && r.ok(); ++i) {
      Session s;
      s.start = r.I64();
      s.last = r.I64();
      sessions_.push_back(s);
    }
  }

 private:
  struct Session {
    Time start;  // timestamp of the earliest tuple
    Time last;   // timestamp of the latest tuple; window end is last + gap
  };

  /// Index of the first session with start > t.
  size_t FirstSessionStartingAfter(Time t) const {
    auto it = std::upper_bound(
        sessions_.begin(), sessions_.end(), t,
        [](Time x, const Session& s) { return x < s.start; });
    return static_cast<size_t>(it - sessions_.begin());
  }

  Time gap_;
  Measure measure_;
  Time max_ts_ = kNoTime;
  std::vector<Session> sessions_;  // sorted by start, >= gap apart
};

}  // namespace scotty

#endif  // SCOTTY_WINDOWS_SESSION_H_
