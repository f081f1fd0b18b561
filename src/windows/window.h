#ifndef SCOTTY_WINDOWS_WINDOW_H_
#define SCOTTY_WINDOWS_WINDOW_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/time.h"
#include "common/tuple.h"
#include "state/serde.h"

namespace scotty {

/// Window-type classification by the context required to determine window
/// edges (paper Section 4.4, following Li et al. [31]).
enum class ContextClass {
  kContextFree,          // all edges computable a priori (tumbling, sliding)
  kForwardContextFree,   // edges up to t known once all tuples <= t processed
                         // (punctuation windows)
  kForwardContextAware,  // edges before t may depend on tuples after t
                         // (sessions, multi-measure windows)
};

inline const char* ContextClassName(ContextClass c) {
  switch (c) {
    case ContextClass::kContextFree:
      return "CF";
    case ContextClass::kForwardContextFree:
      return "FCF";
    case ContextClass::kForwardContextAware:
      return "FCA";
  }
  return "?";
}

/// Callback used by Window::TriggerWindows to report ended windows
/// (the paper's `c.triggerWin(long startTime, long endTime)`).
class WindowCallback {
 public:
  virtual ~WindowCallback() = default;
  /// A window [start, end) has ended and its aggregate should be produced.
  virtual void OnWindow(Time start, Time end) = 0;
};

/// Collects the windows one TriggerWindows call reports, in report order.
class WindowCollector : public WindowCallback {
 public:
  void OnWindow(Time start, Time end) override {
    windows.push_back({start, end});
  }
  std::vector<std::pair<Time, Time>> windows;
};

/// Read-only view of the operator's stream state, handed to context-aware
/// windows so their window-edge derivation can inspect stored tuples
/// ("We initialize context aware windows with a pointer to the Aggregate
/// Store", paper Section 5.4.2).
class StreamStateView {
 public:
  virtual ~StreamStateView() = default;

  /// Timestamp of the n-th most recent tuple with ts < t (1-based: n == 1 is
  /// the latest such tuple). Returns kNoTime if fewer than n tuples exist.
  virtual Time NthRecentTupleTime(Time t, int64_t n) const = 0;
};

/// Base interface of all window types (paper Section 5.4.2). A window maps a
/// continuous stream to a set of [start, end) ranges on its measure. The
/// slicing core only interacts with windows through this interface, so new
/// window types require no changes to the slicing logic. A window answers
/// two edge questions — the next edge after an instant and the last edge at
/// or before it — and every slice store cuts on the union of those edges
/// (QuerySet::TimeGridCell), whatever the stream order.
class Window {
 public:
  virtual ~Window() = default;

  virtual Measure measure() const { return Measure::kEventTime; }
  virtual ContextClass context_class() const = 0;
  virtual std::string Name() const = 0;

  /// Sessions are context aware but never require splitting/recomputing
  /// slices (paper Section 5.1, condition 2); the workload characterization
  /// treats them specially.
  virtual bool IsSession() const { return false; }

  /// The next window edge (start or end timestamp) strictly after `t`,
  /// given the in-order context observed so far. This drives on-the-fly
  /// stream slicing (paper Section 5.3, Step 1). Returns kMaxTime if no
  /// upcoming edge is known.
  virtual Time GetNextEdge(Time t) const = 0;

  /// The latest window edge at or before `t` (kNoTime if none). Used to open
  /// a new slice at the correct boundary after an event-time jump.
  virtual Time LastEdgeAtOrBefore(Time t) const = 0;

  /// Reports all windows whose end lies in (prev_wm, curr_wm], ordered by
  /// end timestamp (paper: `triggerWin(Callback, prevWM, currWM)`).
  virtual void TriggerWindows(WindowCallback& cb, Time prev_wm,
                              Time curr_wm) = 0;

  /// The earliest timestamp whose slices a pending or future window of this
  /// type may still read, given watermark `wm`. Slices entirely before this
  /// point minus the allowed lateness can be evicted. kNoTime means "keep
  /// everything" (no safe bound known).
  virtual Time EvictionSafePoint(Time wm) const { return wm; }

  /// Drops window-internal state (sessions, punctuation edges) that lies
  /// entirely before `t` (outside the allowed lateness).
  virtual void EvictState(Time t) { (void)t; }

  /// Snapshot support: serializes window-internal context (open sessions,
  /// punctuation edges, threshold frames). Context-free windows are
  /// stateless — their edges are pure functions of the definition — so the
  /// default writes/reads nothing.
  virtual void SerializeState(state::Writer& w) const { (void)w; }
  virtual void DeserializeState(state::Reader& r) { (void)r; }
};

using WindowPtr = std::shared_ptr<Window>;

/// Convenience base for context-free windows.
class ContextFreeWindow : public Window {
 public:
  ContextClass context_class() const override {
    return ContextClass::kContextFree;
  }
};

/// Modifications a context-aware window requests on the slice structure
/// after observing a tuple (in-order or out-of-order). The slice manager
/// translates them into its three fundamental operations
/// (merge / split / update, paper Section 5.2).
struct ContextModifications {
  /// Moves the bounds of the slice range currently holding a window/session.
  struct Resize {
    /// Any timestamp inside the old extent, used to locate the slices.
    Time locate;
    Time new_start;
    Time new_end;
  };

  /// Ensure a slice boundary exists at each timestamp. If tuples lie on both
  /// sides inside one slice this is a *split* — the expensive operation that
  /// recomputes both halves from stored tuples (paper Section 5.2).
  std::vector<Time> split_edges;
  /// All boundaries strictly inside (first, second) became obsolete; the
  /// slice manager merges the spanned slices (unless another window still
  /// requires a boundary).
  std::vector<std::pair<Time, Time>> merged_ranges;
  /// Slice-extent metadata updates (session extensions).
  std::vector<Resize> resizes;
  /// Window instances whose content changed after they may already have been
  /// emitted; the window manager re-emits them if they ended before the
  /// current watermark (allowed-lateness updates).
  std::vector<std::pair<Time, Time>> changed_windows;

  bool Empty() const {
    return split_edges.empty() && merged_ranges.empty() && resizes.empty() &&
           changed_windows.empty();
  }
};

/// Base interface of context-aware windows: the slice manager notifies them
/// of every tuple (paper: `window.notifyContext(callbackObj, tuple)`), and
/// they answer with the slice-structure changes the new context implies.
class ContextAwareWindow : public Window {
 public:
  /// Called once per tuple, before the tuple is added to its slice.
  virtual ContextModifications ProcessContext(const Tuple& t) = 0;

  /// Gives the window access to operator state (stored tuples) for
  /// trigger-time edge derivation. Called once when the window is added.
  virtual void Bind(const StreamStateView* view) { view_ = view; }

 protected:
  const StreamStateView* view_ = nullptr;
};

}  // namespace scotty

#endif  // SCOTTY_WINDOWS_WINDOW_H_
