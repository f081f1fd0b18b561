#ifndef SCOTTY_CORE_WORKLOAD_H_
#define SCOTTY_CORE_WORKLOAD_H_

#include <string>
#include <vector>

#include "aggregates/aggregate_function.h"
#include "windows/window.h"

namespace scotty {

/// The observable workload characteristics of an operator's current query
/// set (paper Section 4): stream order, aggregate-function properties,
/// window measures, and window types.
struct WorkloadCharacteristics {
  bool stream_in_order = true;          // declared property of the stream
  bool all_commutative = true;          // characteristic 2
  bool all_invertible = true;           // characteristic 2
  bool any_holistic = false;            // characteristic 2
  bool any_count_measure = false;       // characteristic 3
  bool any_fca_window = false;          // characteristic 4 (non-session FCA)
  bool any_fcf_window = false;          // characteristic 4
  bool any_session_window = false;      // characteristic 4
  bool any_context_aware_non_session = false;
};

/// Outcome of the decision tree in paper Figure 4: whether the workload
/// requires individual tuples to be kept in memory, and why.
struct StorageDecision {
  bool store_tuples = false;
  std::string reason;
};

/// Extracts the characteristics of a query set. `windows` may contain null
/// entries (removed queries).
WorkloadCharacteristics Characterize(
    const std::vector<WindowPtr>& windows,
    const std::vector<AggregateFunctionPtr>& aggs, bool stream_in_order);

/// Paper Figure 4 — which workload characteristics require storing
/// individual tuples in memory?
///
/// In-order streams: tuples are needed only for forward-context-aware
/// windows. Out-of-order streams: tuples are needed if (1) any aggregation
/// is non-commutative, (2) any window is neither context free nor a session
/// window, or (3) any query uses a count-based measure.
StorageDecision DecideStorage(const WorkloadCharacteristics& w);

/// Paper Figure 5 — are split operations possible for this workload?
/// In-order streams: only FCA windows split. Out-of-order streams: all
/// context-aware windows except sessions may split.
bool SplitsPossible(const WorkloadCharacteristics& w);

/// Keyed slicing (paper Section 5.3, with NebulaStream's keyed slices):
/// can every key of a keyed query share one slice stream whose slices hold
/// per-key partials? Only when window edges depend on no key's tuples and
/// a slice's per-key state is a fixed-size partial: an out-of-order stream
/// (in-order streams trigger per tuple, hence per key) whose windows are
/// all context free on a time measure (no sessions, punctuation, frames,
/// last-N or count windows), no aggregation whose partial grows with its
/// tuples (holistic), and no tuple storage (Figure 4).
bool KeysShareSlices(const WorkloadCharacteristics& w);

/// Paper Figure 6 — how tuples are removed from slices for count-based
/// measures with out-of-order tuples.
enum class RemovalStrategy {
  kNotNeeded,        // no count measure or in-order stream
  kIncrementalInvert,  // all aggregations invertible: subtract and add
  kRecompute,          // otherwise: recompute the slice aggregate
};

RemovalStrategy DecideRemoval(const WorkloadCharacteristics& w);

}  // namespace scotty

#endif  // SCOTTY_CORE_WORKLOAD_H_
