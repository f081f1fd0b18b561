#include "core/workload.h"

namespace scotty {

WorkloadCharacteristics Characterize(
    const std::vector<WindowPtr>& windows,
    const std::vector<AggregateFunctionPtr>& aggs, bool stream_in_order) {
  WorkloadCharacteristics w;
  w.stream_in_order = stream_in_order;
  for (const AggregateFunctionPtr& fn : aggs) {
    if (!fn) continue;
    if (!fn->IsCommutative()) w.all_commutative = false;
    if (!fn->IsInvertible()) w.all_invertible = false;
    if (fn->Class() == AggClass::kHolistic) w.any_holistic = true;
  }
  for (const WindowPtr& win : windows) {
    if (!win) continue;
    if (win->measure() == Measure::kCount) w.any_count_measure = true;
    const ContextClass cc = win->context_class();
    if (cc != ContextClass::kContextFree) {
      if (win->IsSession()) {
        w.any_session_window = true;
      } else {
        w.any_context_aware_non_session = true;
        if (cc == ContextClass::kForwardContextAware) w.any_fca_window = true;
        if (cc == ContextClass::kForwardContextFree) w.any_fcf_window = true;
      }
    }
  }
  return w;
}

StorageDecision DecideStorage(const WorkloadCharacteristics& w) {
  if (w.stream_in_order) {
    if (w.any_fca_window) {
      return {true,
              "in-order stream with forward-context-aware window: forward "
              "context adds window edges, so partial aggregates for "
              "arbitrary ranges must be recomputable from tuples"};
    }
    return {false, "in-order stream with CF/FCF/session windows only"};
  }
  if (!w.all_commutative) {
    return {true,
            "out-of-order stream with non-commutative aggregation: "
            "out-of-order tuples force recomputation in aggregation order"};
  }
  if (w.any_context_aware_non_session) {
    return {true,
            "out-of-order stream with context-aware (non-session) window: "
            "out-of-order tuples change backward context, requiring slice "
            "splits and recomputation"};
  }
  if (w.any_count_measure) {
    return {true,
            "out-of-order stream with count-based measure: an out-of-order "
            "tuple shifts the count of all succeeding tuples"};
  }
  return {false,
          "out-of-order stream, but commutative aggregations over "
          "context-free/session windows on non-count measures"};
}

bool SplitsPossible(const WorkloadCharacteristics& w) {
  if (w.stream_in_order) return w.any_fca_window;
  return w.any_context_aware_non_session;
}

bool KeysShareSlices(const WorkloadCharacteristics& w) {
  return !w.stream_in_order && !w.any_count_measure &&
         !w.any_session_window && !w.any_context_aware_non_session &&
         !w.any_holistic && !DecideStorage(w).store_tuples;
}

RemovalStrategy DecideRemoval(const WorkloadCharacteristics& w) {
  if (w.stream_in_order || !w.any_count_measure) {
    return RemovalStrategy::kNotNeeded;
  }
  return w.all_invertible ? RemovalStrategy::kIncrementalInvert
                          : RemovalStrategy::kRecompute;
}

}  // namespace scotty
