#ifndef SCOTTY_BASELINES_PAIRS_H_
#define SCOTTY_BASELINES_PAIRS_H_

#include <cassert>
#include <string>
#include <utility>

#include "core/general_slicing_operator.h"

namespace scotty {

/// Pairs baseline [28] (Krishnamurthy et al., "On-the-fly sharing for
/// streamed aggregation"): stream slicing specialized to tumbling and
/// sliding windows on in-order streams. Every window contributes both its
/// start and end edges to the slicing lattice (each slide period is cut into
/// the eponymous *pair* of slices of lengths l mod ls and ls - l mod ls).
/// No out-of-order support, no context-aware windows.
///
/// Note on slice counts: Pairs and Cutty cut the one grid every slicing
/// store cuts (QuerySet::TimeGridCell), so they create identical slices and
/// differ only in the windows they admit.
class PairsOperator : public GeneralSlicingOperator {
 public:
  explicit PairsOperator(StoreMode mode = StoreMode::kLazy)
      : GeneralSlicingOperator(Options{.stream_in_order = true,
                                       .allowed_lateness = 0,
                                       .store_mode = mode,
                                       .force_store_tuples = false}) {}

  /// Only context-free tumbling/sliding windows are valid for Pairs.
  int AddWindow(WindowPtr w) {
    assert(w->context_class() == ContextClass::kContextFree &&
           "pairs supports context-free windows only");
    return GeneralSlicingOperator::AddWindow(std::move(w));
  }

  std::string Name() const override { return "pairs"; }
};

/// Cutty baseline [10] (Carbone et al.): stream slicing for user-defined
/// context-free windows on in-order streams. This is exactly general
/// slicing restricted to its in-order, context-free fast path, cutting at
/// every window edge — which is the paper's point: the general technique
/// inherits the performance of the specialized ones.
class CuttyOperator : public GeneralSlicingOperator {
 public:
  explicit CuttyOperator(StoreMode mode = StoreMode::kLazy)
      : GeneralSlicingOperator(Options{.stream_in_order = true,
                                       .allowed_lateness = 0,
                                       .store_mode = mode,
                                       .force_store_tuples = false}) {}

  int AddWindow(WindowPtr w) {
    assert(w->context_class() == ContextClass::kContextFree &&
           "cutty supports (user-defined) context-free windows only");
    return GeneralSlicingOperator::AddWindow(std::move(w));
  }

  std::string Name() const override { return "cutty"; }
};

}  // namespace scotty

#endif  // SCOTTY_BASELINES_PAIRS_H_
