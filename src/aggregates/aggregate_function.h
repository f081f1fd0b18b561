#ifndef SCOTTY_AGGREGATES_AGGREGATE_FUNCTION_H_
#define SCOTTY_AGGREGATES_AGGREGATE_FUNCTION_H_

#include <memory>
#include <string>

#include "aggregates/partial.h"
#include "common/tuple.h"
#include "common/tuple_batch.h"
#include "common/value.h"

namespace scotty {

/// Classification of aggregations by partial-aggregate size (paper §4.2,
/// following Gray et al. [16]).
enum class AggClass {
  kDistributive,  // partial == final, constant size (sum, min, max)
  kAlgebraic,     // fixed-size intermediate (avg, stddev, M4)
  kHolistic,      // unbounded intermediate (median, percentile)
};

/// Incremental aggregation interface (paper Section 5.4.1, following
/// Tangwongsan et al. [42]).
///
/// An aggregation is specified by four functions:
///  - Lift:    tuple -> partial aggregate
///  - Combine: partial (+)= partial           (must be associative)
///  - Lower:   partial -> final aggregate
///  - Invert:  partial (-)= partial           (optional)
///
/// All implementations must treat an identity Partial (IsIdentity()) as the
/// neutral element of Combine on both sides, and Lift must never return an
/// identity Partial for a data tuple.
///
/// The slicing core inspects the algebraic-property accessors
/// (IsCommutative/IsInvertible/RegroupsExactly/Class) to adapt its strategy
/// (paper Fig. 4-6): non-commutative functions force aggregate
/// recomputation from stored tuples on out-of-order arrival; invertibility
/// makes count-measure tuple shifts incremental; exact regrouping lets the
/// keyed lane share folds across window instances; holistic functions force
/// tuple retention.
class AggregateFunction {
 public:
  virtual ~AggregateFunction() = default;

  /// Transforms one tuple into the partial aggregate of just that tuple.
  virtual Partial Lift(const Tuple& t) const = 0;

  /// into = into (+) other. `other` may be identity; `into` may be identity.
  virtual void Combine(Partial& into, const Partial& other) const = 0;

  /// Folds every tuple of the columnar view into `into`, exactly equivalent
  /// to calling Combine(into, Lift(t)) for each tuple in column order. The
  /// batch ingestion hot path issues ONE virtual dispatch per (run,
  /// aggregation) through this method. The built-in sum/count/min/max/avg
  /// overrides read the value column through the vectorized kernels in
  /// aggregates/kernels.h. This default materializes tuples one at a time,
  /// so every other aggregation (arg-max reads ts, concat reads order, ...)
  /// works unchanged.
  ///
  /// Fold-order contract: overrides MUST produce the partial the per-tuple
  /// left-to-right fold produces, bit for bit. An identity `into` seeds from
  /// the first tuple's Lift; otherwise the fold continues from `into`.
  /// Floating-point adds are never reassociated (a lane-split sum would
  /// change rounding); only exact operations (min/max selection, integer
  /// counts) may run lane-parallel. The differential fuzzer and
  /// KernelEquivalenceTest compare against the per-tuple fold with exact
  /// equality, including floating-point rounding.
  virtual void LiftCombineColumns(const TupleColumnsView& cols,
                                  Partial& into) const {
    for (size_t i = 0; i < cols.size; ++i) Combine(into, Lift(cols.Get(i)));
  }

  /// Transforms a partial aggregate into the final window aggregate.
  virtual Value Lower(const Partial& p) const = 0;

  /// from = from (-) removed. Only called when IsInvertible() is true, and
  /// only with `removed` values that were previously combined into `from`.
  virtual void Invert(Partial& from, const Partial& removed) const {
    (void)from;
    (void)removed;
  }

  /// Attempts to remove `removed` from `from` without a recomputation.
  /// Returns false if the aggregate must be recomputed from source tuples.
  ///
  /// Invertible functions always succeed (via Invert). Not-invertible
  /// functions may still succeed when the removed value provably does not
  /// affect the aggregate — the paper's observation that, e.g., the tuple
  /// shifted out of a slice is unlikely to be the slice's maximum
  /// (Section 6.3.2, "Impact of invertibility").
  virtual bool TryRemove(Partial& from, const Partial& removed) const {
    if (!IsInvertible()) return false;
    Invert(from, removed);
    return true;
  }

  /// The neutral element of Combine.
  Partial Identity() const { return Partial{}; }

  virtual bool IsCommutative() const { return true; }
  virtual bool IsInvertible() const { return false; }
  /// Whether Combine returns the same bits under any grouping of the same
  /// partials in the same order — (a (+) b) (+) c == a (+) (b (+) c) bit for
  /// bit — on the finite, non-NaN, no-mixed-±0 value domain of
  /// aggregates/kernels.h. Selections (min, max, first/last by timestamp
  /// and arrival) and integer counts do; floating-point sums round
  /// differently under another grouping. The keyed lane shares suffix and
  /// prefix folds across window instances only when every aggregation does.
  virtual bool RegroupsExactly() const { return false; }
  virtual AggClass Class() const = 0;
  virtual std::string Name() const = 0;
};

using AggregateFunctionPtr = std::shared_ptr<const AggregateFunction>;

}  // namespace scotty

#endif  // SCOTTY_AGGREGATES_AGGREGATE_FUNCTION_H_
