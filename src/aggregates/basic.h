#ifndef SCOTTY_AGGREGATES_BASIC_H_
#define SCOTTY_AGGREGATES_BASIC_H_

#include <algorithm>
#include <string>

#include "aggregates/aggregate_function.h"
#include "aggregates/kernels.h"

namespace scotty {

/// SUM. Distributive, commutative, invertible.
class SumAggregation : public AggregateFunction {
 public:
  Partial Lift(const Tuple& t) const override {
    return Partial{Partial::Storage{t.value}};
  }

  void Combine(Partial& into, const Partial& other) const override {
    if (other.IsIdentity()) return;
    if (into.IsIdentity()) {
      into = other;
      return;
    }
    into.Get<double>() += other.Get<double>();
  }

  Value Lower(const Partial& p) const override {
    if (p.IsIdentity()) return Value{};
    return Value{p.Get<double>()};
  }

  void Invert(Partial& from, const Partial& removed) const override {
    if (removed.IsIdentity()) return;
    from.Get<double>() -= removed.Get<double>();
  }

  /// Columnar kernel: serial fold over the dense value column, seeded with
  /// the existing partial (fold order — and therefore rounding — is
  /// contractually identical to per-tuple).
  void LiftCombineColumns(const TupleColumnsView& cols,
                          Partial& into) const override {
    if (cols.empty()) return;
    size_t i = 0;
    double acc;
    if (into.IsIdentity()) {
      acc = cols.value[0];
      i = 1;
    } else {
      acc = into.Get<double>();
    }
    into.Set(simd::SumColumn(cols.value + i, cols.size - i, acc));
  }

  bool IsInvertible() const override { return true; }
  AggClass Class() const override { return AggClass::kDistributive; }
  std::string Name() const override { return "sum"; }
};

/// SUM with the invert capability deliberately disabled. The paper's
/// "sum w/o invert" (Fig. 13): a stand-in for arbitrary not-invertible
/// aggregations whose removals always force a slice recomputation.
class SumNoInvertAggregation : public SumAggregation {
 public:
  bool IsInvertible() const override { return false; }
  std::string Name() const override { return "sum-no-invert"; }
};

/// COUNT. Distributive, commutative, invertible.
class CountAggregation : public AggregateFunction {
 public:
  Partial Lift(const Tuple&) const override {
    return Partial{Partial::Storage{int64_t{1}}};
  }

  void Combine(Partial& into, const Partial& other) const override {
    if (other.IsIdentity()) return;
    if (into.IsIdentity()) {
      into = other;
      return;
    }
    into.Get<int64_t>() += other.Get<int64_t>();
  }

  Value Lower(const Partial& p) const override {
    if (p.IsIdentity()) return Value{int64_t{0}};
    return Value{p.Get<int64_t>()};
  }

  void Invert(Partial& from, const Partial& removed) const override {
    if (removed.IsIdentity()) return;
    from.Get<int64_t>() -= removed.Get<int64_t>();
  }

  /// Columnar kernel: integer addition is exact, so the whole run collapses
  /// to one += regardless of fold order; no column is even read.
  void LiftCombineColumns(const TupleColumnsView& cols,
                          Partial& into) const override {
    if (cols.empty()) return;
    const int64_t n = static_cast<int64_t>(cols.size);
    if (into.IsIdentity()) {
      into.Set(n);
    } else {
      into.Get<int64_t>() += n;
    }
  }

  bool IsInvertible() const override { return true; }
  bool RegroupsExactly() const override { return true; }
  AggClass Class() const override { return AggClass::kDistributive; }
  std::string Name() const override { return "count"; }
};

/// MIN. Distributive, commutative, NOT invertible (removing the minimum
/// cannot be undone incrementally).
class MinAggregation : public AggregateFunction {
 public:
  Partial Lift(const Tuple& t) const override {
    return Partial{Partial::Storage{t.value}};
  }

  void Combine(Partial& into, const Partial& other) const override {
    if (other.IsIdentity()) return;
    if (into.IsIdentity()) {
      into = other;
      return;
    }
    into.Get<double>() = std::min(into.Get<double>(), other.Get<double>());
  }

  Value Lower(const Partial& p) const override {
    if (p.IsIdentity()) return Value{};
    return Value{p.Get<double>()};
  }

  bool TryRemove(Partial& from, const Partial& removed) const override {
    // Removing a value strictly greater than the minimum leaves it intact.
    if (from.IsIdentity() || removed.IsIdentity()) return true;
    return removed.Get<double>() > from.Get<double>();
  }

  /// Columnar kernel: lane-parallel vector min (value-identical to the
  /// serial fold; see the domain note in aggregates/kernels.h).
  void LiftCombineColumns(const TupleColumnsView& cols,
                          Partial& into) const override {
    if (cols.empty()) return;
    size_t i = 0;
    double m;
    if (into.IsIdentity()) {
      m = cols.value[0];
      i = 1;
    } else {
      m = into.Get<double>();
    }
    into.Set(simd::MinColumn(cols.value + i, cols.size - i, m));
  }

  bool RegroupsExactly() const override { return true; }
  AggClass Class() const override { return AggClass::kDistributive; }
  std::string Name() const override { return "min"; }
};

/// MAX. Distributive, commutative, NOT invertible.
class MaxAggregation : public AggregateFunction {
 public:
  Partial Lift(const Tuple& t) const override {
    return Partial{Partial::Storage{t.value}};
  }

  void Combine(Partial& into, const Partial& other) const override {
    if (other.IsIdentity()) return;
    if (into.IsIdentity()) {
      into = other;
      return;
    }
    into.Get<double>() = std::max(into.Get<double>(), other.Get<double>());
  }

  Value Lower(const Partial& p) const override {
    if (p.IsIdentity()) return Value{};
    return Value{p.Get<double>()};
  }

  bool TryRemove(Partial& from, const Partial& removed) const override {
    if (from.IsIdentity() || removed.IsIdentity()) return true;
    return removed.Get<double>() < from.Get<double>();
  }

  /// Columnar kernel: lane-parallel vector max.
  void LiftCombineColumns(const TupleColumnsView& cols,
                          Partial& into) const override {
    if (cols.empty()) return;
    size_t i = 0;
    double m;
    if (into.IsIdentity()) {
      m = cols.value[0];
      i = 1;
    } else {
      m = into.Get<double>();
    }
    into.Set(simd::MaxColumn(cols.value + i, cols.size - i, m));
  }

  bool RegroupsExactly() const override { return true; }
  AggClass Class() const override { return AggClass::kDistributive; }
  std::string Name() const override { return "max"; }
};

}  // namespace scotty

#endif  // SCOTTY_AGGREGATES_BASIC_H_
