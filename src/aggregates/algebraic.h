#ifndef SCOTTY_AGGREGATES_ALGEBRAIC_H_
#define SCOTTY_AGGREGATES_ALGEBRAIC_H_

#include <cmath>
#include <string>

#include "aggregates/aggregate_function.h"
#include "aggregates/kernels.h"

namespace scotty {

/// AVG. Algebraic (partial = <sum, count>), commutative, invertible.
class AvgAggregation : public AggregateFunction {
 public:
  Partial Lift(const Tuple& t) const override {
    return Partial{Partial::Storage{AvgState{t.value, 1}}};
  }

  void Combine(Partial& into, const Partial& other) const override {
    if (other.IsIdentity()) return;
    if (into.IsIdentity()) {
      into = other;
      return;
    }
    AvgState& a = into.Get<AvgState>();
    const AvgState& b = other.Get<AvgState>();
    a.sum += b.sum;
    a.count += b.count;
  }

  Value Lower(const Partial& p) const override {
    if (p.IsIdentity()) return Value{};
    const AvgState& a = p.Get<AvgState>();
    if (a.count == 0) return Value{};
    return Value{a.sum / static_cast<double>(a.count)};
  }

  void Invert(Partial& from, const Partial& removed) const override {
    if (removed.IsIdentity()) return;
    AvgState& a = from.Get<AvgState>();
    const AvgState& b = removed.Get<AvgState>();
    a.sum -= b.sum;
    a.count -= b.count;
  }

  /// Columnar kernel: per-tuple Combine with a singleton is `sum += v;
  /// count += 1`, so a serial sum fold over the value column plus an O(1)
  /// count bump keeps the per-tuple fold order.
  void LiftCombineColumns(const TupleColumnsView& cols,
                          Partial& into) const override {
    if (cols.empty()) return;
    size_t i = 0;
    AvgState s;
    if (into.IsIdentity()) {
      s = AvgState{cols.value[0], 1};
      i = 1;
    } else {
      s = into.Get<AvgState>();
    }
    s.sum = simd::SumColumn(cols.value + i, cols.size - i, s.sum);
    s.count += static_cast<int64_t>(cols.size - i);
    into.Set(s);
  }

  bool IsInvertible() const override { return true; }
  AggClass Class() const override { return AggClass::kAlgebraic; }
  std::string Name() const override { return "avg"; }
};

/// Geometric mean. Algebraic (partial = <sum of logs, count>), invertible.
/// Defined for positive values; non-positive inputs contribute log of a
/// clamped epsilon to keep the pipeline total.
class GeometricMeanAggregation : public AggregateFunction {
 public:
  Partial Lift(const Tuple& t) const override {
    const double v = t.value > 1e-300 ? t.value : 1e-300;
    return Partial{Partial::Storage{GeoState{std::log(v), 1}}};
  }

  void Combine(Partial& into, const Partial& other) const override {
    if (other.IsIdentity()) return;
    if (into.IsIdentity()) {
      into = other;
      return;
    }
    GeoState& a = into.Get<GeoState>();
    const GeoState& b = other.Get<GeoState>();
    a.log_sum += b.log_sum;
    a.count += b.count;
  }

  Value Lower(const Partial& p) const override {
    if (p.IsIdentity()) return Value{};
    const GeoState& g = p.Get<GeoState>();
    if (g.count == 0) return Value{};
    return Value{std::exp(g.log_sum / static_cast<double>(g.count))};
  }

  void Invert(Partial& from, const Partial& removed) const override {
    if (removed.IsIdentity()) return;
    GeoState& a = from.Get<GeoState>();
    const GeoState& b = removed.Get<GeoState>();
    a.log_sum -= b.log_sum;
    a.count -= b.count;
  }

  bool IsInvertible() const override { return true; }
  AggClass Class() const override { return AggClass::kAlgebraic; }
  std::string Name() const override { return "geometric-mean"; }
};

/// Sample standard deviation. Algebraic via Chan et al.'s parallel variance
/// combination: partial = <count, mean, M2>. Invertible.
class StdDevAggregation : public AggregateFunction {
 public:
  Partial Lift(const Tuple& t) const override {
    return Partial{Partial::Storage{VarState{1, t.value, 0.0}}};
  }

  void Combine(Partial& into, const Partial& other) const override {
    if (other.IsIdentity()) return;
    if (into.IsIdentity()) {
      into = other;
      return;
    }
    VarState& a = into.Get<VarState>();
    const VarState& b = other.Get<VarState>();
    const double delta = b.mean - a.mean;
    const int64_t n = a.count + b.count;
    a.m2 += b.m2 + delta * delta * static_cast<double>(a.count) *
                       static_cast<double>(b.count) / static_cast<double>(n);
    a.mean += delta * static_cast<double>(b.count) / static_cast<double>(n);
    a.count = n;
  }

  Value Lower(const Partial& p) const override {
    if (p.IsIdentity()) return Value{};
    const VarState& v = p.Get<VarState>();
    if (v.count < 2) return Value{0.0};
    return Value{std::sqrt(v.m2 / static_cast<double>(v.count - 1))};
  }

  void Invert(Partial& from, const Partial& removed) const override {
    if (removed.IsIdentity()) return;
    VarState& a = from.Get<VarState>();
    const VarState& b = removed.Get<VarState>();
    const int64_t n = a.count - b.count;
    if (n <= 0) {
      a = VarState{};
      return;
    }
    // Reverse of the Chan combination: recover the mean and M2 of the
    // remainder set.
    const double mean_r =
        (a.mean * static_cast<double>(a.count) -
         b.mean * static_cast<double>(b.count)) /
        static_cast<double>(n);
    const double delta = b.mean - mean_r;
    double m2_r = a.m2 - b.m2 -
                  delta * delta * static_cast<double>(n) *
                      static_cast<double>(b.count) /
                      static_cast<double>(a.count);
    if (m2_r < 0.0) m2_r = 0.0;  // numerical floor
    a.count = n;
    a.mean = mean_r;
    a.m2 = m2_r;
  }

  bool IsInvertible() const override { return true; }
  AggClass Class() const override { return AggClass::kAlgebraic; }
  std::string Name() const override { return "stddev"; }
};

/// MinCount / MaxCount: the extremum and its multiplicity. Algebraic,
/// commutative, not invertible.
template <bool kIsMin>
class ExtremumCountAggregation : public AggregateFunction {
 public:
  Partial Lift(const Tuple& t) const override {
    return Partial{Partial::Storage{ValCountState{t.value, 1}}};
  }

  void Combine(Partial& into, const Partial& other) const override {
    if (other.IsIdentity()) return;
    if (into.IsIdentity()) {
      into = other;
      return;
    }
    ValCountState& a = into.Get<ValCountState>();
    const ValCountState& b = other.Get<ValCountState>();
    if (a.count == 0) {
      a = b;
      return;
    }
    if (b.count == 0) return;
    const bool b_wins = kIsMin ? b.value < a.value : b.value > a.value;
    if (b_wins) {
      a = b;
    } else if (b.value == a.value) {
      a.count += b.count;
    }
  }

  Value Lower(const Partial& p) const override {
    if (p.IsIdentity()) return Value{};
    const ValCountState& s = p.Get<ValCountState>();
    if (s.count == 0) return Value{};
    return Value{ArgResult{s.value, s.count}};
  }

  bool TryRemove(Partial& from, const Partial& removed) const override {
    if (from.IsIdentity() || removed.IsIdentity()) return true;
    ValCountState& a = from.Get<ValCountState>();
    const ValCountState& b = removed.Get<ValCountState>();
    if (a.count == 0 || b.count == 0) return true;
    const bool worse = kIsMin ? b.value > a.value : b.value < a.value;
    if (worse) return true;  // extremum untouched
    if (b.value == a.value && a.count > b.count) {
      a.count -= b.count;  // extremum keeps other occurrences
      return true;
    }
    return false;
  }

  bool RegroupsExactly() const override { return true; }
  AggClass Class() const override { return AggClass::kAlgebraic; }
  std::string Name() const override { return kIsMin ? "min-count" : "max-count"; }
};

using MinCountAggregation = ExtremumCountAggregation<true>;
using MaxCountAggregation = ExtremumCountAggregation<false>;

/// ArgMin / ArgMax: the extremum and the timestamp of its first occurrence.
/// Algebraic, commutative, not invertible.
template <bool kIsMin>
class ArgExtremumAggregation : public AggregateFunction {
 public:
  Partial Lift(const Tuple& t) const override {
    return Partial{Partial::Storage{ArgValState{t.value, t.ts, false}}};
  }

  void Combine(Partial& into, const Partial& other) const override {
    if (other.IsIdentity()) return;
    if (into.IsIdentity()) {
      into = other;
      return;
    }
    ArgValState& a = into.Get<ArgValState>();
    const ArgValState& b = other.Get<ArgValState>();
    if (a.empty) {
      a = b;
      return;
    }
    if (b.empty) return;
    const bool b_wins = kIsMin ? b.value < a.value : b.value > a.value;
    // Tie-break on the earlier timestamp so combine order does not matter.
    if (b_wins || (b.value == a.value && b.arg < a.arg)) a = b;
  }

  Value Lower(const Partial& p) const override {
    if (p.IsIdentity()) return Value{};
    const ArgValState& s = p.Get<ArgValState>();
    if (s.empty) return Value{};
    return Value{ArgResult{s.value, s.arg}};
  }

  bool TryRemove(Partial& from, const Partial& removed) const override {
    if (from.IsIdentity() || removed.IsIdentity()) return true;
    const ArgValState& a = from.Get<ArgValState>();
    const ArgValState& b = removed.Get<ArgValState>();
    if (a.empty || b.empty) return true;
    const bool worse = kIsMin ? b.value > a.value : b.value < a.value;
    return worse || (b.value == a.value && b.arg != a.arg);
  }

  bool RegroupsExactly() const override { return true; }
  AggClass Class() const override { return AggClass::kAlgebraic; }
  std::string Name() const override { return kIsMin ? "arg-min" : "arg-max"; }
};

using ArgMinAggregation = ArgExtremumAggregation<true>;
using ArgMaxAggregation = ArgExtremumAggregation<false>;

/// M4 [26]: min, max, first and last value of each window; the four
/// aggregates sufficient for pixel-perfect line-chart rendering. Used by the
/// dashboard application of Section 6.4. Algebraic, commutative (first/last
/// are resolved by timestamps), not invertible.
class M4Aggregation : public AggregateFunction {
 public:
  Partial Lift(const Tuple& t) const override {
    M4State s;
    s.min = s.max = s.first_v = s.last_v = t.value;
    s.first_t = s.last_t = t.ts;
    s.first_seq = s.last_seq = t.seq;
    s.empty = false;
    return Partial{Partial::Storage{s}};
  }

  void Combine(Partial& into, const Partial& other) const override {
    if (other.IsIdentity()) return;
    if (into.IsIdentity()) {
      into = other;
      return;
    }
    M4State& a = into.Get<M4State>();
    const M4State& b = other.Get<M4State>();
    if (a.empty) {
      a = b;
      return;
    }
    if (b.empty) return;
    if (b.min < a.min) a.min = b.min;
    if (b.max > a.max) a.max = b.max;
    if (b.first_t < a.first_t ||
        (b.first_t == a.first_t && b.first_seq < a.first_seq)) {
      a.first_t = b.first_t;
      a.first_seq = b.first_seq;
      a.first_v = b.first_v;
    }
    if (b.last_t > a.last_t ||
        (b.last_t == a.last_t && b.last_seq > a.last_seq)) {
      a.last_t = b.last_t;
      a.last_seq = b.last_seq;
      a.last_v = b.last_v;
    }
  }

  Value Lower(const Partial& p) const override {
    if (p.IsIdentity()) return Value{};
    const M4State& s = p.Get<M4State>();
    if (s.empty) return Value{};
    return Value{M4Result{s.min, s.max, s.first_v, s.last_v}};
  }

  bool TryRemove(Partial& from, const Partial& removed) const override {
    if (from.IsIdentity() || removed.IsIdentity()) return true;
    const M4State& a = from.Get<M4State>();
    const M4State& b = removed.Get<M4State>();
    if (a.empty || b.empty) return true;
    // The removed value affects nothing if it is strictly inside the value
    // range and strictly inside the (first, last) time range.
    const bool inside_values = b.min > a.min && b.max < a.max;
    const bool inside_time =
        (b.first_t > a.first_t ||
         (b.first_t == a.first_t && b.first_seq > a.first_seq)) &&
        (b.last_t < a.last_t ||
         (b.last_t == a.last_t && b.last_seq < a.last_seq));
    return inside_values && inside_time;
  }

  bool RegroupsExactly() const override { return true; }
  AggClass Class() const override { return AggClass::kAlgebraic; }
  std::string Name() const override { return "m4"; }
};

}  // namespace scotty

#endif  // SCOTTY_AGGREGATES_ALGEBRAIC_H_
