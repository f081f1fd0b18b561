#ifndef SCOTTY_AGGREGATES_POSITIONAL_H_
#define SCOTTY_AGGREGATES_POSITIONAL_H_

#include <string>

#include "aggregates/aggregate_function.h"

namespace scotty {

/// First / Last: the chronologically earliest / latest value of the window
/// (two of the four M4 components as standalone aggregations; common in
/// downsampling queries). Algebraic, commutative — order is resolved by
/// (timestamp, arrival sequence), so combine order does not matter.
template <bool kIsFirst>
class PositionalAggregation : public AggregateFunction {
 public:
  Partial Lift(const Tuple& t) const override {
    // M4State carries (value, ts, seq) for both ends; seq disambiguates
    // equal timestamps so combine order never matters.
    M4State m;
    m.first_v = m.last_v = t.value;
    m.first_t = m.last_t = t.ts;
    m.first_seq = m.last_seq = t.seq;
    m.min = m.max = t.value;
    m.empty = false;
    return Partial{Partial::Storage{m}};
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
    return Value{kIsFirst ? s.first_v : s.last_v};
  }

  bool TryRemove(Partial& from, const Partial& removed) const override {
    if (from.IsIdentity() || removed.IsIdentity()) return true;
    const M4State& a = from.Get<M4State>();
    const M4State& b = removed.Get<M4State>();
    if (a.empty || b.empty) return true;
    if (kIsFirst) {
      return b.first_t > a.first_t ||
             (b.first_t == a.first_t && b.first_seq > a.first_seq);
    }
    return b.last_t < a.last_t ||
           (b.last_t == a.last_t && b.last_seq < a.last_seq);
  }

  bool RegroupsExactly() const override { return true; }
  AggClass Class() const override { return AggClass::kAlgebraic; }
  std::string Name() const override { return kIsFirst ? "first" : "last"; }
};

using FirstAggregation = PositionalAggregation<true>;
using LastAggregation = PositionalAggregation<false>;

/// Count-distinct: the number of distinct values in the window. Holistic —
/// the partial is the run-length-encoded sorted multiset already used by
/// the percentile aggregations, so slices are shared with quantile queries
/// for free. Invertible in the multiset sense.
class CountDistinctAggregation : public AggregateFunction {
 public:
  Partial Lift(const Tuple& t) const override {
    SortedRuns runs;
    runs.Insert(t.value);
    return Partial{Partial::Storage{std::move(runs)}};
  }

  void Combine(Partial& into, const Partial& other) const override {
    if (other.IsIdentity()) return;
    if (into.IsIdentity()) {
      into = other;
      return;
    }
    into.Get<SortedRuns>().Merge(other.Get<SortedRuns>());
  }

  Value Lower(const Partial& p) const override {
    if (p.IsIdentity()) return Value{int64_t{0}};
    return Value{static_cast<int64_t>(p.Get<SortedRuns>().runs.size())};
  }

  void Invert(Partial& from, const Partial& removed) const override {
    if (removed.IsIdentity()) return;
    SortedRuns& a = from.Get<SortedRuns>();
    for (const SortedRuns::Run& r : removed.Get<SortedRuns>().runs) {
      for (int64_t i = 0; i < r.count; ++i) a.Remove(r.value);
    }
  }

  bool IsInvertible() const override { return true; }
  AggClass Class() const override { return AggClass::kHolistic; }
  std::string Name() const override { return "count-distinct"; }
};

}  // namespace scotty

#endif  // SCOTTY_AGGREGATES_POSITIONAL_H_
