#include "testing/oracle.h"

#include <cassert>

#include "aggregates/registry.h"

namespace scotty {
namespace testing {

namespace {

/// Folds `fn` over data[lo, hi) (already in (ts, seq) order).
Value FoldRange(const AggregateFunction& fn, const std::vector<Tuple>& data,
                size_t lo, size_t hi) {
  Partial acc;
  for (size_t i = lo; i < hi; ++i) fn.Combine(acc, fn.Lift(data[i]));
  return fn.Lower(acc);
}

/// First index in `data` (sorted by ts) with ts >= t.
size_t LowerIdx(const std::vector<Tuple>& data, Time t) {
  return static_cast<size_t>(
      std::lower_bound(data.begin(), data.end(), t,
                       [](const Tuple& a, Time x) { return a.ts < x; }) -
      data.begin());
}

}  // namespace

std::map<ResultKey, Value> OracleResults(
    const std::vector<WindowSpec>& windows,
    const std::vector<std::string>& aggs, const std::vector<Tuple>& tuples,
    Time final_wm, Time first_cut) {
  std::map<ResultKey, Value> out;
  if (tuples.empty()) return out;
  // By default the first arrival, of any tuple kind.
  if (first_cut == kNoTime) first_cut = tuples.front().ts;

  // Event-time ordered views: `data` (aggregation input, punctuation
  // excluded) and `all_ts` / `punct_ts` (window context).
  std::vector<Tuple> data;
  std::vector<Time> all_ts;
  std::vector<Time> punct_ts;
  for (const Tuple& t : tuples) {
    all_ts.push_back(t.ts);
    if (t.is_punctuation) {
      punct_ts.push_back(t.ts);
    } else {
      data.push_back(t);
    }
  }
  std::sort(data.begin(), data.end(), [](const Tuple& a, const Tuple& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    return a.seq < b.seq;
  });
  std::sort(all_ts.begin(), all_ts.end());
  std::sort(punct_ts.begin(), punct_ts.end());
  punct_ts.erase(std::unique(punct_ts.begin(), punct_ts.end()),
                 punct_ts.end());

  std::vector<AggregateFunctionPtr> fns;
  for (const std::string& name : aggs) {
    fns.push_back(MakeAggregation(name));
    assert(fns.back() != nullptr && "unknown aggregation name");
  }

  auto emit_time_window = [&](int wid, Time s, Time e) {
    const size_t lo = LowerIdx(data, s);
    const size_t hi = LowerIdx(data, e);
    for (size_t a = 0; a < fns.size(); ++a) {
      out[{wid, static_cast<int>(a), s, e}] = FoldRange(*fns[a], data, lo, hi);
    }
  };
  auto emit_count_window = [&](int wid, int64_t cs, int64_t ce) {
    for (size_t a = 0; a < fns.size(); ++a) {
      out[{wid, static_cast<int>(a), cs, ce}] =
          FoldRange(*fns[a], data, static_cast<size_t>(cs),
                    static_cast<size_t>(ce));
    }
  };

  const int64_t total_ranks = static_cast<int64_t>(data.size());
  for (size_t w = 0; w < windows.size(); ++w) {
    const WindowSpec& spec = windows[w];
    const int wid = static_cast<int>(w);
    switch (spec.kind) {
      case WindowSpec::Kind::kTumbling:
        if (spec.measure == Measure::kCount) {
          for (int64_t end = spec.length; end <= total_ranks;
               end += spec.length) {
            emit_count_window(wid, end - spec.length, end);
          }
        } else {
          // First end strictly after first_cut − 1, i.e. >= first_cut.
          Time end = ((first_cut + spec.length - 1) / spec.length) *
                     spec.length;
          if (end < spec.length) end = spec.length;
          for (; end <= final_wm; end += spec.length) {
            emit_time_window(wid, end - spec.length, end);
          }
        }
        break;
      case WindowSpec::Kind::kSliding:
        if (spec.measure == Measure::kCount) {
          for (int64_t end = spec.length; end <= total_ranks;
               end += spec.slide) {
            emit_count_window(wid, end - spec.length, end);
          }
        } else {
          // Ends lie at length + k*slide; report those in
          // [first_cut, final_wm].
          Time end = spec.length;
          if (end < first_cut) {
            const Time k = (first_cut - spec.length + spec.slide - 1) /
                           spec.slide;
            end = spec.length + k * spec.slide;
          }
          for (; end <= final_wm; end += spec.slide) {
            emit_time_window(wid, end - spec.length, end);
          }
        }
        break;
      case WindowSpec::Kind::kSession: {
        // Gap rule over ALL tuple timestamps (punctuation included).
        Time start = kNoTime;
        Time last = kNoTime;
        auto flush = [&] {
          if (start == kNoTime) return;
          const Time end = last + spec.length;
          if (end >= first_cut && end <= final_wm) {
            emit_time_window(wid, start, end);
          }
        };
        for (Time t : all_ts) {
          if (start == kNoTime || t >= last + spec.length) {
            flush();
            start = t;
          }
          last = t;
        }
        flush();
        break;
      }
      case WindowSpec::Kind::kPunctuation:
        for (size_t i = 1; i < punct_ts.size(); ++i) {
          const Time s = punct_ts[i - 1];
          const Time e = punct_ts[i];
          if (e >= first_cut && e <= final_wm) emit_time_window(wid, s, e);
        }
        break;
      case WindowSpec::Kind::kLastNEveryT: {
        // "Last N tuples every T time units": ends at period multiples
        // strictly after the first-arrival baseline; the start is the
        // timestamp of the N-th most recent data tuple before the end
        // (skipped while fewer than N exist). Mirrors
        // LastNEveryTWindow::TriggerWindows over a complete store.
        const Time period = spec.slide;
        const int64_t nlast = spec.length;
        for (Time end = ((first_cut - 1) / period + 1) * period;
             end <= final_wm; end += period) {
          const int64_t avail =
              static_cast<int64_t>(LowerIdx(data, end));
          if (avail < nlast) continue;
          const Time start = data[static_cast<size_t>(avail - nlast)].ts;
          emit_time_window(wid, start, end);
        }
        break;
      }
      case WindowSpec::Kind::kThresholdFrame: {
        // Threshold frames: a frame opens at the first qualifying timestamp
        // after a break (or stream start) and closes at the next break. The
        // aggregate covers ALL data tuples in [start, end) — the slices do
        // not filter by qualification. Mirrors
        // ThresholdFrameWindow::TriggerWindows.
        const double threshold = static_cast<double>(spec.length);
        std::vector<Time> quals;
        std::vector<Time> breaks;
        for (const Tuple& t : data) {
          (t.value >= threshold ? quals : breaks).push_back(t.ts);
        }
        auto dedup = [](std::vector<Time>* v) {
          std::sort(v->begin(), v->end());
          v->erase(std::unique(v->begin(), v->end()), v->end());
        };
        dedup(&quals);
        dedup(&breaks);
        auto last_below = [](const std::vector<Time>& v, Time t) {
          auto it = std::lower_bound(v.begin(), v.end(), t);
          return it == v.begin() ? kNoTime : *(it - 1);
        };
        auto first_above = [](const std::vector<Time>& v, Time t) {
          auto it = std::upper_bound(v.begin(), v.end(), t);
          return it == v.end() ? kMaxTime : *it;
        };
        for (Time q : quals) {
          const Time prev_qual = last_below(quals, q);
          const Time prev_break = last_below(breaks, q);
          if (prev_qual != kNoTime && prev_qual > prev_break) continue;
          const Time end = first_above(breaks, q);
          if (end == kMaxTime) continue;  // frame still open
          if (end >= first_cut && end <= final_wm) {
            emit_time_window(wid, q, end);
          }
        }
        break;
      }
    }
  }
  return out;
}

}  // namespace testing
}  // namespace scotty
