#ifndef SCOTTY_TESTING_ORACLE_H_
#define SCOTTY_TESTING_ORACLE_H_

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "aggregates/aggregate_function.h"
#include "common/tuple.h"
#include "common/value.h"
#include "testing/harness.h"
#include "testing/query_spec.h"

namespace scotty {
namespace testing {

/// Reference (brute-force) aggregate of all tuples with start <= ts < end,
/// folded in (ts, seq) order — the semantic ground truth every operator must
/// match.
inline Value BruteForce(const AggregateFunction& fn, std::vector<Tuple> tuples,
                        Time start, Time end) {
  std::sort(tuples.begin(), tuples.end(), [](const Tuple& a, const Tuple& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    return a.seq < b.seq;
  });
  Partial acc;
  for (const Tuple& t : tuples) {
    if (t.is_punctuation) continue;
    if (t.ts >= start && t.ts < end) fn.Combine(acc, fn.Lift(t));
  }
  return fn.Lower(acc);
}

/// Brute-force aggregate over ranks [cs, ce) in event-time order.
inline Value BruteForceCount(const AggregateFunction& fn,
                             std::vector<Tuple> tuples, int64_t cs,
                             int64_t ce) {
  std::sort(tuples.begin(), tuples.end(), [](const Tuple& a, const Tuple& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    return a.seq < b.seq;
  });
  Partial acc;
  int64_t rank = 0;
  for (const Tuple& t : tuples) {
    if (t.is_punctuation) continue;
    if (rank >= cs && rank < ce) fn.Combine(acc, fn.Lift(t));
    ++rank;
  }
  return fn.Lower(acc);
}

/// Computes the full expected final result map for a query set over an
/// arrived stream, independently of every production operator: window
/// instances are enumerated directly from the window parameters and each
/// instance's aggregate is folded from the sorted tuple list. Semantics
/// mirrored here (and nowhere derived from the implementations under test):
///
///  - The watermark baseline is `first_cut − 1`: windows ending before
///    `first_cut` are never reported. It defaults (kNoTime) to the first
///    arrival's ts; a keyed caller passes W + 1 for a key first seen after
///    watermark W, where that key's own operator starts.
///  - Time windows [s, e) aggregate data tuples with s <= ts < e in
///    (ts, seq) order; instances with no tuples are reported with an empty
///    value.
///  - Sessions derive from the gap rule over the timestamps of ALL tuples
///    (punctuation markers extend sessions too — they are stream context),
///    while their aggregates fold data tuples only.
///  - Punctuation windows span consecutive distinct punctuation timestamps.
///  - Count windows are rank ranges in event-time (ts, seq) order over data
///    tuples; only windows fully below the final count watermark (= all
///    ranks, as the final time watermark passes every tuple) are reported.
///
/// `tuples` must carry the arrival seq numbers the operators saw
/// (RunToFinalResults assigns 0..n-1 in arrival order).
std::map<ResultKey, Value> OracleResults(
    const std::vector<WindowSpec>& windows,
    const std::vector<std::string>& aggs, const std::vector<Tuple>& tuples,
    Time final_wm, Time first_cut = kNoTime);

}  // namespace testing
}  // namespace scotty

#endif  // SCOTTY_TESTING_ORACLE_H_
