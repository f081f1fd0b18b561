#ifndef SCOTTY_BASELINES_TUPLE_BUFFER_H_
#define SCOTTY_BASELINES_TUPLE_BUFFER_H_

#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "aggregates/aggregate_function.h"
#include "core/aggregate_store.h"
#include "core/flat_fat.h"
#include "core/window_operator.h"
#include "windows/window.h"

namespace scotty {

/// Tuple-level baselines (paper Table 1 rows 1-2): a sorted buffer of all
/// tuples within the retention horizon, with NO slicing. Out-of-order tuples
/// cost an insert into the middle of the sorted buffer (memory-copy heavy by
/// design). The store mode picks how a window is read, as for the slicing
/// operator (Section 3.4):
///  - kLazy, the Tuple Buffer (Section 3.1): fold every tuple of the window
///    when it ends, so overlapping windows recompute the same tuples.
///  - kEager, the Aggregate Tree (Section 3.2): a FlatFAT [42] per
///    aggregation whose leaves are the buffered tuples answers each window
///    as an ordered range query, sharing partials among overlapping windows.
///    In-order appends cost O(log n) tree updates, while an out-of-order
///    tuple shifts leaves and recomputes inner nodes (the drastic throughput
///    drop the paper measures in Figures 9 and 12a).
class TupleBufferOperator : public WindowOperator {
 public:
  explicit TupleBufferOperator(bool stream_in_order = false,
                               Time allowed_lateness = 0,
                               StoreMode mode = StoreMode::kLazy);

  int AddAggregation(AggregateFunctionPtr fn);
  int AddWindow(WindowPtr w);

  void ProcessTuple(const Tuple& t) override;
  void ProcessWatermark(Time wm) override;
  void TakeResultsInto(std::vector<WindowResult>* out) override;
  size_t MemoryUsageBytes() const override;
  std::string Name() const override {
    return mode_ == StoreMode::kLazy ? "tuple-buffer" : "aggregate-tree";
  }

  size_t BufferedTuples() const { return buffer_.size(); }

  /// Tagged "TBUF" (lazy) or "ATRL" (eager), so each mode rejects the
  /// other's state. Eager stores each FlatFAT as its layout plus live
  /// leaves; restore rebuilds the inner nodes, so range queries answer
  /// bit-identically.
  void SerializeState(state::Writer& w) const override;
  void DeserializeState(state::Reader& r) override;

 private:
  /// Buffer index range [i, j) of the tuples in a window.
  using Range = std::pair<size_t, size_t>;

  void TriggerAll(Time wm);
  void Evict(Time wm);
  Range TimeRange(Time start, Time end) const;
  Range CountRange(int64_t cs, int64_t ce) const;
  /// Aggregation `agg` over buffer_[i, j).
  Value RangeValue(size_t agg, size_t i, size_t j) const;
  void Emit(int w, Time start, Time end, Range r, bool update);

  bool stream_in_order_;
  Time allowed_lateness_;
  StoreMode mode_;
  std::vector<AggregateFunctionPtr> aggs_;
  std::vector<WindowPtr> windows_;
  std::deque<Tuple> buffer_;    // sorted by (ts, seq); index i = tree leaf i
  std::vector<FlatFat> trees_;  // eager only: one per aggregation
  int64_t evicted_count_ = 0;   // ranks dropped off the front (count measure)
  Time max_ts_ = kNoTime;
  Time last_wm_ = kNoTime;
  Time wm_floor_ = kNoTime;  // initial last_wm_: no windows end at or before
  int64_t last_cwm_ = 0;
  std::vector<WindowResult> results_;
};

}  // namespace scotty

#endif  // SCOTTY_BASELINES_TUPLE_BUFFER_H_
