#ifndef SCOTTY_BASELINES_AGGREGATE_TREE_H_
#define SCOTTY_BASELINES_AGGREGATE_TREE_H_

#include <deque>
#include <string>
#include <vector>

#include "aggregates/aggregate_function.h"
#include "core/flat_fat.h"
#include "core/window_operator.h"
#include "windows/window.h"

namespace scotty {

/// Aggregate Tree baseline (paper Section 3.2, Table 1 Row 2): a FlatFAT
/// [42] whose leaves are the individual stream tuples. Window aggregates are
/// answered as ordered range queries over the tree, sharing partials among
/// overlapping windows; in-order appends cost O(log n) tree updates, while
/// out-of-order tuples require a leaf insert in the middle of the tree —
/// shifting leaves and recomputing inner nodes (the drastic throughput drop
/// the paper measures in Figures 9 and 12a).
class AggregateTreeOperator : public WindowOperator {
 public:
  explicit AggregateTreeOperator(bool stream_in_order = false,
                                 Time allowed_lateness = 0);

  int AddAggregation(AggregateFunctionPtr fn);
  int AddWindow(WindowPtr w);

  void ProcessTuple(const Tuple& t) override;
  void ProcessWatermark(Time wm) override;
  std::vector<WindowResult> TakeResults() override;
  size_t MemoryUsageBytes() const override;
  std::string Name() const override { return "aggregate-tree"; }

  size_t LeafCount() const { return buffer_.size(); }

  /// Each FlatFAT is stored as its layout plus live leaves; restore
  /// rebuilds the inner nodes, so range queries answer bit-identically.
  void SerializeState(state::Writer& w) const override {
    w.Tag(0x4154524C);  // "ATRL"
    w.U64(buffer_.size());
    for (const Tuple& t : buffer_) state::SerializeTuple(w, t);
    w.U64(trees_.size());
    for (const FlatFat& tree : trees_) tree.Serialize(w);
    w.I64(evicted_count_);
    w.I64(max_ts_);
    w.I64(last_wm_);
    w.I64(wm_floor_);
    w.I64(last_cwm_);
    for (const WindowPtr& win : windows_) win->SerializeState(w);
    w.U64(results_.size());
    for (const WindowResult& res : results_) SerializeWindowResult(w, res);
  }

  void DeserializeState(state::Reader& r) override {
    r.Tag(0x4154524C);
    const uint64_t n = r.U64();
    if (n > r.remaining()) {
      r.Fail();
      return;
    }
    buffer_.clear();
    for (uint64_t i = 0; i < n && r.ok(); ++i) {
      buffer_.push_back(state::DeserializeTuple(r));
    }
    const uint64_t ntrees = r.U64();
    if (ntrees != trees_.size()) {
      r.Fail();
      return;
    }
    for (FlatFat& tree : trees_) tree.Deserialize(r);
    evicted_count_ = r.I64();
    max_ts_ = r.I64();
    last_wm_ = r.I64();
    wm_floor_ = r.I64();
    last_cwm_ = r.I64();
    for (const WindowPtr& win : windows_) win->DeserializeState(r);
    const uint64_t m = r.U64();
    if (m > r.remaining()) {
      r.Fail();
      return;
    }
    results_.clear();
    for (uint64_t i = 0; i < m && r.ok(); ++i) {
      results_.push_back(DeserializeWindowResult(r));
    }
  }

 private:
  void TriggerAll(Time wm);
  void Evict(Time wm);
  Value ComputeWindow(size_t agg, Time start, Time end) const;
  void EmitTimeWindow(int w, Time s, Time e, bool update);
  void EmitCountWindow(int w, int64_t cs, int64_t ce, bool update);

  bool stream_in_order_;
  Time allowed_lateness_;
  std::vector<AggregateFunctionPtr> aggs_;
  std::vector<WindowPtr> windows_;
  std::deque<Tuple> buffer_;    // sorted by (ts, seq); index i = tree leaf i
  std::vector<FlatFat> trees_;  // one per aggregation
  int64_t evicted_count_ = 0;
  Time max_ts_ = kNoTime;
  Time last_wm_ = kNoTime;
  Time wm_floor_ = kNoTime;  // initial last_wm_
  int64_t last_cwm_ = 0;
  std::vector<WindowResult> results_;
};

}  // namespace scotty

#endif  // SCOTTY_BASELINES_AGGREGATE_TREE_H_
