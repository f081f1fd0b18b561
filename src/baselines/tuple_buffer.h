#ifndef SCOTTY_BASELINES_TUPLE_BUFFER_H_
#define SCOTTY_BASELINES_TUPLE_BUFFER_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "aggregates/aggregate_function.h"
#include "core/window_operator.h"
#include "windows/window.h"

namespace scotty {

/// Tuple Buffer baseline (paper Section 3.1, Table 1 Row 1): a sorted buffer
/// of all tuples within the retention horizon, with NO aggregate sharing.
/// Window aggregates are computed lazily when windows end by scanning every
/// tuple in the window — overlapping windows therefore recompute the same
/// tuples repeatedly, and out-of-order tuples cost an insert into the middle
/// of the sorted buffer (memory-copy heavy by design).
class TupleBufferOperator : public WindowOperator {
 public:
  explicit TupleBufferOperator(bool stream_in_order = false,
                               Time allowed_lateness = 0);

  int AddAggregation(AggregateFunctionPtr fn);
  int AddWindow(WindowPtr w);

  void ProcessTuple(const Tuple& t) override;
  void ProcessWatermark(Time wm) override;
  std::vector<WindowResult> TakeResults() override;
  size_t MemoryUsageBytes() const override;
  std::string Name() const override { return "tuple-buffer"; }

  size_t BufferedTuples() const { return buffer_.size(); }

  void SerializeState(state::Writer& w) const override {
    w.Tag(0x54425546);  // "TBUF"
    w.U64(buffer_.size());
    for (const Tuple& t : buffer_) state::SerializeTuple(w, t);
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
    r.Tag(0x54425546);
    const uint64_t n = r.U64();
    if (n > r.remaining()) {
      r.Fail();
      return;
    }
    buffer_.clear();
    for (uint64_t i = 0; i < n && r.ok(); ++i) {
      buffer_.push_back(state::DeserializeTuple(r));
    }
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
  Value ComputeCountWindow(size_t agg, int64_t cs, int64_t ce) const;
  void EmitTimeWindow(int w, Time s, Time e, bool update);
  void EmitCountWindow(int w, int64_t cs, int64_t ce, bool update);

  bool stream_in_order_;
  Time allowed_lateness_;
  std::vector<AggregateFunctionPtr> aggs_;
  std::vector<WindowPtr> windows_;
  std::deque<Tuple> buffer_;  // sorted by (ts, seq)
  int64_t evicted_count_ = 0;  // ranks dropped off the front (count measure)
  Time max_ts_ = kNoTime;
  Time last_wm_ = kNoTime;
  Time wm_floor_ = kNoTime;  // initial last_wm_: no windows end at or before
  int64_t last_cwm_ = 0;
  std::vector<WindowResult> results_;
};

}  // namespace scotty

#endif  // SCOTTY_BASELINES_TUPLE_BUFFER_H_
