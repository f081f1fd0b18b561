#ifndef SCOTTY_BASELINES_BUCKETS_H_
#define SCOTTY_BASELINES_BUCKETS_H_

#include <deque>
#include <map>
#include <string>
#include <vector>

#include "aggregates/aggregate_function.h"
#include "core/window_operator.h"
#include "windows/window.h"

namespace scotty {

/// Buckets baseline (paper Section 3.3, Table 1 Rows 3-4): the
/// bucket-per-window approach of Li et al.'s Window-ID [31-33], as adopted
/// by Apache Flink. Every window instance is an independent bucket; a tuple
/// is assigned to ALL buckets whose window contains it (no aggregate
/// sharing), each assignment costing one incremental aggregation step. The
/// final aggregate of every bucket is pre-computed, which gives buckets the
/// lowest output latency of all techniques, but overlapping windows make the
/// per-tuple cost proportional to the number of concurrent windows — the
/// throughput bottleneck the paper measures.
///
/// Aggregate buckets store one partial per bucket; tuple buckets also store
/// the tuples (required for holistic / non-commutative aggregations and for
/// count-based windows on out-of-order streams), replicating tuples across
/// overlapping buckets. Session windows use Flink-style merging buckets.
class BucketsOperator : public WindowOperator {
 public:
  enum class BucketKind {
    kAuto,       // tuples retained only when the workload needs them
    kAggregate,  // never retain tuples (Table 1 Row 3)
    kTuple,      // always retain tuples (Table 1 Row 4)
  };

  explicit BucketsOperator(bool stream_in_order = false,
                           Time allowed_lateness = 0,
                           BucketKind kind = BucketKind::kAuto);

  int AddAggregation(AggregateFunctionPtr fn);

  /// Supports tumbling/sliding windows (time or count measure) and session
  /// windows. Punctuation / multi-measure windows are outside the WID model.
  int AddWindow(WindowPtr w);

  void ProcessTuple(const Tuple& t) override;
  void ProcessWatermark(Time wm) override;
  void TakeResultsInto(std::vector<WindowResult>* out) override;
  size_t MemoryUsageBytes() const override;
  std::string Name() const override { return "buckets"; }

  size_t TotalBuckets() const;

  void SerializeState(state::Writer& w) const override {
    w.Tag(0x424B5453);  // "BKTS"
    w.U64(buckets_.size());
    for (const auto& per_window : buckets_) {
      w.U64(per_window.size());
      for (const auto& [start, b] : per_window) {
        w.I64(start);
        w.I64(b.start);
        w.I64(b.end);
        w.U64(b.count);
        w.U64(b.aggs.size());
        for (const Partial& p : b.aggs) p.Serialize(w);
        w.U64(b.tuples.size());
        for (const Tuple& t : b.tuples) state::SerializeTuple(w, t);
      }
    }
    w.U64(count_buffer_.size());
    for (const Tuple& t : count_buffer_) state::SerializeTuple(w, t);
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
    r.Tag(0x424B5453);
    const uint64_t nwin = r.U64();
    if (nwin != buckets_.size()) {
      r.Fail();
      return;
    }
    for (auto& per_window : buckets_) {
      per_window.clear();
      const uint64_t nb = r.U64();
      if (nb > r.remaining()) {
        r.Fail();
        return;
      }
      for (uint64_t i = 0; i < nb && r.ok(); ++i) {
        const Time key = r.I64();
        Bucket b;
        b.start = r.I64();
        b.end = r.I64();
        b.count = r.U64();
        const uint64_t na = r.U64();
        if (na > r.remaining()) {
          r.Fail();
          return;
        }
        b.aggs.resize(static_cast<size_t>(na));
        for (Partial& p : b.aggs) p.Deserialize(r);
        const uint64_t nt = r.U64();
        if (nt > r.remaining()) {
          r.Fail();
          return;
        }
        b.tuples.reserve(static_cast<size_t>(nt));
        for (uint64_t j = 0; j < nt && r.ok(); ++j) {
          b.tuples.push_back(state::DeserializeTuple(r));
        }
        per_window.emplace(key, std::move(b));
      }
    }
    const uint64_t nc = r.U64();
    if (nc > r.remaining()) {
      r.Fail();
      return;
    }
    count_buffer_.clear();
    for (uint64_t i = 0; i < nc && r.ok(); ++i) {
      count_buffer_.push_back(state::DeserializeTuple(r));
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
  struct Bucket {
    Time start = 0;
    Time end = 0;
    std::vector<Partial> aggs;
    std::vector<Tuple> tuples;  // tuple buckets only
    uint64_t count = 0;
  };

  bool StoreTuples() const;
  void AssignTuple(size_t w, const Tuple& t, Time key_start, Time end);
  void AssignToTimeWindows(size_t w, const Tuple& t);
  void AssignToCountBuckets(size_t w, int64_t rank, const Tuple& t);
  void RebuildCountBucketsFrom(size_t w, int64_t rank);
  void ApplySessionMods(size_t w, const ContextModifications& mods);
  void TriggerAll(Time wm);
  void EmitBucket(size_t w, Time start, bool update, Time end_hint);
  void Evict(Time wm);

  bool stream_in_order_;
  Time allowed_lateness_;
  BucketKind kind_;
  std::vector<AggregateFunctionPtr> aggs_;
  std::vector<WindowPtr> windows_;
  std::vector<std::map<Time, Bucket>> buckets_;  // per window, keyed by start
  std::deque<Tuple> count_buffer_;  // global sorted buffer for count ranks
  bool has_count_windows_ = false;
  bool any_non_commutative_ = false;
  bool any_holistic_ = false;
  int64_t evicted_count_ = 0;
  Time max_ts_ = kNoTime;
  Time last_wm_ = kNoTime;
  Time wm_floor_ = kNoTime;  // initial last_wm_
  int64_t last_cwm_ = 0;
  std::vector<WindowResult> results_;
};

}  // namespace scotty

#endif  // SCOTTY_BASELINES_BUCKETS_H_
