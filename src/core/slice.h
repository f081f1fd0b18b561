#ifndef SCOTTY_CORE_SLICE_H_
#define SCOTTY_CORE_SLICE_H_

#include <cstdint>
#include <vector>

#include "aggregates/aggregate_function.h"
#include "common/memory.h"
#include "common/time.h"
#include "common/tuple.h"
#include "common/tuple_batch.h"
#include "state/serde.h"

namespace scotty {

/// A stream slice: a non-overlapping chunk of the stream with one partial
/// aggregate per registered aggregation function (paper Section 5.2).
///
/// Metadata follows the paper exactly: the slice covers the measure range
/// [start, end), while t_first/t_last record the timestamps of the earliest
/// and latest tuple actually contained (which need not coincide with the
/// slice bounds). When the workload characterization requires it, the slice
/// additionally retains its source tuples, sorted by (ts, seq), to support
/// splits and order-preserving recomputation.
class Slice {
 public:
  Slice(Time start, Time end, size_t num_aggs)
      : start_(start), end_(end), aggs_(num_aggs) {}

  Time start() const { return start_; }
  Time end() const { return end_; }
  Time t_first() const { return t_first_; }
  Time t_last() const { return t_last_; }
  uint64_t tuple_count() const { return tuple_count_; }
  bool empty() const { return tuple_count_ == 0; }

  void set_start(Time s) {
    start_ = s;
    dirty_ = true;
  }
  void set_end(Time e) {
    end_ = e;
    dirty_ = true;
  }

  /// Incremental-checkpoint dirty bit: set by every mutation (construction
  /// included), cleared by the store after a barrier serializes this slice.
  /// A clean slice is guaranteed bit-identical to its image in the previous
  /// barrier's snapshot, so delta snapshots reference it by start time
  /// instead of re-serializing it.
  bool snapshot_dirty() const { return dirty_; }
  void MarkSnapshotClean() { dirty_ = false; }

  const Partial& agg(size_t i) const { return aggs_[i]; }
  Partial& mutable_agg(size_t i) { return aggs_[i]; }
  size_t num_aggs() const { return aggs_.size(); }

  /// Stored source tuples (empty unless the workload requires retention).
  const std::vector<Tuple>& tuples() const { return tuples_; }

  /// Adds a tuple: one incremental aggregation step per function (the
  /// paper's Update operation). If `store_tuple` is set, the tuple is kept
  /// sorted by (ts, seq). `fns` must match the slice's aggregation count.
  void AddTuple(const Tuple& t,
                const std::vector<AggregateFunctionPtr>& fns,
                bool store_tuple);

  /// Adds a MONOTONE run of tuples with ONE aggregation dispatch per
  /// function (AggregateFunction::LiftCombineColumns) instead of one per
  /// tuple. The caller guarantees the ts column is non-decreasing (the
  /// foldable-run splitter of the general slicing operator establishes
  /// this). That precondition makes the metadata update O(1) —
  /// t_first/t_last come straight from the run endpoints instead of a
  /// per-tuple min/max pass. Bit-identical to AddTuple per element in
  /// column order.
  void AddTupleColumns(const TupleColumnsView& cols,
                       const std::vector<AggregateFunctionPtr>& fns,
                       bool store_tuples);

  /// Merges externally pre-aggregated tuple metadata (count, first/last
  /// timestamps) without touching aggregates; the caller combines partials
  /// separately. Used by AddTupleColumns for a monotone run, and when the
  /// slicing operator merges a shared-mode worker's slice into this one.
  void NoteTupleRange(Time first, Time last, uint64_t count);

  /// Reinitializes this slice for reuse as [start, end) with `num_aggs`
  /// identity partials, keeping the aggregate and tuple vector capacities
  /// (the AggregateStore freelist recycles evicted slices through this to
  /// keep slice churn off the allocator).
  void Reset(Time start, Time end, size_t num_aggs);

  /// Recomputes all partial aggregates from the stored tuples in (ts, seq)
  /// order. Precondition: tuples were stored. This is the expensive path
  /// taken for non-commutative aggregations on out-of-order arrival and
  /// after splits (paper Section 5.2).
  void RecomputeFromTuples(const std::vector<AggregateFunctionPtr>& fns);

  /// Merges `other` (the immediately following slice) into this one:
  /// extends the range, combines aggregates (this (+)= other), and adopts
  /// the other's tuples. The paper's Merge operation.
  void MergeWith(const Slice& other,
                 const std::vector<AggregateFunctionPtr>& fns);

  /// Splits this slice at `t` (start < t < end): this becomes [start, t),
  /// the returned slice is [t, end). Aggregates of both halves are
  /// recomputed from stored tuples; if no tuples are stored, the split is
  /// only legal when one side is empty of tuples (then it degenerates to a
  /// metadata update). The paper's Split operation.
  Slice SplitAt(Time t, const std::vector<AggregateFunctionPtr>& fns);

  /// Removes the stored tuple with the largest (ts, seq) and returns it.
  /// Used by the count-measure shift of out-of-order processing (Fig. 6).
  /// Precondition: tuples stored and non-empty.
  Tuple PopLastTuple();

  /// Inserts a tuple and updates tuple metadata (count, t_first, t_last)
  /// without touching aggregates (the caller recomputes or combines
  /// separately). Used by count-measure shifts.
  void InsertTupleOnly(const Tuple& t);

  /// Drops tuple storage (when adaptivity decides tuples are no longer
  /// needed after a query was removed).
  void DropTuples() {
    tuples_.clear();
    tuples_.shrink_to_fit();
    dirty_ = true;
  }

  /// Accounted bytes: metadata + fixed partials + dynamic partial storage +
  /// retained tuples.
  size_t MemoryBytes() const;

  /// Enables last-timestamp side partials: alongside the full per-slice
  /// partial the slice maintains a fold of all tuples with ts < t_last
  /// (prefix) and a fold of the tuples exactly at t_last. This lets SplitAt
  /// cut exactly at an occupied timestamp WITHOUT retaining tuples — the fix
  /// for the in-order FCF punctuation-after-data mis-split (ROADMAP item 1).
  /// Costs one extra Combine per tuple per function, so the slicing operator
  /// only turns it on for in-order FCF workloads that skip tuple storage.
  void EnableLastTsTracking() {
    track_last_ts_ = true;
    dirty_ = true;
  }

  /// True when SplitAt(t) can split exactly despite tuples at t_last == t
  /// and no stored tuples, courtesy of the side partials.
  bool CanSplitAtTrackedLast(Time t) const {
    return track_last_ts_ && tuples_.empty() && !empty() && t == t_last_ &&
           t_first_ < t;
  }

  /// Snapshot support: full state including side partials and retained
  /// tuples. Deserialize replaces this slice's contents entirely.
  void Serialize(state::Writer& w) const;
  void Deserialize(state::Reader& r);

 private:
  void RawInsertSorted(const Tuple& t);
  void TrackTuple(const Tuple& t, const std::vector<AggregateFunctionPtr>& fns);
  void MergeTrackingWith(const Slice& other,
                         const std::vector<AggregateFunctionPtr>& fns);
  void DisableTracking() {
    track_last_ts_ = false;
    prefix_aggs_.clear();
    last_aggs_.clear();
    prev_ts_ = kNoTime;
    last_count_ = 0;
  }

  void NoteTuple(const Tuple& t) {
    if (t_first_ == kNoTime || t.ts < t_first_) t_first_ = t.ts;
    if (t_last_ == kNoTime || t.ts > t_last_) t_last_ = t.ts;
    ++tuple_count_;
  }

  Time start_;
  Time end_;
  Time t_first_ = kNoTime;
  Time t_last_ = kNoTime;
  uint64_t tuple_count_ = 0;
  std::vector<Partial> aggs_;
  std::vector<Tuple> tuples_;  // sorted by (ts, seq) when retained

  // Last-timestamp side partials (EnableLastTsTracking). Invariant while
  // tracking and non-empty: combining prefix_aggs_ with last_aggs_ yields
  // the same fold as aggs_; prev_ts_ is the largest tuple ts < t_last_;
  // last_count_ counts tuples exactly at t_last_. Out-of-order arrival
  // silently disables tracking (the gate only enables it on in-order paths).
  bool track_last_ts_ = false;
  std::vector<Partial> prefix_aggs_;  // fold of tuples with ts < t_last_
  std::vector<Partial> last_aggs_;    // fold of tuples with ts == t_last_
  Time prev_ts_ = kNoTime;
  uint64_t last_count_ = 0;

  // Mutated-since-last-barrier flag (see snapshot_dirty). Fresh slices are
  // dirty by construction.
  bool dirty_ = true;
};

}  // namespace scotty

#endif  // SCOTTY_CORE_SLICE_H_
