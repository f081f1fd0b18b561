#include "core/slice.h"

#include <algorithm>
#include <cassert>

#include "state/serde_types.h"

namespace scotty {

void Slice::AddTuple(const Tuple& t,
                     const std::vector<AggregateFunctionPtr>& fns,
                     bool store_tuple) {
  assert(fns.size() == aggs_.size());
  dirty_ = true;
  if (track_last_ts_) TrackTuple(t, fns);
  for (size_t i = 0; i < fns.size(); ++i) {
    fns[i]->Combine(aggs_[i], fns[i]->Lift(t));
  }
  if (store_tuple) RawInsertSorted(t);
  NoteTuple(t);
}

void Slice::TrackTuple(const Tuple& t,
                       const std::vector<AggregateFunctionPtr>& fns) {
  if (last_aggs_.size() != fns.size()) {
    last_aggs_.assign(fns.size(), Partial{});
    prefix_aggs_.assign(fns.size(), Partial{});
  }
  if (empty() || t.ts > t_last_) {
    // The t_last group closes: fold it into the prefix and start a new one.
    for (size_t i = 0; i < fns.size(); ++i) {
      fns[i]->Combine(prefix_aggs_[i], last_aggs_[i]);
      last_aggs_[i] = fns[i]->Lift(t);
    }
    prev_ts_ = empty() ? kNoTime : t_last_;
    last_count_ = 1;
  } else if (t.ts == t_last_) {
    for (size_t i = 0; i < fns.size(); ++i) {
      fns[i]->Combine(last_aggs_[i], fns[i]->Lift(t));
    }
    ++last_count_;
  } else {
    // Out-of-order tuple: the prefix/last decomposition no longer holds.
    DisableTracking();
  }
}

void Slice::AddTupleColumns(const TupleColumnsView& cols,
                            const std::vector<AggregateFunctionPtr>& fns,
                            bool store_tuples) {
  if (cols.empty()) return;
  assert(fns.size() == aggs_.size());
  dirty_ = true;
  if (track_last_ts_) {
    // TrackTuple reads the slice state *before* each tuple; no batched
    // shortcut exists, so materialize and interleave it with NoteTuple.
    for (size_t i = 0; i < cols.size; ++i) {
      const Tuple t = cols.Get(i);
      if (track_last_ts_) TrackTuple(t, fns);
      NoteTuple(t);
    }
  } else {
    // Monotone-run precondition: endpoints are the extrema.
    assert(cols.ts[0] <= cols.ts[cols.size - 1]);
    NoteTupleRange(cols.ts[0], cols.ts[cols.size - 1], cols.size);
  }
  for (size_t i = 0; i < fns.size(); ++i) {
    fns[i]->LiftCombineColumns(cols, aggs_[i]);
  }
  if (store_tuples) {
    tuples_.reserve(tuples_.size() + cols.size);
    for (size_t i = 0; i < cols.size; ++i) {
      // In-order runs append; fall back to sorted insert for stragglers so
      // the (ts, seq) invariant holds for any caller.
      const Tuple t = cols.Get(i);
      if (tuples_.empty() || !TupleLess(t, tuples_.back())) {
        tuples_.push_back(t);
      } else {
        RawInsertSorted(t);
      }
    }
  }
}

void Slice::NoteTupleRange(Time first, Time last, uint64_t count) {
  if (count == 0) return;
  dirty_ = true;
  if (t_first_ == kNoTime || first < t_first_) t_first_ = first;
  if (t_last_ == kNoTime || last > t_last_) t_last_ = last;
  tuple_count_ += count;
}

void Slice::Reset(Time start, Time end, size_t num_aggs) {
  dirty_ = true;
  start_ = start;
  end_ = end;
  t_first_ = t_last_ = kNoTime;
  tuple_count_ = 0;
  aggs_.assign(num_aggs, Partial{});
  tuples_.clear();
  // Recycled slices keep the tracking flag of their store but restart the
  // side state from scratch.
  prefix_aggs_.clear();
  last_aggs_.clear();
  prev_ts_ = kNoTime;
  last_count_ = 0;
}

void Slice::RecomputeFromTuples(const std::vector<AggregateFunctionPtr>& fns) {
  dirty_ = true;
  for (size_t i = 0; i < fns.size(); ++i) {
    Partial acc;
    for (const Tuple& t : tuples_) fns[i]->Combine(acc, fns[i]->Lift(t));
    aggs_[i] = std::move(acc);
  }
}

void Slice::MergeWith(const Slice& other,
                      const std::vector<AggregateFunctionPtr>& fns) {
  dirty_ = true;
  if (track_last_ts_ || other.track_last_ts_) MergeTrackingWith(other, fns);
  end_ = std::max(end_, other.end_);
  start_ = std::min(start_, other.start_);
  for (size_t i = 0; i < fns.size(); ++i) {
    fns[i]->Combine(aggs_[i], other.aggs_[i]);
  }
  if (!other.tuples_.empty()) {
    // Both slices keep tuples sorted; `other` covers a later range, but
    // out-of-order metadata moves can make ranges touch, so merge-sort to
    // stay safe.
    std::vector<Tuple> merged;
    merged.reserve(tuples_.size() + other.tuples_.size());
    std::merge(tuples_.begin(), tuples_.end(), other.tuples_.begin(),
               other.tuples_.end(), std::back_inserter(merged), TupleLess);
    tuples_ = std::move(merged);
  }
  if (other.t_first_ != kNoTime &&
      (t_first_ == kNoTime || other.t_first_ < t_first_)) {
    t_first_ = other.t_first_;
  }
  if (other.t_last_ != kNoTime &&
      (t_last_ == kNoTime || other.t_last_ > t_last_)) {
    t_last_ = other.t_last_;
  }
  tuple_count_ += other.tuple_count_;
}

/// Combines the side-partial state of two adjacent slices being merged.
/// Runs before any metadata or aggregate merging, so `this` still holds the
/// pre-merge fold. Only the strictly-later layout (other's tuples all after
/// ours) composes exactly; anything else conservatively disables tracking,
/// which merely falls back to the pre-fix split behavior.
void Slice::MergeTrackingWith(const Slice& other,
                              const std::vector<AggregateFunctionPtr>& fns) {
  if (other.empty()) return;  // our open group stays the newest
  if (empty()) {
    track_last_ts_ = other.track_last_ts_;
    prefix_aggs_ = other.prefix_aggs_;
    last_aggs_ = other.last_aggs_;
    prev_ts_ = other.prev_ts_;
    last_count_ = other.last_count_;
    return;
  }
  if (track_last_ts_ && other.track_last_ts_ && other.t_first_ > t_last_ &&
      !other.last_aggs_.empty()) {
    // New prefix = our complete fold (+) other's prefix; other's open
    // last-timestamp group stays open.
    std::vector<Partial> np = aggs_;
    for (size_t i = 0; i < fns.size() && i < other.prefix_aggs_.size(); ++i) {
      fns[i]->Combine(np[i], other.prefix_aggs_[i]);
    }
    prefix_aggs_ = std::move(np);
    last_aggs_ = other.last_aggs_;
    prev_ts_ = other.prev_ts_ != kNoTime ? other.prev_ts_ : t_last_;
    last_count_ = other.last_count_;
    return;
  }
  DisableTracking();
}

Slice Slice::SplitAt(Time t, const std::vector<AggregateFunctionPtr>& fns) {
  assert(start_ < t && t < end_);
  dirty_ = true;
  Slice right(t, end_, aggs_.size());
  right.track_last_ts_ = track_last_ts_;
  end_ = t;

  if (tuples_.empty()) {
    if (CanSplitAtTrackedLast(t)) {
      // Exact split at an occupied timestamp: the side partials hold the
      // fold of tuples below t (prefix) and exactly at t (last group), so
      // no tuple retention or recomputation is needed.
      assert(prefix_aggs_.size() == aggs_.size() &&
             last_aggs_.size() == aggs_.size());
      right.aggs_ = last_aggs_;
      right.t_first_ = right.t_last_ = t;
      right.tuple_count_ = last_count_;
      // The right half has no closed groups yet; its open group is ours.
      right.prefix_aggs_.assign(aggs_.size(), Partial{});
      right.last_aggs_ = std::move(last_aggs_);
      right.prev_ts_ = kNoTime;
      right.last_count_ = last_count_;

      aggs_ = std::move(prefix_aggs_);
      t_last_ = prev_ts_;
      tuple_count_ -= right.tuple_count_;
      // The left half keeps an occupied t_last it can no longer decompose.
      DisableTracking();
      return right;
    }
    // Metadata-only split: legal only when all tuples fall on one side.
    assert(empty() || t_last_ < t || t_first_ >= t);
    if (!empty() && t_first_ >= t) {
      // Everything moves to the right half, side partials included.
      right.aggs_ = std::move(aggs_);
      aggs_.assign(right.aggs_.size(), Partial{});
      right.t_first_ = t_first_;
      right.t_last_ = t_last_;
      right.tuple_count_ = tuple_count_;
      t_first_ = t_last_ = kNoTime;
      tuple_count_ = 0;
      if (track_last_ts_) {
        right.prefix_aggs_ = std::move(prefix_aggs_);
        right.last_aggs_ = std::move(last_aggs_);
        right.prev_ts_ = prev_ts_;
        right.last_count_ = last_count_;
        prefix_aggs_.clear();
        last_aggs_.clear();
        prev_ts_ = kNoTime;
        last_count_ = 0;
      }
    }
    return right;
  }
  // Tuples are stored: the side-partial decomposition is unnecessary (and
  // stale after the partition below), so drop it on both halves.
  DisableTracking();
  right.DisableTracking();

  // Real split: partition tuples at t and recompute both halves from scratch
  // (the expensive operation the paper warns about).
#ifdef SCOTTY_INJECT_SPLIT_BUG
  // Fuzzer self-test fault: tuples exactly at the split time stay in the
  // left slice, i.e. [start, t) silently becomes [start, t].
  auto pivot = std::lower_bound(
      tuples_.begin(), tuples_.end(), t,
      [](const Tuple& a, Time x) { return a.ts <= x; });
#else
  auto pivot = std::lower_bound(
      tuples_.begin(), tuples_.end(), t,
      [](const Tuple& a, Time x) { return a.ts < x; });
#endif
  right.tuples_.assign(pivot, tuples_.end());
  tuples_.erase(pivot, tuples_.end());

  auto reset_meta = [](Slice& s) {
    s.tuple_count_ = s.tuples_.size();
    if (s.tuples_.empty()) {
      s.t_first_ = s.t_last_ = kNoTime;
    } else {
      s.t_first_ = s.tuples_.front().ts;
      s.t_last_ = s.tuples_.back().ts;
    }
  };
  reset_meta(*this);
  reset_meta(right);
  RecomputeFromTuples(fns);
  right.RecomputeFromTuples(fns);
  return right;
}

Tuple Slice::PopLastTuple() {
  assert(!tuples_.empty());
  dirty_ = true;
  Tuple t = tuples_.back();
  tuples_.pop_back();
  --tuple_count_;
  if (tuples_.empty()) {
    t_first_ = t_last_ = kNoTime;
  } else {
    t_last_ = tuples_.back().ts;
  }
  return t;
}

void Slice::InsertTupleOnly(const Tuple& t) {
  dirty_ = true;
  RawInsertSorted(t);
  NoteTuple(t);
}

void Slice::RawInsertSorted(const Tuple& t) {
  auto it = std::upper_bound(tuples_.begin(), tuples_.end(), t, TupleLess);
  tuples_.insert(it, t);
}

size_t Slice::MemoryBytes() const {
  size_t bytes = MemoryModel::kSliceMetaBytes;
  for (const Partial& p : aggs_) bytes += p.TotalBytes();
  bytes += tuples_.capacity() * MemoryModel::kTupleBytes;
  return bytes;
}

void Slice::Serialize(state::Writer& w) const {
  w.I64(start_);
  w.I64(end_);
  w.I64(t_first_);
  w.I64(t_last_);
  w.U64(tuple_count_);
  w.U64(aggs_.size());
  for (const Partial& p : aggs_) p.Serialize(w);
  w.U64(tuples_.size());
  for (const Tuple& t : tuples_) state::SerializeTuple(w, t);
  w.Bool(track_last_ts_);
  if (track_last_ts_) {
    w.U64(prefix_aggs_.size());
    for (const Partial& p : prefix_aggs_) p.Serialize(w);
    w.U64(last_aggs_.size());
    for (const Partial& p : last_aggs_) p.Serialize(w);
    w.I64(prev_ts_);
    w.U64(last_count_);
  }
}

void Slice::Deserialize(state::Reader& r) {
  dirty_ = true;
  start_ = r.I64();
  end_ = r.I64();
  t_first_ = r.I64();
  t_last_ = r.I64();
  tuple_count_ = r.U64();
  const uint64_t na = r.U64();
  if (na > r.remaining()) {
    r.Fail();
    return;
  }
  aggs_.assign(static_cast<size_t>(na), Partial{});
  for (Partial& p : aggs_) p.Deserialize(r);
  const uint64_t nt = r.U64();
  if (nt > r.remaining()) {
    r.Fail();
    return;
  }
  tuples_.clear();
  tuples_.reserve(static_cast<size_t>(nt));
  for (uint64_t i = 0; i < nt && r.ok(); ++i) {
    tuples_.push_back(state::DeserializeTuple(r));
  }
  track_last_ts_ = r.Bool();
  prefix_aggs_.clear();
  last_aggs_.clear();
  prev_ts_ = kNoTime;
  last_count_ = 0;
  if (track_last_ts_) {
    const uint64_t np = r.U64();
    if (np > r.remaining()) {
      r.Fail();
      return;
    }
    prefix_aggs_.assign(static_cast<size_t>(np), Partial{});
    for (Partial& p : prefix_aggs_) p.Deserialize(r);
    const uint64_t nl = r.U64();
    if (nl > r.remaining()) {
      r.Fail();
      return;
    }
    last_aggs_.assign(static_cast<size_t>(nl), Partial{});
    for (Partial& p : last_aggs_) p.Deserialize(r);
    prev_ts_ = r.I64();
    last_count_ = r.U64();
  }
}

}  // namespace scotty
