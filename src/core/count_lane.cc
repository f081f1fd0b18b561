#include "core/count_lane.h"

#include <algorithm>
#include <cassert>

namespace scotty {

CountLane::CountLane(StoreMode mode, QuerySet* queries, OperatorStats* stats)
    : store_(mode, queries->aggs), queries_(queries), stats_(stats) {}

int64_t CountLane::NextEdge(int64_t rank) const {
  Time edge = kMaxTime;
  for (const WindowPtr& w : queries_->windows) {
    if (!QuerySet::OnCountLane(w)) continue;
    const Time e = w->GetNextEdge(rank);
    if (e < edge) edge = e;
  }
  return edge;
}

void CountLane::EnsureOpenSlice(int64_t rank) {
  if (store_.Empty()) {
    store_.Append(rank, NextEdge(rank));
    return;
  }
  if (rank >= store_.Current()->end()) {
    // Ranks advance one by one, so the new slice starts exactly at the old
    // slice's end.
    store_.Append(store_.Current()->end(), NextEdge(rank));
  }
}

void CountLane::Add(const Tuple& t, bool in_order,
                    std::vector<WindowResult>* out) {
  // An out-of-order arrival with no count slice yet is still rank-wise
  // first: a punctuation marker can advance the operator's max_ts before
  // any data tuple exists (markers never enter the count lane), making the
  // first data tuple "out of order" in event time. Count ranks only order
  // data tuples, so the in-order path is exact — and the out-of-order path
  // below must never run on an empty store (At(0) would be out of bounds).
  if (in_order || store_.Empty()) {
    const int64_t rank = total_count_;
    EnsureOpenSlice(rank);
    Slice* cur = store_.Current();
    cur->AddTuple(t, store_.fns(), queries_->StoreTuples());
    store_.NoteTupleAdded();
    store_.OnSliceAggUpdated(store_.NumSlices() - 1);
    ++total_count_;
    return;
  }

  // Out-of-order: determine the slice covering the tuple's event-time
  // position. Tuples across slices are globally sorted by (ts, seq).
  assert(queries_->StoreTuples() &&
         "count measure with out-of-order tuples requires tuple storage");
  size_t lo = 0;
  size_t hi = store_.NumSlices();
  while (lo < hi) {  // first slice with t_first > t.ts
    const size_t mid = lo + (hi - lo) / 2;
    if (store_.At(mid).t_first() != kNoTime && store_.At(mid).t_first() > t.ts) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  const size_t idx = lo > 0 ? lo - 1 : 0;
  Slice& slice = store_.At(idx);

  // Rank of the inserted tuple (for update emission).
  const auto& tuples = slice.tuples();
  const auto pos = std::lower_bound(
      tuples.begin(), tuples.end(), t, [](const Tuple& a, const Tuple& b) {
        if (a.ts != b.ts) return a.ts < b.ts;
        return a.seq < b.seq;
      });
  const int64_t rank = slice.start() + (pos - tuples.begin());

  if (queries_->AllCommutative()) {
    slice.AddTuple(t, store_.fns(), /*store_tuple=*/true);
  } else {
    slice.InsertTupleOnly(t);
    slice.RecomputeFromTuples(store_.fns());
    ++stats_->slice_recomputes;
  }
  store_.NoteTupleAdded();
  store_.OnSliceAggUpdated(idx);
  ++total_count_;

  ShiftFrom(idx, out);
  EmitShiftUpdates(rank, out);
}

void CountLane::ShiftFrom(size_t idx, std::vector<WindowResult>* out) {
  (void)out;
  while (idx < store_.NumSlices()) {
    Slice& s = store_.At(idx);
    const int64_t capacity = s.end() - s.start();
    if (static_cast<int64_t>(s.tuple_count()) <= capacity) break;
    const Tuple moved = s.PopLastTuple();
    if (idx + 1 == store_.NumSlices()) {
      // Overflow out of the open slice: open the next one.
      store_.Append(s.end(), NextEdge(s.end()));
    }
    MoveTuple(idx, idx + 1, moved);
    ++stats_->count_shifts;
    ++idx;
  }
}

void CountLane::MoveTuple(size_t from, size_t to, const Tuple& t) {
  Slice& src = store_.At(from);
  Slice& dst = store_.At(to);
  const auto& fns = store_.fns();

  // Removal from the source slice (paper Fig. 6): incremental when the
  // aggregation is invertible — or when the removed tuple provably does not
  // affect the aggregate (e.g., it is not the slice's maximum) — and a full
  // recomputation from the stored tuples otherwise.
  bool need_recompute = false;
  for (size_t i = 0; i < fns.size(); ++i) {
    Partial lifted = fns[i]->Lift(t);
    if (!fns[i]->TryRemove(src.mutable_agg(i), lifted)) {
      need_recompute = true;
      break;
    }
  }
  if (need_recompute) {
    src.RecomputeFromTuples(fns);
    ++stats_->slice_recomputes;
  }
  store_.OnSliceAggUpdated(from);

  // Insertion into the next slice: the moved tuple precedes all existing
  // tuples there (it has the smallest ts), so non-commutative aggregations
  // must recompute.
  if (queries_->AllCommutative()) {
    dst.AddTuple(t, fns, /*store_tuple=*/true);
  } else {
    dst.InsertTupleOnly(t);
    dst.RecomputeFromTuples(fns);
    ++stats_->slice_recomputes;
  }
  store_.OnSliceAggUpdated(to);
}

int64_t CountLane::CountAtOrBefore(Time wm) const {
  if (store_.Empty()) return 0;
  // First slice with a tuple newer than wm.
  size_t lo = 0;
  size_t hi = store_.NumSlices();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    const Slice& s = store_.At(mid);
    if (s.t_last() != kNoTime && s.t_last() > wm) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  if (lo == store_.NumSlices()) return total_count_;
  const Slice& boundary = store_.At(lo);
  int64_t count = boundary.start();
  if (boundary.t_first() != kNoTime && boundary.t_first() <= wm) {
    const auto& tuples = boundary.tuples();
    if (!tuples.empty()) {
      auto it = std::upper_bound(
          tuples.begin(), tuples.end(), wm,
          [](Time x, const Tuple& a) { return x < a.ts; });
      count += it - tuples.begin();
    }
  }
  return count;
}

void CountLane::Trigger(int64_t prev_cwm, int64_t cwm,
                        std::vector<WindowResult>* out) {
  if (cwm <= prev_cwm) return;
  for (size_t w = 0; w < queries_->windows.size(); ++w) {
    const WindowPtr& win = queries_->windows[w];
    if (!QuerySet::OnCountLane(win)) continue;
    WindowCollector c;
    win->TriggerWindows(c, prev_cwm, cwm);
    for (const auto& [cs, ce] : c.windows) {
      for (size_t a = 0; a < store_.fns().size(); ++a) {
        WindowResult r;
        r.window_id = static_cast<int>(w);
        r.agg_id = static_cast<int>(a);
        r.start = cs;
        r.end = ce;
        r.value = store_.fns()[a]->Lower(store_.QueryRange(a, cs, ce));
        out->push_back(std::move(r));
        ++stats_->windows_emitted;
      }
    }
  }
  last_cwm_ = std::max(last_cwm_, cwm);
  next_trigger_rank_ = NextEdge(last_cwm_);
}

void CountLane::EmitShiftUpdates(int64_t r, std::vector<WindowResult>* out) {
  if (last_cwm_ <= r) return;  // nothing emitted beyond the insert position
  for (size_t w = 0; w < queries_->windows.size(); ++w) {
    const WindowPtr& win = queries_->windows[w];
    if (!QuerySet::OnCountLane(win)) continue;
    WindowCollector c;
    // Every already-emitted window ending after the insert rank shifted.
    win->TriggerWindows(c, r, last_cwm_);
    for (const auto& [cs, ce] : c.windows) {
      for (size_t a = 0; a < store_.fns().size(); ++a) {
        WindowResult res;
        res.window_id = static_cast<int>(w);
        res.agg_id = static_cast<int>(a);
        res.start = cs;
        res.end = ce;
        res.value = store_.fns()[a]->Lower(store_.QueryRange(a, cs, ce));
        res.is_update = true;
        out->push_back(std::move(res));
        ++stats_->window_updates_emitted;
      }
    }
  }
}

void CountLane::Evict(int64_t safe_rank, Time safe_time) {
  int64_t evict_end = kNoTime;
  for (size_t i = 0; i < store_.NumSlices(); ++i) {
    const Slice& s = store_.At(i);
    const bool complete =
        static_cast<int64_t>(s.tuple_count()) == s.end() - s.start();
    if (!complete || s.end() > safe_rank ||
        (s.t_last() != kNoTime && s.t_last() > safe_time)) {
      break;
    }
    evict_end = s.end();
  }
  if (evict_end != kNoTime) {
    evicted_ranks_ = evict_end;
    store_.EvictBefore(evict_end);
  }
}

}  // namespace scotty
