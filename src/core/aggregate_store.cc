#include "core/aggregate_store.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <utility>

#include "core/query_set.h"

namespace scotty {

AggregateStore::AggregateStore(StoreMode mode,
                               std::vector<AggregateFunctionPtr> fns)
    : mode_(mode), fns_(std::move(fns)) {
  if (mode_ == StoreMode::kEager) {
    trees_.reserve(fns_.size());
    for (const AggregateFunctionPtr& fn : fns_) trees_.emplace_back(fn);
  }
}

size_t AggregateStore::FindByStart(Time ts) const {
  // Last slice with start <= ts.
  auto it = std::upper_bound(
      slices_.begin(), slices_.end(), ts,
      [](Time x, const Slice& s) { return x < s.start(); });
  if (it == slices_.begin()) return kNpos;
  return static_cast<size_t>(it - slices_.begin()) - 1;
}

size_t AggregateStore::FindCovering(Time ts) const {
  const size_t i = FindByStart(ts);
  if (i == kNpos) return kNpos;
  return ts < slices_[i].end() ? i : kNpos;
}

size_t AggregateStore::FindOrInsertCovering(Time ts,
                                            const QuerySet& queries) {
  const size_t before = FindByStart(ts);  // kNpos -> insert at the front
  if (before != kNpos && ts < slices_[before].end()) return before;
  auto [start, end] = queries.TimeGridCell(ts);
  const size_t pos = before == kNpos ? 0 : before + 1;
  if (pos > 0) start = std::max(start, slices_[pos - 1].end());
  if (pos < slices_.size()) end = std::min(end, slices_[pos].start());
  assert(start <= ts && ts < end);
  InsertAt(pos, start, end);
  return pos;
}

size_t AggregateStore::FirstEndingAfter(Time ts) const {
  auto it = std::upper_bound(
      slices_.begin(), slices_.end(), ts,
      [](Time x, const Slice& s) { return x < s.end(); });
  return static_cast<size_t>(it - slices_.begin());
}

Slice AggregateStore::MakeSlice(Time start, Time end) {
  if (!free_slices_.empty()) {
    Slice s = std::move(free_slices_.back());
    free_slices_.pop_back();
    s.Reset(start, end, fns_.size());
    if (track_last_ts_) s.EnableLastTsTracking();
    return s;
  }
  Slice s(start, end, fns_.size());
  if (track_last_ts_) s.EnableLastTsTracking();
  return s;
}

void AggregateStore::Retire(Slice&& s) {
  if (free_slices_.size() >= kMaxFreeSlices) return;
  free_slices_.push_back(std::move(s));
}

Slice& AggregateStore::Append(Time start, Time end) {
  assert(slices_.empty() || start >= slices_.back().end());
  slices_.push_back(MakeSlice(start, end));
  ++slices_created_;
  for (FlatFat& tree : trees_) tree.Append(Partial{});
  return slices_.back();
}

Slice& AggregateStore::InsertAt(size_t idx, Time start, Time end) {
  assert(idx <= slices_.size());
  slices_.insert(slices_.begin() + static_cast<ptrdiff_t>(idx),
                 MakeSlice(start, end));
  ++slices_created_;
  if (mode_ == StoreMode::kEager) {
    for (size_t a = 0; a < trees_.size(); ++a) {
      trees_[a].InsertLeafAt(idx, Partial{});
    }
  }
  return slices_[idx];
}

void AggregateStore::MergeWithNext(size_t i) {
  assert(i + 1 < slices_.size());
  slices_[i].MergeWith(slices_[i + 1], fns_);
  Retire(std::move(slices_[i + 1]));
  slices_.erase(slices_.begin() + static_cast<ptrdiff_t>(i) + 1);
  if (mode_ == StoreMode::kEager) {
    for (size_t a = 0; a < trees_.size(); ++a) {
      trees_[a].RemoveLeafAt(i + 1);
      trees_[a].UpdateLeaf(i, slices_[i].agg(a));
    }
  }
}

void AggregateStore::SplitAt(size_t i, Time t) {
  assert(i < slices_.size());
  Slice right = slices_[i].SplitAt(t, fns_);
  slices_.insert(slices_.begin() + static_cast<ptrdiff_t>(i) + 1,
                 std::move(right));
  ++slices_created_;
  if (mode_ == StoreMode::kEager) {
    for (size_t a = 0; a < trees_.size(); ++a) {
      trees_[a].UpdateLeaf(i, slices_[i].agg(a));
      trees_[a].InsertLeafAt(i + 1, slices_[i + 1].agg(a));
    }
  }
}

void AggregateStore::OnSliceAggUpdated(size_t i) {
  if (mode_ != StoreMode::kEager) return;
  for (size_t a = 0; a < trees_.size(); ++a) {
    trees_[a].UpdateLeaf(i, slices_[i].agg(a));
  }
}

void AggregateStore::EvictBefore(Time t) {
  size_t k = 0;
  while (k < slices_.size() && slices_[k].end() <= t) {
    total_tuples_ -= slices_[k].tuple_count();
    Retire(std::move(slices_[k]));
    ++k;
  }
  if (k == 0) return;
  slices_.erase(slices_.begin(), slices_.begin() + static_cast<ptrdiff_t>(k));
  for (FlatFat& tree : trees_) tree.PopFront(k);
}

Partial AggregateStore::QuerySlices(size_t agg, size_t i, size_t j) const {
  assert(agg < fns_.size());
  if (i >= j) return Partial{};
  if (mode_ == StoreMode::kEager) return trees_[agg].Query(i, j);
  Partial acc;
  const AggregateFunction& fn = *fns_[agg];
  for (size_t k = i; k < j; ++k) fn.Combine(acc, slices_[k].agg(agg));
  return acc;
}

Partial AggregateStore::QueryRange(size_t agg, Time start, Time end) const {
  const size_t i = FirstEndingAfter(start);
  // First slice with start >= end bounds the range on the right.
  auto it = std::lower_bound(
      slices_.begin(), slices_.end(), end,
      [](const Slice& s, Time x) { return s.start() < x; });
  const size_t j = static_cast<size_t>(it - slices_.begin());
  return QuerySlices(agg, i, j);
}

Time AggregateStore::NthRecentTupleTime(Time t, int64_t n) const {
  if (n <= 0) return kNoTime;
  size_t i = FindByStart(t);
  if (i == kNpos) return kNoTime;
  int64_t remaining = n;
  for (size_t k = i + 1; k-- > 0;) {
    const std::vector<Tuple>& tuples = slices_[k].tuples();
    if (tuples.empty()) {
      if (slices_[k].tuple_count() > 0) return kNoTime;  // not retained
      continue;
    }
    // Tuples are sorted by (ts, seq); count those with ts < t from the back.
    auto ub = std::lower_bound(
        tuples.begin(), tuples.end(), t,
        [](const Tuple& a, Time x) { return a.ts < x; });
    int64_t avail = static_cast<int64_t>(ub - tuples.begin());
    if (avail >= remaining) {
      return tuples[static_cast<size_t>(avail - remaining)].ts;
    }
    remaining -= avail;
  }
  return kNoTime;
}

size_t AggregateStore::MemoryBytes() const {
  size_t bytes = 0;
  for (const Slice& s : slices_) bytes += s.MemoryBytes();
  for (const FlatFat& tree : trees_) bytes += tree.MemoryBytes();
  return bytes;
}

void AggregateStore::Serialize(state::Writer& w, bool delta) const {
  w.Tag(0x53444C54);  // "SDLT"
  w.Bool(track_last_ts_);
  w.U64(total_tuples_);
  w.U64(slices_created_);
  w.U64(slices_.size());
  for (const Slice& s : slices_) {
    const bool inline_slice = !delta || s.snapshot_dirty();
    w.Bool(inline_slice);
    if (inline_slice) {
      s.Serialize(w);
    } else {
      w.I64(s.start());
    }
  }
  w.U64(trees_.size());
  for (const FlatFat& tree : trees_) {
    w.U64(tree.capacity());
    w.U64(tree.offset());
    w.U64(tree.size());
  }
}

void AggregateStore::Deserialize(state::Reader& r) {
  r.Tag(0x53444C54);
  const bool track = r.Bool();
  const uint64_t total = r.U64();
  const uint64_t created = r.U64();
  const uint64_t ns = r.U64();
  if (!r.ok() || ns > r.remaining()) {
    r.Fail();
    return;
  }
  std::deque<Slice> next;
  for (uint64_t i = 0; i < ns && r.ok(); ++i) {
    if (r.Bool()) {
      next.emplace_back(0, 0, fns_.size());
      next.back().Deserialize(r);
      continue;
    }
    const Time start = r.I64();
    if (!r.ok()) return;
    const size_t idx = FindByStart(start);
    // A reference must resolve to an untouched slice of the previous
    // epoch; anything else means a barrier is missing between this delta
    // and the state it is being applied to.
    if (idx == kNpos || slices_[idx].start() != start ||
        slices_[idx].snapshot_dirty()) {
      r.Fail();
      return;
    }
    next.push_back(slices_[idx]);
  }
  const uint64_t ntrees = r.U64();
  if (!r.ok()) return;
  std::vector<std::array<uint64_t, 3>> layouts;
  if (ntrees != (mode_ == StoreMode::kEager ? fns_.size() : 0)) {
    r.Fail();
    return;
  }
  layouts.reserve(static_cast<size_t>(ntrees));
  for (uint64_t a = 0; a < ntrees; ++a) {
    const uint64_t cap = r.U64();
    const uint64_t off = r.U64();
    const uint64_t size = r.U64();
    if (!r.ok() || size != next.size()) {
      r.Fail();
      return;
    }
    layouts.push_back({cap, off, size});
  }

  track_last_ts_ = track;
  total_tuples_ = total;
  slices_created_ = created;
  slices_ = std::move(next);
  free_slices_.clear();
  trees_.clear();
  trees_.reserve(layouts.size());
  for (size_t a = 0; a < layouts.size(); ++a) {
    trees_.emplace_back(fns_[a]);
    const bool ok = trees_[a].RestoreFromLayout(
        static_cast<size_t>(layouts[a][0]), static_cast<size_t>(layouts[a][1]),
        static_cast<size_t>(layouts[a][2]),
        [&](size_t i) -> const Partial& { return slices_[i].agg(a); });
    if (!ok) {
      r.Fail();
      return;
    }
  }
}

void AggregateStore::MarkAllClean() {
  for (Slice& s : slices_) s.MarkSnapshotClean();
}

}  // namespace scotty
