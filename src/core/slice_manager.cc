#include "core/slice_manager.h"

#include <algorithm>
#include <cassert>

namespace scotty {

void SliceManager::AddInOrder(const Tuple& t) {
  Slice* cur = store_->Current();
  assert(cur != nullptr && "stream slicer must open a slice first");
  cur->AddTuple(t, store_->fns(), queries_->StoreTuples());
  store_->NoteTupleAdded();
  store_->OnSliceAggUpdated(store_->NumSlices() - 1);
}

size_t SliceManager::AddOutOfOrder(const Tuple& t) {
  const size_t idx = store_->FindOrInsertCovering(t.ts, *queries_);
  Slice& slice = store_->At(idx);
  if (queries_->AllCommutative()) {
    // One incremental aggregation step, exactly like an in-order tuple.
    slice.AddTuple(t, store_->fns(), queries_->StoreTuples());
  } else {
    // Non-commutative aggregation: retain the tuple and recompute the slice
    // aggregate in (ts, seq) order (paper Section 5.2, Update).
    assert(queries_->StoreTuples());
    slice.InsertTupleOnly(t);
    slice.RecomputeFromTuples(store_->fns());
    ++stats_->slice_recomputes;
  }
  store_->NoteTupleAdded();
  store_->OnSliceAggUpdated(idx);
  return idx;
}

void SliceManager::Apply(const ContextModifications& mods) {
  for (const auto& [a, b] : mods.merged_ranges) ApplyMerge(a, b);
  for (const auto& r : mods.resizes) ApplyResize(r);
  for (Time t : mods.split_edges) EnsureEdge(t);
}

void SliceManager::EnsureEdge(Time t) {
  const size_t idx = store_->FindCovering(t);
  if (idx == AggregateStore::kNpos) return;  // uncovered: nothing spans t
  Slice& s = store_->At(idx);
  if (s.start() == t) return;  // boundary already exists
  if (!s.tuples().empty() || s.empty() || s.t_last() < t || s.t_first() >= t ||
      s.CanSplitAtTrackedLast(t)) {
    store_->SplitAt(idx, t);
    ++stats_->slice_splits;
    if (!store_->At(idx).tuples().empty()) ++stats_->slice_recomputes;
    return;
  }
  // Tuples span the edge but were not retained: the workload
  // characterization promised this cannot happen (Fig. 4/5). Count it and
  // keep the aggregate on the left half so totals remain conserved.
  ++stats_->slice_splits;
  const Time end = s.end();
  s.set_end(t);
  store_->InsertAt(idx + 1, t, end);
}

void SliceManager::ApplyMerge(Time a, Time b) {
  // Merge adjacent slices whose shared boundary lies strictly inside (a, b)
  // and is no longer required by any window.
  size_t i = store_->FirstEndingAfter(a);
  while (i + 1 < store_->NumSlices()) {
    const Slice& left = store_->At(i);
    const Slice& right = store_->At(i + 1);
    if (right.start() >= b || left.start() >= b) break;
    const bool boundary_inside = left.end() > a && right.start() < b;
    if (!boundary_inside) {
      ++i;
      continue;
    }
    // No window may require a boundary anywhere between the slices' tuple
    // regions — including inside an empty gap between them.
    if (queries_->AnyTimeWindowEdgeInRange(left.end(), right.start())) {
      ++i;
      continue;
    }
    store_->MergeWithNext(i);
    ++stats_->slice_merges;
    // Do not advance: the merged slice may merge with the next one too.
  }
}

void SliceManager::ApplyResize(const ContextModifications::Resize& r) {
  // Locate the first slice of the resized extent.
  size_t i = store_->FindByStart(r.locate);
  if (i == AggregateStore::kNpos) i = 0;
  if (i >= store_->NumSlices()) return;

  // Extend the leading slice's start (session extended backward). The new
  // start must not cross another window's edge: tuples later landing in the
  // extended region would otherwise share a slice with tuples on the other
  // side of that edge.
  Slice& first = store_->At(i);
  if (r.new_start < first.start()) {
    Time start = r.new_start;
    // Include the old start itself: if any window requires an edge there
    // (or anywhere in between), the slice must not absorb the region below
    // it. The resized session's own start edge equals new_start and never
    // blocks.
    const Time blocking =
        queries_->LastTimeWindowEdgeAtOrBefore(first.start());
    if (blocking != kNoTime) start = std::max(start, blocking);
    if (i > 0) start = std::max(start, store_->At(i - 1).end());
    if (start < first.start()) first.set_start(start);
  }

  // Find the last slice belonging to the extent and extend its end
  // (session extended forward), again clamped to the first edge any other
  // window requires.
  size_t j = i;
  while (j + 1 < store_->NumSlices() &&
         store_->At(j + 1).start() < r.new_end) {
    ++j;
  }
  Slice& last = store_->At(j);
  if (r.new_end > last.end()) {
    Time end = std::min(
        r.new_end, queries_->FirstTimeWindowEdgeAtOrAfter(last.end()));
    if (j + 1 < store_->NumSlices()) {
      end = std::min(end, store_->At(j + 1).start());
    }
    if (end > last.end()) last.set_end(end);
  }
}

}  // namespace scotty
