#include "core/general_slicing_operator.h"

#include <algorithm>
#include <cassert>
#include <iterator>

#include "aggregates/kernels.h"

namespace scotty {

GeneralSlicingOperator::GeneralSlicingOperator()
    : GeneralSlicingOperator(Options{}) {}

GeneralSlicingOperator::GeneralSlicingOperator(Options opts)
    : opts_(opts) {
  queries_.stream_in_order = opts_.stream_in_order;
  queries_.force_store_tuples = opts_.force_store_tuples;
}

int GeneralSlicingOperator::AddAggregation(AggregateFunctionPtr fn) {
  assert(!initialized_ &&
         "aggregations must be registered before the first tuple");
  assert(fn != nullptr);
  queries_.aggs.push_back(std::move(fn));
  queries_.Recharacterize();
  return static_cast<int>(queries_.aggs.size()) - 1;
}

int GeneralSlicingOperator::AddWindow(WindowPtr w) {
  assert(w != nullptr);
  assert(w->measure() != Measure::kProcessingTime &&
         "processing-time windows: assign ts = arrival order at ingestion "
         "and use an event-time window (see DESIGN.md)");
  if (w->measure() == Measure::kCount) {
    assert(w->context_class() == ContextClass::kContextFree &&
           "only context-free windows are supported on the count measure");
  }
  queries_.windows.push_back(std::move(w));
  queries_.Recharacterize();
  if (initialized_) RefreshLanes();
  return static_cast<int>(queries_.windows.size()) - 1;
}

void GeneralSlicingOperator::RemoveWindow(int window_id) {
  assert(window_id >= 0 &&
         window_id < static_cast<int>(queries_.windows.size()));
  const bool stored_before = queries_.StoreTuples();
  queries_.windows[static_cast<size_t>(window_id)] = nullptr;
  queries_.Recharacterize();
  if (initialized_) {
    RefreshLanes();
    // Adaptivity: when no remaining query needs retained tuples, drop them
    // to reclaim memory (paper Section 5: "stores the tuples themselves
    // only when it is required").
    if (stored_before && !queries_.StoreTuples() && time_store_) {
      for (size_t i = 0; i < time_store_->NumSlices(); ++i) {
        time_store_->At(i).DropTuples();
      }
    }
  }
}

void GeneralSlicingOperator::EnsureInitialized() {
  if (initialized_) return;
  assert(!queries_.aggs.empty() && "register aggregations before streaming");
  initialized_ = true;
  RefreshLanes();
}

void GeneralSlicingOperator::CreateTimeLane() {
  time_store_ =
      std::make_unique<AggregateStore>(opts_.store_mode, queries_.aggs);
  slice_mgr_ =
      std::make_unique<SliceManager>(time_store_.get(), &queries_, &stats_);
  slicer_ = std::make_unique<StreamSlicer>(time_store_.get(), &queries_);
  window_mgr_ = std::make_unique<WindowManager>(time_store_.get(), &queries_,
                                                slice_mgr_.get(), &stats_);
  // A lane created mid-stream (its first window added, or restored) starts
  // from the stream's floor like one created before the first tuple.
  window_mgr_->SetWatermarkFloor(wm_floor_);
}

void GeneralSlicingOperator::CreateCountLane() {
  count_lane_ =
      std::make_unique<CountLane>(opts_.store_mode, &queries_, &stats_);
}

void GeneralSlicingOperator::RefreshLanes(bool recache_edges) {
  if (queries_.HasTimeLane() && !time_store_) CreateTimeLane();
  if (queries_.HasCountLane() && !count_lane_) CreateCountLane();
  // In-order FCF workloads without tuple storage: keep a last-timestamp side
  // partial per slice so an FCF edge (punctuation, frame break) that lands
  // exactly on the open slice's newest timestamp splits exactly instead of
  // mis-assigning the same-timestamp tuples (see Slice::CanSplitAtTrackedLast).
  if (time_store_ && opts_.stream_in_order && !queries_.StoreTuples() &&
      queries_.chars.any_fcf_window) {
    time_store_->EnableLastTsTracking();
  }
  // Rebind context-aware windows and refresh caches after query changes.
  ca_windows_.clear();
  cf_trigger_heap_ = {};
  win_prev_wm_.assign(queries_.windows.size(), kNoTime);
  for (size_t i = 0; i < queries_.windows.size(); ++i) {
    const WindowPtr& w = queries_.windows[i];
    if (!QuerySet::OnTimeLane(w)) continue;
    if (auto* caw = dynamic_cast<ContextAwareWindow*>(w.get())) {
      caw->Bind(time_store_.get());
      ca_windows_.push_back({static_cast<int>(i), caw});
    } else {
      // kNoTime sorts first: the window is visited on the next trigger,
      // which computes its real next edge.
      cf_trigger_heap_.push({kNoTime, static_cast<int>(i)});
    }
  }
  has_ca_windows_ = !ca_windows_.empty();
  if (recache_edges && slicer_ && max_ts_ != kNoTime) slicer_->Recache(max_ts_);
  if (count_lane_) count_lane_->InvalidateTriggerCache();
  next_trigger_edge_ = kNoTime;  // recompute on next trigger check
}

void GeneralSlicingOperator::ProcessTuple(const Tuple& t) {
  EnsureInitialized();
  const bool in_order = max_ts_ == kNoTime || t.ts >= max_ts_;
  ++stats_.tuples_processed;
  if (!in_order) ++stats_.out_of_order_tuples;

  const bool late = last_wm_ != kNoTime && t.ts <= last_wm_;
  if (late) {
    if (t.ts < last_wm_ - opts_.allowed_lateness) {
      ++stats_.dropped_tuples;
      return;
    }
    ++stats_.late_tuples;
  }
  if (last_wm_ == kNoTime) {
    // Baseline for the first trigger: windows ending before the first tuple
    // are empty and not reported.
    last_wm_ = t.ts - 1;
    wm_floor_ = last_wm_;
    if (window_mgr_) window_mgr_->SetWatermarkFloor(wm_floor_);
  }

  if (time_store_) {
    if (in_order) slicer_->OnInOrderTuple(t.ts);

    // Step 2 (Slice Manager): context-aware windows observe every tuple and
    // request splits / merges / extent updates.
    std::vector<char> ctx_changed;
    std::vector<std::pair<int, std::vector<std::pair<Time, Time>>>> changed;
    for (auto& [wid, caw] : ca_windows_) {
      ContextModifications mods = caw->ProcessContext(t);
      if (mods.Empty()) continue;
      slice_mgr_->Apply(mods);
      if (!mods.changed_windows.empty()) {
        if (ctx_changed.empty()) ctx_changed.assign(queries_.windows.size(), 0);
        ctx_changed[static_cast<size_t>(wid)] = 1;
        changed.emplace_back(wid, std::move(mods.changed_windows));
      }
    }

    if (!t.is_punctuation) {
      if (in_order) {
        slice_mgr_->AddInOrder(t);
      } else {
        slice_mgr_->AddOutOfOrder(t);
      }
    }

    if (in_order) {
      if (has_ca_windows_) slicer_->Recache(t.ts);
    }

    // Allowed-lateness updates (Window Manager, paper Step 3): emitted
    // windows whose aggregate the late tuple changed.
    for (auto& [wid, wins] : changed) {
      window_mgr_->EmitChangedWindows(wid, wins, last_wm_, &results_);
    }
    if (late) {
      window_mgr_->EmitLateUpdates(t.ts, last_wm_,
                                   ctx_changed.empty() ? nullptr : &ctx_changed,
                                   &results_);
    }
  }

  if (count_lane_ && !t.is_punctuation) {
    count_lane_->Add(t, in_order, &results_);
  }

  if (in_order) max_ts_ = t.ts;

  if (opts_.stream_in_order) {
    // Every in-order tuple acts as a watermark (paper Section 5.3 Step 3).
    // The common case is one comparison against the cached next edge.
    if (next_trigger_edge_ == kNoTime || has_ca_windows_) {
      next_trigger_edge_ = NextTriggerEdge();
    }
    const bool count_due =
        count_lane_ && count_lane_->NeedsTrigger(count_lane_->total_count());
    if (t.ts >= next_trigger_edge_ || count_due) {
      TriggerAll(t.ts);
      next_trigger_edge_ = NextTriggerEdge();
    }
  }
}

void GeneralSlicingOperator::ProcessTupleColumns(const TupleColumnsView& cols) {
  EnsureInitialized();
  // The run fold below only models the pure time-lane, context-free flow;
  // count measures and context-aware windows (sessions) observe every tuple
  // individually, so those workloads take the per-tuple path unchanged.
  const bool batchable =
      time_store_ != nullptr && !has_ca_windows_ && count_lane_ == nullptr;
  if (!batchable) {
    for (size_t i = 0; i < cols.size; ++i) ProcessTuple(cols.Get(i));
    return;
  }

  const bool store_tuples = queries_.StoreTuples();
  // punct == nullptr is the producer's promise that the view is all data
  // tuples; the run scan then needs no per-element punctuation test.
  const bool no_punct = cols.punct == nullptr;
  const size_t n = cols.size;
  size_t i = 0;
  while (i < n) {
    // A tuple folds straight into the open slice iff it is in-order, not
    // late, not punctuation, and stays strictly below the next slice edge
    // (so the slicer's cached edge check stays a no-op). On declared
    // in-order streams it must additionally stay below the next trigger
    // edge, so per-tuple trigger timing is preserved exactly.
    Time bound = slicer_->next_edge();
    if (opts_.stream_in_order) {
      if (next_trigger_edge_ == kNoTime) next_trigger_edge_ = NextTriggerEdge();
      bound = std::min(bound, next_trigger_edge_);
    }
    const Time first_ts = cols.ts[i];
    const bool foldable = max_ts_ != kNoTime && last_wm_ != kNoTime &&
                          !cols.IsPunct(i) && first_ts >= max_ts_ &&
                          first_ts > last_wm_ && first_ts < bound;
    if (!foldable) {
      // Straggler (first tuple, late, out-of-order, punctuation, or an
      // edge/trigger crossing): full machinery, then re-derive the bounds.
      ProcessTuple(cols.Get(i));
      ++i;
      continue;
    }
    // Extend the run: vectorized monotone scan over the dense ts column
    // when the view is punctuation-free, scalar scan with the punctuation
    // test otherwise.
    size_t run = 1;
    if (no_punct) {
      run += simd::MonotoneRunLength(cols.ts + i + 1, n - i - 1, first_ts,
                                     bound);
    } else {
      Time run_last = first_ts;
      size_t j = i + 1;
      while (j < n && cols.punct[j] == 0 && cols.ts[j] >= run_last &&
             cols.ts[j] < bound) {
        run_last = cols.ts[j];
        ++j;
      }
      run = j - i;
    }
    // Fold the whole run with one virtual dispatch per aggregation and one
    // eager-tree leaf refresh, instead of per-tuple Lift+Combine calls.
    Slice* cur = time_store_->Current();
    assert(cur != nullptr && "open slice must exist after the first tuple");
    cur->AddTupleColumns(cols.Subview(i, run), time_store_->fns(),
                         store_tuples);
    time_store_->NoteTuplesAdded(run);
    time_store_->OnSliceAggUpdated(time_store_->NumSlices() - 1);
    stats_.tuples_processed += run;
    max_ts_ = cols.ts[i + run - 1];
    i += run;
  }
}

void GeneralSlicingOperator::MergePreAggregatedSlice(const Slice& local) {
  EnsureInitialized();
  assert(time_store_ != nullptr && !has_ca_windows_ &&
         count_lane_ == nullptr &&
         "pre-aggregated merge only supports the context-free time lane");
  assert(local.num_aggs() == time_store_->fns().size());
  if (local.empty()) return;
  const size_t idx =
      time_store_->FindOrInsertCovering(local.start(), queries_);
  Slice& s = time_store_->At(idx);
  assert(s.start() == local.start() && s.end() == local.end() &&
         "merged slice bounds must match the engine's slice edges");
  const auto& fns = time_store_->fns();
  for (size_t i = 0; i < fns.size(); ++i) {
    fns[i]->Combine(s.mutable_agg(i), local.agg(i));
  }
  s.NoteTupleRange(local.t_first(), local.t_last(), local.tuple_count());
  time_store_->NoteTuplesAdded(local.tuple_count());
  time_store_->OnSliceAggUpdated(idx);
  stats_.tuples_processed += local.tuple_count();
  if (max_ts_ == kNoTime || local.t_last() > max_ts_) max_ts_ = local.t_last();
}

Time GeneralSlicingOperator::NextTriggerEdge() const {
  // Lower bound for the next window end: no trigger can fire before the
  // next edge of any time-lane window. Context-free edges come from the
  // trigger heap in O(1); context-aware edges move with the stream and are
  // recomputed.
  Time edge = cf_trigger_heap_.empty() ? kMaxTime : cf_trigger_heap_.top().first;
  for (const auto& [wid, caw] : ca_windows_) {
    edge = std::min(edge, caw->GetNextEdge(last_wm_));
  }
  return edge;
}

void GeneralSlicingOperator::ProcessWatermark(Time wm) {
  EnsureInitialized();
  if (last_wm_ == kNoTime) {
    // No windows before the first observed point in time.
    last_wm_ = max_ts_ == kNoTime ? wm : std::min(wm, max_ts_ - 1);
    wm_floor_ = last_wm_;
    if (window_mgr_) window_mgr_->SetWatermarkFloor(wm_floor_);
  }
  TriggerAll(wm);
}

void GeneralSlicingOperator::TriggerAll(Time wm) {
  if (last_wm_ != kNoTime && wm <= last_wm_) return;
  const Time prev_global = last_wm_;
  if (window_mgr_) {
    // Context-free windows: only those whose cached next edge the watermark
    // passed are visited (heap pop), keeping trigger cost independent of
    // the number of idle concurrent queries.
    while (!cf_trigger_heap_.empty() && cf_trigger_heap_.top().first <= wm) {
      const auto [edge, wid] = cf_trigger_heap_.top();
      cf_trigger_heap_.pop();
      const WindowPtr& win = queries_.windows[static_cast<size_t>(wid)];
      if (!QuerySet::OnTimeLane(win)) continue;  // removed query
      Time prev = win_prev_wm_[static_cast<size_t>(wid)];
      if (prev == kNoTime) prev = prev_global;
      window_mgr_->TriggerWindow(wid, prev, wm, &results_);
      win_prev_wm_[static_cast<size_t>(wid)] = wm;
      cf_trigger_heap_.push({win->GetNextEdge(wm), wid});
    }
    // Context-aware windows: edges move with the stream; visit every time.
    for (const auto& [wid, caw] : ca_windows_) {
      Time prev = win_prev_wm_[static_cast<size_t>(wid)];
      if (prev == kNoTime) prev = prev_global;
      window_mgr_->TriggerWindow(wid, prev, wm, &results_);
      win_prev_wm_[static_cast<size_t>(wid)] = wm;
    }
  }
  if (count_lane_) {
    const int64_t cwm = opts_.stream_in_order
                            ? count_lane_->total_count()
                            : count_lane_->CountAtOrBefore(wm);
    count_lane_->Trigger(last_cwm_, cwm, &results_);
    last_cwm_ = std::max(last_cwm_, cwm);
  }
  last_wm_ = wm;
  Evict(wm);
}

void GeneralSlicingOperator::Evict(Time wm) {
  if (time_store_) {
    const Time bound = queries_.TimeEvictionBound(wm, opts_.allowed_lateness);
    if (bound != kNoTime) {
      time_store_->EvictBefore(bound);
      for (const WindowPtr& w : queries_.windows) {
        if (QuerySet::OnTimeLane(w)) w->EvictState(bound);
      }
    }
  }
  if (count_lane_) {
    Time safe_rank = last_cwm_;
    for (const WindowPtr& w : queries_.windows) {
      if (!QuerySet::OnCountLane(w)) continue;
      safe_rank = std::min(safe_rank, w->EvictionSafePoint(last_cwm_));
    }
    count_lane_->Evict(safe_rank, wm - opts_.allowed_lateness);
  }
}

void GeneralSlicingOperator::TakeResultsInto(std::vector<WindowResult>* out) {
  // Keep results_'s capacity so steady-state drains never reallocate.
  out->insert(out->end(), std::make_move_iterator(results_.begin()),
              std::make_move_iterator(results_.end()));
  results_.clear();
}

size_t GeneralSlicingOperator::MemoryUsageBytes() const {
  size_t bytes = 0;
  if (time_store_) bytes += time_store_->MemoryBytes();
  if (count_lane_) bytes += count_lane_->MemoryBytes();
  return bytes;
}

std::string GeneralSlicingOperator::Name() const {
  return opts_.store_mode == StoreMode::kLazy ? "general-slicing-lazy"
                                              : "general-slicing-eager";
}

namespace {
constexpr uint32_t kOperatorTag = 0x47534F50;  // "GSOP"
}  // namespace

void GeneralSlicingOperator::SerializeState(state::Writer& w) const {
  SerializeImpl(w, /*delta=*/false);
}

void GeneralSlicingOperator::SerializeDelta(state::Writer& w) const {
  SerializeImpl(w, /*delta=*/true);
}

void GeneralSlicingOperator::MarkSnapshotClean() {
  if (time_store_) time_store_->MarkAllClean();
}

void GeneralSlicingOperator::SerializeImpl(state::Writer& w,
                                           bool delta) const {
  w.Tag(kOperatorTag);
  w.Bool(initialized_);
  if (!initialized_) return;

  // Query-set fingerprint: restore requires the same windows and
  // aggregations in the same order. Removed windows serialize as absent.
  w.U32(static_cast<uint32_t>(queries_.windows.size()));
  for (const WindowPtr& win : queries_.windows) {
    w.Bool(win != nullptr);
    if (win) w.Str(win->Name());
  }
  w.U32(static_cast<uint32_t>(queries_.aggs.size()));
  for (const AggregateFunctionPtr& fn : queries_.aggs) w.Str(fn->Name());

  w.U64(stats_.tuples_processed);
  w.U64(stats_.out_of_order_tuples);
  w.U64(stats_.late_tuples);
  w.U64(stats_.dropped_tuples);
  w.U64(stats_.slice_merges);
  w.U64(stats_.slice_splits);
  w.U64(stats_.slice_recomputes);
  w.U64(stats_.count_shifts);
  w.U64(stats_.windows_emitted);
  w.U64(stats_.window_updates_emitted);

  w.I64(max_ts_);
  w.I64(last_wm_);
  w.I64(wm_floor_);
  w.I64(last_cwm_);

  // Window-internal context (sessions, punctuation edges, frames).
  for (const WindowPtr& win : queries_.windows) {
    if (win) win->SerializeState(w);
  }
  w.U64(win_prev_wm_.size());
  for (Time t : win_prev_wm_) w.I64(t);

  w.Bool(time_store_ != nullptr);
  if (time_store_) {
    time_store_->Serialize(w, delta);
    slicer_->Serialize(w);
  }
  w.Bool(count_lane_ != nullptr);
  if (count_lane_) count_lane_->Serialize(w);

  w.U64(results_.size());
  for (const WindowResult& res : results_) SerializeWindowResult(w, res);
}

void GeneralSlicingOperator::DeserializeState(state::Reader& r) {
  r.Tag(kOperatorTag);
  const bool was_initialized = r.Bool();
  if (!r.ok() || !was_initialized) return;

  const uint32_t nwin = r.U32();
  if (nwin != queries_.windows.size()) {
    r.Fail();
    return;
  }
  for (const WindowPtr& win : queries_.windows) {
    const bool present = r.Bool();
    if (present != (win != nullptr) ||
        (present && r.Str() != win->Name())) {
      r.Fail();
      return;
    }
  }
  const uint32_t nagg = r.U32();
  if (nagg != queries_.aggs.size()) {
    r.Fail();
    return;
  }
  for (const AggregateFunctionPtr& fn : queries_.aggs) {
    if (r.Str() != fn->Name()) {
      r.Fail();
      return;
    }
  }
  if (!r.ok()) return;

  stats_.tuples_processed = r.U64();
  stats_.out_of_order_tuples = r.U64();
  stats_.late_tuples = r.U64();
  stats_.dropped_tuples = r.U64();
  stats_.slice_merges = r.U64();
  stats_.slice_splits = r.U64();
  stats_.slice_recomputes = r.U64();
  stats_.count_shifts = r.U64();
  stats_.windows_emitted = r.U64();
  stats_.window_updates_emitted = r.U64();

  max_ts_ = r.I64();
  last_wm_ = r.I64();
  wm_floor_ = r.I64();
  last_cwm_ = r.I64();

  for (const WindowPtr& win : queries_.windows) {
    if (win) win->DeserializeState(r);
  }
  if (!r.ok()) return;

  // Recreate lanes and bindings, but do NOT recache slice edges: the
  // slicer's cached edge and the open slice's provisional end are restored
  // verbatim from the payload below. Recaching here would mutate the store
  // before its bytes are read — that would dirty the previous epoch's open
  // slice and invalidate a delta's references to it.
  initialized_ = true;
  RefreshLanes(/*recache_edges=*/false);

  const uint64_t nprev = r.U64();
  if (nprev != win_prev_wm_.size()) {
    r.Fail();
    return;
  }
  for (Time& t : win_prev_wm_) t = r.I64();

  // Reconstruct the CF trigger heap from the per-window trigger progress.
  // RefreshLanes seeded every entry with {kNoTime, wid}, which would visit
  // all CF windows on the next watermark in window-id order; the original
  // operator pops them in edge order, and emission order is part of the
  // bit-identical restore contract. The heap is a pure function of
  // win_prev_wm_: a window triggered at wm was re-pushed with edge
  // GetNextEdge(wm).
  cf_trigger_heap_ = {};
  for (size_t i = 0; i < queries_.windows.size(); ++i) {
    const WindowPtr& win = queries_.windows[i];
    if (!win || !QuerySet::OnTimeLane(win)) continue;
    if (dynamic_cast<ContextAwareWindow*>(win.get()) != nullptr) continue;
    const Time prev = win_prev_wm_[i];
    cf_trigger_heap_.push(
        {prev == kNoTime ? kNoTime : win->GetNextEdge(prev),
         static_cast<int>(i)});
  }

  // A lane outlives the windows that needed it: after the last window of a
  // lane was removed, the source still holds that lane's state.
  const bool had_time_store = r.Bool();
  if (had_time_store && !time_store_) CreateTimeLane();
  if (had_time_store != (time_store_ != nullptr)) {
    r.Fail();
    return;
  }
  if (time_store_) {
    time_store_->Deserialize(r);
    slicer_->Deserialize(r);
  }
  const bool had_count_lane = r.Bool();
  if (had_count_lane && !count_lane_) CreateCountLane();
  if (had_count_lane != (count_lane_ != nullptr)) {
    r.Fail();
    return;
  }
  if (count_lane_) count_lane_->Deserialize(r);

  const uint64_t nres = r.U64();
  if (nres > r.remaining()) {
    r.Fail();
    return;
  }
  results_.clear();
  results_.reserve(static_cast<size_t>(nres));
  for (uint64_t i = 0; i < nres && r.ok(); ++i) {
    results_.push_back(DeserializeWindowResult(r));
  }
  next_trigger_edge_ = kNoTime;  // lazily recomputed on the next tuple
}

}  // namespace scotty
