#include "baselines/tuple_buffer.h"

#include <algorithm>
#include <cassert>
#include <iterator>

#include "common/memory.h"

namespace scotty {

namespace {

constexpr uint32_t kLazyTag = 0x54425546;   // "TBUF"
constexpr uint32_t kEagerTag = 0x4154524C;  // "ATRL"

bool TsLess(const Tuple& a, Time x) { return a.ts < x; }

}  // namespace

TupleBufferOperator::TupleBufferOperator(bool stream_in_order,
                                         Time allowed_lateness, StoreMode mode)
    : stream_in_order_(stream_in_order),
      allowed_lateness_(allowed_lateness),
      mode_(mode) {}

int TupleBufferOperator::AddAggregation(AggregateFunctionPtr fn) {
  assert(buffer_.empty() && "add aggregations before streaming");
  if (mode_ == StoreMode::kEager) trees_.emplace_back(fn);
  aggs_.push_back(std::move(fn));
  return static_cast<int>(aggs_.size()) - 1;
}

int TupleBufferOperator::AddWindow(WindowPtr w) {
  windows_.push_back(std::move(w));
  return static_cast<int>(windows_.size()) - 1;
}

void TupleBufferOperator::ProcessTuple(const Tuple& t) {
  const bool in_order = max_ts_ == kNoTime || t.ts >= max_ts_;
  const bool late = last_wm_ != kNoTime && t.ts <= last_wm_;
  if (late && t.ts < last_wm_ - allowed_lateness_) return;  // beyond lateness
  if (last_wm_ == kNoTime) {
    last_wm_ = t.ts - 1;
    wm_floor_ = last_wm_;
  }

  // Context-aware windows (sessions) track their state from the raw stream.
  std::vector<char> changed(windows_.size(), 0);
  std::vector<std::pair<int, std::vector<std::pair<Time, Time>>>> changed_wins;
  for (size_t w = 0; w < windows_.size(); ++w) {
    if (auto* caw = dynamic_cast<ContextAwareWindow*>(windows_[w].get())) {
      ContextModifications mods = caw->ProcessContext(t);
      if (!mods.changed_windows.empty()) {
        changed[w] = 1;
        changed_wins.emplace_back(static_cast<int>(w),
                                  std::move(mods.changed_windows));
      }
    }
  }

  if (!t.is_punctuation) {
    if (in_order) {
      buffer_.push_back(t);
      for (size_t a = 0; a < trees_.size(); ++a) {
        trees_[a].Append(aggs_[a]->Lift(t));
      }
    } else {
      // The expensive out-of-order path: insert into the sorted buffer (and
      // a leaf into the middle of each tree).
      auto it = std::upper_bound(buffer_.begin(), buffer_.end(), t, TupleLess);
      const size_t idx = static_cast<size_t>(it - buffer_.begin());
      buffer_.insert(it, t);
      for (size_t a = 0; a < trees_.size(); ++a) {
        trees_[a].InsertLeafAt(idx, aggs_[a]->Lift(t));
      }
    }
  }
  if (in_order) max_ts_ = t.ts;

  // Allowed-lateness updates. Windows ending at or before the watermark
  // floor (the first observed point in time) were never emitted and must not
  // resurface as updates.
  for (auto& [wid, wins] : changed_wins) {
    for (const auto& [s, e] : wins) {
      if (e <= last_wm_ && e > wm_floor_) {
        Emit(wid, s, e, TimeRange(s, e), true);
      }
    }
  }
  if (late) {
    for (size_t w = 0; w < windows_.size(); ++w) {
      if (changed[w] || windows_[w]->measure() == Measure::kCount) continue;
      WindowCollector c;
      windows_[w]->TriggerWindows(c, std::max(t.ts, wm_floor_), last_wm_);
      for (const auto& [s, e] : c.windows) {
        if (s <= t.ts) {
          Emit(static_cast<int>(w), s, e, TimeRange(s, e), true);
        }
      }
    }
    // A late tuple shifts every already-emitted count window ending after it.
    const auto rank_it =
        std::lower_bound(buffer_.begin(), buffer_.end(), t, TupleLess);
    const int64_t rank = evicted_count_ + (rank_it - buffer_.begin());
    for (size_t w = 0; w < windows_.size(); ++w) {
      if (windows_[w]->measure() != Measure::kCount) continue;
      WindowCollector c;
      windows_[w]->TriggerWindows(c, rank, last_cwm_);
      for (const auto& [cs, ce] : c.windows) {
        Emit(static_cast<int>(w), cs, ce, CountRange(cs, ce), true);
      }
    }
  }

  if (stream_in_order_) TriggerAll(t.ts);
}

void TupleBufferOperator::ProcessWatermark(Time wm) {
  if (last_wm_ == kNoTime) {
    last_wm_ = max_ts_ == kNoTime ? wm : std::min(wm, max_ts_ - 1);
    wm_floor_ = last_wm_;
  }
  TriggerAll(wm);
}

void TupleBufferOperator::TriggerAll(Time wm) {
  if (last_wm_ != kNoTime && wm <= last_wm_) return;
  // Count-domain watermark: tuples with ts <= wm.
  Tuple probe;
  probe.ts = wm;
  probe.seq = ~0ULL;
  const int64_t cwm =
      evicted_count_ +
      (std::upper_bound(buffer_.begin(), buffer_.end(), probe, TupleLess) -
       buffer_.begin());

  for (size_t w = 0; w < windows_.size(); ++w) {
    WindowCollector c;
    if (windows_[w]->measure() == Measure::kCount) {
      windows_[w]->TriggerWindows(c, last_cwm_, cwm);
      for (const auto& [cs, ce] : c.windows) {
        Emit(static_cast<int>(w), cs, ce, CountRange(cs, ce), false);
      }
    } else {
      windows_[w]->TriggerWindows(c, last_wm_, wm);
      for (const auto& [s, e] : c.windows) {
        Emit(static_cast<int>(w), s, e, TimeRange(s, e), false);
      }
    }
  }
  last_wm_ = wm;
  last_cwm_ = std::max(last_cwm_, cwm);
  Evict(wm);
}

TupleBufferOperator::Range TupleBufferOperator::TimeRange(Time start,
                                                          Time end) const {
  const auto lo =
      std::lower_bound(buffer_.begin(), buffer_.end(), start, TsLess);
  const auto hi = std::lower_bound(lo, buffer_.end(), end, TsLess);
  return {static_cast<size_t>(lo - buffer_.begin()),
          static_cast<size_t>(hi - buffer_.begin())};
}

TupleBufferOperator::Range TupleBufferOperator::CountRange(int64_t cs,
                                                           int64_t ce) const {
  const int64_t size = static_cast<int64_t>(buffer_.size());
  const int64_t lo = std::clamp(cs - evicted_count_, int64_t{0}, size);
  const int64_t hi = std::clamp(ce - evicted_count_, lo, size);
  return {static_cast<size_t>(lo), static_cast<size_t>(hi)};
}

Value TupleBufferOperator::RangeValue(size_t agg, size_t i, size_t j) const {
  const AggregateFunction& fn = *aggs_[agg];
  if (mode_ == StoreMode::kEager) return fn.Lower(trees_[agg].Query(i, j));
  // Lazy aggregation: fold every tuple of the window.
  Partial acc;
  const auto last = buffer_.begin() + static_cast<ptrdiff_t>(j);
  for (auto it = buffer_.begin() + static_cast<ptrdiff_t>(i); it != last;
       ++it) {
    fn.Combine(acc, fn.Lift(*it));
  }
  return fn.Lower(acc);
}

void TupleBufferOperator::Emit(int w, Time start, Time end, Range r,
                               bool update) {
  for (size_t a = 0; a < aggs_.size(); ++a) {
    WindowResult res;
    res.window_id = w;
    res.agg_id = static_cast<int>(a);
    res.start = start;
    res.end = end;
    res.value = RangeValue(a, r.first, r.second);
    res.is_update = update;
    results_.push_back(std::move(res));
  }
}

void TupleBufferOperator::Evict(Time wm) {
  Time safe = wm;
  for (const WindowPtr& w : windows_) {
    if (w->measure() == Measure::kCount) continue;
    const Time p = w->EvictionSafePoint(wm);
    if (p == kNoTime) return;
    safe = std::min(safe, p);
  }
  // Count windows retain by rank.
  int64_t safe_rank = last_cwm_;
  bool has_count = false;
  for (const WindowPtr& w : windows_) {
    if (w->measure() != Measure::kCount) continue;
    has_count = true;
    safe_rank = std::min(safe_rank, w->EvictionSafePoint(last_cwm_));
  }
  const Time bound = safe - allowed_lateness_;
  size_t k = 0;
  for (auto it = buffer_.begin(); it != buffer_.end() && it->ts < bound;
       ++it, ++k) {
    if (has_count && evicted_count_ + static_cast<int64_t>(k) >= safe_rank) {
      break;
    }
  }
  if (k > 0) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<ptrdiff_t>(k));
    evicted_count_ += static_cast<int64_t>(k);
    for (FlatFat& tree : trees_) tree.PopFront(k);
  }
  for (const WindowPtr& w : windows_) w->EvictState(bound);
}

void TupleBufferOperator::TakeResultsInto(std::vector<WindowResult>* out) {
  out->insert(out->end(), std::make_move_iterator(results_.begin()),
              std::make_move_iterator(results_.end()));
  results_.clear();
}

size_t TupleBufferOperator::MemoryUsageBytes() const {
  size_t bytes = buffer_.size() * MemoryModel::kTupleBytes;
  for (const FlatFat& tree : trees_) bytes += tree.MemoryBytes();
  return bytes;
}

void TupleBufferOperator::SerializeState(state::Writer& w) const {
  w.Tag(mode_ == StoreMode::kLazy ? kLazyTag : kEagerTag);
  w.U64(buffer_.size());
  for (const Tuple& t : buffer_) state::SerializeTuple(w, t);
  if (mode_ == StoreMode::kEager) {
    w.U64(trees_.size());
    for (const FlatFat& tree : trees_) tree.Serialize(w);
  }
  w.I64(evicted_count_);
  w.I64(max_ts_);
  w.I64(last_wm_);
  w.I64(wm_floor_);
  w.I64(last_cwm_);
  for (const WindowPtr& win : windows_) win->SerializeState(w);
  w.U64(results_.size());
  for (const WindowResult& res : results_) SerializeWindowResult(w, res);
}

void TupleBufferOperator::DeserializeState(state::Reader& r) {
  r.Tag(mode_ == StoreMode::kLazy ? kLazyTag : kEagerTag);
  const uint64_t n = r.U64();
  if (n > r.remaining()) {
    r.Fail();
    return;
  }
  buffer_.clear();
  for (uint64_t i = 0; i < n && r.ok(); ++i) {
    buffer_.push_back(state::DeserializeTuple(r));
  }
  if (mode_ == StoreMode::kEager) {
    if (r.U64() != trees_.size()) {
      r.Fail();
      return;
    }
    for (FlatFat& tree : trees_) tree.Deserialize(r);
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

}  // namespace scotty
