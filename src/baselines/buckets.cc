#include "baselines/buckets.h"

#include <algorithm>
#include <cassert>
#include <iterator>

#include "common/memory.h"
#include "windows/session.h"
#include "windows/sliding.h"
#include "windows/tumbling.h"

namespace scotty {

BucketsOperator::BucketsOperator(bool stream_in_order, Time allowed_lateness,
                                 BucketKind kind)
    : stream_in_order_(stream_in_order),
      allowed_lateness_(allowed_lateness),
      kind_(kind) {}

int BucketsOperator::AddAggregation(AggregateFunctionPtr fn) {
  if (!fn->IsCommutative()) any_non_commutative_ = true;
  if (fn->Class() == AggClass::kHolistic) any_holistic_ = true;
  aggs_.push_back(std::move(fn));
  return static_cast<int>(aggs_.size()) - 1;
}

int BucketsOperator::AddWindow(WindowPtr w) {
  const bool supported = dynamic_cast<TumblingWindow*>(w.get()) != nullptr ||
                         dynamic_cast<SlidingWindow*>(w.get()) != nullptr ||
                         dynamic_cast<SessionWindow*>(w.get()) != nullptr;
  assert(supported && "buckets support tumbling/sliding/session windows");
  (void)supported;
  if (w->measure() == Measure::kCount) has_count_windows_ = true;
  windows_.push_back(std::move(w));
  buckets_.emplace_back();
  return static_cast<int>(windows_.size()) - 1;
}

bool BucketsOperator::StoreTuples() const {
  switch (kind_) {
    case BucketKind::kAggregate:
      return false;
    case BucketKind::kTuple:
      return true;
    case BucketKind::kAuto:
      return any_non_commutative_ || any_holistic_ ||
             (has_count_windows_ && !stream_in_order_);
  }
  return false;
}

void BucketsOperator::AssignTuple(size_t w, const Tuple& t, Time key_start,
                                  Time end) {
  Bucket& b = buckets_[w][key_start];
  if (b.count == 0 && b.aggs.empty()) {
    b.start = key_start;
    b.aggs.assign(aggs_.size(), Partial{});
  }
  b.end = end;
  for (size_t a = 0; a < aggs_.size(); ++a) {
    aggs_[a]->Combine(b.aggs[a], aggs_[a]->Lift(t));
  }
  if (StoreTuples()) {
    auto it = std::upper_bound(b.tuples.begin(), b.tuples.end(), t, TupleLess);
    b.tuples.insert(it, t);
    if (any_non_commutative_) {
      // Retain aggregation order: recompute from the sorted tuples.
      for (size_t a = 0; a < aggs_.size(); ++a) {
        Partial acc;
        for (const Tuple& x : b.tuples) {
          aggs_[a]->Combine(acc, aggs_[a]->Lift(x));
        }
        b.aggs[a] = std::move(acc);
      }
    }
  }
  ++b.count;
}

void BucketsOperator::AssignToTimeWindows(size_t w, const Tuple& t) {
  if (auto* tw = dynamic_cast<TumblingWindow*>(windows_[w].get())) {
    const Time start = (t.ts / tw->length()) * tw->length();
    AssignTuple(w, t, start, start + tw->length());
    return;
  }
  if (auto* sw = dynamic_cast<SlidingWindow*>(windows_[w].get())) {
    // All window instances [k*ls, k*ls + l) containing t.ts: one bucket
    // update per overlapping window — the cost the paper highlights.
    const Time l = sw->length();
    const Time ls = sw->slide();
    const Time k_max = t.ts / ls;
    Time k_min = (t.ts - l) / ls + 1;
    if (t.ts - l < 0) k_min = 0;
    for (Time k = k_min; k <= k_max; ++k) {
      AssignTuple(w, t, k * ls, k * ls + l);
    }
    return;
  }
  if (dynamic_cast<SessionWindow*>(windows_[w].get()) != nullptr) {
    // After ProcessContext, the session window reports the session
    // containing t through its edge interface.
    const Time start = windows_[w]->LastEdgeAtOrBefore(t.ts);
    const Time end = windows_[w]->GetNextEdge(t.ts);
    AssignTuple(w, t, start, end);
  }
}

void BucketsOperator::AssignToCountBuckets(size_t w, int64_t rank,
                                           const Tuple& t) {
  if (auto* tw = dynamic_cast<TumblingWindow*>(windows_[w].get())) {
    const Time start = (rank / tw->length()) * tw->length();
    AssignTuple(w, t, start, start + tw->length());
    return;
  }
  if (auto* sw = dynamic_cast<SlidingWindow*>(windows_[w].get())) {
    const Time l = sw->length();
    const Time ls = sw->slide();
    const Time k_max = rank / ls;
    Time k_min = (rank - l) / ls + 1;
    if (rank - l < 0) k_min = 0;
    for (Time k = k_min; k <= k_max; ++k) {
      AssignTuple(w, t, k * ls, k * ls + l);
    }
  }
}

void BucketsOperator::RebuildCountBucketsFrom(size_t w, int64_t rank) {
  // An out-of-order tuple shifted the rank of all later tuples: rebuild
  // every bucket covering ranks >= rank from the global sorted buffer.
  auto& map = buckets_[w];
  Time min_start = rank;
  for (auto it = map.begin(); it != map.end();) {
    if (it->second.end <= rank) {
      ++it;
      continue;
    }
    min_start = std::min(min_start, it->second.start);
    it = map.erase(it);
  }
  const int64_t total = evicted_count_ + static_cast<int64_t>(count_buffer_.size());
  for (int64_t r = std::max<int64_t>(min_start, evicted_count_); r < total;
       ++r) {
    const Tuple& t = count_buffer_[static_cast<size_t>(r - evicted_count_)];
    // Re-assign only to instances not fully before `rank`.
    if (auto* tw = dynamic_cast<TumblingWindow*>(windows_[w].get())) {
      const Time start = (r / tw->length()) * tw->length();
      if (start + tw->length() > rank) {
        AssignTuple(w, t, start, start + tw->length());
      }
    } else if (auto* sw = dynamic_cast<SlidingWindow*>(windows_[w].get())) {
      const Time l = sw->length();
      const Time ls = sw->slide();
      const Time k_max = r / ls;
      Time k_min = (r - l) / ls + 1;
      if (r - l < 0) k_min = 0;
      for (Time k = k_min; k <= k_max; ++k) {
        if (k * ls + l > rank) AssignTuple(w, t, k * ls, k * ls + l);
      }
    }
  }
}

void BucketsOperator::ApplySessionMods(size_t w,
                                       const ContextModifications& mods) {
  auto& map = buckets_[w];
  for (const auto& [a, b] : mods.merged_ranges) {
    // Merge all buckets whose start lies in [a, b) into one. A session
    // consisting only of punctuation markers has no bucket at all, so the
    // range may be empty — never touch a bucket outside it.
    auto lo = map.lower_bound(a);
    if (lo == map.end() || lo->first >= b) continue;
    Bucket merged = lo->second;
    auto it = std::next(lo);
    while (it != map.end() && it->first < b) {
      for (size_t ag = 0; ag < aggs_.size(); ++ag) {
        aggs_[ag]->Combine(merged.aggs[ag], it->second.aggs[ag]);
      }
      std::vector<Tuple> ts;
      std::merge(merged.tuples.begin(), merged.tuples.end(),
                 it->second.tuples.begin(), it->second.tuples.end(),
                 std::back_inserter(ts), TupleLess);
      merged.tuples = std::move(ts);
      merged.count += it->second.count;
      merged.end = std::max(merged.end, it->second.end);
      it = map.erase(it);
    }
    merged.end = std::max(merged.end, b);
    map.erase(lo);
    merged.start = std::min(merged.start, a);
    map[merged.start] = std::move(merged);
  }
  for (const auto& r : mods.resizes) {
    auto it = map.find(r.locate);
    if (it == map.end()) {
      // The session may have been re-keyed by an earlier merge; any bucket
      // inside the resized extent is it (sessions are >= gap apart). If the
      // session holds no data tuples yet (punctuation-only), there is no
      // bucket — resizing must not capture a later session's bucket.
      it = map.lower_bound(r.new_start);
      if (it == map.end() || it->first >= r.new_end) continue;
    }
    Bucket b = it->second;
    map.erase(it);
    b.start = std::min(b.start, r.new_start);
    b.end = std::max(b.end, r.new_end);
    map[b.start] = std::move(b);
  }
}

void BucketsOperator::ProcessTuple(const Tuple& t) {
  const bool in_order = max_ts_ == kNoTime || t.ts >= max_ts_;
  const bool late = last_wm_ != kNoTime && t.ts <= last_wm_;
  if (late && t.ts < last_wm_ - allowed_lateness_) return;
  if (last_wm_ == kNoTime) {
    last_wm_ = t.ts - 1;
    wm_floor_ = last_wm_;
  }

  std::vector<std::pair<size_t, std::vector<std::pair<Time, Time>>>> changed;
  for (size_t w = 0; w < windows_.size(); ++w) {
    if (auto* caw = dynamic_cast<ContextAwareWindow*>(windows_[w].get())) {
      ContextModifications mods = caw->ProcessContext(t);
      ApplySessionMods(w, mods);
      if (!mods.changed_windows.empty()) {
        changed.emplace_back(w, std::move(mods.changed_windows));
      }
    }
  }

  int64_t rank = -1;
  if (!t.is_punctuation) {
    if (has_count_windows_) {
      auto it =
          std::upper_bound(count_buffer_.begin(), count_buffer_.end(), t,
                           TupleLess);
      rank = evicted_count_ + (it - count_buffer_.begin());
      count_buffer_.insert(it, t);
    }
    for (size_t w = 0; w < windows_.size(); ++w) {
      if (windows_[w]->measure() == Measure::kCount) {
        if (in_order) {
          AssignToCountBuckets(w, rank, t);
        } else {
          RebuildCountBucketsFrom(w, rank);
        }
      } else {
        AssignToTimeWindows(w, t);
      }
    }
  }
  if (in_order) max_ts_ = t.ts;

  // Allowed-lateness updates: buckets the late tuple landed in that were
  // already emitted. Windows ending at or before the watermark floor (the
  // first observed point in time) were never emitted and must not resurface.
  for (auto& [w, wins] : changed) {
    for (const auto& [s, e] : wins) {
      if (e <= last_wm_ && e > wm_floor_) EmitBucket(w, s, /*update=*/true, e);
    }
  }
  if (late && !t.is_punctuation) {
    for (size_t w = 0; w < windows_.size(); ++w) {
      WindowCollector c;
      if (windows_[w]->measure() == Measure::kCount) {
        windows_[w]->TriggerWindows(c, rank, last_cwm_);
        for (const auto& [cs, ce] : c.windows) {
          EmitBucket(w, cs, true, ce);
        }
      } else if (dynamic_cast<SessionWindow*>(windows_[w].get()) == nullptr) {
        windows_[w]->TriggerWindows(c, std::max(t.ts, wm_floor_), last_wm_);
        for (const auto& [s, e] : c.windows) {
          if (s <= t.ts) EmitBucket(w, s, true, e);
        }
      }
    }
  }

  if (stream_in_order_) TriggerAll(t.ts);
}

void BucketsOperator::ProcessWatermark(Time wm) {
  if (last_wm_ == kNoTime) {
    last_wm_ = max_ts_ == kNoTime ? wm : std::min(wm, max_ts_ - 1);
    wm_floor_ = last_wm_;
  }
  TriggerAll(wm);
}

void BucketsOperator::TriggerAll(Time wm) {
  if (last_wm_ != kNoTime && wm <= last_wm_) return;
  int64_t cwm = last_cwm_;
  if (has_count_windows_) {
    Tuple probe;
    probe.ts = wm;
    probe.seq = ~0ULL;
    cwm = evicted_count_ +
          (std::upper_bound(count_buffer_.begin(), count_buffer_.end(), probe,
                            TupleLess) -
           count_buffer_.begin());
  }
  for (size_t w = 0; w < windows_.size(); ++w) {
    WindowCollector c;
    if (windows_[w]->measure() == Measure::kCount) {
      windows_[w]->TriggerWindows(c, last_cwm_, cwm);
    } else {
      windows_[w]->TriggerWindows(c, last_wm_, wm);
    }
    for (const auto& [s, e] : c.windows) {
      EmitBucket(w, s, /*update=*/false, e);
    }
  }
  last_wm_ = wm;
  last_cwm_ = std::max(last_cwm_, cwm);
  Evict(wm);
}

void BucketsOperator::EmitBucket(size_t w, Time start, bool update,
                                 Time end_hint) {
  auto it = buckets_[w].find(start);
  for (size_t a = 0; a < aggs_.size(); ++a) {
    WindowResult r;
    r.window_id = static_cast<int>(w);
    r.agg_id = static_cast<int>(a);
    r.start = start;
    r.end = it != buckets_[w].end() ? it->second.end : end_hint;
    // The bucket's final aggregate is pre-computed: emission is a lookup
    // plus Lower — the nanosecond latency of Figure 11. Empty instances
    // lower the identity partial: aggregations like count define a
    // non-empty value (0) for an empty window.
    r.value = it != buckets_[w].end() ? aggs_[a]->Lower(it->second.aggs[a])
                                      : aggs_[a]->Lower(Partial{});
    r.is_update = update;
    results_.push_back(std::move(r));
  }
}

void BucketsOperator::Evict(Time wm) {
  for (size_t w = 0; w < windows_.size(); ++w) {
    const bool is_count = windows_[w]->measure() == Measure::kCount;
    const Time bound =
        is_count ? last_cwm_ : wm - allowed_lateness_;
    auto& map = buckets_[w];
    for (auto it = map.begin(); it != map.end();) {
      if (it->second.end <= bound) {
        it = map.erase(it);
      } else {
        break;  // keyed by start; later buckets end later for CF windows
      }
    }
    windows_[w]->EvictState(wm - allowed_lateness_);
  }
  if (has_count_windows_) {
    // Retain the horizon needed by the longest count window plus lateness.
    int64_t safe_rank = last_cwm_;
    for (const WindowPtr& w : windows_) {
      if (w->measure() != Measure::kCount) continue;
      safe_rank = std::min(safe_rank, w->EvictionSafePoint(last_cwm_));
    }
    while (!count_buffer_.empty() && evicted_count_ < safe_rank &&
           count_buffer_.front().ts < wm - allowed_lateness_) {
      count_buffer_.pop_front();
      ++evicted_count_;
    }
  }
}

void BucketsOperator::TakeResultsInto(std::vector<WindowResult>* out) {
  out->insert(out->end(), std::make_move_iterator(results_.begin()),
              std::make_move_iterator(results_.end()));
  results_.clear();
}

size_t BucketsOperator::TotalBuckets() const {
  size_t n = 0;
  for (const auto& map : buckets_) n += map.size();
  return n;
}

size_t BucketsOperator::MemoryUsageBytes() const {
  size_t bytes = count_buffer_.size() * MemoryModel::kTupleBytes;
  for (const auto& map : buckets_) {
    for (const auto& [start, b] : map) {
      bytes += MemoryModel::kBucketMetaBytes;
      for (const Partial& p : b.aggs) bytes += p.TotalBytes();
      bytes += b.tuples.capacity() * MemoryModel::kTupleBytes;
    }
  }
  return bytes;
}

}  // namespace scotty
