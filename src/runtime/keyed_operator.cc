#include "runtime/keyed_operator.h"

#include <algorithm>
#include <deque>
#include <iterator>
#include <queue>

#include "common/memory.h"
#include "core/general_slicing_operator.h"
#include "core/query_set.h"
#include "core/workload.h"

namespace scotty {

namespace {

constexpr uint32_t kKeyedTag = 0x4B455944;  // "KEYD"

/// Whether the keys of a query set built as `op` can share one slice
/// stream: a lazy slicing operator that retains no tuples, over a time lane
/// the workload characterization lets keys share (KeysShareSlices).
bool KeysShareSlicesOf(const WindowOperator& op) {
  const auto* slicing = dynamic_cast<const GeneralSlicingOperator*>(&op);
  if (slicing == nullptr) return false;
  const GeneralSlicingOperator::Options& o = slicing->options();
  return o.store_mode == StoreMode::kLazy && !o.force_store_tuples &&
         slicing->queries().HasTimeLane() &&
         KeysShareSlices(slicing->queries().chars);
}

}  // namespace

/// The shared-slice lane. Cells lie at the union of the window edges (the
/// grid a per-key operator slices at) and are kept ordered by start; each
/// holds one entry per key that has tuples in it: the key's slot and one
/// partial per aggregation. A key's value for a window instance combines
/// its partials over the instance's cells in time order, from identity: the
/// partials its own lazy store folds, in the same order.
///
/// A watermark collects its due instances first. Let B be the earliest due
/// end. When at least two instances straddle B (start < B <= end) and every
/// aggregation regroups exactly (AggregateFunction::RegroupsExactly: the
/// same bits under any grouping of the same partials in the same order, on
/// the finite, non-NaN, no-mixed-±0 value domain), those instances share
/// two passes, as Two-Stacks answers a window from a front suffix and a
/// back prefix. A backward pass over the cells of [earliest straddling
/// start, B) prepends each cell onto a running per-key suffix row, copied
/// out at each straddling start; a forward pass over [B, latest straddling
/// end) appends onto a running prefix row, combined into each straddling
/// instance at its end. Each cell is folded once per pass instead of once
/// per covering instance, and never more often than a direct fold, since
/// the straddlers with the earliest start and the latest end cover the two
/// ranges. Instances starting at or after B, and every instance of a query
/// set with a sum, avg, stddev or geometric mean, fold their cells
/// directly in time order. Either way each value has the bits the key's own
/// operator reports. The rows are trigger scratch, bounded by the query set
/// whatever the watermark's jump: one per straddling instance (at most one
/// per tumbling window and ceil(length/slide) per sliding window), of keys
/// × aggregations partials — on the Fig. 17 job at most 80 rows of about
/// 22 keys' M4 partials per worker, about 140 KB.
///
/// Per key the lane keeps its floor — the watermark its own operator would
/// have started from: first tuple's ts − 1 before any watermark, the
/// wrapper's watermark otherwise — plus a dirty flag for deltas and a
/// cursor to its entry in the newest cell it has one in, so in-order tuples
/// find their entry without a search.
///
/// Window edges are defined on non-negative time, and the lane reports no
/// instance ending at or before 0. Tumbling and sliding edge arithmetic
/// truncates toward zero, so an operator started below zero (after an
/// early watermark below zero) reports or skips such instances depending
/// on where it started; the oracle reports none. Above zero a window's
/// instances are the same from any start, which is what lets one trigger
/// visit serve keys with different floors and lets trigger progress be
/// rebuilt from the watermark on restore.
class KeyedWindowOperator::SharedSlices {
 public:
  explicit SharedSlices(const GeneralSlicingOperator& proto)
      : queries_(proto.queries()),
        fns_(queries_.aggs),
        lateness_(proto.options().allowed_lateness),
        na_(fns_.size()),
        regroups_(std::all_of(fns_.begin(), fns_.end(),
                              [](const AggregateFunctionPtr& f) {
                                return f->RegroupsExactly();
                              })) {
    ResetTriggers(kNoTime);
  }

  size_t NumKeys() const { return keys_.size(); }

  /// One tuple; `wm` is the largest watermark before it (kNoTime if none).
  void Add(const Tuple& t, Time wm, std::vector<WindowResult>* out) {
    bool inserted = false;
    const uint32_t slot = slot_of_.FindOrInsert(
        t.key, static_cast<uint32_t>(keys_.size()), &inserted);
    if (inserted) keys_.push_back({t.key, wm == kNoTime ? t.ts - 1 : wm});
    KeyState& k = keys_[slot];
    k.dirty = true;
    // The key's own operator would be at max(floor, wm).
    const Time key_wm = std::max(k.floor, wm);
    const bool late = t.ts <= key_wm;
    if (late && t.ts < key_wm - lateness_) return;  // beyond the lateness
    if (!t.is_punctuation) AddToCell(slot, t);
    if (late) EmitLateUpdates(slot, t.ts, key_wm, out);
  }

  /// Triggers every window instance ending in (previous watermark, wm] for
  /// every key whose floor lies below the instance's end, then evicts. The
  /// due instances are collected first, so that those straddling the
  /// earliest due end can share their folds (class comment). `wm` exceeds
  /// every earlier watermark.
  void Trigger(Time wm, std::vector<WindowResult>* out) {
    due_.clear();
    Time first_prev = kNoTime;  // a window's first visit starts here
    while (!heap_.empty() && heap_.top().first <= wm) {
      const int wid = heap_.top().second;
      heap_.pop();
      const WindowPtr& win = queries_.windows[static_cast<size_t>(wid)];
      Time prev = win_prev_[static_cast<size_t>(wid)];
      if (prev == kNoTime) {
        if (first_prev == kNoTime) first_prev = MinFloor(wm);
        prev = first_prev;
      }
      WindowCollector c;
      win->TriggerWindows(c, prev, wm);
      for (const auto& [s, e] : c.windows) {
        // One ending at or before 0 lies outside the windows' time domain
        // (class comment).
        if (e > 0) due_.push_back({wid, s, e, kNoRow});
      }
      win_prev_[static_cast<size_t>(wid)] = wm;
      heap_.push({win->GetNextEdge(wm), wid});
    }
    if (regroups_) FoldStraddling();
    const size_t width = keys_.size() * na_;
    for (const Due& d : due_) {
      if (d.row == kNoRow) {
        FoldInstance(d.start, d.end);
        Emit(d, acc_.data(), out);
      } else {
        Emit(d, &rows_[d.row * width], out);
      }
    }
    Evict(wm);
  }

  /// Drops the cells no window can still read at `wm`, at the slicing
  /// operator's eviction bound.
  void Evict(Time wm) {
    const Time bound = queries_.TimeEvictionBound(wm, lateness_);
    if (bound == kNoTime) return;
    while (!cells_.empty() && cells_.front().end <= bound) {
      Retire(std::move(cells_.front()));
      cells_.pop_front();
    }
  }

  /// kSliceMetaBytes per cell, the slot plus every partial per entry, and
  /// each key's own fields.
  size_t MemoryBytes() const {
    size_t bytes = keys_.size() * kKeyBytes +
                   cells_.size() * MemoryModel::kSliceMetaBytes;
    for (const Cell& c : cells_) {
      bytes += c.slots.size() * sizeof(uint32_t);
      for (const Partial& p : c.partials) bytes += p.TotalBytes();
    }
    return bytes;
  }

  void MarkClean() {
    for (KeyState& k : keys_) k.dirty = false;
  }

  /// Fills the units of a v4 payload: every key inline in a base; in a
  /// delta, keys without tuples since the last barrier become references.
  void Serialize(bool delta, KeyedStateParts* parts) const {
    std::vector<char> inline_key(keys_.size());
    std::vector<uint64_t> entries(keys_.size(), 0);
    for (size_t s = 0; s < keys_.size(); ++s) {
      inline_key[s] = !delta || keys_[s].dirty;
      if (!inline_key[s]) parts->refs.push_back(keys_[s].key);
    }
    for (const Cell& c : cells_) {
      for (const uint32_t s : c.slots) ++entries[s];
    }
    std::vector<state::Writer> units(keys_.size());
    for (size_t s = 0; s < keys_.size(); ++s) {
      if (!inline_key[s]) continue;
      units[s].I64(keys_[s].floor);
      units[s].U64(entries[s]);
    }
    for (const Cell& c : cells_) {
      for (size_t x = 0; x < c.slots.size(); ++x) {
        if (!inline_key[c.slots[x]]) continue;
        state::Writer& w = units[c.slots[x]];
        w.I64(c.start);
        w.I64(c.end);
        for (size_t a = 0; a < na_; ++a) c.partials[x * na_ + a].Serialize(w);
      }
    }
    for (size_t s = 0; s < keys_.size(); ++s) {
      if (inline_key[s]) parts->keys.emplace_back(keys_[s].key, units[s].Take());
    }
  }

  /// Replaces the lane state with a v4 payload's: inline units decode, and
  /// referenced keys keep their current floor and entries. Cells are
  /// rebuilt as the union of the units' cells; trigger progress follows
  /// from the watermark. Returns false, leaving the state untouched, on a
  /// malformed unit, an unknown reference, or cells that disagree with each
  /// other or straddle one of this query set's window edges.
  bool Restore(const KeyedStateParts& parts) {
    std::vector<Unit> units;
    units.reserve(parts.keys.size() + parts.refs.size());
    if (!parts.refs.empty()) {
      std::vector<int> unit_of(keys_.size(), -1);
      for (const int64_t key : parts.refs) {
        const uint32_t* slot = slot_of_.Find(key);
        if (slot == nullptr) return false;
        unit_of[*slot] = static_cast<int>(units.size());
        units.push_back({key, keys_[*slot].floor, {}});
      }
      for (const Cell& c : cells_) {
        for (size_t x = 0; x < c.slots.size(); ++x) {
          const int u = unit_of[c.slots[x]];
          if (u < 0) continue;
          Entry e{c.start, c.end, {}};
          e.partials.assign(c.partials.begin() + x * na_,
                            c.partials.begin() + (x + 1) * na_);
          units[static_cast<size_t>(u)].entries.push_back(std::move(e));
        }
      }
    }
    for (const auto& [key, bytes] : parts.keys) {
      Unit u{key, kNoTime, {}};
      if (!DecodeUnit(bytes, &u)) return false;
      units.push_back(std::move(u));
    }
    std::sort(units.begin(), units.end(),
              [](const Unit& a, const Unit& b) { return a.key < b.key; });

    // The union of the units' cells, each entry tagged with its key slot.
    struct Placed {
      Time start;
      Time end;
      uint32_t slot;
      std::vector<Partial>* partials;
    };
    std::vector<Placed> placed;
    for (size_t s = 0; s < units.size(); ++s) {
      if (s > 0 && units[s].key == units[s - 1].key) return false;
      for (Entry& e : units[s].entries) {
        placed.push_back({e.start, e.end, static_cast<uint32_t>(s),
                          &e.partials});
      }
    }
    std::stable_sort(placed.begin(), placed.end(),
                     [](const Placed& a, const Placed& b) {
                       return a.start < b.start;
                     });
    std::deque<Cell> cells;
    for (const Placed& p : placed) {
      if (cells.empty() || cells.back().start != p.start) {
        // A new cell must follow the previous one, and no window edge of
        // this query set may lie inside it.
        if (!cells.empty() && p.start < cells.back().end) return false;
        if (p.end > queries_.FirstTimeWindowEdgeAtOrAfter(p.start + 1)) {
          return false;
        }
        cells.push_back(MakeCell(p.start, p.end));
      } else if (cells.back().end != p.end) {
        return false;
      }
      Cell& c = cells.back();
      c.slots.push_back(p.slot);
      std::move(p.partials->begin(), p.partials->end(),
                std::back_inserter(c.partials));
    }

    for (Cell& c : cells_) Retire(std::move(c));
    cells_ = std::move(cells);
    keys_.clear();
    slot_of_.Clear();
    for (const Unit& u : units) {
      slot_of_.FindOrInsert(u.key, static_cast<uint32_t>(keys_.size()));
      keys_.push_back({u.key, u.floor});
      keys_.back().dirty = false;
    }
    // Cursors: each key's entry in the newest cell it has one in.
    for (const Cell& c : cells_) {
      for (size_t x = 0; x < c.slots.size(); ++x) {
        keys_[c.slots[x]].cursor_start = c.start;
        keys_[c.slots[x]].cursor_entry = static_cast<uint32_t>(x);
      }
    }
    ResetTriggers(parts.last_wm);
    return true;
  }

 private:
  /// Per key: the key, its floor, its cursor (cell start, entry index) and
  /// its dirty flag.
  static constexpr size_t kKeyBytes =
      3 * sizeof(int64_t) + sizeof(uint32_t) + sizeof(bool);
  static constexpr size_t kMaxFreeCells = 64;

  struct KeyState {
    int64_t key = 0;
    Time floor = kNoTime;
    Time cursor_start = kNoTime;  // start of the newest cell with an entry
    uint32_t cursor_entry = 0;    // the key's entry index in that cell
    bool dirty = true;            // tuples since the last barrier
  };

  struct Cell {
    Time start = 0;
    Time end = 0;
    std::vector<uint32_t> slots;    // entry -> key slot
    std::vector<Partial> partials;  // na_ per entry, entry-major
  };

  /// One key's part of a snapshot: its floor and its entries in cell order.
  struct Entry {
    Time start;
    Time end;
    std::vector<Partial> partials;
  };
  struct Unit {
    int64_t key;
    Time floor;
    std::vector<Entry> entries;
  };

  /// A window instance due at this watermark, and its row in rows_ when a
  /// shared pass answers it.
  static constexpr size_t kNoRow = static_cast<size_t>(-1);
  struct Due {
    int wid;
    Time start;
    Time end;
    size_t row;
  };

  bool DecodeUnit(const std::vector<uint8_t>& bytes, Unit* u) const {
    state::Reader r(bytes);
    u->floor = r.I64();
    const uint64_t n = r.U64();
    if (!r.ok() || n > r.remaining()) return false;
    u->entries.reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n && r.ok(); ++i) {
      Entry e{r.I64(), r.I64(), std::vector<Partial>(na_)};
      for (Partial& p : e.partials) p.Deserialize(r);
      if (e.start >= e.end ||
          (!u->entries.empty() && e.start < u->entries.back().end)) {
        return false;
      }
      u->entries.push_back(std::move(e));
    }
    return r.ok() && r.AtEnd();
  }

  /// Trigger progress as a pure function of the watermark: before any
  /// watermark every window is visited on the next one; after `wm`, a
  /// window's next visit is at its first edge past wm.
  void ResetTriggers(Time wm) {
    heap_ = {};
    win_prev_.assign(queries_.windows.size(), wm);
    for (size_t i = 0; i < queries_.windows.size(); ++i) {
      const WindowPtr& w = queries_.windows[i];
      if (!QuerySet::OnTimeLane(w)) continue;
      heap_.push({wm == kNoTime ? kNoTime : w->GetNextEdge(wm),
                  static_cast<int>(i)});
    }
  }

  /// Where windows visited for the first time start: the lowest floor (no
  /// instance ending at or below it is due for any key). With no keys
  /// nothing is due up to `wm`.
  Time MinFloor(Time wm) const {
    Time lo = wm;
    for (const KeyState& k : keys_) lo = std::min(lo, k.floor);
    return lo;
  }

  Cell MakeCell(Time start, Time end) {
    Cell c;
    if (!free_cells_.empty()) {
      c = std::move(free_cells_.back());
      free_cells_.pop_back();
      c.slots.clear();
      c.partials.clear();
    }
    c.start = start;
    c.end = end;
    return c;
  }

  /// Parks a dead cell so its buffers serve the next one.
  void Retire(Cell&& c) {
    if (free_cells_.size() < kMaxFreeCells) free_cells_.push_back(std::move(c));
  }

  /// The cell covering `ts`, created as the grid cell around ts
  /// (QuerySet::TimeGridCell) — clamped to its neighbours — when none does.
  /// The newest cell is the fast path.
  size_t CellFor(Time ts) {
    size_t pos = cells_.size();
    if (!cells_.empty()) {
      const Cell& newest = cells_.back();
      if (ts >= newest.start) {
        if (ts < newest.end) return cells_.size() - 1;
      } else {
        auto it = std::upper_bound(
            cells_.begin(), cells_.end(), ts,
            [](Time x, const Cell& c) { return x < c.start; });
        pos = static_cast<size_t>(it - cells_.begin());
        if (pos > 0 && ts < cells_[pos - 1].end) return pos - 1;
      }
    }
    auto [start, end] = queries_.TimeGridCell(ts);
    if (pos > 0) start = std::max(start, cells_[pos - 1].end);
    if (pos < cells_.size()) end = std::min(end, cells_[pos].start);
    cells_.insert(cells_.begin() + static_cast<ptrdiff_t>(pos),
                  MakeCell(start, end));
    return pos;
  }

  uint32_t AppendEntry(Cell& c, uint32_t slot) {
    c.slots.push_back(slot);
    c.partials.resize(c.partials.size() + na_);
    return static_cast<uint32_t>(c.slots.size() - 1);
  }

  void AddToCell(uint32_t slot, const Tuple& t) {
    Cell& c = cells_[CellFor(t.ts)];
    KeyState& k = keys_[slot];
    uint32_t e;
    if (c.start == k.cursor_start) {
      e = k.cursor_entry;
    } else if (c.start > k.cursor_start) {
      // Newer than every cell the key has an entry in.
      e = AppendEntry(c, slot);
      k.cursor_start = c.start;
      k.cursor_entry = e;
    } else {
      const auto it = std::find(c.slots.begin(), c.slots.end(), slot);
      e = it != c.slots.end() ? static_cast<uint32_t>(it - c.slots.begin())
                              : AppendEntry(c, slot);
    }
    Partial* p = &c.partials[e * na_];
    for (size_t a = 0; a < na_; ++a) fns_[a]->Combine(p[a], fns_[a]->Lift(t));
  }

  /// Cells intersecting [start, end): [first ending after start, first
  /// starting at or after end).
  std::pair<size_t, size_t> CellRange(Time start, Time end) const {
    const auto first = std::upper_bound(
        cells_.begin(), cells_.end(), start,
        [](Time x, const Cell& c) { return x < c.end; });
    const auto last = std::lower_bound(
        first, cells_.end(), end,
        [](const Cell& c, Time x) { return c.start < x; });
    return {static_cast<size_t>(first - cells_.begin()),
            static_cast<size_t>(last - cells_.begin())};
  }

  /// row (+)= the cell's partials, per key with an entry in it.
  void Append(const Cell& c, std::vector<Partial>& row) const {
    for (size_t x = 0; x < c.slots.size(); ++x) {
      Partial* dst = &row[c.slots[x] * na_];
      const Partial* src = &c.partials[x * na_];
      for (size_t a = 0; a < na_; ++a) fns_[a]->Combine(dst[a], src[a]);
    }
  }

  /// row = the cell's partials (+) row, per key with an entry in it.
  void Prepend(const Cell& c, std::vector<Partial>& row) const {
    for (size_t x = 0; x < c.slots.size(); ++x) {
      Partial* dst = &row[c.slots[x] * na_];
      const Partial* src = &c.partials[x * na_];
      for (size_t a = 0; a < na_; ++a) {
        Partial p = src[a];
        fns_[a]->Combine(p, dst[a]);
        dst[a] = std::move(p);
      }
    }
  }

  /// acc_ = every key's partials over the cells of [s, e), folded in time
  /// order from identity.
  void FoldInstance(Time s, Time e) {
    acc_.assign(keys_.size() * na_, Partial{});
    const auto [i, j] = CellRange(s, e);
    for (size_t ci = i; ci < j; ++ci) Append(cells_[ci], acc_);
  }

  /// Gives each due instance that straddles B, the earliest due end
  /// (start < B <= end), a row of rows_ holding every key's value, when at
  /// least two do: the suffix of [start, B) from a backward pass, then
  /// (+) the prefix of [B, end) from a forward pass (class comment).
  void FoldStraddling() {
    if (due_.empty()) return;
    const Time pivot = std::min_element(due_.begin(), due_.end(),
                                        [](const Due& a, const Due& b) {
                                          return a.end < b.end;
                                        })->end;
    order_.clear();
    for (size_t i = 0; i < due_.size(); ++i) {
      if (due_[i].start < pivot) order_.push_back(i);
    }
    if (order_.size() < 2) return;
    const size_t width = keys_.size() * na_;
    rows_.resize(order_.size() * width);
    for (size_t r = 0; r < order_.size(); ++r) due_[order_[r]].row = r;
    // Cells before `first_after` end at or before the pivot, a window edge.
    const size_t first_after = static_cast<size_t>(
        std::lower_bound(cells_.begin(), cells_.end(), pivot,
                         [](const Cell& c, Time x) { return c.start < x; }) -
        cells_.begin());

    // Backward, latest start first: acc_ is the suffix of [start, pivot).
    std::sort(order_.begin(), order_.end(), [this](size_t a, size_t b) {
      return due_[a].start > due_[b].start;
    });
    acc_.assign(width, Partial{});
    size_t ci = first_after;
    for (const size_t i : order_) {
      for (; ci > 0 && cells_[ci - 1].end > due_[i].start; --ci) {
        Prepend(cells_[ci - 1], acc_);
      }
      std::copy(acc_.begin(), acc_.end(),
                rows_.begin() + static_cast<ptrdiff_t>(due_[i].row * width));
    }

    // Forward, earliest end first: acc_ is the prefix of [pivot, end).
    std::sort(order_.begin(), order_.end(), [this](size_t a, size_t b) {
      return due_[a].end < due_[b].end;
    });
    acc_.assign(width, Partial{});
    ci = first_after;
    for (const size_t i : order_) {
      if (due_[i].end == pivot) continue;  // an empty prefix
      for (; ci < cells_.size() && cells_[ci].start < due_[i].end; ++ci) {
        Append(cells_[ci], acc_);
      }
      Partial* row = &rows_[due_[i].row * width];
      for (size_t slot = 0; slot < keys_.size(); ++slot) {
        for (size_t a = 0; a < na_; ++a) {
          fns_[a]->Combine(row[slot * na_ + a], acc_[slot * na_ + a]);
        }
      }
    }
  }

  /// Emits due instance `d` for every key whose floor lies below its end,
  /// keys in first-seen order, from `row`: na_ partials per key slot.
  void Emit(const Due& d, const Partial* row,
            std::vector<WindowResult>* out) const {
    for (size_t slot = 0; slot < keys_.size(); ++slot) {
      if (keys_[slot].floor >= d.end) continue;
      for (size_t a = 0; a < na_; ++a) {
        out->push_back(Result(d.wid, a, d.start, d.end, row[slot * na_ + a],
                              keys_[slot].key, /*is_update=*/false));
      }
    }
  }

  /// A late tuple re-emits, for its key only, every window ending in
  /// (max(ts, floor), key_wm] that starts at or before ts, in window-id
  /// order — as the key's own operator does.
  void EmitLateUpdates(uint32_t slot, Time ts, Time key_wm,
                       std::vector<WindowResult>* out) {
    const Time from = std::max(ts, keys_[slot].floor);
    for (size_t w = 0; w < queries_.windows.size(); ++w) {
      const WindowPtr& win = queries_.windows[w];
      if (!QuerySet::OnTimeLane(win)) continue;
      WindowCollector c;
      win->TriggerWindows(c, from, key_wm);
      for (const auto& [s, e] : c.windows) {
        if (s > ts || e <= 0) continue;
        acc_.assign(na_, Partial{});
        const auto [i, j] = CellRange(s, e);
        for (size_t ci = i; ci < j; ++ci) {
          const Cell& cell = cells_[ci];
          const auto it = std::find(cell.slots.begin(), cell.slots.end(), slot);
          if (it == cell.slots.end()) continue;
          const Partial* src =
              &cell.partials[static_cast<size_t>(it - cell.slots.begin()) * na_];
          for (size_t a = 0; a < na_; ++a) fns_[a]->Combine(acc_[a], src[a]);
        }
        for (size_t a = 0; a < na_; ++a) {
          out->push_back(Result(static_cast<int>(w), a, s, e, acc_[a],
                                keys_[slot].key, /*is_update=*/true));
        }
      }
    }
  }

  WindowResult Result(int wid, size_t a, Time s, Time e, const Partial& p,
                      int64_t key, bool is_update) const {
    WindowResult r;
    r.window_id = wid;
    r.agg_id = static_cast<int>(a);
    r.start = s;
    r.end = e;
    r.value = fns_[a]->Lower(p);
    r.key = key;
    r.is_update = is_update;
    return r;
  }

  QuerySet queries_;
  const std::vector<AggregateFunctionPtr>& fns_;
  Time lateness_;
  size_t na_;
  bool regroups_;  // every aggregation regroups exactly

  FlatKeyMap<uint32_t> slot_of_{64};  // key -> slot
  std::vector<KeyState> keys_;        // by slot, in first-seen order
  std::deque<Cell> cells_;            // ordered by start, disjoint
  std::vector<Cell> free_cells_;

  /// Min-heap of (next window edge, window id), as in the slicing
  /// operator: a watermark visits only windows whose edge it passed.
  using HeapEntry = std::pair<Time, int>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      heap_;
  std::vector<Time> win_prev_;  // per window: watermark of its last visit

  /// Trigger scratch: the due instances in emission order, the straddling
  /// ones' indices, their rows (keys × na_ partials each) and the fold row.
  std::vector<Due> due_;
  std::vector<size_t> order_;
  std::vector<Partial> rows_;
  std::vector<Partial> acc_;  // na_ per key slot
};

KeyedWindowOperator::KeyedWindowOperator(Factory factory)
    : factory_(std::move(factory)) {}

KeyedWindowOperator::~KeyedWindowOperator() = default;

KeyedWindowOperator::Lane KeyedWindowOperator::DecideLane() const {
  if (lane_ != Lane::kUndecided) return lane_;
  std::unique_ptr<WindowOperator> op = factory_();
  inner_name_ = op->Name();
  if (KeysShareSlicesOf(*op)) {
    shared_ = std::make_unique<SharedSlices>(
        static_cast<const GeneralSlicingOperator&>(*op));
    lane_ = Lane::kShared;
  } else {
    first_op_ = std::move(op);
    lane_ = Lane::kPerKey;
  }
  return lane_;
}

bool KeyedWindowOperator::shares_slices() const {
  return DecideLane() == Lane::kShared;
}

void KeyedWindowOperator::ProcessTuple(const Tuple& t) {
  if (DecideLane() == Lane::kShared) {
    shared_->Add(t, last_wm_, &results_);
    return;
  }
  OperatorFor(t.key).ProcessTuple(t);
}

void KeyedWindowOperator::ProcessTupleColumns(const TupleColumnsView& cols) {
  const size_t n = cols.size;
  if (n == 0) return;
  if (DecideLane() == Lane::kShared) {
    for (size_t i = 0; i < n; ++i) shared_->Add(cols.Get(i), last_wm_, &results_);
    return;
  }
  key_slots_.Clear();
  part_keys_.clear();
  part_counts_.clear();
  slot_ids_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    bool inserted = false;
    uint32_t& slot = key_slots_.FindOrInsert(
        cols.key[i], static_cast<uint32_t>(part_keys_.size()), &inserted);
    if (inserted) {
      part_keys_.push_back(cols.key[i]);
      part_counts_.push_back(0);
    }
    ++part_counts_[slot];
    slot_ids_[i] = slot;
  }
  if (part_keys_.size() == 1) {
    // Single-key batch: forward the original view untouched.
    OperatorFor(part_keys_[0]).ProcessTupleColumns(cols);
    return;
  }
  // Exclusive prefix sum -> partition base offsets; cursors advance as the
  // scatter fills each partition.
  part_offsets_.resize(part_keys_.size());
  size_t off = 0;
  for (size_t p = 0; p < part_keys_.size(); ++p) {
    part_offsets_[p] = off;
    off += part_counts_[p];
  }
  const bool has_punct = cols.punct != nullptr;
  scratch_ts_.resize(n);
  scratch_value_.resize(n);
  scratch_key_.resize(n);
  scratch_seq_.resize(n);
  if (has_punct) scratch_punct_.resize(n);
  part_cursors_ = part_offsets_;
  for (size_t i = 0; i < n; ++i) {
    const size_t d = part_cursors_[slot_ids_[i]]++;
    scratch_ts_[d] = cols.ts[i];
    scratch_value_[d] = cols.value[i];
    scratch_key_[d] = cols.key[i];
    scratch_seq_[d] = cols.seq[i];
    if (has_punct) scratch_punct_[d] = cols.punct[i];
  }
  for (size_t p = 0; p < part_keys_.size(); ++p) {
    const size_t base = part_offsets_[p];
    TupleColumnsView part{scratch_ts_.data() + base,
                          scratch_value_.data() + base,
                          scratch_key_.data() + base,
                          scratch_seq_.data() + base,
                          has_punct ? scratch_punct_.data() + base : nullptr,
                          part_counts_[p]};
    OperatorFor(part_keys_[p]).ProcessTupleColumns(part);
  }
}

void KeyedWindowOperator::ProcessWatermark(Time wm) {
  // kNoTime is the smallest Time, so the first watermark always passes.
  if (wm <= last_wm_) return;
  last_wm_ = wm;
  if (lane_ == Lane::kShared) {
    shared_->Trigger(wm, &results_);
  } else {
    BroadcastWatermark(wm);  // undecided: no operator exists yet
  }
}

void KeyedWindowOperator::BroadcastWatermark(Time wm) {
  for (auto& [key, op] : operators_) {
    op->ProcessWatermark(wm);
    CollectResults(key, *op);
  }
}

void KeyedWindowOperator::TakeResultsInto(std::vector<WindowResult>* out) {
  // Collect anything produced between watermarks too (in-order streams
  // self-trigger per tuple).
  for (auto& [key, op] : operators_) CollectResults(key, *op);
  out->insert(out->end(), std::make_move_iterator(results_.begin()),
              std::make_move_iterator(results_.end()));
  results_.clear();
}

size_t KeyedWindowOperator::MemoryUsageBytes() const {
  if (lane_ == Lane::kShared) return shared_->MemoryBytes();
  size_t bytes = 0;
  for (const auto& [key, op] : operators_) bytes += op->MemoryUsageBytes();
  return bytes;
}

std::string KeyedWindowOperator::Name() const {
  // inner_name_ is cached when the lane is decided; constructing a
  // throwaway operator per Name() call would make a cheap accessor
  // arbitrarily expensive (factories allocate full operators).
  return inner_name_.empty() ? "keyed" : "keyed-" + inner_name_;
}

size_t KeyedWindowOperator::NumKeys() const {
  return lane_ == Lane::kShared ? shared_->NumKeys() : operators_.size();
}

void KeyedWindowOperator::Serialize(state::Writer& w, bool delta) const {
  KeyedStateParts parts;
  parts.last_wm = last_wm_;
  if (DecideLane() == Lane::kShared) {
    parts.version = kSharedSliceFormat;
    shared_->Serialize(delta, &parts);
  } else {
    parts.version = kPerKeyFormat;
    for (const auto& [key, op] : operators_) {
      if (delta && dirty_keys_.count(key) == 0) {
        parts.refs.push_back(key);
        continue;
      }
      state::Writer inner;
      op->SerializeState(inner);
      parts.keys.emplace_back(key, inner.Take());
    }
  }
  parts.results = results_;
  const std::vector<uint8_t> bytes = BuildKeyedState(std::move(parts));
  w.Bytes(bytes.data(), bytes.size());
}

void KeyedWindowOperator::DeserializeState(state::Reader& r) {
  KeyedStateParts parts;
  if (!ParseKeyedState(r, &parts)) {
    r.Fail();
    return;
  }
  const Lane lane = DecideLane();
  const uint8_t version =
      lane == Lane::kShared ? kSharedSliceFormat : kPerKeyFormat;
  if (parts.version != version) {
    r.Fail();
    return;
  }
  if (lane == Lane::kShared) {
    if (!shared_->Restore(parts)) {
      r.Fail();
      return;
    }
  } else {
    DeserializePerKey(parts, r);
    if (!r.ok()) return;
  }
  last_wm_ = parts.last_wm;
  results_ = std::move(parts.results);
}

void KeyedWindowOperator::DeserializePerKey(const KeyedStateParts& parts,
                                            state::Reader& r) {
  std::unordered_map<int64_t, std::unique_ptr<WindowOperator>> next;
  next.reserve(parts.keys.size() + parts.refs.size());
  for (int64_t key : parts.refs) {
    auto it = operators_.find(key);
    if (it == operators_.end()) {
      r.Fail();
      return;
    }
    next.emplace(key, std::move(it->second));
    operators_.erase(it);
  }
  for (const auto& [key, bytes] : parts.keys) {
    std::unique_ptr<WindowOperator> op = NewKeyOperator();
    state::Reader inner(bytes);
    op->DeserializeState(inner);
    if (!inner.ok() || !inner.AtEnd()) {
      r.Fail();
      return;
    }
    next.emplace(key, std::move(op));
  }
  operators_ = std::move(next);
  dirty_keys_.clear();
}

void KeyedWindowOperator::MarkSnapshotClean() {
  if (lane_ == Lane::kShared) {
    shared_->MarkClean();
    return;
  }
  dirty_keys_.clear();
  for (auto& [key, op] : operators_) op->MarkSnapshotClean();
}

void KeyedWindowOperator::FinishDeltaRestore() {
  if (last_wm_ == kNoTime) return;
  if (lane_ == Lane::kShared) {
    shared_->Evict(last_wm_);
  } else {
    BroadcastWatermark(last_wm_);
  }
}

bool KeyedWindowOperator::ParseKeyedState(const std::vector<uint8_t>& bytes,
                                          KeyedStateParts* out) {
  state::Reader r(bytes);
  KeyedStateParts parts;
  if (!ParseKeyedState(r, &parts) || !r.AtEnd()) return false;
  *out = std::move(parts);
  return true;
}

bool KeyedWindowOperator::ParseKeyedState(state::Reader& r,
                                          KeyedStateParts* out) {
  r.Tag(kKeyedTag);
  out->version = r.U8();
  if (out->version != kPerKeyFormat && out->version != kSharedSliceFormat) {
    return false;
  }
  out->last_wm = r.I64();
  const uint64_t nkeys = r.U64();
  if (!r.ok() || nkeys > r.remaining()) return false;
  for (uint64_t i = 0; i < nkeys && r.ok(); ++i) {
    const int64_t key = r.I64();
    if (!r.Bool()) {
      out->refs.push_back(key);
      continue;
    }
    const uint64_t len = r.U64();
    if (!r.ok() || len > r.remaining()) return false;
    std::vector<uint8_t> kb(static_cast<size_t>(len));
    r.Bytes(kb.data(), kb.size());
    out->keys.emplace_back(key, std::move(kb));
  }
  const uint64_t m = r.U64();
  if (!r.ok() || m > r.remaining()) return false;
  out->results.reserve(static_cast<size_t>(m));
  for (uint64_t i = 0; i < m && r.ok(); ++i) {
    out->results.push_back(DeserializeWindowResult(r));
  }
  return r.ok();
}

std::vector<uint8_t> KeyedWindowOperator::BuildKeyedState(
    KeyedStateParts parts) {
  std::vector<std::pair<int64_t, const std::vector<uint8_t>*>> all;
  all.reserve(parts.keys.size() + parts.refs.size());
  for (const auto& [key, kb] : parts.keys) all.emplace_back(key, &kb);
  for (int64_t key : parts.refs) all.emplace_back(key, nullptr);
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  state::Writer w;
  w.Tag(kKeyedTag);
  w.U8(parts.version);
  w.I64(parts.last_wm);
  w.U64(all.size());
  for (const auto& [key, kb] : all) {
    w.I64(key);
    w.Bool(kb != nullptr);
    if (kb == nullptr) continue;
    w.U64(kb->size());
    w.Bytes(kb->data(), kb->size());
  }
  w.U64(parts.results.size());
  for (const WindowResult& res : parts.results) SerializeWindowResult(w, res);
  return w.Take();
}

void KeyedWindowOperator::CollectResults(int64_t key, WindowOperator& op) {
  const size_t from = results_.size();
  op.TakeResultsInto(&results_);
  for (size_t i = from; i < results_.size(); ++i) results_[i].key = key;
}

std::unique_ptr<WindowOperator> KeyedWindowOperator::NewKeyOperator() {
  if (first_op_ != nullptr) return std::move(first_op_);
  return factory_();
}

WindowOperator& KeyedWindowOperator::OperatorFor(int64_t key) {
  dirty_keys_.insert(key);
  auto it = operators_.find(key);
  if (it == operators_.end()) {
    it = operators_.emplace(key, NewKeyOperator()).first;
    // A freshly created per-key operator must not consider windows before
    // the current watermark already triggered.
    if (last_wm_ != kNoTime) it->second->ProcessWatermark(last_wm_);
  }
  return *it->second;
}

}  // namespace scotty
