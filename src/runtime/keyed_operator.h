#ifndef SCOTTY_RUNTIME_KEYED_OPERATOR_H_
#define SCOTTY_RUNTIME_KEYED_OPERATOR_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/flat_hash.h"
#include "core/window_operator.h"

namespace scotty {

/// Per-key windowing within one thread: wraps a factory of window operators
/// and maintains one instance per partition key (windows over "average
/// speed per vehicle", "session per user", ...). This is the keyed-stream
/// semantics of Flink/Beam; combined with the ParallelExecutor it yields
/// the two-level key partitioning of paper Section 5.3.
///
/// Watermarks are broadcast to every per-key operator; results are tagged
/// with their key.
class KeyedWindowOperator : public WindowOperator {
 public:
  using Factory = std::function<std::unique_ptr<WindowOperator>()>;

  explicit KeyedWindowOperator(Factory factory)
      : factory_(std::move(factory)) {}

  void ProcessTuple(const Tuple& t) override {
    OperatorFor(t.key).ProcessTuple(t);
  }

  /// Batch path: a stable radix-style shuffle of the columns into per-key
  /// partitions. One pass maps each tuple's key to a dense partition slot
  /// through the open-addressing FlatKeyMap (recording the slot so the
  /// scatter needs no second hash probe), one pass scatters each column
  /// into partition-contiguous scratch storage, then every partition
  /// dispatches as a zero-copy subview through the inner operator's
  /// columnar path. Keys are independent operator instances and per-key
  /// arrival order is preserved (the scatter is stable), so results are
  /// bit-identical to per-tuple processing.
  void ProcessTupleColumns(const TupleColumnsView& cols) override {
    const size_t n = cols.size;
    if (n == 0) return;
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
    // Exclusive prefix sum -> partition base offsets; cursors advance as
    // the scatter fills each partition.
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

  void ProcessWatermark(Time wm) override {
    last_wm_ = wm;
    for (auto& [key, op] : operators_) {
      op->ProcessWatermark(wm);
      CollectResults(key, *op);
    }
  }

  std::vector<WindowResult> TakeResults() override {
    // Collect anything produced between watermarks too (in-order streams
    // self-trigger per tuple).
    for (auto& [key, op] : operators_) CollectResults(key, *op);
    std::vector<WindowResult> out;
    out.swap(results_);
    return out;
  }

  size_t MemoryUsageBytes() const override {
    size_t bytes = 0;
    for (const auto& [key, op] : operators_) bytes += op->MemoryUsageBytes();
    return bytes;
  }

  std::string Name() const override {
    // inner_name_ is cached when the first per-key operator is created;
    // constructing a throwaway operator per Name() call would make a cheap
    // accessor arbitrarily expensive (factories allocate full operators).
    return inner_name_.empty() ? "keyed" : "keyed-" + inner_name_;
  }

  size_t NumKeys() const { return operators_.size(); }

  /// Access to one key's operator (nullptr if the key was never seen).
  const WindowOperator* ForKey(int64_t key) const {
    auto it = operators_.find(key);
    return it == operators_.end() ? nullptr : it->second.get();
  }

  /// The KEYD v3 layout, written by BuildKeyedState and read by
  /// ParseKeyedState: keys in sorted order, so the snapshot bytes are a
  /// pure function of the logical state (the unordered_map's iteration
  /// order is not). Each key is either inline — its operator's base as a
  /// length-prefixed opaque byte range, which rescaling restore can
  /// re-partition without decoding — or, in a delta only, a reference to
  /// the key's operator at the previous barrier.
  ///
  /// A delta inlines only keys whose operator saw tuples since the last
  /// barrier. Watermark broadcasts deliberately do NOT dirty a key — a
  /// clean key's post-watermark state is reconstructed by
  /// FinishDeltaRestore, which re-broadcasts the restored watermark;
  /// triggering is idempotent and cumulative, so the catch-up leaves every
  /// clean key bit-identical to an uninterrupted run (re-emitted window
  /// results duplicate already-delivered values, which the at-least-once
  /// delivery contract absorbs).
  void SerializeState(state::Writer& w) const override { Serialize(w, false); }
  void SerializeDelta(state::Writer& w) const override { Serialize(w, true); }

  /// Inline keys get a fresh operator restored from their bytes; referenced
  /// keys move over from the current state, and a missing one — a barrier
  /// missing in between — fails the reader.
  void DeserializeState(state::Reader& r) override {
    KeyedStateParts parts;
    if (!ParseKeyedState(r, &parts)) {
      r.Fail();
      return;
    }
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
      std::unique_ptr<WindowOperator> op = factory_();
      if (inner_name_.empty()) inner_name_ = op->Name();
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
    last_wm_ = parts.last_wm;
    results_ = std::move(parts.results);
  }

  void MarkSnapshotClean() override {
    dirty_keys_.clear();
    for (auto& [key, op] : operators_) op->MarkSnapshotClean();
  }

  /// Catch-up after the last delta was applied: clean keys were restored to
  /// their state at an older barrier; re-broadcasting the restored
  /// watermark advances them through the exact triggers/evictions they
  /// performed live (idempotent for keys already at the watermark).
  void FinishDeltaRestore() override {
    if (last_wm_ == kNoTime) return;
    ProcessWatermark(last_wm_);
  }

  /// A decomposed KEYD payload. `keys` holds each inline key's opaque
  /// serialized bytes, re-partitionable across workers without decoding;
  /// `refs` lists the keys a delta references.
  struct KeyedStateParts {
    Time last_wm = kNoTime;
    std::vector<std::pair<int64_t, std::vector<uint8_t>>> keys;
    std::vector<int64_t> refs;
    std::vector<WindowResult> results;
  };

  /// Splits a serialized keyed payload into parts. Returns false (without
  /// touching `out`) if the bytes are not a well-formed keyed state.
  static bool ParseKeyedState(const std::vector<uint8_t>& bytes,
                              KeyedStateParts* out) {
    state::Reader r(bytes);
    KeyedStateParts parts;
    if (!ParseKeyedState(r, &parts) || !r.AtEnd()) return false;
    *out = std::move(parts);
    return true;
  }

  /// Reads one keyed state at the reader's position (trailing bytes are the
  /// caller's). Returns false if it is not well formed.
  static bool ParseKeyedState(state::Reader& r, KeyedStateParts* out) {
    r.Tag(kKeyedTag);
    if (r.U8() != kKeyedFormatVersion) return false;
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

  /// Inverse of ParseKeyedState: assembles a keyed payload (sorting keys,
  /// so the output is canonical regardless of input order).
  static std::vector<uint8_t> BuildKeyedState(KeyedStateParts parts) {
    std::vector<std::pair<int64_t, const std::vector<uint8_t>*>> all;
    all.reserve(parts.keys.size() + parts.refs.size());
    for (const auto& [key, kb] : parts.keys) all.emplace_back(key, &kb);
    for (int64_t key : parts.refs) all.emplace_back(key, nullptr);
    std::sort(all.begin(), all.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    state::Writer w;
    w.Tag(kKeyedTag);
    w.U8(kKeyedFormatVersion);
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

 private:
  static constexpr uint32_t kKeyedTag = 0x4B455944;  // "KEYD"
  static constexpr uint8_t kKeyedFormatVersion = 3;

  /// The one KEYD writer: every key inline in a base; in a delta, keys
  /// without tuples since the last barrier become references.
  void Serialize(state::Writer& w, bool delta) const {
    KeyedStateParts parts;
    parts.last_wm = last_wm_;
    for (const auto& [key, op] : operators_) {
      if (delta && dirty_keys_.count(key) == 0) {
        parts.refs.push_back(key);
        continue;
      }
      state::Writer inner;
      op->SerializeState(inner);
      parts.keys.emplace_back(key, inner.Take());
    }
    parts.results = results_;
    const std::vector<uint8_t> bytes = BuildKeyedState(std::move(parts));
    w.Bytes(bytes.data(), bytes.size());
  }

  /// Moves `op`'s pending results onto results_, stamped with `key`. The
  /// inner operator keeps its result buffer, so its next emission does not
  /// reallocate.
  void CollectResults(int64_t key, WindowOperator& op) {
    const size_t from = results_.size();
    op.TakeResultsInto(&results_);
    for (size_t i = from; i < results_.size(); ++i) results_[i].key = key;
  }

  /// OperatorFor is reached exclusively from the tuple paths, so it is the
  /// single point where a key turns dirty for incremental snapshots.
  WindowOperator& OperatorFor(int64_t key) {
    dirty_keys_.insert(key);
    auto it = operators_.find(key);
    if (it == operators_.end()) {
      it = operators_.emplace(key, factory_()).first;
      if (inner_name_.empty()) inner_name_ = it->second->Name();
      // A freshly created per-key operator must not consider windows
      // before the current watermark already triggered.
      if (last_wm_ != kNoTime) it->second->ProcessWatermark(last_wm_);
    }
    return *it->second;
  }

  Factory factory_;
  std::unordered_map<int64_t, std::unique_ptr<WindowOperator>> operators_;

  // Columnar shuffle scratch (ProcessTupleColumns): key -> dense partition
  // slot, per-partition sizes/offsets, and partition-contiguous column
  // storage. All reused across batches so the steady state allocates
  // nothing.
  FlatKeyMap<uint32_t> key_slots_{64};
  std::vector<int64_t> part_keys_;     // partition slot -> key (first-seen)
  std::vector<size_t> part_counts_;
  std::vector<size_t> part_offsets_;
  std::vector<size_t> part_cursors_;
  std::vector<uint32_t> slot_ids_;     // per-tuple partition slot
  std::vector<Time> scratch_ts_;
  std::vector<double> scratch_value_;
  std::vector<int64_t> scratch_key_;
  std::vector<uint64_t> scratch_seq_;
  std::vector<uint8_t> scratch_punct_;
  std::unordered_set<int64_t> dirty_keys_;  // keys with tuples since barrier
  std::vector<WindowResult> results_;
  std::string inner_name_;
  Time last_wm_ = kNoTime;
};

}  // namespace scotty

#endif  // SCOTTY_RUNTIME_KEYED_OPERATOR_H_
