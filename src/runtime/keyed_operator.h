#ifndef SCOTTY_RUNTIME_KEYED_OPERATOR_H_
#define SCOTTY_RUNTIME_KEYED_OPERATOR_H_

#include <cstdint>
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

/// Per-key windowing within one thread: windows over "average speed per
/// vehicle", "session per user", ... This is the keyed-stream semantics of
/// Flink/Beam; combined with the ParallelExecutor it yields the two-level
/// key partitioning of paper Section 5.3. Results are tagged with their key.
///
/// The wrapper runs one of two lanes, chosen once from the workload
/// characterization of the query set the factory builds (core/workload.h,
/// KeysShareSlices):
///
///  - **Shared slices.** When every window is context free on the time lane
///    and the factory builds a lazy, out-of-order GeneralSlicingOperator that
///    stores no tuples and has no holistic aggregation, window edges depend
///    on no key's tuples and per-key state is fixed-size. All keys then
///    share one slice stream whose slices (cells) hold per-key partials, with
///    one trigger heap and one eviction pass per watermark — NebulaStream's
///    keyed slices, whose pre-aggregate is a value per key.
///  - **Per-key operators.** Every other query set (sessions, punctuation,
///    count measures, in-order streams, the eager store, holistic or
///    tuple-storing aggregations, non-slicing factories) keeps one operator
///    per key, and watermarks are broadcast to each.
///
/// Both lanes produce the same results: each key's windows are the ones its
/// own operator, created on the key's first tuple and given every
/// watermark, would report, bit for bit, for every window instance ending
/// after time 0: window edges are defined on non-negative time, and the
/// shared lane reports no instance ending at or before 0 (DESIGN.md §9).
/// Within one watermark the emission order may differ (the shared lane
/// emits, per window instance, every key in first-seen order).
///
/// The lane is decided on the first tuple, the first DeserializeState, the
/// first snapshot or the first shares_slices() call, by calling the factory
/// once — never in the constructor, so building a keyed executor stays
/// cheap. In the per-key lane that operator serves the first key.
class KeyedWindowOperator : public WindowOperator {
 public:
  using Factory = std::function<std::unique_ptr<WindowOperator>()>;

  explicit KeyedWindowOperator(Factory factory);
  ~KeyedWindowOperator() override;

  void ProcessTuple(const Tuple& t) override;

  /// Shared lane: walks the view tuple by tuple. Per-key lane: a stable
  /// radix-style shuffle of the columns into per-key partitions. One pass
  /// maps each tuple's key to a dense partition slot through the
  /// open-addressing FlatKeyMap (recording the slot so the scatter needs no
  /// second hash probe), one pass scatters each column into
  /// partition-contiguous scratch storage, then every partition dispatches
  /// as a zero-copy subview through the inner operator's columnar path.
  /// Keys are independent operator instances and per-key arrival order is
  /// preserved (the scatter is stable), so results are bit-identical to
  /// per-tuple processing.
  void ProcessTupleColumns(const TupleColumnsView& cols) override;

  /// Watermarks never move back: one at or below the largest seen so far is
  /// ignored, so a key created afterwards does not take it as its floor.
  void ProcessWatermark(Time wm) override;

  void TakeResultsInto(std::vector<WindowResult>* out) override;
  size_t MemoryUsageBytes() const override;

  /// "keyed" until the lane is decided, then "keyed-" + the inner
  /// operator's name. Never calls the factory.
  std::string Name() const override;

  size_t NumKeys() const;

  /// Whether this operator runs the shared-slice lane (decides the lane if
  /// no tuple, restore or snapshot has yet).
  bool shares_slices() const;

  /// The KEYD layout, written by BuildKeyedState and read by
  /// ParseKeyedState: a version byte naming the lane, the watermark, then
  /// keys in sorted order, so the snapshot bytes are a pure function of the
  /// logical state. Each key is either inline — its unit as a
  /// length-prefixed opaque byte range, which rescaling restore can
  /// re-partition without decoding — or, in a delta only, a reference to
  /// the key's unit at the previous barrier. A delta inlines only keys that
  /// saw tuples since the last barrier.
  ///
  ///  - v3 (per-key lane): a unit is the key's operator base.
  ///  - v4 (shared lane): a unit is the key's floor, then its entries in
  ///    cell order as (cell start, cell end, one partial per aggregation).
  ///    Trigger progress is not stored: for a context-free window the next
  ///    edge after its last visit is GetNextEdge(watermark), since no edge
  ///    of the window lies between that visit and the watermark, so the
  ///    watermark and the floors determine it.
  ///
  /// A lane reads only its own version: restoring the other lane's state
  /// fails the reader.
  void SerializeState(state::Writer& w) const override { Serialize(w, false); }
  void SerializeDelta(state::Writer& w) const override { Serialize(w, true); }

  /// Inline keys are restored from their units; referenced keys move over
  /// from the current state, and a missing one — a barrier missing in
  /// between — fails the reader.
  void DeserializeState(state::Reader& r) override;

  void MarkSnapshotClean() override;

  /// Catch-up after the last delta was applied: clean keys were restored to
  /// their state at an older barrier. The per-key lane re-broadcasts the
  /// restored watermark, which advances them through the exact
  /// triggers/evictions they performed live (re-emitted window results
  /// duplicate already-delivered values, which the at-least-once delivery
  /// contract absorbs). The shared lane triggers once for all keys, so
  /// only eviction is missing: it evicts at the restored watermark and
  /// re-emits nothing.
  void FinishDeltaRestore() override;

  /// Version bytes of the two KEYD layouts.
  static constexpr uint8_t kPerKeyFormat = 3;
  static constexpr uint8_t kSharedSliceFormat = 4;

  /// A decomposed KEYD payload. `keys` holds each inline key's opaque
  /// unit, re-partitionable across workers without decoding; `refs` lists
  /// the keys a delta references.
  struct KeyedStateParts {
    uint8_t version = kPerKeyFormat;
    Time last_wm = kNoTime;
    std::vector<std::pair<int64_t, std::vector<uint8_t>>> keys;
    std::vector<int64_t> refs;
    std::vector<WindowResult> results;
  };

  /// Splits a serialized keyed payload into parts. Returns false (without
  /// touching `out`) if the bytes are not a well-formed keyed state.
  static bool ParseKeyedState(const std::vector<uint8_t>& bytes,
                              KeyedStateParts* out);

  /// Reads one keyed state at the reader's position (trailing bytes are the
  /// caller's). Returns false if it is not well formed.
  static bool ParseKeyedState(state::Reader& r, KeyedStateParts* out);

  /// Inverse of ParseKeyedState: assembles a keyed payload (sorting keys,
  /// so the output is canonical regardless of input order).
  static std::vector<uint8_t> BuildKeyedState(KeyedStateParts parts);

 private:
  class SharedSlices;
  enum class Lane : uint8_t { kUndecided, kPerKey, kShared };

  /// Decides the lane on first use (see the class comment).
  Lane DecideLane() const;

  /// The one KEYD writer for both lanes.
  void Serialize(state::Writer& w, bool delta) const;

  void DeserializePerKey(const KeyedStateParts& parts, state::Reader& r);

  /// Per-key lane: sends `wm` to every per-key operator and collects their
  /// results.
  void BroadcastWatermark(Time wm);

  /// Moves `op`'s pending results onto results_, stamped with `key`. The
  /// inner operator keeps its result buffer, so its next emission does not
  /// reallocate.
  void CollectResults(int64_t key, WindowOperator& op);

  /// The operator for a new key: the one the lane decision built, else a
  /// fresh factory product.
  std::unique_ptr<WindowOperator> NewKeyOperator();

  /// OperatorFor is reached exclusively from the per-key tuple paths, so it
  /// is the single point where a key turns dirty for incremental snapshots.
  WindowOperator& OperatorFor(int64_t key);

  Factory factory_;
  // The lane decision is lazy and may happen in a const accessor
  // (SerializeState, shares_slices), hence mutable.
  mutable Lane lane_ = Lane::kUndecided;
  mutable std::unique_ptr<WindowOperator> first_op_;  // per-key lane spare
  mutable std::unique_ptr<SharedSlices> shared_;
  mutable std::string inner_name_;

  std::unordered_map<int64_t, std::unique_ptr<WindowOperator>> operators_;

  // Columnar shuffle scratch (per-key ProcessTupleColumns): key -> dense
  // partition slot, per-partition sizes/offsets, and partition-contiguous
  // column storage. All reused across batches so the steady state allocates
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
  Time last_wm_ = kNoTime;  // the largest watermark seen
};

}  // namespace scotty

#endif  // SCOTTY_RUNTIME_KEYED_OPERATOR_H_
