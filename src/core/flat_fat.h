#ifndef SCOTTY_CORE_FLAT_FAT_H_
#define SCOTTY_CORE_FLAT_FAT_H_

#include <cassert>
#include <cstddef>
#include <vector>

#include "aggregates/aggregate_function.h"
#include "common/memory.h"
#include "state/serde.h"

namespace scotty {

/// FlatFAT [42]: a flat (array-backed) binary aggregate tree over a sequence
/// of partial aggregates. Leaves are either stream tuples (the
/// Aggregate-Tree baseline of paper Section 3.2) or slices (eager general
/// slicing, Section 3.4); inner nodes hold the combine of their children.
///
/// Supported operations and costs:
///  - Append / UpdateLeaf:     O(log n)
///  - ordered range query:     O(log n) combines, left-to-right order
///    (safe for non-commutative functions)
///  - InsertLeafAt (middle):   O(n) — models the expensive out-of-order
///    leaf insert + rebalance the paper measures for aggregate trees
///  - PopFront (eviction):     amortized O(1) via a sliding offset
class FlatFat {
 public:
  explicit FlatFat(AggregateFunctionPtr fn) : fn_(std::move(fn)) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return capacity_; }
  size_t offset() const { return offset_; }

  /// Appends a leaf at the end.
  void Append(Partial leaf) {
    if (offset_ + size_ == capacity_) Regrow();
    leaves_[offset_ + size_] = std::move(leaf);
    ++size_;
    UpdatePath(offset_ + size_ - 1);
  }

  /// Replaces leaf `i` (logical index) and updates the path to the root.
  void UpdateLeaf(size_t i, Partial leaf) {
    assert(i < size_);
    leaves_[offset_ + i] = std::move(leaf);
    UpdatePath(offset_ + i);
  }

  /// Combines `delta` into leaf `i` in place (leaf = leaf (+) delta).
  void CombineIntoLeaf(size_t i, const Partial& delta) {
    assert(i < size_);
    fn_->Combine(leaves_[offset_ + i], delta);
    UpdatePath(offset_ + i);
  }

  const Partial& Leaf(size_t i) const {
    assert(i < size_);
    return leaves_[offset_ + i];
  }

  /// Inserts a leaf before logical index `i`, shifting later leaves — the
  /// deliberate O(n) path for out-of-order inserts into tuple-leaf trees.
  void InsertLeafAt(size_t i, Partial leaf) {
    assert(i <= size_);
    if (offset_ + size_ == capacity_) Regrow();
    for (size_t j = size_; j > i; --j) {
      leaves_[offset_ + j] = std::move(leaves_[offset_ + j - 1]);
    }
    leaves_[offset_ + i] = std::move(leaf);
    ++size_;
    // Every shifted leaf's path changes; rebuild the affected suffix.
    RebuildFrom(i);
  }

  /// Removes leaf `i`, shifting later leaves (O(n)).
  void RemoveLeafAt(size_t i) {
    assert(i < size_);
    for (size_t j = i; j + 1 < size_; ++j) {
      leaves_[offset_ + j] = std::move(leaves_[offset_ + j + 1]);
    }
    leaves_[offset_ + size_ - 1] = Partial{};
    // Rebuild through the vacated slot too, so no inner node keeps the
    // removed partial.
    RebuildFrom(i);
    --size_;
  }

  /// Evicts the first `k` leaves (amortized O(k log n): identity leaves are
  /// left behind and compacted when the window of live leaves has slid past
  /// half the capacity).
  void PopFront(size_t k) {
    assert(k <= size_);
    for (size_t i = 0; i < k; ++i) {
      leaves_[offset_ + i] = Partial{};
      UpdatePath(offset_ + i);
    }
    offset_ += k;
    size_ -= k;
    if (offset_ > capacity_ / 2) Compact();
  }

  /// Aggregate of all live leaves (identity if empty).
  Partial Root() const {
    return capacity_ == 0 ? Partial{} : tree_[1];
  }

  /// Ordered combine of leaves [i, j): left-to-right, so the result is
  /// correct even for non-commutative (merely associative) functions.
  Partial Query(size_t i, size_t j) const {
    Partial acc;
    if (i >= j || capacity_ == 0) return acc;
    QueryRec(1, 0, capacity_, offset_ + i, offset_ + j, acc);
    return acc;
  }

  /// Rebuilds inner nodes for the logical suffix starting at leaf `i`.
  void RebuildFrom(size_t i) {
    for (size_t j = offset_ + i; j < offset_ + size_; ++j) UpdatePath(j);
  }

  /// Accounted bytes: inner nodes + leaf slots (the (|leaves|-1) * size(agg)
  /// overhead of Table 1, Row 2/6/8).
  size_t MemoryBytes() const {
    size_t bytes = 0;
    for (const Partial& p : tree_) bytes += MemoryModel::kTreeNodeBytes + p.DynamicBytes();
    for (const Partial& p : leaves_) bytes += p.DynamicBytes();
    return bytes;
  }

  /// Snapshot support: the layout (capacity, offset, size) plus the live
  /// leaves. Inner nodes are not stored. Every dead slot holds the identity
  /// (PopFront, RemoveLeafAt and Rebuild reset it) and every inner node is
  /// RecomputeNode's combine(left, right) of its current children; the
  /// growth history only shapes the layout, which is serialized. So
  /// Deserialize rebuilds a tree that answers every query bit-identically.
  void Serialize(state::Writer& w) const {
    w.U64(capacity_);
    w.U64(offset_);
    w.U64(size_);
    for (size_t i = 0; i < size_; ++i) leaves_[offset_ + i].Serialize(w);
  }

  void Deserialize(state::Reader& r) {
    const uint64_t capacity = r.U64();
    const uint64_t offset = r.U64();
    const uint64_t size = r.U64();
    if (!r.ok() || size > r.remaining()) {  // each partial needs >= 1 byte
      r.Fail();
      return;
    }
    std::vector<Partial> live(static_cast<size_t>(size));
    for (Partial& p : live) p.Deserialize(r);
    if (!r.ok() ||
        !RestoreFromLayout(static_cast<size_t>(capacity),
                           static_cast<size_t>(offset), live.size(),
                           [&](size_t i) { return std::move(live[i]); })) {
      r.Fail();
    }
  }

  /// The one restore: reconstructs the exact physical layout (capacity,
  /// offset, size), filling live leaves from `leaf(i)` for logical index i
  /// in [0, size) and identity elsewhere, then recomputes every inner node
  /// bottom-up in Rebuild's order. Used by Deserialize and by the aggregate
  /// store, whose live leaves are its slices' partials. Returns false
  /// (leaving the tree empty) on an inconsistent layout.
  template <typename LeafFn>
  bool RestoreFromLayout(size_t capacity, size_t offset, size_t size,
                         LeafFn&& leaf) {
    leaves_.clear();
    tree_.clear();
    capacity_ = offset_ = size_ = 0;
    if (capacity == 0) return offset == 0 && size == 0;
    if ((capacity & (capacity - 1)) != 0 || offset > capacity ||
        size > capacity - offset) {
      return false;
    }
    capacity_ = capacity;
    offset_ = offset;
    size_ = size;
    leaves_.assign(capacity_, Partial{});
    for (size_t i = 0; i < size_; ++i) leaves_[offset_ + i] = leaf(i);
    tree_.assign(capacity_, Partial{});
    for (size_t node = capacity_ - 1; node >= 1; --node) RecomputeNode(node);
    return true;
  }

 private:
  static size_t NextPow2(size_t n) {
    size_t c = 1;
    while (c < n) c <<= 1;
    return c;
  }

  void UpdatePath(size_t physical_leaf) {
    size_t node = (capacity_ + physical_leaf) / 2;
    while (node >= 1) {
      RecomputeNode(node);
      node /= 2;
    }
  }

  void RecomputeNode(size_t node) {
    const size_t left = node * 2;
    Partial acc;
    if (left < capacity_) {
      fn_->Combine(acc, tree_[left]);
      fn_->Combine(acc, tree_[left + 1]);
    } else {
      fn_->Combine(acc, leaves_[left - capacity_]);
      fn_->Combine(acc, leaves_[left + 1 - capacity_]);
    }
    tree_[node] = std::move(acc);
  }

  void QueryRec(size_t node, size_t lo, size_t hi, size_t i, size_t j,
                Partial& acc) const {
    if (j <= lo || hi <= i) return;
    if (i <= lo && hi <= j) {
      const Partial& p =
          node >= capacity_ ? leaves_[node - capacity_] : tree_[node];
      fn_->Combine(acc, p);
      return;
    }
    const size_t mid = lo + (hi - lo) / 2;
    QueryRec(node * 2, lo, mid, i, j, acc);      // left first: preserves order
    QueryRec(node * 2 + 1, mid, hi, i, j, acc);  // then right
  }

  void Regrow() {
    const size_t new_cap = NextPow2(size_ == 0 ? 2 : size_ * 2);
    Rebuild(new_cap);
  }

  void Compact() { Rebuild(capacity_); }

  void Rebuild(size_t new_cap) {
    std::vector<Partial> new_leaves(new_cap);
    for (size_t i = 0; i < size_; ++i) {
      new_leaves[i] = std::move(leaves_[offset_ + i]);
    }
    leaves_ = std::move(new_leaves);
    capacity_ = new_cap;
    offset_ = 0;
    tree_.assign(capacity_, Partial{});
    for (size_t node = capacity_ - 1; node >= 1; --node) RecomputeNode(node);
  }

  AggregateFunctionPtr fn_;
  size_t capacity_ = 0;  // power of two; physical leaf count
  size_t offset_ = 0;    // physical index of logical leaf 0
  size_t size_ = 0;      // live leaves
  std::vector<Partial> leaves_;  // size capacity_
  std::vector<Partial> tree_;    // size capacity_, 1-based inner nodes
};

}  // namespace scotty

#endif  // SCOTTY_CORE_FLAT_FAT_H_
