#ifndef SCOTTY_COMMON_TUPLE_BATCH_H_
#define SCOTTY_COMMON_TUPLE_BATCH_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <utility>

#include "common/time.h"
#include "common/tuple.h"

namespace scotty {

/// Cache-line alignment for SoA columns. Kernels may issue aligned vector
/// loads on column heads, and the SpscQueue asserts its ring capacity is a
/// multiple of this element count so wrapped segments stay aligned too.
inline constexpr size_t kBatchAlignBytes = 64;
/// Alignment expressed in column elements (all columns are 8-byte typed).
inline constexpr size_t kBatchAlignElems = kBatchAlignBytes / sizeof(double);

/// Read-only view over columnar tuple data. The five columns are parallel
/// arrays: element i of each column holds field i of logical tuple i. Views
/// are cheap to subrange, so batch splitting (at slice edges, trigger edges,
/// key-group boundaries) never copies tuple data.
struct TupleColumnsView {
  const Time* ts = nullptr;
  const double* value = nullptr;
  const int64_t* key = nullptr;
  const uint64_t* seq = nullptr;
  /// 1 for punctuation markers, 0 for data tuples. May be null when the
  /// producer guarantees the view contains no punctuation.
  const uint8_t* punct = nullptr;
  size_t size = 0;

  bool empty() const { return size == 0; }

  bool IsPunct(size_t i) const { return punct != nullptr && punct[i] != 0; }

  /// Materialize logical tuple i. Used by the generic fallbacks (straggler
  /// tuples, aggregations without a column kernel); hot paths read the
  /// columns directly.
  Tuple Get(size_t i) const {
    assert(i < size);
    return Tuple{ts[i], value[i], key[i], seq[i], IsPunct(i)};
  }

  TupleColumnsView Subview(size_t offset, size_t count) const {
    assert(offset + count <= size);
    return TupleColumnsView{ts + offset, value + offset, key + offset,
                            seq + offset,
                            punct == nullptr ? nullptr : punct + offset, count};
  }
};

/// Owning columnar (structure-of-arrays) tuple batch. Columns live in one
/// cache-line-aligned allocation laid out [ts | value | key | seq | punct],
/// each column padded to the alignment quantum, so a batch is a single
/// allocation and sequential scans of one column never touch the others.
///
/// Compare with std::vector<Tuple>: a 1024-tuple AoS batch is 40 KiB of
/// interleaved fields; the SoA ts+value columns a slicing fold actually
/// reads are 16 KiB of dense, vectorizable data.
class TupleBatchSoA {
 public:
  TupleBatchSoA() = default;
  explicit TupleBatchSoA(size_t capacity) { Reserve(capacity); }

  TupleBatchSoA(const TupleBatchSoA& other) { *this = other; }
  TupleBatchSoA& operator=(const TupleBatchSoA& other) {
    if (this == &other) return *this;
    Clear();
    Reserve(other.size_);
    AppendView(other.View());
    return *this;
  }

  TupleBatchSoA(TupleBatchSoA&& other) noexcept { *this = std::move(other); }
  TupleBatchSoA& operator=(TupleBatchSoA&& other) noexcept {
    if (this == &other) return *this;
    Free();
    storage_ = std::exchange(other.storage_, nullptr);
    ts_ = std::exchange(other.ts_, nullptr);
    value_ = std::exchange(other.value_, nullptr);
    key_ = std::exchange(other.key_, nullptr);
    seq_ = std::exchange(other.seq_, nullptr);
    punct_ = std::exchange(other.punct_, nullptr);
    size_ = std::exchange(other.size_, 0);
    capacity_ = std::exchange(other.capacity_, 0);
    punct_count_ = std::exchange(other.punct_count_, 0);
    return *this;
  }

  ~TupleBatchSoA() { Free(); }

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }

  const Time* ts() const { return ts_; }
  const double* value() const { return value_; }
  const int64_t* key() const { return key_; }
  const uint64_t* seq() const { return seq_; }
  const uint8_t* punct() const { return punct_; }

  Time* mutable_ts() { return ts_; }
  double* mutable_value() { return value_; }
  int64_t* mutable_key() { return key_; }
  uint64_t* mutable_seq() { return seq_; }
  uint8_t* mutable_punct() { return punct_; }

  Tuple Get(size_t i) const {
    assert(i < size_);
    return Tuple{ts_[i], value_[i], key_[i], seq_[i], punct_[i] != 0};
  }

  void PushBack(const Tuple& t) {
    if (size_ == capacity_) Reserve(capacity_ == 0 ? 64 : capacity_ * 2);
    ts_[size_] = t.ts;
    value_[size_] = t.value;
    key_[size_] = t.key;
    seq_[size_] = t.seq;
    punct_[size_] = t.is_punctuation ? 1 : 0;
    punct_count_ += t.is_punctuation ? 1 : 0;
    ++size_;
  }

  void AppendTuples(std::span<const Tuple> tuples) {
    Reserve(size_ + tuples.size());
    for (const Tuple& t : tuples) PushBack(t);
  }

  /// Bulk append by per-column memcpy (the SpscQueue drain path).
  void AppendView(const TupleColumnsView& v) {
    if (v.size == 0) return;
    Reserve(size_ + v.size);
    std::memcpy(ts_ + size_, v.ts, v.size * sizeof(Time));
    std::memcpy(value_ + size_, v.value, v.size * sizeof(double));
    std::memcpy(key_ + size_, v.key, v.size * sizeof(int64_t));
    std::memcpy(seq_ + size_, v.seq, v.size * sizeof(uint64_t));
    if (v.punct != nullptr) {
      std::memcpy(punct_ + size_, v.punct, v.size * sizeof(uint8_t));
      for (size_t i = 0; i < v.size; ++i) punct_count_ += v.punct[i] ? 1 : 0;
    } else {
      std::memset(punct_ + size_, 0, v.size * sizeof(uint8_t));
    }
    size_ += v.size;
  }

  void Clear() {
    size_ = 0;
    punct_count_ = 0;
  }

  TupleColumnsView View() const {
    return TupleColumnsView{ts_, value_, key_, seq_,
                            punct_count_ == 0 ? nullptr : punct_,
                            size_};
  }

  TupleColumnsView Subview(size_t offset, size_t count) const {
    return View().Subview(offset, count);
  }

  void Reserve(size_t capacity) {
    if (capacity <= capacity_) return;
    size_t cap = (capacity + kBatchAlignElems - 1) & ~(kBatchAlignElems - 1);
    // One allocation, five aligned column segments. The punct column is
    // 1 byte/elem but still padded to the alignment quantum.
    size_t col8 = cap * sizeof(double);
    size_t col1 = (cap + kBatchAlignBytes - 1) & ~(kBatchAlignBytes - 1);
    size_t total = 4 * col8 + col1;
    auto* base = static_cast<std::byte*>(
        ::operator new(total, std::align_val_t{kBatchAlignBytes}));
    auto* nts = reinterpret_cast<Time*>(base);
    auto* nvalue = reinterpret_cast<double*>(base + col8);
    auto* nkey = reinterpret_cast<int64_t*>(base + 2 * col8);
    auto* nseq = reinterpret_cast<uint64_t*>(base + 3 * col8);
    auto* npunct = reinterpret_cast<uint8_t*>(base + 4 * col8);
    if (size_ > 0) {
      std::memcpy(nts, ts_, size_ * sizeof(Time));
      std::memcpy(nvalue, value_, size_ * sizeof(double));
      std::memcpy(nkey, key_, size_ * sizeof(int64_t));
      std::memcpy(nseq, seq_, size_ * sizeof(uint64_t));
      std::memcpy(npunct, punct_, size_ * sizeof(uint8_t));
    }
    Free();
    storage_ = base;
    ts_ = nts;
    value_ = nvalue;
    key_ = nkey;
    seq_ = nseq;
    punct_ = npunct;
    capacity_ = cap;
  }

 private:
  void Free() {
    if (storage_ != nullptr) {
      ::operator delete(storage_, std::align_val_t{kBatchAlignBytes});
      storage_ = nullptr;
    }
  }

  std::byte* storage_ = nullptr;
  Time* ts_ = nullptr;
  double* value_ = nullptr;
  int64_t* key_ = nullptr;
  uint64_t* seq_ = nullptr;
  uint8_t* punct_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
  size_t punct_count_ = 0;  // 0 lets View() drop the punct column
};

}  // namespace scotty

#endif  // SCOTTY_COMMON_TUPLE_BATCH_H_
