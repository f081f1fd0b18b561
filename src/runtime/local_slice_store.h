#ifndef SCOTTY_RUNTIME_LOCAL_SLICE_STORE_H_
#define SCOTTY_RUNTIME_LOCAL_SLICE_STORE_H_

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "aggregates/aggregate_function.h"
#include "common/flat_hash.h"
#include "common/tuple_batch.h"

namespace scotty {

/// Worker-private pre-aggregation buckets for the shared-operator parallel
/// mode (NebulaStream-style slice-level parallelism): each worker folds its
/// share of the stream into fixed-length local buckets without any
/// synchronization, and only the finished per-bucket partials cross threads
/// — one merge per (bucket, watermark) instead of one shared-state update
/// per tuple.
///
/// Bucket bounds are [k*slice_len, (k+1)*slice_len). The executor picks a
/// slice_len that divides every window length and slide, so bucket edges are
/// a superset of all window edges and a bucket never straddles one; the
/// shared operator can then serve any window as a union of merged buckets.
///
/// Only valid for commutative aggregations: workers merge in arbitrary
/// relative order, so non-commutative folds (and FP bit-identity across
/// different worker interleavings) are out of scope by design.
class ThreadLocalSliceStore {
 public:
  struct Bucket {
    Time start = 0;
    Time end = 0;
    Time t_first = 0;  // min/max tuple timestamp seen in this bucket
    Time t_last = 0;
    uint64_t count = 0;
    std::vector<Partial> partials;  // one accumulator per aggregation
  };

  ThreadLocalSliceStore(Time slice_len,
                        const std::vector<AggregateFunctionPtr>& fns)
      : slice_len_(slice_len), fns_(&fns) {
    assert(slice_len_ > 0 && "pre-aggregation slice length must be positive");
  }

  /// Folds every data tuple of the view into its bucket through the column
  /// kernels (one LiftCombineColumns dispatch per maximal same-bucket run).
  /// Punctuation tuples carry no data and are skipped.
  void AddColumns(const TupleColumnsView& cols) {
    size_t i = 0;
    while (i < cols.size) {
      if (cols.IsPunct(i)) {
        ++i;
        continue;
      }
      const Time start = BucketStart(cols.ts[i]);
      const Time end = start + slice_len_;
      size_t j = i + 1;
      while (j < cols.size && !cols.IsPunct(j) && cols.ts[j] >= start &&
             cols.ts[j] < end) {
        ++j;
      }
      Fold(cols.Subview(i, j - i), start, end);
      i = j;
    }
  }

  /// Hands every bucket that ends at or before `wm` to `merge` and removes
  /// it. Buckets are visited in creation order (ascending starts for
  /// in-order streams); the shared merge is order-insensitive either way.
  template <typename MergeFn>
  void DrainCompletedUpTo(Time wm, MergeFn&& merge) {
    size_t kept = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
      if (buckets_[i].end <= wm) {
        merge(buckets_[i]);
      } else {
        if (kept != i) buckets_[kept] = std::move(buckets_[i]);
        ++kept;
      }
    }
    if (kept == buckets_.size()) return;
    buckets_.resize(kept);
    ReindexBuckets();
  }

  /// Hands every bucket to `merge` and empties the store (the stop path:
  /// nothing local may outlive the worker).
  template <typename MergeFn>
  void DrainAll(MergeFn&& merge) {
    for (const Bucket& b : buckets_) merge(b);
    buckets_.clear();
    index_.Clear();
  }

 private:
  Time BucketStart(Time ts) const {
    Time q = ts / slice_len_;
    if (ts % slice_len_ < 0) --q;  // floor division for negative timestamps
    return q * slice_len_;
  }

  void Fold(const TupleColumnsView& cols, Time start, Time end) {
    bool inserted = false;
    const uint32_t slot = index_.FindOrInsert(
        start, static_cast<uint32_t>(buckets_.size()), &inserted);
    if (inserted) {
      Bucket b;
      b.start = start;
      b.end = end;
      b.t_first = cols.ts[0];
      b.t_last = cols.ts[0];
      b.partials.resize(fns_->size());
      buckets_.push_back(std::move(b));
    }
    Bucket& b = buckets_[slot];
    for (size_t a = 0; a < fns_->size(); ++a) {
      (*fns_)[a]->LiftCombineColumns(cols, b.partials[a]);
    }
    for (size_t i = 0; i < cols.size; ++i) {
      if (cols.ts[i] < b.t_first) b.t_first = cols.ts[i];
      if (cols.ts[i] > b.t_last) b.t_last = cols.ts[i];
    }
    b.count += cols.size;
  }

  void ReindexBuckets() {
    index_.Clear();
    for (size_t i = 0; i < buckets_.size(); ++i) {
      index_.FindOrInsert(buckets_[i].start, static_cast<uint32_t>(i));
    }
  }

  Time slice_len_;
  const std::vector<AggregateFunctionPtr>* fns_;
  std::vector<Bucket> buckets_;
  FlatKeyMap<uint32_t> index_{16};  // bucket start -> index into buckets_
};

}  // namespace scotty

#endif  // SCOTTY_RUNTIME_LOCAL_SLICE_STORE_H_
