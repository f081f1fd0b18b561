#ifndef SCOTTY_RUNTIME_WATERMARKS_H_
#define SCOTTY_RUNTIME_WATERMARKS_H_

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/time.h"
#include "common/tuple.h"
#include "state/snapshot.h"

namespace scotty {

/// The watermark cadence (paper Section 2: "many systems use watermarks to
/// control how long they wait for out-of-order tuples"). It emits
/// max_event_time - fixed_delay after every `interval`-th tuple: the
/// standard bounded-out-of-orderness heuristic (Flink's
/// BoundedOutOfOrdernessTimestampExtractor). It is the one watermark
/// cadence of the pipeline drivers (runtime/), the test harnesses and fault
/// injector (testing/) and the shared bench loops. An interval of 0 never
/// emits (the stream self-triggers or relies on a final watermark). The
/// running maximum never decreases, so neither does the emitted watermark.
///
/// The cadence is also the feed cursor a checkpoint barrier records:
/// Progress() is the CheckpointMetadata of the stream position just
/// consumed, and a cadence built from that metadata emits the same
/// watermarks at the same positions as one that never stopped.
class PeriodicWatermarks {
 public:
  /// Starts at the position a barrier recorded in `at` (by default the
  /// start of the stream).
  PeriodicWatermarks(uint64_t interval, Time fixed_delay,
                     const state::CheckpointMetadata& at = {})
      : interval_(interval),
        delay_(fixed_delay),
        count_(at.source_offset),
        next_(interval == 0 ? kNever
                            : (at.source_offset / interval + 1) * interval),
        max_ts_(at.max_ts),
        last_wm_(at.last_wm) {}

  /// Called for every tuple in arrival order; returns the watermark to emit
  /// after this tuple, or kNoTime.
  Time OnTuple(const Tuple& t) {
    max_ts_ = std::max(max_ts_, t.ts);
    if (++count_ != next_) return kNoTime;
    next_ += interval_;
    if (max_ts_ == kNoTime) return kNoTime;
    last_wm_ = max_ts_ - delay_;
    return last_wm_;
  }

  /// The metadata a barrier taken right now records: tuples seen so far
  /// (as both source offset and next sequence number), the maximum event
  /// time and the last emitted watermark.
  state::CheckpointMetadata Progress() const {
    state::CheckpointMetadata p;
    p.source_offset = count_;
    p.next_seq = count_;
    p.max_ts = max_ts_;
    p.last_wm = last_wm_;
    return p;
  }

  /// Maximum event time seen: the final watermark that closes a stream.
  Time max_ts() const { return max_ts_; }

 private:
  static constexpr uint64_t kNever = std::numeric_limits<uint64_t>::max();

  uint64_t interval_;
  Time delay_;
  uint64_t count_;  // tuples seen
  uint64_t next_;   // count_ at which the next watermark is due
  Time max_ts_;
  Time last_wm_;
};

}  // namespace scotty

#endif  // SCOTTY_RUNTIME_WATERMARKS_H_
