#ifndef SCOTTY_RUNTIME_OVERLOAD_H_
#define SCOTTY_RUNTIME_OVERLOAD_H_

// Overload admission control (DESIGN.md §11).
//
// A BackpressureController samples two load signals — SPSC ingest-queue
// occupancy and checkpoint persist-queue depth — and maps them onto a
// three-level admission policy for DATA tuples:
//
//  - kAccept: enqueue normally.
//  - kBackpressure: the producer blocks for a bounded time
//    (SpscQueue::TryPushTuplesFor) instead of spinning unboundedly; if the
//    consumer drains in time the tuple is admitted, otherwise the caller
//    escalates to shedding.
//  - kShed: the tuple is dropped BEFORE entering the pipeline and its
//    timestamp is recorded in a ShedLedger.
//
// Watermark safety is the load-bearing contract: punctuation, watermarks,
// and snapshot barriers are NEVER shed — only data tuples are. Shedding a
// data tuple can therefore only remove contributions from windows whose
// time range covers the shed timestamp; every other window stays
// bit-identical to the unfaulted run. The ShedLedger makes that precise:
// a result for window [start, end) is exact iff the ledger records no shed
// timestamp inside [start, end); otherwise it is flagged approximate. The
// fuzzer's --overload oracle enforces exactly this partition (delivered
// exact results ∪ shed-marked windows ≡ the unfaulted run).

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/time.h"
#include "common/tuple.h"

namespace scotty {

class ParallelExecutor;

/// Admission decision for one data tuple, in escalation order.
enum class Admission { kAccept, kBackpressure, kShed };

struct BackpressureOptions {
  /// Queue occupancy (0..1) at which admission moves to bounded blocking.
  double backpressure_fraction = 0.75;
  /// Queue occupancy at which admission moves to shedding.
  double shed_fraction = 0.95;
  /// Hysteresis: once shedding, occupancy must fall BELOW this before the
  /// controller accepts again — prevents flapping at the shed threshold.
  double resume_fraction = 0.50;
  /// Persist-queue depth (CheckpointCoordinator::PersistQueueDepth) at or
  /// above which persistence lag alone escalates to backpressure. Lag
  /// never escalates to shedding by itself: dropping data cannot make a
  /// slow disk faster, it only loses results.
  size_t persist_queue_soft_limit = 6;
  /// Bound for the blocking push under kBackpressure. Expiry means the
  /// consumer is stalled, not merely slow; the caller sheds.
  std::chrono::nanoseconds block_timeout = std::chrono::milliseconds(5);
};

/// Counters a BackpressureController accumulates over its Decide and Admit
/// calls; embedded in run reports so overload behavior is observable after
/// the run.
struct OverloadStats {
  uint64_t accepted = 0;              ///< tuples admitted first try
  uint64_t backpressure_waits = 0;    ///< bounded blocking engaged
  uint64_t backpressure_timeouts = 0; ///< bounded wait expired → shed
  uint64_t shed = 0;                  ///< data tuples dropped
  uint64_t shed_decisions = 0;        ///< Decide() returned kShed
  uint64_t backpressure_decisions = 0;///< Decide() returned kBackpressure
};

/// Per-window shed accounting. Records the event timestamp of every shed
/// data tuple; a window result is exact iff no shed timestamp falls inside
/// its [start, end) range. Single-threaded: owned by the ingest loop that
/// does the shedding.
class ShedLedger {
 public:
  void RecordShed(Time ts) {
    ++total_shed_;
    shed_ts_.push_back(ts);
  }

  uint64_t total_shed() const { return total_shed_; }
  bool empty() const { return shed_ts_.empty(); }

  /// True when at least one shed timestamp lies in [start, end) — the
  /// window's result may be approximate and must be flagged.
  bool OverlapsWindow(Time start, Time end) const {
    for (const Time ts : shed_ts_) {
      if (ts >= start && ts < end) return true;
    }
    return false;
  }

  /// Shed contributions to [start, end) — the per-window shed counter.
  uint64_t CountInWindow(Time start, Time end) const {
    uint64_t n = 0;
    for (const Time ts : shed_ts_) {
      if (ts >= start && ts < end) ++n;
    }
    return n;
  }

 private:
  uint64_t total_shed_ = 0;
  std::vector<Time> shed_ts_;
};

/// Maps sampled load signals onto the three-level admission policy, with
/// hysteresis around the shed threshold. Not thread-safe: one controller
/// per ingest thread.
class BackpressureController {
 public:
  explicit BackpressureController(BackpressureOptions opts = {});

  /// Admission decision for the next data tuple. `queue_fraction` is the
  /// most-loaded SPSC queue's occupancy in 0..1
  /// (ParallelExecutor::ApproxMaxQueueFraction), `persist_queue_depth`
  /// the coordinator's pending persist count. A degraded or alarmed
  /// coordinator is already handling its own trouble by walking the
  /// persistence ladder; it contributes pressure only through the persist
  /// queue actually backing up, never directly — shedding data cannot fix
  /// a broken disk.
  Admission Decide(double queue_fraction, size_t persist_queue_depth);

  /// The one admission step for a tuple headed into `exec`, which must
  /// stage nothing (Options::batch_size <= 1): Decide from the executor's
  /// fullest queue and `persist_queue_depth`, then push with a wait of at
  /// most `block_timeout`. A shed decision or an expired wait drops a data
  /// tuple before it enters the pipeline and records its timestamp in
  /// `*ledger` (when given). Punctuation is never shed: it waits up to
  /// kDeliverTimeout. Returns false only when a punctuation missed that
  /// bound (a dead consumer); everything else returns true.
  bool Admit(ParallelExecutor& exec, const Tuple& t,
             size_t persist_queue_depth, ShedLedger* ledger);

  /// Bound for pushes that must not be shed (punctuation; a caller's
  /// watermarks): expiry means a dead consumer, never a legitimate
  /// overload outcome.
  static constexpr std::chrono::seconds kDeliverTimeout{10};

  /// True while the hysteresis latch keeps the controller in shed mode.
  bool shedding() const { return shedding_; }

  const BackpressureOptions& options() const { return opts_; }

  /// Decision counters (Decide) and tuple outcomes (Admit) so far.
  const OverloadStats& stats() const { return stats_; }

 private:
  BackpressureOptions opts_;
  bool shedding_ = false;
  OverloadStats stats_;
};

}  // namespace scotty

#endif  // SCOTTY_RUNTIME_OVERLOAD_H_
