#ifndef SCOTTY_RUNTIME_CHECKPOINT_H_
#define SCOTTY_RUNTIME_CHECKPOINT_H_

// Checkpoint/restore subsystem (DESIGN.md §7).
//
// The CheckpointCoordinator snapshots a window operator at watermark-aligned
// barriers: a barrier sits immediately after ProcessWatermark returned and
// the produced results were drained downstream, so a snapshot never captures
// a half-applied trigger sweep. Restoring the snapshot onto a freshly
// constructed operator (same query set, same options) and replaying the
// remainder of the stream yields byte-for-byte the same results as the
// uninterrupted run — the differential fuzzer's --checkpoint dimension and
// the crash-injection sweep both enforce exactly this.
//
// One persist path: a barrier serializes on the caller thread
// (copy-on-snapshot) and hands the bytes to the coordinator's persist
// thread, the only code that writes a snapshot or a delta. Retries with
// backoff, group commit (adjacent delta appends share one fsync), health
// and the fallback ladder all live on that thread. Two options shape a
// barrier (CheckpointOptions):
//
//  - `async` decides whether the barrier waits. A synchronous coordinator
//    (the default), or any coordinator on the sync-full ladder rung, holds
//    the barrier until its job settled and returns its target only if it
//    became durable. An async barrier returns once its job is queued; a
//    full queue sheds it instead of blocking the pipeline.
//  - `incremental` decides base or delta. A delta holds only state changed
//    since the last barrier (WindowOperator::SerializeDelta), appended to
//    the delta-log segment (state/delta_log.h) of the last full "base"
//    snapshot; every `full_snapshot_every`-th barrier — and the first one
//    after any persist hiccup — writes a fresh base and rotates the
//    segment. Recovery replays base + the valid delta prefix.
//
// After `max_consecutive_failures` failed persists the coordinator flips
// CheckpointHealth to kFailed and stops checkpointing (or, with
// `auto_fallback`, demotes one ladder rung) while the pipeline keeps
// running.
//
// Crash injection: when the environment variable SCOTTY_CRASH_AFTER=<n> is
// set, the process exits hard (std::_Exit) immediately after the n-th
// barrier becomes durable (post-rename for bases, post-fsync for delta
// records), so the files on disk are always complete, checksummed prefixes.
// A driver then restarts from them and must recover without loss or
// duplication.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/window_operator.h"
#include "state/delta_log.h"
#include "state/snapshot.h"

namespace scotty {

class ParallelExecutor;

/// Degradation state machine: kHealthy until a persist fails; kDegraded
/// while failures are happening but recovery to kHealthy is still possible
/// (a success resets it); kFailed (terminal) after
/// `max_consecutive_failures` — checkpointing stops, the pipeline runs on.
enum class CheckpointHealth { kHealthy, kDegraded, kFailed };

inline const char* CheckpointHealthName(CheckpointHealth h) {
  switch (h) {
    case CheckpointHealth::kHealthy:
      return "healthy";
    case CheckpointHealth::kDegraded:
      return "degraded";
    case CheckpointHealth::kFailed:
      return "failed";
  }
  return "unknown";
}

/// The persistence-mode ladder the coordinator's auto-fallback walks, most
/// capable rung first. Demotion moves one rung down after
/// `max_consecutive_failures` persist failures; promotion moves one rung
/// back up (never past the configured mode) after `promote_after`
/// consecutive successes. The bottom rung sheds every barrier except
/// periodic probe persists and raises the alarm flag.
enum class CheckpointPersistenceMode : int {
  kAsyncIncremental = 0,  ///< base + deltas on the background thread
  kAsyncFull = 1,         ///< full snapshot per barrier, background thread
  kSyncFull = 2,          ///< full snapshot, barrier waits for durability
  kOff = 3,               ///< checkpointing off with alarm; probes only
};

inline const char* CheckpointPersistenceModeName(CheckpointPersistenceMode m) {
  switch (m) {
    case CheckpointPersistenceMode::kAsyncIncremental:
      return "async-incremental";
    case CheckpointPersistenceMode::kAsyncFull:
      return "async-full";
    case CheckpointPersistenceMode::kSyncFull:
      return "sync-full";
    case CheckpointPersistenceMode::kOff:
      return "off";
  }
  return "unknown";
}

/// Point-in-time view of a CheckpointCoordinator's persistence health,
/// surfaced on the pipeline report so callers see degradation without
/// holding a reference to the coordinator.
struct CheckpointHealthReport {
  CheckpointHealth health = CheckpointHealth::kHealthy;
  uint64_t persist_failures = 0;
  uint64_t barriers_dropped = 0;
  uint64_t bases_persisted = 0;
  uint64_t deltas_persisted = 0;
  /// Active rung of the persistence ladder at sampling time; equals
  /// `configured_mode` unless auto-fallback demoted it.
  CheckpointPersistenceMode mode = CheckpointPersistenceMode::kSyncFull;
  /// The rung the coordinator's options ask for (promotion ceiling).
  CheckpointPersistenceMode configured_mode =
      CheckpointPersistenceMode::kSyncFull;
  uint64_t mode_fallbacks = 0;   ///< downward ladder transitions taken
  uint64_t mode_promotions = 0;  ///< upward ladder transitions taken
  /// True while the bottom rung (checkpointing off) is active: durability
  /// is gone and an operator should be paged — the pipeline itself runs on.
  bool alarm = false;

  bool Degraded() const { return health != CheckpointHealth::kHealthy; }
};

/// Test/fuzz hook: return true to make this persist attempt fail as if the
/// underlying I/O failed. Called once per attempt (so retries re-consult
/// it) on the persist thread.
using PersistFailureHook =
    std::function<bool(uint64_t barrier_index, bool is_base)>;

/// Test/fuzz hook: return the number of milliseconds this persist operation
/// should stall before touching the disk (0 = no delay). Models a slow or
/// overloaded storage device; called once per persist operation on the
/// persist thread, so the stall backs up the bounded queue of an async
/// coordinator and holds a waiting barrier.
using PersistDelayHook =
    std::function<uint64_t(uint64_t barrier_index, bool is_base)>;

struct CheckpointOptions {
  /// Directory snapshot files are written into (must exist).
  std::string directory = ".";
  /// File name prefix; bases are `<prefix>-<barrier_index>.snap`, their
  /// delta segments `<prefix>-<barrier_index>.dlog`.
  std::string prefix = "ckpt";
  /// Keep this many most-recent base snapshots; older bases are deleted
  /// TOGETHER with their delta segment after each new base persists (a
  /// segment's records only ever extend its own base, so pruning pairs
  /// never strands a live delta). More than one is retained so recovery
  /// can fall back when the newest base or its segment is damaged.
  /// 0 keeps everything.
  int retain = 3;
  /// Return from a barrier once its job is queued instead of waiting until
  /// it is durable. The persist thread writes every barrier either way.
  bool async = false;
  /// Bounded depth of the persist queue. An async barrier arriving at a
  /// full queue is dropped (never blocks the pipeline); the next barrier
  /// is then forced to be a full base so the on-disk chain stays
  /// consistent.
  size_t async_queue_depth = 8;
  /// Serialize deltas between full snapshots (see file comment).
  bool incremental = false;
  /// Every Nth barrier writes a full base (compaction cadence); <= 1
  /// disables deltas even when `incremental` is set.
  uint64_t full_snapshot_every = 8;
  /// Extra attempts per persist operation on failure.
  int max_retries = 2;
  /// Backoff before retry k is exponential with deterministic jitter:
  /// uniformly in [B, 2B] where B = `retry_backoff_ms << (k-1)` (shift
  /// capped at 10). 0 disables sleeping between retries.
  int retry_backoff_ms = 1;
  /// Consecutive failed barriers before health turns kFailed (terminal) —
  /// or, with `auto_fallback`, before the persistence mode demotes one
  /// rung down the ladder instead.
  int max_consecutive_failures = 5;
  /// Walk the persistence ladder instead of failing stop: reaching
  /// `max_consecutive_failures` demotes one rung (async-incremental →
  /// async-full → sync-full → off-with-alarm) and resets the failure
  /// count; health saturates at kDegraded and never turns kFailed. The
  /// bottom rung sheds barriers but probes every `off_probe_every`-th one
  /// so recovery is detectable. `promote_after` consecutive successful
  /// persists climb one rung back toward the configured mode. Off by
  /// default, preserving the original fail-stop contract.
  bool auto_fallback = false;
  /// Consecutive successful persists required to promote one rung back up.
  int promote_after = 8;
  /// On the kOff rung, every Nth barrier is still attempted as a probe;
  /// the rest are shed. <= 0 never probes (kOff becomes terminal).
  int off_probe_every = 4;
};

/// Takes watermark-aligned snapshots and persists them via the versioned
/// container format of state/snapshot.h (full) and the delta-log format of
/// state/delta_log.h (incremental). One coordinator can serve a run and its
/// resumed continuation: the barrier index keeps counting up.
class CheckpointCoordinator {
 public:
  explicit CheckpointCoordinator(CheckpointOptions opts);

  /// Blocking shutdown: completes all queued persists (unless Abandon was
  /// called first), stops the persist thread, closes the open segment.
  ~CheckpointCoordinator();

  CheckpointCoordinator(const CheckpointCoordinator&) = delete;
  CheckpointCoordinator& operator=(const CheckpointCoordinator&) = delete;

  /// Snapshots `op` at a barrier. `meta` carries the stream progress (source
  /// offset, seq counter, watermark); the barrier index is filled in by the
  /// coordinator and advances whenever the barrier is queued. In
  /// incremental mode this serializes a delta (unless a base is due); either
  /// way it marks the operator clean. Returns the file the barrier targets —
  /// durable when the barrier waited (see file comment), queued otherwise —
  /// or "" when the barrier was skipped (kFailed health, full async queue,
  /// Abandon) or waited and did not become durable. Honors
  /// SCOTTY_CRASH_AFTER (see file comment).
  std::string OnBarrier(WindowOperator& op, state::CheckpointMetadata meta);

  /// The same barrier for a key-partitioned executor: its PartitionedOperator
  /// is snapshotted through ParallelExecutor::SnapshotAtBarrier, each worker
  /// writing its own partition in its own thread. A shared-mode executor
  /// takes no barrier and returns "": its results reach the caller only
  /// after Finish(), so no barrier could make them durable.
  std::string OnBarrier(ParallelExecutor& exec, state::CheckpointMetadata meta);

  /// Blocks until every queued persist completed (successfully or not).
  /// Returns at once when nothing is queued, as after a waiting barrier.
  void Flush();

  /// Drops all queued persists (the in-flight one, if any, still completes
  /// — an append or rename is never torn by abandonment) and stops taking
  /// new barriers. Used to simulate a crash or shed work on shutdown.
  void Abandon();

  uint64_t checkpoints_taken() const { return barrier_index_; }

  CheckpointHealth health() const {
    return static_cast<CheckpointHealth>(health_.load());
  }
  uint64_t persist_failures() const { return persist_failures_.load(); }
  uint64_t barriers_dropped() const { return barriers_dropped_.load(); }
  uint64_t bases_persisted() const { return bases_persisted_.load(); }
  uint64_t deltas_persisted() const { return deltas_persisted_.load(); }

  /// Active rung of the persistence ladder. Without `auto_fallback` this
  /// never moves off the configured rung.
  CheckpointPersistenceMode persistence_mode() const {
    return static_cast<CheckpointPersistenceMode>(mode_.load());
  }
  /// The rung the options configure (promotion ceiling). Rungs are
  /// capability levels: a synchronous coordinator waits on every rung.
  CheckpointPersistenceMode configured_persistence_mode() const {
    return static_cast<CheckpointPersistenceMode>(configured_mode_);
  }
  uint64_t mode_fallbacks() const { return mode_fallbacks_.load(); }
  uint64_t mode_promotions() const { return mode_promotions_.load(); }
  /// True while the kOff rung is active: no durability, page an operator.
  bool alarm() const {
    return persistence_mode() == CheckpointPersistenceMode::kOff;
  }

  /// Jobs waiting for (or in) the persist thread, including the batch
  /// currently being processed as one; 0 between the barriers of a
  /// synchronous coordinator. Backpressure controllers sample this as the
  /// persist-lag signal.
  size_t PersistQueueDepth() const {
    std::lock_guard<std::mutex> lk(mu_);
    return queue_.size() + (busy_ ? 1 : 0);
  }

  /// One-shot snapshot of the counters above plus the health state, in the
  /// shape the pipeline report embeds.
  CheckpointHealthReport HealthReport() const {
    CheckpointHealthReport hr;
    hr.health = health();
    hr.persist_failures = persist_failures();
    hr.barriers_dropped = barriers_dropped();
    hr.bases_persisted = bases_persisted();
    hr.deltas_persisted = deltas_persisted();
    hr.mode = persistence_mode();
    hr.configured_mode = configured_persistence_mode();
    hr.mode_fallbacks = mode_fallbacks();
    hr.mode_promotions = mode_promotions();
    hr.alarm = alarm();
    return hr;
  }

  /// Continue counting from a restored barrier index (resume path). The
  /// first barrier after a resume is always a full base: the coordinator
  /// has no open segment to extend.
  void SetBarrierIndex(uint64_t idx);

  /// Installs a persist-failure injection hook. Must be set before the
  /// first barrier.
  void SetPersistFailureHook(PersistFailureHook hook) {
    failure_hook_ = std::move(hook);
  }

  /// Installs a slow-persist latency injection hook. Must be set before
  /// the first barrier.
  void SetPersistDelayHook(PersistDelayHook hook) {
    delay_hook_ = std::move(hook);
  }

 private:
  struct PersistJob {
    uint64_t index = 0;
    bool is_base = true;
    std::string path;            // base: target .snap path
    std::vector<uint8_t> blob;   // base: full snapshot container
    state::CheckpointMetadata meta;  // delta record fields
    std::string name;
    std::vector<uint8_t> delta;
  };

  std::string SnapPath(uint64_t idx) const;
  std::string PathPrefix() const;  // directory + "/" + prefix
  bool NeedBase() const;
  /// The one barrier body behind both OnBarrier overloads: `snapshot(w,
  /// delta)` writes the state's base or delta into `w` and marks it clean.
  template <typename SnapshotFn>
  std::string TakeBarrier(const std::string& name, SnapshotFn&& snapshot,
                          state::CheckpointMetadata meta);
  std::string Submit(PersistJob job);

  /// Deltas are only serialized while the top rung is active; any demotion
  /// forces full bases until promotion climbs back.
  bool EffectiveIncremental() const;
  /// Exponential backoff with deterministic jitter before retry `attempt`.
  void RetryBackoff(int attempt, uint64_t salt) const;
  /// Runs the slow-persist injection hook, if any, for this operation.
  void MaybeInjectDelay(uint64_t index, bool is_base) const;

  // Persist thread.
  void PersistThreadMain();
  bool ProcessJob(PersistJob& job);
  bool PersistBaseWithRetry(const PersistJob& job);
  bool AppendDeltaWithRetry(const PersistJob& job);
  bool CommitAppends();
  void NoteBarrierDurable(uint64_t count, uint64_t newest_index);
  void NoteSuccess();
  void NoteFailure();
  void PruneBases();

  CheckpointOptions opts_;
  uint64_t barrier_index_ = 0;
  uint64_t barriers_since_base_ = 0;
  uint64_t last_base_index_ = 0;
  bool have_base_ = false;
  int64_t crash_after_ = -1;  // from SCOTTY_CRASH_AFTER; -1 = disabled
  PersistFailureHook failure_hook_;
  PersistDelayHook delay_hook_;
  int configured_mode_ = 0;        // ladder rung the options map to
  uint64_t off_barriers_seen_ = 0;  // producer-side probe cadence counter

  std::atomic<bool> need_new_base_{false};
  std::atomic<uint64_t> persist_failures_{0};
  std::atomic<uint64_t> barriers_dropped_{0};
  std::atomic<uint64_t> bases_persisted_{0};
  std::atomic<uint64_t> deltas_persisted_{0};
  std::atomic<uint64_t> durable_barriers_{0};
  std::atomic<int> consecutive_failures_{0};
  std::atomic<int> consecutive_successes_{0};
  std::atomic<int> health_{static_cast<int>(CheckpointHealth::kHealthy)};
  std::atomic<int> mode_{0};  // active ladder rung; written by the persist
                              // thread, read by the barrier path
  std::atomic<uint64_t> mode_fallbacks_{0};
  std::atomic<uint64_t> mode_promotions_{0};

  // Persist-thread state; unsynchronized because only that thread uses it.
  state::DeltaLogWriter dlog_;
  bool segment_ok_ = false;
  bool drop_until_base_ = false;
  uint64_t seg_records_ = 0;  // records appended to the open segment
  std::deque<uint64_t> bases_;
  std::deque<uint64_t> unsynced_;  // delta indices appended, not yet fsync'd

  // Hand-off between the barrier path and the persist thread.
  static constexpr uint64_t kNoBarrier = UINT64_MAX;
  mutable std::mutex mu_;
  std::condition_variable cv_;       // work available / stop
  std::condition_variable idle_cv_;  // queue drained + not busy
  std::deque<PersistJob> queue_;
  // Newest barrier index made durable (a base after its rename, deltas
  // after their group fsync); a waiting barrier checks it for its own.
  uint64_t durable_index_ = kNoBarrier;
  bool busy_ = false;
  bool stop_ = false;
  bool abandoned_ = false;
  std::thread persist_thread_;  // last: it uses every member above
};

/// Result of restoring an operator from a snapshot file.
struct RestoredOperator {
  std::unique_ptr<WindowOperator> op;
  state::CheckpointMetadata meta;
  std::string operator_name;
  bool ok = false;
  std::string error;
  size_t deltas_applied = 0;         // delta records replayed on the base
  bool delta_tail_rejected = false;  // damaged/out-of-epoch tail discarded
};

/// Reads the base snapshot `path`, validates the container, constructs a
/// fresh operator via `factory` (which must register the same
/// windows/aggregations the snapshotted operator had), and restores its
/// state. A name or fingerprint mismatch fails cleanly instead of producing
/// a half-restored operator. Then replays the base's delta-log segment
/// (`<path with .snap → .dlog>`) if one exists: every valid,
/// epoch-continuous record is applied in barrier order (stopping hard at
/// the first torn, corrupt, or out-of-epoch record, and rebuilding from the
/// base with the clean prefix when a record fails to apply), and the
/// returned meta reflects the LAST applied barrier.
RestoredOperator RestoreOperator(const std::string& path,
                                 const OperatorFactory& factory);

/// Snapshot files `<prefix>-<index>.snap` found in `directory`, sorted by
/// barrier index descending (newest first). Ignores temp files, delta
/// segments, and non-matching names.
std::vector<std::string> ListSnapshots(const std::string& directory,
                                       const std::string& prefix);

/// Recovery entry point: restores from the NEWEST base snapshot in
/// `directory` that validates end-to-end (container checksum, operator
/// name, state decode), replays its delta segment, and falls back to older
/// bases when newer ones are torn, truncated, or corrupt. `fell_back`
/// reports that at least one newer base was rejected; `path_used` names the
/// base that won; `restored` carries the delta replay counts on top of it.
/// Returns ok=false only when no base validates (the caller then starts
/// from scratch).
struct RecoveredOperator {
  RestoredOperator restored;
  std::string path_used;
  bool fell_back = false;
  size_t candidates = 0;  // base snapshot files considered
};
RecoveredOperator RecoverNewestValid(const std::string& directory,
                                     const std::string& prefix,
                                     const OperatorFactory& factory);

}  // namespace scotty

#endif  // SCOTTY_RUNTIME_CHECKPOINT_H_
