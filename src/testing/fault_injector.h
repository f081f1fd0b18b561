#ifndef SCOTTY_TESTING_FAULT_INJECTOR_H_
#define SCOTTY_TESTING_FAULT_INJECTOR_H_

// Fault injection for the checkpoint/recovery path (DESIGN.md §7).
//
// A FaultPlan fully determines one simulated failure: the checkpoints are
// persisted in one of three modes (sync-full, sync-incremental,
// async-incremental), the process "dies" at a random tuple index
// (in-memory operator state is discarded, queued async persists are
// abandoned), and the on-disk checkpoint chain is optionally damaged — the
// newest base snapshot torn (truncated mid-payload) or corrupted (single
// bit flip), the newest delta-log segment torn or corrupted, or the newest
// base deleted out from under its live deltas.
// RunToFinalResultsCrashRecovered then recovers exactly like a production
// restart would — newest valid base plus its valid delta prefix, falling
// back past damaged files, from scratch when nothing validates — replays
// the remainder of the stream, and returns the merged downstream view. The
// differential fuzzer's --crash dimension requires that view to be
// bit-identical to the same technique's unfaulted run, for every
// persistence mode; its rescale twin additionally restores onto a
// different worker count (RunKeyedRescaleCrashRecovered).

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runtime/checkpoint.h"
#include "runtime/overload.h"
#include "testing/harness.h"

namespace scotty {
namespace testing {

/// What happens to the newest snapshot file after the simulated crash.
enum class SnapshotFault : uint8_t {
  kNone,      ///< crash only; every snapshot file stays intact
  kTruncate,  ///< cut the newest file short in place (torn write)
  kBitFlip,   ///< flip one bit of the newest file (media corruption)
};

/// What happens to the incremental-checkpoint files after the crash.
enum class DeltaFault : uint8_t {
  kNone,            ///< delta log stays intact
  kTruncateTail,    ///< cut the newest delta-log segment short (torn append)
  kBitFlip,         ///< flip one bit of the newest segment (corruption)
  kDropNewestBase,  ///< delete the newest base .snap, orphaning its segment
};

/// How phase one persists its barriers — the three coordinator modes the
/// crash sweep must all survive.
enum class PersistMode : uint8_t {
  kSyncFull,          ///< full snapshot, each barrier durable before return
  kSyncIncremental,   ///< base + deltas, each barrier durable before return
  kAsyncIncremental,  ///< base + deltas, barriers do not wait
};

/// One deterministic failure scenario. `fault_arg`/`delta_fault_arg` are
/// raw RNG material the fault application derives truncation points / flip
/// offsets from, so a (seed, num_tuples) pair replays the exact same
/// damage.
struct FaultPlan {
  uint64_t crash_index = 0;  ///< crash fires just before this tuple index
  SnapshotFault fault = SnapshotFault::kNone;
  uint64_t fault_arg = 0;
  PersistMode mode = PersistMode::kSyncFull;
  DeltaFault delta_fault = DeltaFault::kNone;
  uint64_t delta_fault_arg = 0;
};

/// Derives a plan from `seed`: crash index uniform in [1, num_tuples],
/// roughly half the seeds additionally damage the newest snapshot
/// (truncation and bit flips equally likely), persistence mode uniform over
/// the three modes, and — in the incremental modes — roughly half the seeds
/// additionally fault the delta chain (torn segment tail, segment bit flip,
/// or a deleted base under live deltas).
FaultPlan MakeFaultPlan(uint64_t seed, size_t num_tuples);

/// Applies a fault kind to an arbitrary file in place (no temp + rename —
/// this models damage that bypasses the atomic-write protocol, e.g. a torn
/// sector). kNone is a no-op. Returns false only on an I/O error; an empty
/// file is left as is.
bool ApplyFileFault(const std::string& path, SnapshotFault fault,
                    uint64_t fault_arg);

/// ApplyFileFault with `plan.fault`/`plan.fault_arg` (the newest-snapshot
/// fault of the plan).
bool ApplySnapshotFault(const std::string& path, const FaultPlan& plan);

/// Observability for one crash-recovery run, mostly for tests.
struct CrashRunStats {
  uint64_t barriers = 0;  ///< checkpoints scheduled before the crash
  bool recovered_from_scratch = false;  ///< no snapshot validated
  bool fell_back = false;  ///< a newer snapshot was rejected during recovery
  std::string path_used;   ///< snapshot file recovery restored from
  uint64_t deltas_applied = 0;  ///< delta records replayed on the base
  bool delta_tail_rejected = false;  ///< damaged delta tail was discarded
};

/// Crash-recovering twin of RunToFinalResults. Phase one runs a fresh
/// operator from `factory` with the identical tuple/watermark cadence,
/// persisting a snapshot through a CheckpointCoordinator (retain = 3) at
/// every watermark barrier — results are drained BEFORE each barrier, so
/// the `delivered` map models output a downstream consumer durably holds at
/// crash time. At `plan.crash_index` the operator is destroyed, the newest
/// snapshot file is damaged per the plan, and recovery restores from the
/// newest snapshot that validates (or from scratch when none does) and
/// replays the remainder. `*out` receives the downstream merge: delivered
/// results overlaid by everything the recovered run emitted. The contract
/// enforced by the --crash fuzz dimension: `*out` equals the unfaulted
/// run's final results EXACTLY (restore is bit-identical, so even
/// order-dependent floating-point aggregations may not drift).
///
/// `scratch_dir` is created fresh (any previous contents removed) and
/// deleted again on success. Returns false with `*error` set on harness
/// failures — including recovery invariant violations: recovery failing
/// while intact snapshots exist, fallback failing past a single damaged
/// file, or a damaged file validating.
bool RunToFinalResultsCrashRecovered(
    const std::function<std::unique_ptr<WindowOperator>()>& factory,
    const std::vector<Tuple>& tuples, Time final_wm, int wm_every, Time wm_lag,
    const FaultPlan& plan, const std::string& scratch_dir,
    std::map<ResultKey, Value>* out, std::string* error,
    CrashRunStats* stats = nullptr);

/// Result identity for keyed pipelines: ResultKey alone would collide
/// across partition keys, so the key joins the tuple.
using KeyedResultKey = std::tuple<int64_t, int, int, Time, Time>;

/// Reference run for the rescaling harness: one keyed operator from
/// `factory` over the whole stream with the harness cadence (identical to
/// any worker partitioning, since keys never interact).
bool RunKeyedToFinalResults(
    const std::function<std::unique_ptr<WindowOperator>()>& factory,
    const std::vector<Tuple>& tuples, Time final_wm, int wm_every, Time wm_lag,
    std::map<KeyedResultKey, Value>* out, std::string* error);

/// Crash-recovery with a topology change: RunToFinalResultsCrashRecovered
/// over a PartitionedOperator of `from_workers` partitions before the crash
/// (tuples routed by ParallelExecutor::WorkerIndexForKey, watermarks
/// broadcast — the exact item sequences the threaded executor produces,
/// run inline) and one of `to_workers` partitions after it. Recovery goes
/// through RecoverNewestValid, which re-partitions per-key state — the
/// base and every delta of its chain — when the counts differ. `*out`
/// receives the downstream merge (delivered overlaid by replayed), which
/// must equal RunKeyedToFinalResults on the same stream EXACTLY. `factory`
/// must produce KeyedWindowOperator instances; anything else fails the
/// re-partition step by design.
bool RunKeyedRescaleCrashRecovered(
    const std::function<std::unique_ptr<WindowOperator>()>& factory,
    const std::vector<Tuple>& tuples, Time final_wm, int wm_every, Time wm_lag,
    const FaultPlan& plan, const std::string& scratch_dir, size_t from_workers,
    size_t to_workers, std::map<KeyedResultKey, Value>* out,
    std::string* error, CrashRunStats* stats = nullptr);

/// One deterministic overload scenario for the --overload fuzz dimension:
/// a consumer stall (the real SPSC-backpressure driver), optionally slow
/// persists and a sustained persist-failure sequence. All windows are in
/// producer tuple indices — the producer toggles the injection flags as it
/// crosses them, so the schedule replays from the seed even though the
/// resulting shed set is timing-dependent (the oracle is valid for ANY
/// shed set; see RunOverloadedToFinalResults).
struct OverloadPlan {
  uint64_t stall_from = 0;  ///< consumer stall while feeding [from, to)
  uint64_t stall_to = 0;
  uint32_t stall_us = 0;    ///< per worker-loop tick sleep while stalled
  uint64_t slow_from = 0;   ///< slow-persist injection while in [from, to)
  uint64_t slow_to = 0;
  uint32_t slow_ms = 0;     ///< per persist-operation delay
  uint64_t fail_from = 0;   ///< every persist attempt fails in [from, to)
  uint64_t fail_to = 0;
};

/// Derives an overload plan from `seed`: a consumer stall is always
/// present (pressure is the point), slow persists and sustained persist
/// failures each on roughly half the seeds.
OverloadPlan MakeOverloadPlan(uint64_t seed, size_t num_tuples);

/// Observability for one overloaded run.
struct OverloadRunStats {
  OverloadStats admission;        ///< producer-side admission counters
  CheckpointHealthReport health;  ///< coordinator report after final flush
  uint64_t barriers = 0;          ///< barriers offered to the coordinator
};

/// Overloaded twin of RunToFinalResults: drives the stream through a
/// 1-worker ParallelExecutor (tiny ring, per-tuple pushes) under a
/// BackpressureController, with the plan's consumer stall and persistence
/// faults injected, checkpointing through an auto-fallback async
/// coordinator at every watermark barrier. Data tuples the controller
/// sheds — or whose bounded-blocking push times out — are recorded in
/// `*ledger` and never enter the pipeline; punctuation and watermarks are
/// NEVER shed (a watermark failing its generous bounded push is a harness
/// error, not a shed). Watermark cadence counts shed tuples too, so
/// trigger edges are identical to the unfaulted run.
///
/// The oracle contract this enables (--overload dimension, for
/// deterministic-edge time windows): for every window of the unfaulted
/// run, either the ledger records no shed timestamp in [start, end) and
/// the delivered result is bit-identical, or the ledger overlaps the
/// window and the delivered result may differ or be absent (flagged
/// approximate). Delivered windows are always a subset of the unfaulted
/// run's windows. This holds for ANY shed set, so the check is free of
/// timing assumptions.
bool RunOverloadedToFinalResults(
    const std::function<std::unique_ptr<WindowOperator>()>& factory,
    const std::vector<Tuple>& tuples, Time final_wm, int wm_every, Time wm_lag,
    const OverloadPlan& plan, const std::string& scratch_dir,
    std::map<ResultKey, Value>* out, ShedLedger* ledger, std::string* error,
    OverloadRunStats* stats = nullptr);

}  // namespace testing
}  // namespace scotty

#endif  // SCOTTY_TESTING_FAULT_INJECTOR_H_
