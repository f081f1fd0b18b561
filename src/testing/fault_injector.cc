#include "testing/fault_injector.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <system_error>
#include <thread>
#include <type_traits>

#include "common/rng.h"
#include "runtime/checkpoint.h"
#include "runtime/parallel_executor.h"

namespace scotty {
namespace testing {

FaultPlan MakeFaultPlan(uint64_t seed, size_t num_tuples) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x94D049BB133111EBULL);
  FaultPlan plan;
  plan.crash_index =
      num_tuples == 0 ? 0 : 1 + rng.NextBounded(static_cast<uint64_t>(num_tuples));
  switch (rng.NextBounded(4)) {
    case 0:
    case 1:
      plan.fault = SnapshotFault::kNone;
      break;
    case 2:
      plan.fault = SnapshotFault::kTruncate;
      break;
    default:
      plan.fault = SnapshotFault::kBitFlip;
      break;
  }
  plan.fault_arg = rng.NextU64();
  switch (rng.NextBounded(3)) {
    case 0:
      plan.mode = PersistMode::kSyncFull;
      break;
    case 1:
      plan.mode = PersistMode::kSyncIncremental;
      break;
    default:
      plan.mode = PersistMode::kAsyncIncremental;
      break;
  }
  if (plan.mode != PersistMode::kSyncFull) {
    // Delta-chain faults only exist where delta logs exist.
    switch (rng.NextBounded(8)) {
      case 0:
      case 1:
      case 2:
      case 3:
        plan.delta_fault = DeltaFault::kNone;
        break;
      case 4:
      case 5:
        plan.delta_fault = DeltaFault::kTruncateTail;
        break;
      case 6:
        plan.delta_fault = DeltaFault::kBitFlip;
        break;
      default:
        plan.delta_fault = DeltaFault::kDropNewestBase;
        break;
    }
  }
  plan.delta_fault_arg = rng.NextU64();
  return plan;
}

bool ApplyFileFault(const std::string& path, SnapshotFault fault,
                    uint64_t fault_arg) {
  namespace fs = std::filesystem;
  if (fault == SnapshotFault::kNone) return true;
  std::error_code ec;
  const uintmax_t size = fs::file_size(path, ec);
  if (ec) return false;
  if (size == 0) return true;
  if (fault == SnapshotFault::kTruncate) {
    // Torn write: the file ends mid-payload. Damage is applied in place —
    // it models a sector-level tear that bypasses the temp+rename protocol.
    fs::resize_file(path, fault_arg % size, ec);
    return !ec;
  }
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) return false;
  const long off = static_cast<long>(fault_arg % size);
  unsigned char byte = 0;
  bool ok =
      std::fseek(f, off, SEEK_SET) == 0 && std::fread(&byte, 1, 1, f) == 1;
  if (ok) {
    byte ^= static_cast<unsigned char>(1u << ((fault_arg >> 56) & 7));
    ok = std::fseek(f, off, SEEK_SET) == 0 && std::fwrite(&byte, 1, 1, f) == 1;
  }
  std::fclose(f);
  return ok;
}

bool ApplySnapshotFault(const std::string& path, const FaultPlan& plan) {
  return ApplyFileFault(path, plan.fault, plan.fault_arg);
}

namespace {

template <typename Key>
void DrainInto(WindowOperator& op, std::map<Key, Value>* out) {
  for (const WindowResult& r : op.TakeResults()) {
    if constexpr (std::is_same_v<Key, KeyedResultKey>) {
      (*out)[{r.key, r.window_id, r.agg_id, r.start, r.end}] = r.value;
    } else {
      (*out)[{r.window_id, r.agg_id, r.start, r.end}] = r.value;
    }
  }
}

CheckpointOptions OptionsForMode(const std::string& scratch_dir,
                                 PersistMode mode) {
  CheckpointOptions copts;
  copts.directory = scratch_dir;
  copts.prefix = "ckpt";
  copts.retain = 3;
  switch (mode) {
    case PersistMode::kSyncFull:
      break;
    case PersistMode::kSyncIncremental:
      copts.incremental = true;
      copts.full_snapshot_every = 4;
      break;
    case PersistMode::kAsyncIncremental:
      copts.incremental = true;
      copts.full_snapshot_every = 4;
      copts.async = true;
      copts.async_queue_depth = 8;
      break;
  }
  return copts;
}

/// Post-crash damage to the incremental chain: the newest delta segment is
/// torn/corrupted, or the newest base is deleted from under its deltas.
/// No-op when the targeted file does not exist (e.g. sync-full mode).
bool ApplyDeltaChainFault(const std::string& scratch_dir,
                          const std::string& prefix, const FaultPlan& plan,
                          std::string* error) {
  if (plan.delta_fault == DeltaFault::kNone) return true;
  const std::vector<std::string> snaps = ListSnapshots(scratch_dir, prefix);
  if (snaps.empty()) return true;
  const std::string newest = snaps.front();
  if (plan.delta_fault == DeltaFault::kDropNewestBase) {
    std::error_code ec;
    std::filesystem::remove(newest, ec);
    if (ec) {
      *error = "cannot delete newest base " + newest;
      return false;
    }
    return true;
  }
  const std::string dlog = state::DeltaLogPathForSnapshot(newest);
  std::error_code ec;
  if (!std::filesystem::exists(dlog, ec)) return true;
  const SnapshotFault kind = plan.delta_fault == DeltaFault::kTruncateTail
                                 ? SnapshotFault::kTruncate
                                 : SnapshotFault::kBitFlip;
  if (!ApplyFileFault(dlog, kind, plan.delta_fault_arg)) {
    *error = "fault application failed on " + dlog;
    return false;
  }
  return true;
}

/// Phase-one barrier check: only the async queue may legitimately shed a
/// barrier; a synchronous persist failing is a harness bug.
bool BarrierPersisted(const std::string& path, const FaultPlan& plan,
                      const state::CheckpointMetadata& progress,
                      std::string* error) {
  if (!path.empty() || plan.mode == PersistMode::kAsyncIncremental) {
    return true;
  }
  *error = "checkpoint persist failed at tuple " +
           std::to_string(progress.source_offset);
  return false;
}

/// The one crash-recovery body behind RunToFinalResultsCrashRecovered and
/// RunKeyedRescaleCrashRecovered: phase one runs `run_factory`'s operator,
/// recovery restores onto `recover_factory`'s.
template <typename Key>
bool RunCrashRecovered(const OperatorFactory& run_factory,
                       const OperatorFactory& recover_factory,
                       const std::vector<Tuple>& tuples, Time final_wm,
                       int wm_every, Time wm_lag, const FaultPlan& plan,
                       const std::string& scratch_dir,
                       std::map<Key, Value>* out, std::string* error,
                       CrashRunStats* stats) {
  namespace fs = std::filesystem;
  out->clear();
  std::error_code ec;
  fs::remove_all(scratch_dir, ec);
  ec.clear();
  fs::create_directories(scratch_dir, ec);
  if (ec) {
    *error = "cannot create scratch dir " + scratch_dir;
    return false;
  }

  const CheckpointOptions copts = OptionsForMode(scratch_dir, plan.mode);

  std::unique_ptr<WindowOperator> op = run_factory();

  // Phase one: run until the crash, checkpointing at every watermark
  // barrier. `delivered` models output already durably consumed downstream
  // (drained before each barrier, per the ResultSink contract). The
  // coordinator lives in this scope only: destroying it at the "crash" is
  // how queued-but-unpersisted async barriers get lost, exactly like a real
  // process death after Abandon.
  std::map<Key, Value> delivered;
  const size_t crash_at = std::min<size_t>(
      static_cast<size_t>(plan.crash_index), tuples.size());
  {
    CheckpointCoordinator coord(copts);
    state::CheckpointMetadata at;
    const bool fed = Replay(
        tuples, crash_at, wm_every, wm_lag, &at,
        [&](const Tuple& t) { op->ProcessTuple(t); },
        [&](Time wm, const state::CheckpointMetadata& progress) {
          op->ProcessWatermark(wm);
          DrainInto(*op, &delivered);
          return BarrierPersisted(coord.OnBarrier(*op, progress), plan,
                                  progress, error);
        });
    if (!fed) return false;
    if (stats != nullptr) stats->barriers = coord.checkpoints_taken();
    if (plan.mode == PersistMode::kAsyncIncremental) {
      // The crash catches the persist thread with whatever is queued:
      // abandon the queue (lost forever), let the in-flight record finish
      // (a real crash mid-write would leave a torn tail, which the
      // delta-fault dimension models separately).
      coord.Abandon();
    }
  }
  op.reset();  // the crash: all in-memory state is gone

  const std::vector<std::string> snaps =
      ListSnapshots(scratch_dir, copts.prefix);
  if (!snaps.empty() && !ApplySnapshotFault(snaps.front(), plan)) {
    *error = "fault application failed on " + snaps.front();
    return false;
  }
  if (!ApplyDeltaChainFault(scratch_dir, copts.prefix, plan, error)) {
    return false;
  }

  // Recovery: newest valid base + its valid delta prefix wins; from scratch
  // when none validates.
  state::CheckpointMetadata resume;
  RecoveredOperator rec =
      RecoverNewestValid(scratch_dir, copts.prefix, recover_factory);
  const bool newest_base_damaged =
      plan.fault != SnapshotFault::kNone ||
      plan.delta_fault == DeltaFault::kDropNewestBase;
  if (rec.restored.ok) {
    if (plan.fault != SnapshotFault::kNone && !snaps.empty() &&
        rec.path_used == snaps.front()) {
      *error = "a torn/corrupt snapshot validated: " + snaps.front();
      return false;
    }
    op = std::move(rec.restored.op);
    resume = rec.restored.meta;
    if (stats != nullptr) {
      stats->fell_back = rec.fell_back;
      stats->path_used = rec.path_used;
      stats->deltas_applied = rec.restored.deltas_applied;
      stats->delta_tail_rejected = rec.restored.delta_tail_rejected;
    }
  } else {
    // From-scratch is only legitimate when every on-disk base was damaged —
    // i.e. at most the one file the plan faulted (or deleted) existed.
    if (!snaps.empty() && !newest_base_damaged) {
      *error = "recovery failed with intact snapshots: " + rec.restored.error;
      return false;
    }
    if (snaps.size() >= 2) {
      *error =
          "fallback failed past the damaged newest snapshot: " +
          rec.restored.error;
      return false;
    }
    op = recover_factory();
    if (stats != nullptr) stats->recovered_from_scratch = true;
  }

  // Replay from the barrier (or from scratch) with the identical cadence.
  std::map<Key, Value> replayed;
  Replay(
      tuples, tuples.size(), wm_every, wm_lag, &resume,
      [&](const Tuple& t) { op->ProcessTuple(t); },
      [&](Time wm, const state::CheckpointMetadata&) {
        op->ProcessWatermark(wm);
        DrainInto(*op, &replayed);
      });
  op->ProcessWatermark(final_wm);
  DrainInto(*op, &replayed);

  // Downstream merge: the recovered run re-emits every result from the
  // barrier onward, so it overrides; entries final before the barrier were
  // already delivered and are never contradicted.
  *out = std::move(delivered);
  for (const auto& [key, value] : replayed) (*out)[key] = value;

  fs::remove_all(scratch_dir, ec);
  return true;
}

}  // namespace

bool RunToFinalResultsCrashRecovered(
    const std::function<std::unique_ptr<WindowOperator>()>& factory,
    const std::vector<Tuple>& tuples, Time final_wm, int wm_every, Time wm_lag,
    const FaultPlan& plan, const std::string& scratch_dir,
    std::map<ResultKey, Value>* out, std::string* error,
    CrashRunStats* stats) {
  return RunCrashRecovered(factory, factory, tuples, final_wm, wm_every,
                           wm_lag, plan, scratch_dir, out, error, stats);
}

bool RunKeyedToFinalResults(
    const std::function<std::unique_ptr<WindowOperator>()>& factory,
    const std::vector<Tuple>& tuples, Time final_wm, int wm_every, Time wm_lag,
    std::map<KeyedResultKey, Value>* out, std::string* error) {
  out->clear();
  std::unique_ptr<WindowOperator> op = factory();
  if (op == nullptr) {
    *error = "factory returned null";
    return false;
  }
  state::CheckpointMetadata at;
  Replay(
      tuples, tuples.size(), wm_every, wm_lag, &at,
      [&](const Tuple& t) { op->ProcessTuple(t); },
      [&](Time wm, const state::CheckpointMetadata&) {
        op->ProcessWatermark(wm);
        DrainInto(*op, out);
      });
  op->ProcessWatermark(final_wm);
  DrainInto(*op, out);
  return true;
}

bool RunKeyedRescaleCrashRecovered(
    const std::function<std::unique_ptr<WindowOperator>()>& factory,
    const std::vector<Tuple>& tuples, Time final_wm, int wm_every, Time wm_lag,
    const FaultPlan& plan, const std::string& scratch_dir, size_t from_workers,
    size_t to_workers, std::map<KeyedResultKey, Value>* out,
    std::string* error, CrashRunStats* stats) {
  if (from_workers == 0 || to_workers == 0) {
    *error = "worker counts must be positive";
    return false;
  }
  return RunCrashRecovered(PartitionedOperator::Factory(from_workers, factory),
                           PartitionedOperator::Factory(to_workers, factory),
                           tuples, final_wm, wm_every, wm_lag, plan,
                           scratch_dir, out, error, stats);
}

OverloadPlan MakeOverloadPlan(uint64_t seed, size_t num_tuples) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0xA24BAED4963EE407ULL);
  OverloadPlan plan;
  if (num_tuples == 0) return plan;
  const uint64_t n = static_cast<uint64_t>(num_tuples);
  plan.stall_from = rng.NextBounded(n);
  plan.stall_to =
      std::min<uint64_t>(n, plan.stall_from + 1 + rng.NextBounded(n / 2 + 1));
  plan.stall_us = 100 + static_cast<uint32_t>(rng.NextBounded(400));
  if (rng.NextBounded(2) == 0) {
    plan.slow_from = rng.NextBounded(n);
    plan.slow_to =
        std::min<uint64_t>(n, plan.slow_from + 1 + rng.NextBounded(n / 2 + 1));
    plan.slow_ms = 1 + static_cast<uint32_t>(rng.NextBounded(5));
  }
  if (rng.NextBounded(2) == 0) {
    plan.fail_from = rng.NextBounded(n);
    plan.fail_to =
        std::min<uint64_t>(n, plan.fail_from + 1 + rng.NextBounded(n / 2 + 1));
  }
  return plan;
}

bool RunOverloadedToFinalResults(
    const std::function<std::unique_ptr<WindowOperator>()>& factory,
    const std::vector<Tuple>& tuples, Time final_wm, int wm_every, Time wm_lag,
    const OverloadPlan& plan, const std::string& scratch_dir,
    std::map<ResultKey, Value>* out, ShedLedger* ledger, std::string* error,
    OverloadRunStats* stats) {
  namespace fs = std::filesystem;
  out->clear();
  *ledger = ShedLedger();
  std::error_code ec;
  fs::remove_all(scratch_dir, ec);
  ec.clear();
  fs::create_directories(scratch_dir, ec);
  if (ec) {
    *error = "cannot create scratch dir " + scratch_dir;
    return false;
  }

  // Async-incremental coordinator at the top of the ladder, tuned so the
  // plan's fault windows actually walk it: two consecutive failures demote,
  // two consecutive successes (incl. kOff probes, every other barrier)
  // promote.
  CheckpointOptions copts;
  copts.directory = scratch_dir;
  copts.prefix = "ckpt";
  copts.retain = 3;
  copts.async = true;
  copts.async_queue_depth = 4;
  copts.incremental = true;
  copts.full_snapshot_every = 4;
  copts.max_retries = 1;
  copts.retry_backoff_ms = 0;
  copts.max_consecutive_failures = 2;
  copts.auto_fallback = true;
  copts.promote_after = 2;
  copts.off_probe_every = 2;

  // Injection flags the producer toggles as it crosses the plan windows;
  // read from the worker and persist threads.
  std::atomic<bool> stalled{false};
  std::atomic<bool> slow{false};
  std::atomic<bool> failing{false};

  CheckpointCoordinator coord(copts);
  coord.SetPersistFailureHook(
      [&failing](uint64_t, bool) { return failing.load(); });
  coord.SetPersistDelayHook([&slow, &plan](uint64_t, bool) -> uint64_t {
    return slow.load() ? plan.slow_ms : 0;
  });

  std::mutex sink_mu;
  std::map<ResultKey, Value> delivered;
  ParallelExecutor::Options xopts;
  xopts.queue_capacity = 64;  // tiny ring so the stall builds real pressure
  xopts.batch_size = 1;
  xopts.result_sink = [&](const std::vector<WindowResult>& rs) {
    std::lock_guard<std::mutex> lk(sink_mu);
    for (const WindowResult& r : rs) {
      delivered[{r.window_id, r.agg_id, r.start, r.end}] = r.value;
    }
  };
  xopts.worker_tick_hook = [&](size_t) {
    if (stalled.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::microseconds(plan.stall_us));
    }
  };
  ParallelExecutor exec(1, factory, xopts);
  exec.Start();

  BackpressureController ctrl;
  uint64_t barriers = 0;
  state::CheckpointMetadata at;
  // Shed tuples still pass through the cadence: the watermark cadence (and
  // therefore every trigger edge) is identical to the unfaulted run no
  // matter what gets shed.
  bool ok = Replay(
      tuples, tuples.size(), wm_every, wm_lag, &at,
      [&](const Tuple& t) {
        const uint64_t i = t.seq;
        stalled.store(i >= plan.stall_from && i < plan.stall_to,
                      std::memory_order_relaxed);
        slow.store(i >= plan.slow_from && i < plan.slow_to,
                   std::memory_order_relaxed);
        failing.store(i >= plan.fail_from && i < plan.fail_to,
                      std::memory_order_relaxed);
        if (ctrl.Admit(exec, t, coord.PersistQueueDepth(), ledger)) {
          return true;
        }
        *error = "punctuation push stalled out (dead consumer?)";
        return false;
      },
      [&](Time wm, const state::CheckpointMetadata& progress) {
        // Watermarks, like punctuation, are never shed: a push that misses
        // the bound means a dead consumer, which is a harness failure.
        if (!exec.TryPushWatermarkFor(
                wm, BackpressureController::kDeliverTimeout)) {
          *error = "watermark push stalled out (dead consumer?)";
          return false;
        }
        coord.OnBarrier(exec, progress);
        ++barriers;
        return true;
      });
  stalled.store(false, std::memory_order_relaxed);
  slow.store(false, std::memory_order_relaxed);
  failing.store(false, std::memory_order_relaxed);
  if (ok && at.max_ts != kNoTime &&
      !exec.TryPushWatermarkFor(final_wm,
                                BackpressureController::kDeliverTimeout)) {
    *error = "final watermark push stalled out (dead consumer?)";
    ok = false;
  }
  exec.Finish();
  coord.Flush();
  if (stats != nullptr) {
    stats->admission = ctrl.stats();
    stats->health = coord.HealthReport();
    stats->barriers = barriers;
  }
  if (!ok) return false;
  {
    std::lock_guard<std::mutex> lk(sink_mu);
    *out = std::move(delivered);
  }
  fs::remove_all(scratch_dir, ec);
  return true;
}

}  // namespace testing
}  // namespace scotty
