#include "runtime/checkpoint.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>
#include <utility>

#include "runtime/parallel_executor.h"

namespace scotty {

namespace {

int64_t CrashAfterFromEnv() {
  const char* env = std::getenv("SCOTTY_CRASH_AFTER");
  if (env == nullptr || *env == '\0') return -1;
  char* end = nullptr;
  const long long v = std::strtoll(env, &end, 10);
  if (end == nullptr || *end != '\0' || v <= 0) return -1;
  return static_cast<int64_t>(v);
}

/// Operator names may be cached lazily (KeyedWindowOperator reports
/// "keyed" until its first per-key operator exists, "keyed-<inner>" after),
/// so a fresh factory instance can legitimately report a prefix of the
/// snapshotted name.
bool NamesCompatible(const std::string& snapshotted, const std::string& fresh) {
  if (snapshotted == fresh) return true;
  return snapshotted.size() > fresh.size() &&
         snapshotted.compare(0, fresh.size(), fresh) == 0;
}

}  // namespace

CheckpointCoordinator::CheckpointCoordinator(CheckpointOptions opts)
    : opts_(std::move(opts)), crash_after_(CrashAfterFromEnv()) {
  // Map the options onto the ladder's capability rungs. For a synchronous
  // coordinator every rung's barrier waits for durability; the rung still
  // tracks what is being persisted (deltas vs full bases).
  if (opts_.incremental && opts_.full_snapshot_every > 1) {
    configured_mode_ =
        static_cast<int>(CheckpointPersistenceMode::kAsyncIncremental);
  } else if (opts_.async) {
    configured_mode_ = static_cast<int>(CheckpointPersistenceMode::kAsyncFull);
  } else {
    configured_mode_ = static_cast<int>(CheckpointPersistenceMode::kSyncFull);
  }
  mode_.store(configured_mode_, std::memory_order_relaxed);
  persist_thread_ = std::thread([this] { PersistThreadMain(); });
}

CheckpointCoordinator::~CheckpointCoordinator() {
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (!abandoned_) {
      idle_cv_.wait(lk, [this] { return queue_.empty() && !busy_; });
    }
    stop_ = true;
  }
  cv_.notify_all();
  persist_thread_.join();
  dlog_.Close();
}

std::string CheckpointCoordinator::PathPrefix() const {
  return opts_.directory + "/" + opts_.prefix;
}

std::string CheckpointCoordinator::SnapPath(uint64_t idx) const {
  return PathPrefix() + "-" + std::to_string(idx) + ".snap";
}

bool CheckpointCoordinator::EffectiveIncremental() const {
  if (!opts_.incremental || opts_.full_snapshot_every <= 1) return false;
  return mode_.load(std::memory_order_relaxed) ==
         static_cast<int>(CheckpointPersistenceMode::kAsyncIncremental);
}

bool CheckpointCoordinator::NeedBase() const {
  if (!EffectiveIncremental()) return true;
  if (!have_base_ || need_new_base_.load(std::memory_order_relaxed)) {
    return true;
  }
  return barriers_since_base_ >= opts_.full_snapshot_every - 1;
}

template <typename SnapshotFn>
std::string CheckpointCoordinator::TakeBarrier(const std::string& name,
                                               SnapshotFn&& snapshot,
                                               state::CheckpointMetadata meta) {
  if (health() == CheckpointHealth::kFailed) return "";
  const bool base = NeedBase();
  // Marking clean right after serializing is what makes the NEXT delta's
  // "unchanged since last barrier" references valid. It is safe even if
  // this barrier is later dropped or its persist fails: every such event
  // forces the next barrier to be a full base, which does not rely on
  // cleanliness.
  state::Writer w;
  snapshot(w, !base);
  meta.barrier_index = barrier_index_;
  PersistJob job;
  job.index = barrier_index_;
  job.is_base = base;
  if (base) {
    job.path = SnapPath(barrier_index_);
    job.blob = state::BuildSnapshot(meta, name, w.Take());
    barriers_since_base_ = 0;
    have_base_ = true;
    last_base_index_ = barrier_index_;
    need_new_base_.store(false, std::memory_order_relaxed);
  } else {
    job.meta = meta;
    job.name = name;
    job.delta = w.Take();
    ++barriers_since_base_;
  }
  return Submit(std::move(job));
}

std::string CheckpointCoordinator::OnBarrier(WindowOperator& op,
                                             state::CheckpointMetadata meta) {
  return TakeBarrier(
      op.Name(),
      [&op](state::Writer& w, bool delta) {
        if (delta) {
          op.SerializeDelta(w);
        } else {
          op.SerializeState(w);
        }
        op.MarkSnapshotClean();
      },
      meta);
}

std::string CheckpointCoordinator::OnBarrier(ParallelExecutor& exec,
                                             state::CheckpointMetadata meta) {
  if (exec.options().shared_preagg) return "";
  return TakeBarrier(
      PartitionedOperator::kName,
      [&exec](state::Writer& w, bool delta) {
        exec.SnapshotAtBarrier(w, delta);
      },
      meta);
}

std::string CheckpointCoordinator::Submit(PersistJob job) {
  const uint64_t index = job.index;
  const std::string target =
      job.is_base ? job.path
                  : state::DeltaLogPath(PathPrefix(), last_base_index_);
  const int mode = mode_.load(std::memory_order_relaxed);
  if (mode == static_cast<int>(CheckpointPersistenceMode::kOff)) {
    // Bottom rung: checkpointing is off with the alarm raised. Shed the
    // barrier, except every `off_probe_every`-th one which is attempted as
    // a probe so sustained disk recovery promotes the mode back up.
    const uint64_t k = off_barriers_seen_++;
    const bool probe =
        opts_.off_probe_every > 0 &&
        k % static_cast<uint64_t>(opts_.off_probe_every) == 0;
    if (!probe) {
      barriers_dropped_.fetch_add(1, std::memory_order_relaxed);
      need_new_base_.store(true, std::memory_order_relaxed);
      return "";
    }
  }
  // Decided before the hand-off: once the persist thread holds the job, its
  // own failure may move the ladder.
  const bool wait =
      !opts_.async ||
      mode == static_cast<int>(CheckpointPersistenceMode::kSyncFull);
  std::unique_lock<std::mutex> lk(mu_);
  if (abandoned_) return "";
  if (!wait && queue_.size() >= opts_.async_queue_depth) {
    // Never block the pipeline on a slow disk: shed this barrier and
    // force the next one to re-establish a full base.
    barriers_dropped_.fetch_add(1, std::memory_order_relaxed);
    need_new_base_.store(true, std::memory_order_relaxed);
    return "";
  }
  queue_.push_back(std::move(job));
  ++barrier_index_;
  cv_.notify_one();
  if (!wait) return target;
  // Ingestion holds here until the job settled, so a waiting barrier's
  // target is durable (or its failure accounted) before the pipeline
  // resumes. Abandon releases the wait.
  idle_cv_.wait(lk,
                [this] { return (queue_.empty() && !busy_) || abandoned_; });
  return durable_index_ == index ? target : "";
}

void CheckpointCoordinator::Flush() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [this] { return queue_.empty() && !busy_; });
}

void CheckpointCoordinator::Abandon() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    abandoned_ = true;
    barriers_dropped_.fetch_add(queue_.size(), std::memory_order_relaxed);
    queue_.clear();
  }
  cv_.notify_all();
  // A barrier may be blocked in Submit's wait; release it.
  idle_cv_.notify_all();
}

void CheckpointCoordinator::SetBarrierIndex(uint64_t idx) {
  barrier_index_ = idx;
  // Indices below the old count are issued again: a stale durable record
  // must not vouch for a re-issued barrier that fails.
  std::lock_guard<std::mutex> lk(mu_);
  durable_index_ = kNoBarrier;
}

void CheckpointCoordinator::PersistThreadMain() {
  for (;;) {
    std::deque<PersistJob> batch;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) break;
        continue;
      }
      batch.swap(queue_);
      busy_ = true;
    }
    // Group commit: every job of the batch is processed (bases are fully
    // persisted in place; deltas are appended), then one fsync commits all
    // appended records together.
    for (PersistJob& job : batch) ProcessJob(job);
    CommitAppends();
    {
      std::lock_guard<std::mutex> lk(mu_);
      busy_ = false;
    }
    idle_cv_.notify_all();
  }
}

bool CheckpointCoordinator::ProcessJob(PersistJob& job) {
  if (job.is_base) {
    // Records appended to the previous segment must be committed before the
    // new base exists so each segment's durable prefix is in barrier order.
    CommitAppends();
    if (!PersistBaseWithRetry(job)) {
      NoteFailure();
      need_new_base_.store(true, std::memory_order_relaxed);
      drop_until_base_ = true;
      return false;
    }
    NoteSuccess();
    bases_persisted_.fetch_add(1, std::memory_order_relaxed);
    drop_until_base_ = false;
    dlog_.Close();
    segment_ok_ = false;
    seg_records_ = 0;
    if (EffectiveIncremental()) {
      segment_ok_ =
          dlog_.Open(state::DeltaLogPath(PathPrefix(), job.index), job.index);
      if (!segment_ok_) {
        // The base is durable, only the delta lane is unavailable: keep
        // running, force the next barrier to be a base again.
        need_new_base_.store(true, std::memory_order_relaxed);
      }
    }
    bases_.push_back(job.index);
    PruneBases();
    NoteBarrierDurable(1, job.index);
    return true;
  }
  // Delta job.
  const uint64_t expected = dlog_.base_index() + 1 + seg_records_;
  if (drop_until_base_ || !segment_ok_ || job.index != expected) {
    // A failed or dropped barrier upstream broke the epoch chain; anything
    // until the next base would be an out-of-epoch record, so shed it.
    barriers_dropped_.fetch_add(1, std::memory_order_relaxed);
    need_new_base_.store(true, std::memory_order_relaxed);
    return false;
  }
  if (!AppendDeltaWithRetry(job)) {
    NoteFailure();
    segment_ok_ = false;
    drop_until_base_ = true;
    need_new_base_.store(true, std::memory_order_relaxed);
    return false;
  }
  ++seg_records_;
  deltas_persisted_.fetch_add(1, std::memory_order_relaxed);
  unsynced_.push_back(job.index);
  return true;
}

void CheckpointCoordinator::RetryBackoff(int attempt, uint64_t salt) const {
  if (attempt <= 0 || opts_.retry_backoff_ms <= 0) return;
  const int shift = std::min(attempt - 1, 10);
  const uint64_t base = static_cast<uint64_t>(opts_.retry_backoff_ms) << shift;
  // Deterministic jitter in [0, base]: spreads retries of independent
  // coordinators over [B, 2B] without a global RNG, so injected failure
  // sweeps stay reproducible.
  uint64_t h = salt * 0x9E3779B97F4A7C15ULL +
               static_cast<uint64_t>(attempt) * 0xC2B2AE3D27D4EB4FULL;
  h ^= h >> 29;
  std::this_thread::sleep_for(std::chrono::milliseconds(base + h % (base + 1)));
}

void CheckpointCoordinator::MaybeInjectDelay(uint64_t index,
                                             bool is_base) const {
  if (!delay_hook_) return;
  const uint64_t ms = delay_hook_(index, is_base);
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

bool CheckpointCoordinator::PersistBaseWithRetry(const PersistJob& job) {
  MaybeInjectDelay(job.index, true);
  for (int attempt = 0; attempt <= opts_.max_retries; ++attempt) {
    RetryBackoff(attempt, job.index);
    const bool injected = failure_hook_ && failure_hook_(job.index, true);
    if (!injected && state::WriteSnapshotFile(job.path, job.blob)) return true;
  }
  return false;
}

bool CheckpointCoordinator::AppendDeltaWithRetry(const PersistJob& job) {
  MaybeInjectDelay(job.index, false);
  for (int attempt = 0; attempt <= opts_.max_retries; ++attempt) {
    RetryBackoff(attempt, job.index);
    const bool injected = failure_hook_ && failure_hook_(job.index, false);
    if (injected) continue;
    if (dlog_.Append(job.meta, job.name, job.delta)) return true;
    // A failed append may have written partial bytes; the segment is no
    // longer extendable, so retrying the append would corrupt the chain.
    return false;
  }
  return false;
}

bool CheckpointCoordinator::CommitAppends() {
  if (unsynced_.empty()) return true;
  const size_t n = unsynced_.size();
  const uint64_t salt = unsynced_.front();
  const uint64_t newest = unsynced_.back();
  unsynced_.clear();
  bool ok = false;
  for (int attempt = 0; attempt <= opts_.max_retries && !ok; ++attempt) {
    RetryBackoff(attempt, salt);
    ok = dlog_.Sync();
  }
  if (!ok) {
    // One failure event for the whole group: the appended records' on-disk
    // fate is unknown, so the segment is closed off and recovery will use
    // whatever checksummed prefix actually reached the disk.
    NoteFailure();
    barriers_dropped_.fetch_add(n, std::memory_order_relaxed);
    segment_ok_ = false;
    drop_until_base_ = true;
    need_new_base_.store(true, std::memory_order_relaxed);
    return false;
  }
  NoteSuccess();
  NoteBarrierDurable(n, newest);
  return true;
}

void CheckpointCoordinator::NoteBarrierDurable(uint64_t count,
                                               uint64_t newest_index) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    durable_index_ = newest_index;
  }
  const uint64_t before =
      durable_barriers_.fetch_add(count, std::memory_order_relaxed);
  if (crash_after_ >= 0 &&
      before < static_cast<uint64_t>(crash_after_) &&
      before + count >= static_cast<uint64_t>(crash_after_)) {
    // Injected crash: the barrier's file is fully persisted (rename or
    // fsync done), nothing after this point runs — no destructors, no
    // flushes. The recovery driver must rebuild everything from the files
    // alone.
    std::_Exit(42);
  }
}

void CheckpointCoordinator::NoteSuccess() {
  consecutive_failures_.store(0, std::memory_order_relaxed);
  int h = health_.load(std::memory_order_relaxed);
  if (h != static_cast<int>(CheckpointHealth::kFailed)) {
    health_.store(static_cast<int>(CheckpointHealth::kHealthy),
                  std::memory_order_relaxed);
  }
  if (!opts_.auto_fallback) return;
  const int m = mode_.load(std::memory_order_relaxed);
  if (m <= configured_mode_) {
    consecutive_successes_.store(0, std::memory_order_relaxed);
    return;
  }
  const int succ =
      consecutive_successes_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (succ >= std::max(1, opts_.promote_after)) {
    consecutive_successes_.store(0, std::memory_order_relaxed);
    mode_.store(m - 1, std::memory_order_relaxed);
    mode_promotions_.fetch_add(1, std::memory_order_relaxed);
    // A promoted mode starts a fresh epoch: the first barrier on the new
    // rung re-establishes the chain from a full base.
    need_new_base_.store(true, std::memory_order_relaxed);
  }
}

void CheckpointCoordinator::NoteFailure() {
  persist_failures_.fetch_add(1, std::memory_order_relaxed);
  consecutive_successes_.store(0, std::memory_order_relaxed);
  const int consecutive =
      consecutive_failures_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (consecutive >= opts_.max_consecutive_failures) {
    if (opts_.auto_fallback) {
      // Demote one rung instead of failing stop; the failure streak starts
      // over on the new rung. Health saturates at kDegraded so OnBarrier
      // keeps offering barriers and recovery stays possible.
      consecutive_failures_.store(0, std::memory_order_relaxed);
      const int m = mode_.load(std::memory_order_relaxed);
      if (m < static_cast<int>(CheckpointPersistenceMode::kOff)) {
        mode_.store(m + 1, std::memory_order_relaxed);
        mode_fallbacks_.fetch_add(1, std::memory_order_relaxed);
      }
      health_.store(static_cast<int>(CheckpointHealth::kDegraded),
                    std::memory_order_relaxed);
      return;
    }
    health_.store(static_cast<int>(CheckpointHealth::kFailed),
                  std::memory_order_relaxed);
  } else if (health_.load(std::memory_order_relaxed) !=
             static_cast<int>(CheckpointHealth::kFailed)) {
    health_.store(static_cast<int>(CheckpointHealth::kDegraded),
                  std::memory_order_relaxed);
  }
}

void CheckpointCoordinator::PruneBases() {
  if (opts_.retain <= 0) return;
  while (bases_.size() > static_cast<size_t>(opts_.retain)) {
    const uint64_t evict = bases_.front();
    bases_.pop_front();
    // A segment's records only extend its own base, so the pair is removed
    // together and no surviving delta can reference a deleted base.
    std::remove(SnapPath(evict).c_str());
    std::remove(state::DeltaLogPath(PathPrefix(), evict).c_str());
  }
}

namespace {

/// RestoreOperator's base half: validates the container and restores the
/// operator state, without touching any delta segment.
RestoredOperator RestoreBase(const std::string& path,
                             const OperatorFactory& factory) {
  RestoredOperator out;
  std::vector<uint8_t> blob;
  if (!state::ReadSnapshotFile(path, &blob)) {
    out.error = "cannot read snapshot file: " + path;
    return out;
  }
  std::vector<uint8_t> st;
  if (!state::ParseSnapshot(blob, &out.meta, &out.operator_name, &st)) {
    out.error = "snapshot container validation failed: " + path;
    return out;
  }
  out.op = factory();
  if (out.op == nullptr) {
    out.error = "operator factory returned null";
    return out;
  }
  if (!NamesCompatible(out.operator_name, out.op->Name())) {
    out.error = "operator mismatch: snapshot holds '" + out.operator_name +
                "', factory built '" + out.op->Name() + "'";
    out.op.reset();
    return out;
  }
  state::Reader r(st);
  out.op->DeserializeState(r);
  if (!r.ok() || !r.AtEnd()) {
    out.error = "operator state decode failed (fingerprint mismatch or "
                "corrupt payload)";
    out.op.reset();
    return out;
  }
  out.ok = true;
  return out;
}

/// RestoreBase plus at most `max_deltas` records of the base's segment.
/// The cap lets a replay whose record failed to apply rebuild the operator
/// with only the prefix known to apply cleanly.
RestoredOperator RestoreReplaying(const std::string& path,
                                  const OperatorFactory& factory,
                                  size_t max_deltas) {
  RestoredOperator out = RestoreBase(path, factory);
  if (!out.ok || max_deltas == 0) return out;
  const std::string dlog_path = state::DeltaLogPathForSnapshot(path);
  if (dlog_path.empty()) return out;
  std::error_code ec;
  if (!std::filesystem::exists(dlog_path, ec)) return out;  // base-only
  // The base was just deserialized, i.e. it IS the previous barrier's
  // image: establish the clean state the first delta's references assume.
  out.op->MarkSnapshotClean();
  state::DeltaLogContents log;
  if (!state::ReadDeltaLog(dlog_path, &log) ||
      log.base_index != out.meta.barrier_index) {
    // Segment present but unusable (damaged header) or stale (left behind
    // by an older incarnation at the same path): recover from the base
    // alone.
    out.delta_tail_rejected = true;
    return out;
  }
  for (const state::DeltaRecord& rec : log.records) {
    if (out.deltas_applied == max_deltas) break;
    state::Reader r(rec.state);
    out.op->DeserializeState(r);
    if (!r.ok() || !r.AtEnd()) {
      // The record validated as a container but its payload does not apply
      // (delta gap, fingerprint drift). A failed apply may leave the
      // operator half-mutated, so rebuild from scratch replaying only the
      // prefix that is known to apply cleanly.
      RestoredOperator redo =
          RestoreReplaying(path, factory, out.deltas_applied);
      redo.delta_tail_rejected = true;
      return redo;
    }
    out.op->MarkSnapshotClean();
    out.meta = rec.meta;
    ++out.deltas_applied;
  }
  if (out.deltas_applied > 0) out.op->FinishDeltaRestore();
  out.delta_tail_rejected =
      log.torn || out.deltas_applied < log.records.size();
  return out;
}

}  // namespace

RestoredOperator RestoreOperator(const std::string& path,
                                 const OperatorFactory& factory) {
  return RestoreReplaying(path, factory, SIZE_MAX);
}

std::vector<std::string> ListSnapshots(const std::string& directory,
                                       const std::string& prefix) {
  namespace fs = std::filesystem;
  std::vector<std::pair<uint64_t, std::string>> found;
  std::error_code ec;
  for (const fs::directory_entry& e : fs::directory_iterator(directory, ec)) {
    if (!e.is_regular_file(ec)) continue;
    const std::string name = e.path().filename().string();
    // Match `<prefix>-<digits>.snap` exactly; .tmp leftovers, .dlog
    // segments, and foreign files are not recovery candidates.
    if (name.size() <= prefix.size() + 6) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name[prefix.size()] != '-') continue;
    if (name.compare(name.size() - 5, 5, ".snap") != 0) continue;
    const std::string digits =
        name.substr(prefix.size() + 1, name.size() - prefix.size() - 6);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    found.emplace_back(std::strtoull(digits.c_str(), nullptr, 10),
                       e.path().string());
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::string> out;
  out.reserve(found.size());
  for (auto& [idx, path] : found) out.push_back(std::move(path));
  return out;
}

RecoveredOperator RecoverNewestValid(const std::string& directory,
                                     const std::string& prefix,
                                     const OperatorFactory& factory) {
  RecoveredOperator out;
  const std::vector<std::string> candidates = ListSnapshots(directory, prefix);
  out.candidates = candidates.size();
  std::string errors;
  for (const std::string& path : candidates) {
    RestoredOperator r = RestoreOperator(path, factory);
    if (r.ok) {
      out.restored = std::move(r);
      out.path_used = path;
      return out;
    }
    // Torn, truncated, or corrupt: remember why and fall back to the next
    // older snapshot. Every subsequent success reports fell_back=true so
    // callers/tests can observe that the fallback path actually ran.
    out.fell_back = true;
    if (!errors.empty()) errors += "; ";
    errors += path + ": " + r.error;
  }
  out.restored.error = candidates.empty()
                           ? "no snapshot files in " + directory
                           : "no valid snapshot (" + errors + ")";
  return out;
}

}  // namespace scotty
