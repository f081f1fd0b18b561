// Overload & failure resilience benchmark (DESIGN.md §11): sustained
// throughput and recovery time across the fallback persistence ladder at a
// fixed fault schedule.
//
// One producer feeds a single-worker parallel pipeline through a
// BackpressureController while a fixed schedule injects a consumer stall
// (per-tuple worker delay) overlapping a window of persist failures. For
// each configured ladder rung (async-incremental, async-full, sync-full)
// the run records
//   - sustained-ktuples-s: offered tuples over wall time for the whole run
//     (accepted + shed — the producer is never allowed to block unboundedly,
//     so this is the rate the pipeline absorbs load at),
//   - accepted-pct / shed-pct: where the admission policy settled,
//   - recovery-ms: wall time from the instant the fault schedule clears to
//     the first barrier at which the coordinator reports mode ==
//     configured_mode AND kHealthy again (the ladder has promoted all the
//     way back), -1 if the run ends first,
//   - fallbacks / promotions: ladder transitions taken.
//
// Expected shape: throughput during the stall is set by the shed latch (the
// ring drains at the stalled consumer's pace, everything else is dropped at
// the door), so sustained rates are close across rungs; recovery-ms grows
// down the ladder (more rungs to climb back, each needing promote_after
// successful barriers), and the sync-full rung pays barrier-synchronous
// persists while demoted.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "core/general_slicing_operator.h"
#include "aggregates/registry.h"
#include "runtime/checkpoint.h"
#include "runtime/overload.h"
#include "runtime/parallel_executor.h"
#include "runtime/watermarks.h"
#include "windows/sliding.h"
#include "windows/tumbling.h"

namespace scotty {
namespace bench {
namespace {

namespace fs = std::filesystem;
using SteadyClock = std::chrono::steady_clock;

constexpr uint64_t kTuples = 60000;
constexpr int kWmEvery = 256;  // cadence > ring capacity: pressure can build
constexpr Time kWmLag = 5;
// Fault schedule (tuple-index windows, identical for every rung).
constexpr uint64_t kStallFrom = 5000, kStallTo = 20000, kStallUs = 200;
constexpr uint64_t kFailFrom = 8000, kFailTo = 25000;

struct RunResult {
  double wall_s = 0;
  uint64_t accepted = 0;
  uint64_t shed = 0;
  double recovery_ms = -1;
  CheckpointHealthReport health;
};

RunResult RunRung(CheckpointPersistenceMode configured,
                  const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);

  CheckpointOptions copts;
  copts.directory = dir;
  copts.prefix = "bench";
  copts.retain = 3;
  copts.max_retries = 1;
  copts.retry_backoff_ms = 0;
  copts.max_consecutive_failures = 2;
  copts.auto_fallback = true;
  copts.promote_after = 2;
  copts.off_probe_every = 2;
  copts.async = configured != CheckpointPersistenceMode::kSyncFull;
  copts.async_queue_depth = 4;
  if (configured == CheckpointPersistenceMode::kAsyncIncremental) {
    copts.incremental = true;
    copts.full_snapshot_every = 4;
  }
  CheckpointCoordinator coord(copts);

  std::atomic<bool> stalled{false};
  std::atomic<bool> failing{false};
  coord.SetPersistFailureHook(
      [&failing](uint64_t, bool) { return failing.load(); });

  auto factory = []() -> std::unique_ptr<WindowOperator> {
    GeneralSlicingOperator::Options o;
    o.allowed_lateness = 1000;
    auto op = std::make_unique<GeneralSlicingOperator>(o);
    op->AddAggregation(MakeAggregation("sum"));
    op->AddWindow(std::make_shared<TumblingWindow>(500));
    op->AddWindow(std::make_shared<SlidingWindow>(1000, 250));
    return op;
  };
  ParallelExecutor::Options xopts;
  xopts.queue_capacity = 64;
  xopts.batch_size = 1;  // per-tuple pops: the stall delay is per tuple
  xopts.worker_tick_hook = [&stalled](size_t) {
    if (stalled.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::microseconds(kStallUs));
    }
  };
  ParallelExecutor exec(1, factory, xopts);
  exec.Start();

  BackpressureController ctrl;
  RunResult r;
  PeriodicWatermarks cadence(kWmEvery, kWmLag);
  SteadyClock::time_point fault_cleared{};
  const auto t0 = SteadyClock::now();
  for (uint64_t i = 0; i < kTuples; ++i) {
    stalled.store(i >= kStallFrom && i < kStallTo, std::memory_order_relaxed);
    failing.store(i >= kFailFrom && i < kFailTo, std::memory_order_relaxed);
    if (i == std::max(kStallTo, kFailTo)) fault_cleared = SteadyClock::now();
    Tuple t;
    t.ts = static_cast<Time>(i);
    t.value = static_cast<double>(i % 13);
    t.seq = i;
    const CheckpointHealthReport hr = coord.HealthReport();
    if (r.recovery_ms < 0 && fault_cleared != SteadyClock::time_point{} &&
        hr.mode == hr.configured_mode &&
        hr.health == CheckpointHealth::kHealthy) {
      r.recovery_ms = std::chrono::duration<double, std::milli>(
                          SteadyClock::now() - fault_cleared)
                          .count();
    }
    ctrl.Admit(exec, t, coord.PersistQueueDepth(), nullptr);
    const Time wm = cadence.OnTuple(t);
    if (wm == kNoTime) continue;
    exec.PushWatermark(wm);
    coord.OnBarrier(exec, cadence.Progress());
  }
  stalled.store(false, std::memory_order_relaxed);
  failing.store(false, std::memory_order_relaxed);
  exec.PushWatermark(static_cast<Time>(kTuples) + 1000);
  exec.Finish();
  coord.Flush();
  r.wall_s =
      std::chrono::duration<double>(SteadyClock::now() - t0).count();
  r.accepted = ctrl.stats().accepted;
  r.shed = ctrl.stats().shed;
  r.health = coord.HealthReport();
  fs::remove_all(dir);
  return r;
}

void Run() {
  const std::string scratch =
      (fs::temp_directory_path() / "scotty-bench-overload").string();
  std::printf(
      "figure=bench_overload tuples=%llu stall=[%llu,%llu)@%lluus "
      "fail=[%llu,%llu)\n",
      static_cast<unsigned long long>(kTuples),
      static_cast<unsigned long long>(kStallFrom),
      static_cast<unsigned long long>(kStallTo),
      static_cast<unsigned long long>(kStallUs),
      static_cast<unsigned long long>(kFailFrom),
      static_cast<unsigned long long>(kFailTo));
  for (const CheckpointPersistenceMode configured :
       {CheckpointPersistenceMode::kAsyncIncremental,
        CheckpointPersistenceMode::kAsyncFull,
        CheckpointPersistenceMode::kSyncFull}) {
    const RunResult r = RunRung(configured, scratch);
    const std::string series = CheckpointPersistenceModeName(configured);
    EmitRow("bench_overload", series, "sustained-ktuples-s",
            static_cast<double>(kTuples) / r.wall_s / 1000.0, "ktuples/s");
    EmitRow("bench_overload", series, "accepted-pct",
            100.0 * static_cast<double>(r.accepted) /
                static_cast<double>(kTuples),
            "%");
    EmitRow("bench_overload", series, "shed-pct",
            100.0 * static_cast<double>(r.shed) /
                static_cast<double>(kTuples),
            "%");
    EmitRow("bench_overload", series, "recovery-ms", r.recovery_ms, "ms");
    EmitRow("bench_overload", series, "fallbacks",
            static_cast<double>(r.health.mode_fallbacks), "count");
    EmitRow("bench_overload", series, "promotions",
            static_cast<double>(r.health.mode_promotions), "count");
  }
}

}  // namespace
}  // namespace bench
}  // namespace scotty

int main() {
  scotty::bench::Run();
  return 0;
}
