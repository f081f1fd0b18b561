// Batched vs tuple-at-a-time ingestion on the Figure-8 workload.
//
// Setup: the in-order football stream with concurrent tumbling-window sum
// queries (paper Section 6.2.1) — the configuration where per-tuple overhead
// dominates, since slicing reduces window maintenance to one partial-
// aggregate update per tuple. The batched path amortizes virtual dispatch,
// workload re-checks, and slice lookups across contiguous tuple runs and
// folds values through the LiftCombineColumns column kernels.
//
// Figures:
//   throughput_batched   inline-generation rows, per store mode (lazy/eager):
//     tuple-at-a-time         ProcessTuple per tuple (the pre-batching loop)
//     batch-{64..4096}        SoA blocks of that size via ProcessTupleColumns
//     speedup-batch-256       batch-256 tuples/s over tuple-at-a-time
//   throughput_soa       pre-generated replay rows (see bench_util.h for the
//     methodology note), per store mode:
//     soa-batch-{64..4096}    columnar SoA replay
//   throughput_parallel_preagg  (--parallel) shared-window executor with
//     thread-local slice pre-aggregation, 1..4 workers, each worker count
//     timed best-of-N like the replay rows; see EXPERIMENTS.md.
//
// Flags: --parallel runs only the worker sweep, --all adds it to the base
// figures. Results are appended to BENCH_throughput.json (see
// bench_json.h).

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "core/general_slicing_operator.h"
#include "runtime/parallel_executor.h"

namespace scotty {
namespace bench {
namespace {

// The slicing hot loop sustains tens of millions of tuples/s, so the
// Figure-8 budget of 3M tuples finishes in well under 0.1s and is too noisy
// for a recorded speedup baseline; give each point up to 20M tuples / 1s.
constexpr uint64_t kMaxTuples = 20'000'000;
constexpr double kMaxSeconds = 1.0;

// Replay streams are materialized up front (~33 bytes/tuple SoA): 4M
// tuples keeps the resident buffer under 200 MB while still giving the
// >100M tuples/s columnar path tens of milliseconds per pass, which
// BestReplayRate (bench_util.h) repeats until the best pass is stable.
constexpr size_t kReplayTuples = 4'000'000;

std::unique_ptr<WindowOperator> MakeOp(Technique tech, int windows) {
  return MakeTechnique(tech, /*stream_in_order=*/true, /*allowed_lateness=*/0,
                       DashboardTumblingWindows(windows), {"sum"});
}

void Run() {
  PrintHeader("throughput_batched",
              "batched vs per-tuple ingestion, in-order sum/tumbling");
  const std::vector<int> window_counts = {1, 10, 100, 1000};
  const std::vector<size_t> batch_sizes = {64, 256, 1024, 2048, 4096};
  for (Technique tech : {Technique::kLazySlicing, Technique::kEagerSlicing}) {
    const std::string name = TechniqueName(tech);
    for (int n : window_counts) {
      SensorStream src(SensorStream::Football());
      auto base_op = MakeOp(tech, n);
      // In-order streams self-trigger; no watermarks needed.
      const ThroughputResult base =
          MeasureThroughput(*base_op, src, kMaxTuples, kMaxSeconds,
                            /*wm_every=*/0);
      EmitRow("throughput_batched", name + "/tuple-at-a-time",
              std::to_string(n), base.TuplesPerSecond(), "tuples/s");
      double batch256 = 0.0;
      for (size_t bs : batch_sizes) {
        SensorStream bsrc(SensorStream::Football());
        auto op = MakeOp(tech, n);
        const ThroughputResult r =
            MeasureThroughput(*op, bsrc, kMaxTuples, kMaxSeconds,
                              /*wm_every=*/0, /*wm_delay=*/0, bs);
        EmitRow("throughput_batched", name + "/batch-" + std::to_string(bs),
                std::to_string(n), r.TuplesPerSecond(), "tuples/s");
        if (bs == 256) batch256 = r.TuplesPerSecond();
      }
      if (base.TuplesPerSecond() > 0) {
        EmitRow("throughput_batched", name + "/speedup-batch-256",
                std::to_string(n), batch256 / base.TuplesPerSecond(), "x");
      }
    }
  }
}

void RunSoA() {
  PrintHeader("throughput_soa", "pre-generated replay, soa column views");
  TupleBatchSoA soa(kReplayTuples);
  {
    SensorStream src(SensorStream::Football());
    Tuple t;
    for (size_t i = 0; i < kReplayTuples && src.Next(&t); ++i) soa.PushBack(t);
  }
  const std::vector<int> window_counts = {1, 10, 100};
  const std::vector<size_t> batch_sizes = {64, 256, 1024, 2048, 4096};
  for (Technique tech : {Technique::kLazySlicing, Technique::kEagerSlicing}) {
    const std::string name = TechniqueName(tech);
    for (int n : window_counts) {
      for (size_t bs : batch_sizes) {
        const double rate = BestReplayRate([&] {
          auto op = MakeOp(tech, n);
          return MeasureThroughputReplaySoA(*op, soa, bs);
        });
        EmitRow("throughput_soa", name + "/soa-batch-" + std::to_string(bs),
                std::to_string(n), rate, "tuples/s");
      }
    }
  }
}

/// One pass of the shared-window executor over the replay stream: a fresh
/// executor, a lagging watermark every ~262k tuples, a final watermark, and
/// Finish(), all timed.
ThroughputResult MeasureParallelPass(const TupleBatchSoA& soa,
                                     size_t workers) {
  ParallelExecutor::Options opts;
  opts.shared_preagg = true;
  opts.batch_size = 1024;
  ParallelExecutor exec(
      workers,
      [] {
        GeneralSlicingOperator::Options o;
        o.stream_in_order = false;
        auto op = std::make_unique<GeneralSlicingOperator>(o);
        op->AddAggregation(MakeAggregation("sum"));
        AddWindows(*op, DashboardTumblingWindows(1));
        return std::unique_ptr<WindowOperator>(std::move(op));
      },
      opts);
  exec.Start();
  const auto start = std::chrono::steady_clock::now();
  constexpr size_t kChunk = 4096;
  constexpr size_t kWmEvery = 1 << 18;  // ~262k tuples between watermarks
  size_t since_wm = 0;
  for (size_t i = 0; i < soa.size();) {
    const size_t len = std::min(kChunk, soa.size() - i);
    exec.PushColumns(soa.Subview(i, len));
    i += len;
    since_wm += len;
    if (since_wm >= kWmEvery) {
      exec.PushWatermark(soa.ts()[i - 1] - 2000);
      since_wm = 0;
    }
  }
  exec.PushWatermark(soa.ts()[soa.size() - 1]);
  exec.Finish();
  ThroughputResult r;
  r.tuples = soa.size();
  r.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return r;
}

void RunParallel() {
  PrintHeader("throughput_parallel_preagg",
              "shared-window executor, thread-local slice pre-aggregation");
  // One shared 1000ms tumbling sum window: the workers' local slices are
  // the engine's own 1000ms slices.
  TupleBatchSoA soa(kReplayTuples);
  {
    SensorStream src(SensorStream::Football());
    Tuple t;
    for (size_t i = 0; i < kReplayTuples && src.Next(&t); ++i) soa.PushBack(t);
  }
  for (size_t workers = 1; workers <= 4; ++workers) {
    const double rate =
        BestReplayRate([&] { return MeasureParallelPass(soa, workers); });
    EmitRow("throughput_parallel_preagg", "workers", std::to_string(workers),
            rate, "tuples/s");
  }
}

}  // namespace
}  // namespace bench
}  // namespace scotty

int main(int argc, char** argv) {
  bool parallel = false;
  bool base = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--parallel") == 0) {
      parallel = true;
      base = false;  // --parallel alone runs only the worker sweep
    } else if (std::strcmp(argv[i], "--all") == 0) {
      parallel = true;
    } else {
      std::fprintf(stderr, "usage: %s [--parallel] [--all]\n", argv[0]);
      return 1;
    }
  }
  if (base) {
    scotty::bench::Run();
    scotty::bench::RunSoA();
  }
  if (parallel) scotty::bench::RunParallel();
  return 0;
}
