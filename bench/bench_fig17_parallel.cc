// Figure 17: Parallelizing the live-visualization dashboard workload.
//
// Setup (paper Section 6.4): the M4 aggregation [26] over 80 concurrent
// windows per operator instance, key-partitioned across a varying number of
// parallel instances; lazy slicing vs buckets (Flink's operator).
//
// Expected shape on the paper's 8-core VM: linear scaling up to the core
// count; slicing an order of magnitude above buckets throughout. On a
// single-core build machine the curve flattens immediately — the series
// still shows the slicing-vs-buckets gap at every degree of parallelism
// (documented in EXPERIMENTS.md).

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "runtime/parallel_executor.h"

namespace scotty {
namespace bench {
namespace {

double RunParallel(Technique tech, size_t degree) {
  ParallelExecutor exec(degree, [tech] {
    return MakeTechnique(tech, /*stream_in_order=*/false,
                         /*allowed_lateness=*/2000,
                         DashboardTumblingWindows(80), {"m4"});
  });
  SensorConfig config = SensorStream::Football();
  config.num_keys = 64;
  SensorStream src(config);
  exec.Start();
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  Tuple t;
  uint64_t produced = 0;
  Time max_ts = kNoTime;
  while (elapsed() < 1.0 && produced < 3'000'000) {
    src.Next(&t);
    exec.Push(t);
    if (t.ts > max_ts) max_ts = t.ts;
    if (++produced % 4096 == 0) exec.PushWatermark(max_ts - 2000);
  }
  // End to end: the final watermark triggers every open window, and the
  // clock stops only once the workers have drained and joined.
  if (max_ts != kNoTime) exec.PushWatermark(max_ts);
  exec.Finish();
  const double secs = elapsed();
  return static_cast<double>(produced) / secs;
}

void Run() {
  PrintHeader("fig17", "parallel dashboard workload (M4, 80 windows/instance)");
  for (Technique tech : {Technique::kLazySlicing, Technique::kBuckets}) {
    for (size_t degree : {1, 2, 4, 8}) {
      const double tps = RunParallel(tech, degree);
      EmitRow("fig17", TechniqueName(tech), std::to_string(degree), tps,
              "tuples/s");
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace scotty

int main() {
  scotty::bench::Run();
  return 0;
}
