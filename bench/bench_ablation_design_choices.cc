// Ablation study of general slicing's design choices (DESIGN.md Section 5).
// Not a paper figure; quantifies each adaptive mechanism in isolation:
//
//  A1 adaptive tuple storage:     decision-tree (drop tuples) vs forced
//                                 retention — memory and throughput.
//  A2 lazy vs eager store:        throughput cost of maintaining the
//                                 FlatFAT for the same workload.
//  A4 invertible count shifts:    TryRemove fast path vs always-recompute
//                                 (sum vs sum-no-invert on count windows).

#include <string>

#include "bench/bench_util.h"

namespace scotty {
namespace bench {
namespace {

/// Every arm runs an out-of-order stream (Drive) with 2 s of lateness.
GeneralSlicingOperator::Options Base() {
  GeneralSlicingOperator::Options o;
  o.allowed_lateness = 2000;
  return o;
}

ThroughputResult Drive(GeneralSlicingOperator& op, double ooo_fraction) {
  SensorStream inner(SensorStream::Football());
  OutOfOrderInjector::Options ooo;
  ooo.fraction = ooo_fraction;
  ooo.max_delay = 2000;
  OutOfOrderInjector src(&inner, ooo);
  return MeasureThroughput(op, src, 2'000'000, 0.8, 1024, 2000);
}

void Run() {
  PrintHeader("ablation", "design-choice ablations for general slicing");

  // A1: adaptive tuple storage (OOO stream, CF windows: tuples droppable).
  for (const bool force : {false, true}) {
    GeneralSlicingOperator::Options o = Base();
    o.force_store_tuples = force;
    GeneralSlicingOperator op(o);
    op.AddAggregation(MakeAggregation("sum"));
    AddWindows(op, DashboardTumblingWindows(20));
    const ThroughputResult r = Drive(op, 0.2);
    const std::string series =
        std::string("A1-storage/") + (force ? "forced-tuples" : "adaptive");
    PrintRow("ablation", series, "throughput", r.TuplesPerSecond(),
             "tuples/s");
    PrintRow("ablation", series, "memory",
             static_cast<double>(op.MemoryUsageBytes()), "bytes");
  }

  // A2: lazy vs eager store maintenance.
  for (const StoreMode mode : {StoreMode::kLazy, StoreMode::kEager}) {
    GeneralSlicingOperator::Options o = Base();
    o.store_mode = mode;
    GeneralSlicingOperator op(o);
    op.AddAggregation(MakeAggregation("sum"));
    AddWindows(op, DashboardTumblingWindows(20));
    const ThroughputResult r = Drive(op, 0.2);
    PrintRow("ablation",
             std::string("A2-store/") +
                 (mode == StoreMode::kLazy ? "lazy" : "eager"),
             "throughput", r.TuplesPerSecond(), "tuples/s");
  }

  // A4: invertibility fast path on count-measure shifts.
  for (const char* agg : {"sum", "sum-no-invert"}) {
    GeneralSlicingOperator op(Base());
    op.AddAggregation(MakeAggregation(agg));
    AddWindows(op, DashboardCountWindows(20));
    const ThroughputResult r = Drive(op, 0.2);
    PrintRow("ablation", std::string("A4-invert/") + agg, "throughput",
             r.TuplesPerSecond(), "tuples/s");
    PrintRow("ablation", std::string("A4-invert/") + agg, "recomputes",
             static_cast<double>(op.stats().slice_recomputes), "ops");
  }
}

}  // namespace
}  // namespace bench
}  // namespace scotty

int main() {
  scotty::bench::Run();
  return 0;
}
