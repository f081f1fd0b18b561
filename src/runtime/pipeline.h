#ifndef SCOTTY_RUNTIME_PIPELINE_H_
#define SCOTTY_RUNTIME_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/window_operator.h"
#include "datagen/generators.h"
#include "runtime/checkpoint_health.h"
#include "runtime/parallel_executor.h"

namespace scotty {

/// Single-threaded driver: pulls tuples from a source into
/// a window operator, injecting periodic low-watermarks (paper Section 2)
/// from a PeriodicWatermarks cadence (runtime/watermarks.h).
/// This is our stand-in for the Flink task the paper deploys operators in.
struct PipelineOptions {
  /// Inject a watermark after every N tuples (0 disables watermarks —
  /// correct for streams declared in-order, which self-trigger).
  uint64_t watermark_every = 1024;
  /// Watermark = max event-time seen minus this delay (covers the maximum
  /// out-of-order delay of the stream).
  Time watermark_delay = 2000;
  /// Stage tuples into SoA blocks of this many and feed the operator
  /// through ProcessTupleColumns (0 or 1 keeps the tuple-at-a-time loop).
  /// Blocks never straddle a watermark boundary, so the item sequence the
  /// operator observes is identical to unbatched execution. Results are
  /// drained after every watermark either way (keeps memory flat).
  uint64_t batch_size = 0;
};

struct PipelineReport {
  uint64_t tuples = 0;
  uint64_t results = 0;
  uint64_t updates = 0;
  double seconds = 0.0;

  double TuplesPerSecond() const {
    return seconds > 0 ? static_cast<double>(tuples) / seconds : 0.0;
  }
};

/// Runs up to `max_tuples` tuples through `op` and returns throughput and
/// result counts. Sends one final watermark at the maximum event time. This
/// is RunCheckpointedPipeline's driver loop without a coordinator (both are
/// defined in runtime/checkpoint.cc).
PipelineReport RunPipeline(TupleSource& src, WindowOperator& op,
                           uint64_t max_tuples, const PipelineOptions& opts);

class CheckpointCoordinator;

/// RunPipeline outcome when worker threads are involved: `ok`/`error`
/// report feed-side failures (a throwing source, a failed state restore)
/// AFTER the workers were drained and joined — the parallel driver never
/// returns with threads still running, whatever the error path.
struct ParallelPipelineReport {
  PipelineReport report;
  uint64_t checkpoints = 0;  ///< barriers accepted by the coordinator
  /// Coordinator persistence health at return (meaningful when a coordinator
  /// was passed; default-healthy otherwise). Carries the persistence-mode
  /// ladder position (mode/fallbacks/promotions/alarm) when the coordinator
  /// runs with auto_fallback.
  CheckpointHealthReport checkpoint_health;
  bool ok = true;
  std::string error;
};

/// Parallel twin of RunPipeline: feeds the source through a key-partitioned
/// ParallelExecutor (not yet started; this function starts it) with the
/// same tuple/watermark cadence, then drains and joins the workers. If
/// `coord` is non-null, a barrier (CheckpointCoordinator::OnBarrier, a base
/// or a delta) is taken after every injected watermark; a shared-mode
/// executor takes none. If the source throws mid-stream, the workers are
/// still stopped and joined before the error is returned — an abandoned
/// executor with live threads would otherwise block forever in its
/// destructor.
/// Shutdown ordering is fixed on every path, including errors: workers are
/// joined first, then the coordinator is flushed, so no async persist is
/// left in flight and every scheduled checkpoint file is either durable or
/// accounted as dropped/failed when this returns.
ParallelPipelineReport RunPipelineParallel(
    TupleSource& src, ParallelExecutor& exec, uint64_t max_tuples,
    const PipelineOptions& opts, CheckpointCoordinator* coord = nullptr);

}  // namespace scotty

#endif  // SCOTTY_RUNTIME_PIPELINE_H_
