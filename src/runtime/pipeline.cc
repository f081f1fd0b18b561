#include "runtime/pipeline.h"

#include <chrono>

#include "runtime/checkpoint.h"
#include "runtime/watermarks.h"

namespace scotty {

// RunPipeline is defined in checkpoint.cc, next to the driver loop it shares
// with RunCheckpointedPipeline.

ParallelPipelineReport RunPipelineParallel(
    TupleSource& src, ParallelExecutor& exec, uint64_t max_tuples,
    const PipelineOptions& opts, CheckpointCoordinator* coord) {
  ParallelPipelineReport out;
  const auto start = std::chrono::steady_clock::now();
  exec.Start();
  try {
    PeriodicWatermarks cadence(opts.watermark_every, opts.watermark_delay);
    Tuple t;
    for (uint64_t i = 0; i < max_tuples && src.Next(&t); ++i) {
      exec.Push(t);
      ++out.report.tuples;
      const Time wm = cadence.OnTuple(t);
      if (wm == kNoTime) continue;
      exec.PushWatermark(wm);
      if (coord == nullptr) continue;
      // Barrier right after the watermark, like RunCheckpointedPipeline's:
      // it captures every worker between two items of its own stream.
      if (!coord->OnBarrier(exec, cadence.Progress()).empty()) {
        ++out.checkpoints;
      }
    }
    if (cadence.max_ts() != kNoTime) exec.PushWatermark(cadence.max_ts());
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
  } catch (...) {
    out.ok = false;
    out.error = "unknown exception while feeding the pipeline";
  }
  // Unconditional: stop markers + join, also on the exception path. The
  // workers drain whatever was queued before the failure, so no thread is
  // left spinning on a queue nobody feeds.
  exec.Finish();
  // Only after the workers are down: settle the coordinator, so an
  // in-flight async persist is completed (or was explicitly abandoned by
  // the caller) before control returns and the executor can be destroyed.
  // Health is sampled post-flush so it covers background persist failures.
  if (coord != nullptr) {
    coord->Flush();
    out.checkpoint_health = coord->HealthReport();
  }
  out.report.results = exec.TotalResults();
  const auto end = std::chrono::steady_clock::now();
  out.report.seconds = std::chrono::duration<double>(end - start).count();
  return out;
}

}  // namespace scotty
