#ifndef SCOTTY_RUNTIME_PIPELINE_H_
#define SCOTTY_RUNTIME_PIPELINE_H_

#include <cstdint>
#include <optional>
#include <string>

#include "core/window_operator.h"
#include "datagen/generators.h"
#include "runtime/checkpoint.h"
#include "runtime/parallel_executor.h"
#include "state/snapshot.h"

namespace scotty {

/// The pipeline driver: pulls tuples from a source into a window operator
/// or a key-partitioned ParallelExecutor, injecting periodic low-watermarks
/// (paper Section 2) from a PeriodicWatermarks cadence
/// (runtime/watermarks.h), with a checkpoint barrier after each watermark
/// when a coordinator is given. This is our stand-in for the Flink task the
/// paper deploys operators in.
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
  /// operator observes, and every snapshot a barrier takes, is identical to
  /// unbatched execution. Results are drained after every watermark either
  /// way (keeps memory flat). An executor run ignores it: the executor
  /// stages by its own ParallelExecutor::Options::batch_size.
  uint64_t batch_size = 0;
};

/// What one RunPipeline call did.
struct PipelineReport {
  uint64_t tuples = 0;   ///< tuples read after the skipped prefix
  uint64_t results = 0;  ///< results drained, updates included
  uint64_t updates = 0;  ///< late updates among them (is_update)
  double seconds = 0.0;
  uint64_t checkpoints = 0;     ///< barriers the coordinator accepted
  std::string last_checkpoint;  ///< the newest accepted barrier's target
  /// Coordinator persistence health after the final flush (default-healthy
  /// without a coordinator), so callers observe degradation — retried or
  /// dropped persists, a terminal kFailed, the fallback ladder's position —
  /// without keeping the coordinator around.
  CheckpointHealthReport health;
  /// False when the source threw or ended before the resume point. Every
  /// path, this one included, joins the executor's workers and then
  /// flushes the coordinator before RunPipeline returns, so no thread runs
  /// and no persist is in flight afterwards.
  bool ok = true;
  std::string error;

  double TuplesPerSecond() const {
    return seconds > 0 ? static_cast<double>(tuples) / seconds : 0.0;
  }
};

/// Runs the source up to stream position `max_tuples` through `op`, then
/// sends one final watermark at the maximum event time. After every
/// watermark the results are drained, handed to `sink` and then, with a
/// coordinator, a barrier (CheckpointCoordinator::OnBarrier, a base or a
/// delta) is taken — so a sink that records results durably holds exactly
/// the results a barrier covers.
///
/// `from` resumes a run from a barrier's CheckpointMetadata (a restored
/// operator's RestoredOperator::meta): RunPipeline skips the
/// `from->source_offset` source tuples the barrier already covered,
/// continues the watermark cadence from it, and numbers the coordinator's
/// barriers after `from->barrier_index`. Resuming is RestoreOperator or
/// RecoverNewestValid followed by RunPipeline; the union of the results
/// drained before the barrier and those of the resumed run equals the
/// uninterrupted run's.
PipelineReport RunPipeline(
    TupleSource& src, WindowOperator& op, uint64_t max_tuples,
    const PipelineOptions& opts, CheckpointCoordinator* coord = nullptr,
    const ResultSink& sink = nullptr,
    const std::optional<state::CheckpointMetadata>& from = std::nullopt);

/// The same run through an unstarted ParallelExecutor, which this call
/// starts and finishes: tuples go to Push (the executor batches them per
/// worker by its own Options::batch_size), watermarks to PushWatermark, and
/// a barrier snapshots every worker's partition. The
/// results leave through the executor's own Options::result_sink, which
/// each worker calls before it serializes the next barrier; `results` and
/// `updates` are its TotalResults() and TotalUpdates(). A shared-mode
/// executor takes no barrier. A restored executor (the constructor that
/// takes RestoreOperator's PartitionedOperator) resumes with `from` as
/// above.
PipelineReport RunPipeline(
    TupleSource& src, ParallelExecutor& exec, uint64_t max_tuples,
    const PipelineOptions& opts, CheckpointCoordinator* coord = nullptr,
    const std::optional<state::CheckpointMetadata>& from = std::nullopt);

}  // namespace scotty

#endif  // SCOTTY_RUNTIME_PIPELINE_H_
