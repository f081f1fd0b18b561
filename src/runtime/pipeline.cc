#include "runtime/pipeline.h"

#include <chrono>
#include <exception>
#include <utility>
#include <vector>

#include "common/tuple_batch.h"
#include "runtime/watermarks.h"

namespace scotty {

namespace {

/// The steps both driver loops share. It skips the prefix `from` covers and
/// continues the coordinator's barrier numbering after it, runs
/// `feed(cadence, &report)` with the cadence resumed there, and turns an
/// exception into ok = false. Then, on every path and in this order, it
/// runs `finish(&report)` (which must not throw) and flushes the
/// coordinator, so async persists are settled and the report's health
/// covers every barrier the run scheduled, including ones that failed in
/// the background.
template <typename Feed, typename Finish>
PipelineReport Drive(TupleSource& src, const PipelineOptions& opts,
                     CheckpointCoordinator* coord,
                     const std::optional<state::CheckpointMetadata>& from,
                     Feed&& feed, Finish&& finish) {
  PipelineReport out;
  auto start = std::chrono::steady_clock::now();
  try {
    const state::CheckpointMetadata at =
        from.value_or(state::CheckpointMetadata{});
    Tuple t;
    uint64_t skipped = 0;
    while (skipped < at.source_offset && src.Next(&t)) ++skipped;
    if (skipped < at.source_offset) {
      out.ok = false;
      out.error = "source exhausted before the checkpoint offset";
    } else {
      if (from.has_value() && coord != nullptr) {
        coord->SetBarrierIndex(at.barrier_index + 1);
      }
      start = std::chrono::steady_clock::now();
      PeriodicWatermarks cadence(opts.watermark_every, opts.watermark_delay,
                                 at);
      feed(cadence, &out);
    }
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
  } catch (...) {
    out.ok = false;
    out.error = "unknown exception while feeding the pipeline";
  }
  finish(&out);
  if (coord != nullptr) {
    coord->Flush();
    out.health = coord->HealthReport();
  }
  out.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return out;
}

/// Counts a barrier the coordinator accepted (a non-empty target).
void NoteBarrier(std::string path, PipelineReport* out) {
  if (path.empty()) return;
  ++out->checkpoints;
  out->last_checkpoint = std::move(path);
}

}  // namespace

// The operator loop stages the source's row-major tuples into SoA blocks at
// this edge when batch_size > 1, flushing a block when it is full and before
// every watermark: no block straddles a watermark, so the operator observes
// the per-tuple tuple/watermark interleaving and every barrier, and so every
// snapshot file, is the same for any batch size.

PipelineReport RunPipeline(
    TupleSource& src, WindowOperator& op, uint64_t max_tuples,
    const PipelineOptions& opts, CheckpointCoordinator* coord,
    const ResultSink& sink,
    const std::optional<state::CheckpointMetadata>& from) {
  auto feed = [&](PeriodicWatermarks& cadence, PipelineReport* out) {
    std::vector<WindowResult> drained;
    auto drain = [&] {
      drained.clear();
      op.TakeResultsInto(&drained);
      out->results += drained.size();
      for (const WindowResult& r : drained) out->updates += r.is_update ? 1 : 0;
      if (sink) sink(drained);
    };
    const bool columnar = opts.batch_size > 1;
    TupleBatchSoA buf(columnar ? opts.batch_size : 0);
    auto flush = [&] {
      if (buf.empty()) return;
      op.ProcessTupleColumns(buf.View());
      buf.Clear();
    };
    Tuple t;
    for (uint64_t i = cadence.Progress().source_offset;
         i < max_tuples && src.Next(&t); ++i) {
      if (columnar) {
        buf.PushBack(t);
        if (buf.size() == opts.batch_size) flush();
      } else {
        op.ProcessTuple(t);
      }
      ++out->tuples;
      const Time wm = cadence.OnTuple(t);
      if (wm == kNoTime) continue;
      flush();
      op.ProcessWatermark(wm);
      // Results MUST leave the operator before the barrier: a snapshot
      // taken with undrained results would re-emit them after restore,
      // duplicating output the consumer already saw.
      drain();
      if (coord != nullptr) {
        NoteBarrier(coord->OnBarrier(op, cadence.Progress()), out);
      }
    }
    flush();
    if (cadence.max_ts() != kNoTime) op.ProcessWatermark(cadence.max_ts());
    drain();
  };
  return Drive(src, opts, coord, from, feed, [](PipelineReport*) {});
}

PipelineReport RunPipeline(
    TupleSource& src, ParallelExecutor& exec, uint64_t max_tuples,
    const PipelineOptions& opts, CheckpointCoordinator* coord,
    const std::optional<state::CheckpointMetadata>& from) {
  auto feed = [&](PeriodicWatermarks& cadence, PipelineReport* out) {
    exec.Start();
    // The executor stages each worker's tuples by its own
    // Options::batch_size and flushes that staging at every watermark and
    // barrier, so tuples go in one at a time.
    Tuple t;
    for (uint64_t i = cadence.Progress().source_offset;
         i < max_tuples && src.Next(&t); ++i) {
      exec.Push(t);
      ++out->tuples;
      const Time wm = cadence.OnTuple(t);
      if (wm == kNoTime) continue;
      exec.PushWatermark(wm);
      // Each worker hands the watermark's results to its sink before it
      // serializes its partition, so the barrier covers exactly them.
      if (coord != nullptr) {
        NoteBarrier(coord->OnBarrier(exec, cadence.Progress()), out);
      }
    }
    if (cadence.max_ts() != kNoTime) exec.PushWatermark(cadence.max_ts());
  };
  // Unconditional, also after a failure: stop markers and join. The workers
  // drain whatever was queued before it, so no thread is left spinning on a
  // queue nobody feeds, and the executor can be destroyed.
  auto finish = [&exec](PipelineReport* out) {
    exec.Finish();
    out->results = exec.TotalResults();
    out->updates = exec.TotalUpdates();
  };
  return Drive(src, opts, coord, from, feed, finish);
}

}  // namespace scotty
