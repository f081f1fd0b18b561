#ifndef SCOTTY_TESTING_HARNESS_H_
#define SCOTTY_TESTING_HARNESS_H_

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/time.h"
#include "common/tuple.h"
#include "common/tuple_batch.h"
#include "common/value.h"
#include "core/window_operator.h"
#include "runtime/watermarks.h"
#include "state/snapshot.h"

namespace scotty {
namespace testing {

/// Shorthand tuple constructor used throughout the test suites.
inline Tuple T(Time ts, double value, uint64_t seq = 0, int64_t key = 0) {
  Tuple t;
  t.ts = ts;
  t.value = value;
  t.seq = seq;
  t.key = key;
  return t;
}

/// Key identifying a window instance in the result stream.
using ResultKey = std::tuple<int, int, Time, Time>;  // window, agg, start, end

/// Final value per window instance: later emissions (allowed-lateness
/// updates) override earlier ones — the consumer-visible end state.
inline std::map<ResultKey, Value> FinalResults(
    const std::vector<WindowResult>& results) {
  std::map<ResultKey, Value> out;
  for (const WindowResult& r : results) {
    out[{r.window_id, r.agg_id, r.start, r.end}] = r.value;
  }
  return out;
}

/// Feeds tuples in vector order, assigning arrival sequence numbers, then a
/// final watermark; returns all emitted results.
inline std::vector<WindowResult> RunStream(WindowOperator& op,
                                           std::vector<Tuple> tuples,
                                           Time final_wm) {
  uint64_t seq = 0;
  for (Tuple& t : tuples) {
    t.seq = seq++;
    op.ProcessTuple(t);
  }
  op.ProcessWatermark(final_wm);
  return op.TakeResults();
}

/// The harness feed loop: replays tuples[at->source_offset, end) in order,
/// stamping each tuple's seq with its index, and hands it to `ingest`.
/// Watermarks come from a PeriodicWatermarks cadence (max event time seen −
/// wm_lag after every wm_every-th tuple; 0 never emits) resumed from `*at`;
/// each one goes to `on_watermark(wm, progress)` together with the
/// metadata a barrier taken right then records. Either callback may return
/// false to stop the replay early; Replay then returns false. `*at` always
/// ends at the position reached, so a second call continues the first.
template <typename Ingest, typename OnWatermark>
bool Replay(const std::vector<Tuple>& tuples, size_t end, int wm_every,
            Time wm_lag, state::CheckpointMetadata* at, Ingest&& ingest,
            OnWatermark&& on_watermark) {
  // Callbacks that return nothing never stop the replay.
  auto keep_going = [](auto& f, auto&&... args) {
    if constexpr (std::is_void_v<decltype(f(args...))>) {
      f(args...);
      return true;
    } else {
      return static_cast<bool>(f(args...));
    }
  };
  PeriodicWatermarks cadence(static_cast<uint64_t>(std::max(wm_every, 0)),
                             wm_lag, *at);
  bool ok = true;
  for (size_t i = static_cast<size_t>(at->source_offset); ok && i < end;
       ++i) {
    Tuple t = tuples[i];
    t.seq = i;
    ok = keep_going(ingest, t);
    const Time wm = cadence.OnTuple(t);
    if (ok && wm != kNoTime) {
      ok = keep_going(on_watermark, wm, cadence.Progress());
    }
  }
  *at = cadence.Progress();
  return ok;
}

/// Like RunStream, but additionally issues a lagging watermark every
/// `wm_every` tuples (wm = max event time seen − wm_lag). Exercises the
/// trigger/update/eviction machinery mid-stream instead of only at the end.
/// With wm_lag ≥ StreamSpec::MaxLateness() no tuple is ever dropped, so the
/// final per-instance results must equal the single-watermark run.
inline std::map<ResultKey, Value> RunToFinalResults(WindowOperator& op,
                                                    const std::vector<Tuple>&
                                                        tuples,
                                                    Time final_wm,
                                                    int wm_every = 0,
                                                    Time wm_lag = 0) {
  std::map<ResultKey, Value> out;
  auto drain = [&] {
    for (const WindowResult& r : op.TakeResults()) {
      out[{r.window_id, r.agg_id, r.start, r.end}] = r.value;
    }
  };
  state::CheckpointMetadata at;
  Replay(
      tuples, tuples.size(), wm_every, wm_lag, &at,
      [&](const Tuple& t) { op.ProcessTuple(t); },
      [&](Time wm, const state::CheckpointMetadata&) {
        op.ProcessWatermark(wm);
        drain();
      });
  op.ProcessWatermark(final_wm);
  drain();
  return out;
}

/// Batched twin of RunToFinalResults: identical tuple/watermark sequence,
/// but blocks of `batch_size` tuples (flushed when full and at every
/// watermark, so none straddles one) are transposed into SoA column
/// batches and delivered through ProcessTupleColumns — punctuation markers
/// ride inside the blocks, so the columnar run-splitting must handle them
/// inline. Any difference in the final results against RunToFinalResults
/// is a bug in an operator's batch path (or in a column kernel).
inline std::map<ResultKey, Value> RunToFinalResultsColumns(
    WindowOperator& op, const std::vector<Tuple>& tuples, Time final_wm,
    int wm_every, Time wm_lag, size_t batch_size) {
  if (batch_size == 0) batch_size = 1;
  std::map<ResultKey, Value> out;
  std::vector<WindowResult> drained;
  auto drain = [&] {
    drained.clear();
    op.TakeResultsInto(&drained);
    for (const WindowResult& r : drained) {
      out[{r.window_id, r.agg_id, r.start, r.end}] = r.value;
    }
  };
  TupleBatchSoA buf(batch_size);
  auto flush = [&] {
    if (buf.empty()) return;
    op.ProcessTupleColumns(buf.View());
    buf.Clear();
  };
  state::CheckpointMetadata at;
  Replay(
      tuples, tuples.size(), wm_every, wm_lag, &at,
      [&](const Tuple& t) {
        buf.PushBack(t);
        if (buf.size() == batch_size) flush();
      },
      [&](Time wm, const state::CheckpointMetadata&) {
        flush();
        op.ProcessWatermark(wm);
        drain();
      });
  flush();
  op.ProcessWatermark(final_wm);
  drain();
  return out;
}

/// Checkpointed twin of RunToFinalResults: runs a fresh operator from
/// `factory` over the first `checkpoint_at` tuples with the identical
/// tuple/watermark cadence, serializes its full state through the versioned
/// snapshot container (state/snapshot.h), destroys it, restores a second
/// fresh instance from the snapshot bytes, and replays the remainder from
/// the decoded metadata. The returned final results must be bit-identical
/// to RunToFinalResults over the whole stream — any difference is a
/// snapshot/restore bug. Returns false (with *error set) if serialization
/// or container validation fails.
inline bool RunToFinalResultsCheckpointed(
    const std::function<std::unique_ptr<WindowOperator>()>& factory,
    const std::vector<Tuple>& tuples, Time final_wm, int wm_every, Time wm_lag,
    size_t checkpoint_at, std::map<ResultKey, Value>* out,
    std::string* error) {
  out->clear();
  std::unique_ptr<WindowOperator> op = factory();
  auto drain = [&] {
    for (const WindowResult& r : op->TakeResults()) {
      (*out)[{r.window_id, r.agg_id, r.start, r.end}] = r.value;
    }
  };
  auto ingest = [&](const Tuple& t) { op->ProcessTuple(t); };
  auto on_watermark = [&](Time wm, const state::CheckpointMetadata&) {
    op->ProcessWatermark(wm);
    drain();
  };
  state::CheckpointMetadata at;
  Replay(tuples, std::min(checkpoint_at, tuples.size()), wm_every, wm_lag,
         &at, ingest, on_watermark);
  // Snapshot, tear down, restore onto a fresh instance. Everything the
  // operator and the cadence need must survive through the snapshot bytes.
  state::Writer w;
  op->SerializeState(w);
  const std::vector<uint8_t> blob =
      state::BuildSnapshot(at, op->Name(), w.Take());
  op.reset();
  state::CheckpointMetadata restored;
  std::string name;
  std::vector<uint8_t> st;
  if (!state::ParseSnapshot(blob, &restored, &name, &st)) {
    *error = "snapshot container failed validation";
    return false;
  }
  if (restored.source_offset != at.source_offset ||
      restored.next_seq != at.next_seq) {
    *error = "snapshot metadata did not round-trip";
    return false;
  }
  op = factory();
  state::Reader r(st);
  op->DeserializeState(r);
  if (!r.ok() || !r.AtEnd()) {
    *error = "operator state did not decode cleanly (ok=" +
             std::string(r.ok() ? "true" : "false") +
             ", leftover=" + std::to_string(r.remaining()) + " bytes)";
    return false;
  }
  Replay(tuples, tuples.size(), wm_every, wm_lag, &restored, ingest,
         on_watermark);
  op->ProcessWatermark(final_wm);
  drain();
  return true;
}

}  // namespace testing
}  // namespace scotty

#endif  // SCOTTY_TESTING_HARNESS_H_
