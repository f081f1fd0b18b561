#ifndef SCOTTY_TESTING_HARNESS_H_
#define SCOTTY_TESTING_HARNESS_H_

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/time.h"
#include "common/tuple.h"
#include "common/tuple_batch.h"
#include "common/value.h"
#include "core/window_operator.h"
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
  uint64_t seq = 0;
  Time max_ts = kNoTime;
  Time last_wm = kNoTime;
  for (Tuple t : tuples) {
    t.seq = seq++;
    op.ProcessTuple(t);
    max_ts = std::max(max_ts, t.ts);
    if (wm_every > 0 && seq % static_cast<uint64_t>(wm_every) == 0) {
      const Time wm = max_ts - wm_lag;
      if (wm > last_wm || last_wm == kNoTime) {
        op.ProcessWatermark(wm);
        last_wm = wm;
        drain();
      }
    }
  }
  op.ProcessWatermark(final_wm);
  drain();
  return out;
}

/// Batched twin of RunToFinalResults: identical tuple/watermark sequence,
/// but blocks of `batch_size` tuples (never straddling a watermark
/// injection point) are transposed into SoA column batches and delivered
/// through ProcessTupleColumns — punctuation markers ride inside the
/// blocks, so the columnar run-splitting must handle them inline. Any
/// difference in the final results against RunToFinalResults is a bug in
/// an operator's batch path (or in a column kernel).
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
  uint64_t seq = 0;
  Time max_ts = kNoTime;
  Time last_wm = kNoTime;
  const size_t n = tuples.size();
  size_t i = 0;
  while (i < n) {
    size_t limit = std::min(n - i, batch_size);
    if (wm_every > 0) {
      limit = std::min<size_t>(
          limit, static_cast<size_t>(wm_every) -
                     static_cast<size_t>(seq % static_cast<uint64_t>(wm_every)));
    }
    buf.Clear();
    for (size_t k = 0; k < limit; ++k) {
      Tuple t = tuples[i + k];
      t.seq = seq++;
      max_ts = std::max(max_ts, t.ts);
      buf.PushBack(t);
    }
    i += limit;
    op.ProcessTupleColumns(buf.View());
    if (wm_every > 0 && seq % static_cast<uint64_t>(wm_every) == 0) {
      const Time wm = max_ts - wm_lag;
      if (wm > last_wm || last_wm == kNoTime) {
        op.ProcessWatermark(wm);
        last_wm = wm;
        drain();
      }
    }
  }
  op.ProcessWatermark(final_wm);
  drain();
  return out;
}

/// Checkpointed twin of RunToFinalResults: runs a fresh operator from
/// `factory` over the first `checkpoint_at` tuples with the identical
/// tuple/watermark cadence, serializes its full state through the versioned
/// snapshot container (state/snapshot.h), destroys it, restores a second
/// fresh instance from the snapshot bytes, and replays the remainder. The
/// returned final results must be bit-identical to RunToFinalResults over
/// the whole stream — any difference is a snapshot/restore bug. Returns
/// false (with *error set) if serialization or container validation fails.
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
  uint64_t seq = 0;
  Time max_ts = kNoTime;
  Time last_wm = kNoTime;
  const size_t n = tuples.size();
  checkpoint_at = std::min(checkpoint_at, n);
  for (size_t i = 0; i < n; ++i) {
    if (i == checkpoint_at) {
      // Snapshot, tear down, restore onto a fresh instance. The harness
      // locals (seq, max_ts, last_wm) survive on this side; everything the
      // operator needs must survive through the snapshot bytes.
      if (!op->SupportsSnapshot()) {
        *error = "operator does not support snapshots";
        return false;
      }
      state::Writer w;
      op->SerializeState(w);
      state::CheckpointMetadata meta;
      meta.source_offset = i;
      meta.next_seq = seq;
      meta.max_ts = max_ts;
      meta.last_wm = last_wm;
      const std::vector<uint8_t> blob =
          state::BuildSnapshot(meta, op->Name(), w.Take());
      op.reset();
      state::CheckpointMetadata meta2;
      std::string name;
      std::vector<uint8_t> st;
      if (!state::ParseSnapshot(blob, &meta2, &name, &st)) {
        *error = "snapshot container failed validation";
        return false;
      }
      if (meta2.source_offset != i || meta2.next_seq != seq) {
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
    }
    Tuple t = tuples[i];
    t.seq = seq++;
    op->ProcessTuple(t);
    max_ts = std::max(max_ts, t.ts);
    if (wm_every > 0 && seq % static_cast<uint64_t>(wm_every) == 0) {
      const Time wm = max_ts - wm_lag;
      if (wm > last_wm || last_wm == kNoTime) {
        op->ProcessWatermark(wm);
        last_wm = wm;
        drain();
      }
    }
  }
  op->ProcessWatermark(final_wm);
  drain();
  return true;
}

}  // namespace testing
}  // namespace scotty

#endif  // SCOTTY_TESTING_HARNESS_H_
