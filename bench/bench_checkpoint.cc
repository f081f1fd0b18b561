// Checkpoint microbenchmark (DESIGN.md §7): snapshot size and
// serialize/restore cost per windowing technique.
//
// Each technique ingests the same out-of-order sensor stream until it holds
// a steady-state amount of retained state (slices, buffered tuples, window
// context), then we measure
//   - snapshot-bytes: size of the serialized operator state,
//   - serialize-ms:   time to produce the state bytes (Writer only; the
//                     container adds a constant 28-byte header + checksum),
//   - restore-ms:     time to decode the bytes into a fresh operator.
//
// Expected shape: slicing snapshots are proportional to slice count (small),
// tuple buffer and aggregate tree carry every retained tuple, buckets sit in
// between (one partial per open bucket). Restore is within a small factor
// of serialize for every technique — both are single sequential passes.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "runtime/checkpoint.h"
#include "runtime/pipeline.h"
#include "state/serde.h"
#include "windows/session.h"
#include "windows/sliding.h"
#include "windows/tumbling.h"

namespace scotty {
namespace bench {
namespace {

std::vector<WindowPtr> CheckpointWindows() {
  return {std::make_shared<TumblingWindow>(500),
          std::make_shared<SlidingWindow>(1000, 250),
          std::make_shared<SessionWindow>(300)};
}

std::unique_ptr<WindowOperator> MakeLoaded(Technique tech,
                                           uint64_t num_tuples) {
  auto op = MakeTechnique(tech, /*stream_in_order=*/false,
                          /*allowed_lateness=*/2000, CheckpointWindows(),
                          {"sum", "median"});
  SensorStream inner(SensorStream::Football());
  OutOfOrderInjector::Options ooo;
  ooo.fraction = 0.2;
  ooo.max_delay = 2000;
  OutOfOrderInjector src(&inner, ooo);
  Tuple t;
  Time max_ts = kNoTime;
  for (uint64_t i = 0; i < num_tuples && src.Next(&t); ++i) {
    op->ProcessTuple(t);
    if (t.ts > max_ts) max_ts = t.ts;
    if ((i + 1) % 1024 == 0) {
      op->ProcessWatermark(max_ts - 2000);
      op->TakeResults();
    }
  }
  return op;
}

double MedianMs(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// End-to-end ingestion throughput with checkpointing off vs on, across the
/// three persistence modes and three barrier cadences (one barrier per
/// injected watermark, every 256/1024/4096 tuples, retaining the 3 newest
/// bases):
///   - sync-full:         a full snapshot per barrier through the atomic-write
///                        protocol (serialize + checksum + temp file + fsync +
///                        rename), written by the persist thread while the
///                        barrier waits;
///   - async-full:        the same full snapshots, but the barrier does not
///                        wait, and group commit batches the fsyncs;
///   - async-incremental: a full base every 8th barrier, dirty-slice deltas
///                        appended to the base's log segment in between,
///                        with no waiting barrier.
/// The gap between off and sync-full is the total cost of crash consistency
/// at a given cadence — dominated by fsync, not serialization (compare with
/// the serialize-ms rows above). Async takes that cost out of the barrier;
/// incremental shrinks the bytes that cross it. Rows at the default
/// 1024-tuple cadence keep their bare labels; the tighter/looser cadences
/// carry an "@N" suffix.
void RunPipelineOverhead() {
  constexpr uint64_t kTuples = 150'000;
  constexpr int kReps = 3;
  constexpr uint64_t kCadences[] = {256, 1024, 4096};
  const std::string dir =
      (std::filesystem::temp_directory_path() / "scotty_bench_ckpt").string();
  std::filesystem::create_directories(dir);
  // Lazy slicing only: this section measures the cost of the persistence
  // protocol, which is technique-independent (serialize + fsync per
  // barrier); the per-technique serialize cost is already covered above.
  for (Technique tech : {Technique::kLazySlicing}) {
    auto make_src = [] {
      return SensorStream(SensorStream::Football());
    };
    auto make_op = [&] {
      return MakeTechnique(tech, /*stream_in_order=*/false,
                           /*allowed_lateness=*/2000, CheckpointWindows(),
                           {"sum", "median"});
    };
    struct Mode {
      const char* label;
      bool async;
      bool incremental;
    };
    const Mode kModes[] = {{"checkpointing-on", false, false},  // sync-full
                           {"checkpointing-async-full", true, false},
                           {"checkpointing-async-incremental", true, true}};
    // A failed run's partial throughput must not enter a median row.
    auto tps = [&](const PipelineReport& rep) {
      if (!rep.ok) {
        std::fprintf(stderr, "pipeline failed for %s: %s\n",
                     TechniqueName(tech), rep.error.c_str());
        std::exit(1);
      }
      return rep.TuplesPerSecond();
    };
    for (uint64_t cadence : kCadences) {
      PipelineOptions popts;
      popts.watermark_every = cadence;
      // The off run is re-measured per cadence: the watermark/result cadence
      // itself affects throughput, so each overhead row compares against an
      // off run with identical windowing work.
      const std::string suffix =
          cadence == 1024 ? "" : "@" + std::to_string(cadence);
      std::vector<double> off_tps;
      for (int i = 0; i < kReps; ++i) {
        SensorStream src = make_src();
        auto op = make_op();
        off_tps.push_back(tps(RunPipeline(src, *op, kTuples, popts)));
      }
      const double off = MedianMs(off_tps);  // medians, not actually ms here
      EmitRow("checkpoint", std::string(TechniqueName(tech)) + "/pipeline",
              "checkpointing-off" + suffix, off, "tuples/s");
      for (const Mode& mode : kModes) {
        std::vector<double> on_tps;
        for (int i = 0; i < kReps; ++i) {
          SensorStream src = make_src();
          auto op = make_op();
          CheckpointOptions copts;
          copts.directory = dir;
          copts.prefix = TechniqueName(tech);
          copts.retain = 3;
          copts.async = mode.async;
          copts.incremental = mode.incremental;
          CheckpointCoordinator coord(copts);
          on_tps.push_back(tps(RunPipeline(src, *op, kTuples, popts, &coord)));
        }
        const double on = MedianMs(on_tps);
        EmitRow("checkpoint", std::string(TechniqueName(tech)) + "/pipeline",
                mode.label + suffix, on, "tuples/s");
        const std::string overhead_label =
            (mode.async ? std::string("overhead-") + (mode.label + 14)
                        : std::string("overhead")) +
            suffix;
        EmitRow("checkpoint", std::string(TechniqueName(tech)) + "/pipeline",
                overhead_label, off > 0 ? (off - on) / off * 100.0 : 0.0, "%");
      }
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

/// Incremental snapshot size: a delta (dirty slices inline, clean slices as
/// start-time references, eager trees as layout only) vs the full snapshot
/// of the same state, after one barrier interval (1024 tuples) of new data
/// on a steady-state operator. The ratio is the payload reduction every
/// non-base barrier enjoys. The slicing techniques are the only ones with
/// dirty tracking (their state is slice-structured); buckets writes its full
/// state as its delta, so its ~1.0x row quantifies what a differential
/// format for the tuple-retaining stores would have to beat.
void RunDeltaSize() {
  constexpr uint64_t kTuples = 12'000;
  for (Technique tech : {Technique::kLazySlicing, Technique::kEagerSlicing,
                         Technique::kBuckets}) {
    std::unique_ptr<WindowOperator> op = MakeLoaded(tech, kTuples);
    state::Writer full;
    op->SerializeState(full);
    op->MarkSnapshotClean();

    // One barrier interval of new tuples, then the delta for that barrier.
    SensorStream inner(SensorStream::Football());
    OutOfOrderInjector::Options ooo;
    ooo.fraction = 0.2;
    ooo.max_delay = 2000;
    OutOfOrderInjector src(&inner, ooo);
    Tuple t;
    uint64_t skip = 0;
    while (skip < kTuples && src.Next(&t)) ++skip;
    Time max_ts = kNoTime;
    for (uint64_t i = 0; i < 1024 && src.Next(&t); ++i) {
      op->ProcessTuple(t);
      if (t.ts > max_ts) max_ts = t.ts;
    }
    op->ProcessWatermark(max_ts - 2000);
    op->TakeResults();
    state::Writer delta;
    op->SerializeDelta(delta);

    const double full_bytes = static_cast<double>(full.Take().size());
    const double delta_bytes = static_cast<double>(delta.Take().size());
    const std::string series =
        std::string(TechniqueName(tech)) + "/incremental";
    EmitRow("checkpoint", series, "full-snapshot-bytes", full_bytes, "bytes");
    EmitRow("checkpoint", series, "delta-bytes", delta_bytes, "bytes");
    EmitRow("checkpoint", series, "delta-to-full",
            full_bytes > 0 ? delta_bytes / full_bytes : 0.0, "x");
  }
}

void Run() {
  // The football stream runs at 2 kHz and the retention horizon is
  // watermark delay + allowed lateness = 4 s, so the operators reach their
  // steady-state footprint (~8k retained tuples) after ~8k tuples. 12k
  // tuples passes that point while keeping the loading phase affordable for
  // the aggregate tree, whose out-of-order inserts re-merge holistic median
  // partials along the whole leaf-to-root path.
  constexpr uint64_t kTuples = 12'000;
  constexpr int kReps = 9;
  PrintHeader("checkpoint",
              "snapshot size and serialize/restore latency per technique");
  const std::vector<Technique> techniques = {
      Technique::kLazySlicing, Technique::kEagerSlicing,
      Technique::kTupleBuffer, Technique::kAggregateTree, Technique::kBuckets};
  for (Technique tech : techniques) {
    std::unique_ptr<WindowOperator> op = MakeLoaded(tech, kTuples);

    std::vector<double> ser_ms;
    std::vector<uint8_t> state;
    for (int i = 0; i < kReps; ++i) {
      state::Writer w;
      const auto t0 = std::chrono::steady_clock::now();
      op->SerializeState(w);
      const auto t1 = std::chrono::steady_clock::now();
      ser_ms.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
      state = w.Take();
    }

    std::vector<double> res_ms;
    for (int i = 0; i < kReps; ++i) {
      auto fresh = MakeTechnique(tech, false, 2000, CheckpointWindows(),
                                 {"sum", "median"});
      state::Reader r(state);
      const auto t0 = std::chrono::steady_clock::now();
      fresh->DeserializeState(r);
      const auto t1 = std::chrono::steady_clock::now();
      if (!r.ok() || !r.AtEnd()) {
        std::fprintf(stderr, "restore failed for %s\n", TechniqueName(tech));
        std::exit(1);
      }
      res_ms.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    }

    EmitRow("checkpoint", TechniqueName(tech), "snapshot-bytes",
            static_cast<double>(state.size()), "bytes");
    EmitRow("checkpoint", TechniqueName(tech), "serialize-ms",
            MedianMs(ser_ms), "ms");
    EmitRow("checkpoint", TechniqueName(tech), "restore-ms", MedianMs(res_ms),
            "ms");
  }
  RunDeltaSize();
  RunPipelineOverhead();
}

}  // namespace
}  // namespace bench
}  // namespace scotty

int main() {
  scotty::bench::Run();
  return 0;
}
