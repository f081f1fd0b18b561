#ifndef SCOTTY_TESTING_DIFFERENTIAL_H_
#define SCOTTY_TESTING_DIFFERENTIAL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "testing/query_spec.h"
#include "testing/stream_gen.h"

namespace scotty {
namespace testing {

/// One differential test case: a query set (windows × aggregations), a
/// stream spec, and a watermark cadence. Fully determines a run — the
/// fuzzing reproducer line is exactly a serialized DifferentialConfig.
struct DifferentialConfig {
  std::vector<WindowSpec> windows;
  std::vector<std::string> aggs;
  StreamSpec stream;
  /// Issue a lagging watermark every `wm_every` tuples (0 = only the final
  /// watermark). The lag is StreamSpec::MaxLateness(), so no technique ever
  /// drops a tuple and the oracle (which does not model drops) stays valid.
  int wm_every = 0;
  /// Additionally run the slicing operator (lazy, eager, and in-order on
  /// sorted streams) through its columnar batch path (ProcessTupleColumns)
  /// with SoA blocks of this many tuples, under the resolved `kernel` mode
  /// and the scalar fallback, and require bit-identical final results.
  /// 0 disables the batched runs.
  int batch = 0;
  /// Additionally run a checkpointed twin of every
  /// technique: snapshot the operator after this many tuples, tear it down,
  /// restore a fresh instance from the bytes, replay the remainder, and
  /// require results bit-identical to the same technique's uninterrupted
  /// run (exact even for approx aggregations — restore reproduces the very
  /// same partials). 0 disables the checkpointed runs.
  int checkpoint = 0;
  /// Additionally run a crash-recovered twin of every
  /// technique: checkpoint at every watermark barrier, kill the run at a
  /// tuple index (> 0: exactly this index; -1: seed-derived), possibly tear
  /// or corrupt the newest snapshot file (seed-derived fault), recover from
  /// the newest snapshot that validates — falling back past damaged files,
  /// from scratch when none is left — and replay the remainder. The merged
  /// downstream view must equal the technique's unfaulted results exactly.
  /// 0 disables the crash runs.
  int crash = 0;
  /// Additionally run the rescaling crash twin: a keyed copy of the stream
  /// (partition keys assigned deterministically from the seed) runs on a
  /// PartitionedOperator of W keyed partitions, checkpoints it, crashes
  /// (> 0: at this tuple index; -1: seed-derived), and recovers onto
  /// W' != W partitions by re-partitioning per-key state — the merged
  /// downstream view must equal a single keyed operator's results exactly.
  /// W, W', the persistence mode, and any snapshot damage are seed-derived.
  /// 0 disables the rescale runs.
  int rescale = 0;
  /// Additionally run the multi-query shared-slicing arm: the config's own
  /// query plus seed-derived companion queries (duplicating its windows,
  /// multiplying its tumbling lengths, adding fresh edges) register in one
  /// QueryRegistry served by a single slice stream, and every query's final
  /// results must equal its own solo slicing run (lazy and eager stores,
  /// plus the in-order fast path on sorted streams). N > 0: N companion
  /// queries with static membership; -1: seed-derived companions plus a
  /// mid-stream deregistration and a context-free mid-stream registration
  /// checked against the horizon contract. 0 disables the shared runs.
  int shared = 0;
  /// Additionally run the overload-resilience arm: the config's
  /// deterministic-edge time windows (tumbling/sliding; one is synthesized
  /// when the config has none) run through a backpressure-controlled
  /// 1-worker executor with a seed-derived consumer stall, slow-persist and
  /// sustained persist-failure injection, and an auto-fallback async
  /// coordinator. The oracle: delivered exact results ∪ shed-marked windows
  /// must exactly partition the unfaulted run (windows without shed overlap
  /// bit-identical, delivered windows a subset of the unfaulted run's) and
  /// the run must neither deadlock nor abort. -1: seed-derived plan
  /// (any other non-zero value behaves the same; the shed set itself is
  /// timing-dependent and the oracle is valid for any of them).
  /// 0 disables the overload runs.
  int overload = 0;
  /// Kernel mode pinned (via simd::SetModeForTesting) for the batched runs:
  /// "auto", "scalar", "sse2", or "avx2", clamped to what the binary/CPU
  /// supports so reproducer lines replay anywhere. Whenever the resolved
  /// mode is a vector mode, the scalar fallback is run alongside it — the
  /// fuzzer checks SIMD vs scalar vs oracle bit-identity on every config
  /// with `batch` > 0.
  std::string kernel = "auto";

  /// Reproducer flags for `fuzz_differential` (everything non-default).
  std::string ToFlags() const;
};

/// Parses a serialized config line — the exact format ToFlags() emits and
/// the corpus/reproducer files store: space-separated `--key=value` flags,
/// an optional leading `fuzz_differential` token, and `#` starting a
/// comment. Unknown flags, malformed window specs, and unknown aggregation
/// names fail with `*error` set; defaults fill everything not mentioned, so
/// lines stay replayable even as RandomConfig's derivation evolves.
bool ParseConfigLine(const std::string& line, DifferentialConfig* out,
                     std::string* error);

/// Aggregation names the fuzzer draws from: every class the registry
/// provides whose results are deterministic under the harness's replay
/// contract (the full registry additionally has order-sensitive pseudo
/// aggregations like first/last that the oracle does not model).
const std::vector<std::string>& FuzzAggregationNames();

/// Outcome of one differential run across all applicable techniques.
struct DifferentialOutcome {
  bool ok = true;
  /// Human-readable description of the first divergence (technique pair,
  /// window instance, both values) or of a harness-level failure.
  std::string detail;
  /// Number of (technique, window instance) comparisons performed.
  size_t comparisons = 0;
};

/// Runs the config's stream through the general slicing operator (lazy and
/// eager stores; plus the in-order fast path when the arrival sequence is
/// sorted), the three baselines (tuple buffer, aggregate tree, buckets),
/// and the brute-force oracle, requiring identical final per-instance
/// aggregates everywhere. Aggregations whose partials are not exactly
/// representable (stddev, geometric-mean: order-dependent floating-point
/// merges) are compared with a small relative tolerance; everything else
/// must match bit-for-bit. Only a failed crash arm leaves files behind,
/// under CrashScratchParentName() in the temp directory.
DifferentialOutcome RunDifferential(const DifferentialConfig& cfg);

/// "scotty-crash-<pid>": this process's crash-arm scratch parent.
std::string CrashScratchParentName();

/// Derives a random-but-deterministic config from `seed`: 1–3 windows
/// across every kind, 1–2 aggregations across every class (distributive /
/// algebraic / holistic / non-commutative), and stream order/disorder/burst
/// parameters. `num_tuples` is taken verbatim so reproducers can shrink it
/// independently of the derivation.
DifferentialConfig RandomConfig(uint64_t seed, int num_tuples);

/// Shrinks a failing config: first the tuple count (bisection, regenerating
/// the stream each probe so the reproducer stays a pure (seed, n) pair),
/// then drops windows and aggregations that are not needed for the failure.
/// Returns the smallest still-failing config found.
DifferentialConfig Shrink(const DifferentialConfig& failing);

/// Generalized shrinker: same tuple-count bisection and window/aggregation
/// dropping as Shrink, but preserving an arbitrary predicate. `keeps` must
/// hold for `cfg` itself; every probe re-evaluates it, so the result is the
/// smallest config found for which `keeps` still holds. Shrink() is
/// ShrinkWhile with "still fails"; corpus minimization uses "still covers
/// the features that made the input interesting".
DifferentialConfig ShrinkWhile(
    const DifferentialConfig& cfg,
    const std::function<bool(const DifferentialConfig&)>& keeps);

}  // namespace testing
}  // namespace scotty

#endif  // SCOTTY_TESTING_DIFFERENTIAL_H_
