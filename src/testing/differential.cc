#include "testing/differential.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>

#include <unistd.h>

#include "aggregates/kernels.h"
#include "aggregates/registry.h"
#include "baselines/buckets.h"
#include "baselines/tuple_buffer.h"
#include "core/general_slicing_operator.h"
#include "query/query_def.h"
#include "query/query_registry.h"
#include "query/window_desc.h"
#include "runtime/keyed_operator.h"
#include "testing/coverage.h"
#include "testing/fault_injector.h"
#include "testing/harness.h"
#include "testing/oracle.h"

namespace scotty {
namespace testing {

namespace {

/// Lateness horizon far beyond any generated delay: no technique ever
/// drops or evicts state the oracle still accounts for.
constexpr Time kLateness = 1'000'000'000'000;

/// Aggregations whose partial merges are order-dependent floating point
/// (Chan's M2 combination, log-domain products): compared with tolerance
/// instead of bit equality.
bool IsApproxAgg(const std::string& name) {
  return name == "stddev" || name == "geometric-mean";
}

bool ValuesMatch(const Value& a, const Value& b, bool approx) {
  if (a == b) return true;
  if (!approx) return false;
  if (a.IsEmpty() || b.IsEmpty()) return false;
  const double x = a.Numeric();
  const double y = b.Numeric();
  if (std::isnan(x) && std::isnan(y)) return true;
  const double scale = std::max({1.0, std::fabs(x), std::fabs(y)});
  return std::fabs(x - y) <= 1e-6 * scale;
}

/// Key predicate that holds for no window: exact comparison as `approx`
/// (restore is bit-identical by contract), no exemption as `skip`.
constexpr auto kNoWindow = [](const auto&) { return false; };

/// Key predicate: the window's aggregation merges order-dependently.
auto ApproxFor(const std::vector<std::string>& aggs) {
  return [&aggs](const ResultKey& key) {
    return IsApproxAgg(aggs[static_cast<size_t>(std::get<1>(key))]);
  };
}

/// The fuzzer's one result comparison: every window of `want` (reported by
/// `ref`) must appear in `got` (reported by `run`) with a matching value,
/// and `got` may report no window `want` lacks. `approx(key)` selects
/// tolerant comparison, and `skip(key)` exempts a window's value from the
/// check (it still counts as a comparison). The first mismatch fails the
/// outcome with a description built by `describe(key)`.
template <typename Key, typename DescribeFn, typename ApproxFn,
          typename SkipFn>
bool CompareResults(const std::string& run, const std::string& ref,
                    const std::map<Key, Value>& got,
                    const std::map<Key, Value>& want,
                    const DescribeFn& describe, const ApproxFn& approx,
                    const SkipFn& skip, DifferentialOutcome* outcome) {
  std::ostringstream os;
  auto fail = [&] {
    outcome->ok = false;
    outcome->detail = os.str();
    return false;
  };
  for (const auto& [key, expected] : want) {
    ++outcome->comparisons;
    if (skip(key)) continue;
    const auto it = got.find(key);
    if (it == got.end()) {
      os << run << " is missing window " << describe(key) << " = "
         << expected << " reported by " << ref;
      return fail();
    }
    if (!ValuesMatch(expected, it->second, approx(key))) {
      os << run << " vs " << ref << " at " << describe(key) << ": "
         << it->second << " vs " << expected;
      return fail();
    }
  }
  for (const auto& [key, value] : got) {
    if (want.count(key)) continue;
    os << run << " reported extra window " << describe(key) << " = " << value
       << " absent from " << ref;
    return fail();
  }
  return true;
}

std::unique_ptr<GeneralSlicingOperator> MakeSlicing(
    const DifferentialConfig& cfg, StoreMode mode, bool in_order) {
  GeneralSlicingOperator::Options o;
  o.stream_in_order = in_order;
  o.allowed_lateness = kLateness;
  o.store_mode = mode;
  auto op = std::make_unique<GeneralSlicingOperator>(o);
  for (const std::string& agg : cfg.aggs) {
    op->AddAggregation(MakeAggregation(agg));
  }
  for (const WindowSpec& w : cfg.windows) op->AddWindow(w.Instantiate());
  return op;
}

template <typename Op, typename... Args>
std::unique_ptr<Op> MakeBaseline(const DifferentialConfig& cfg,
                                 Args... args) {
  auto op = std::make_unique<Op>(false, kLateness, args...);
  for (const std::string& agg : cfg.aggs) {
    op->AddAggregation(MakeAggregation(agg));
  }
  for (const WindowSpec& w : cfg.windows) op->AddWindow(w.Instantiate());
  return op;
}

/// Per-technique scratch directory for crash-recovery runs: unique per
/// process so parallel fuzz shards never collide, removed by the runner.
std::string CrashScratchDir(const std::string& technique) {
  return (std::filesystem::temp_directory_path() / CrashScratchParentName() /
          technique)
      .string();
}

std::string Describe(const ResultKey& key) {
  std::ostringstream os;
  os << "(w=" << std::get<0>(key) << ", a=" << std::get<1>(key) << ", ["
     << std::get<2>(key) << "," << std::get<3>(key) << "))";
  return os.str();
}

std::string DescribeKeyed(const KeyedResultKey& key) {
  std::ostringstream os;
  os << "(k=" << std::get<0>(key) << ", w=" << std::get<1>(key)
     << ", a=" << std::get<2>(key) << ", [" << std::get<3>(key) << ","
     << std::get<4>(key) << "))";
  return os.str();
}

uint64_t NameHash(const std::string& s) {
  return Fnv1a64(s.data(), s.size());
}

/// Semantic features of the config itself: the mutation engine's whole
/// search space, so guidance can tell apart regimes (sorted vs OOO, window
/// shapes, persistence dimensions) even before any operator runs.
void CoverConfigFeatures(const DifferentialConfig& cfg, bool sorted) {
  for (const WindowSpec& w : cfg.windows) {
    const uint64_t kind = (static_cast<uint64_t>(w.kind) << 1) |
                          (w.measure == Measure::kCount ? 1 : 0);
    CoverFeature(FeatureDomain::kWindowShape, kind,
                 Log2Bucket(static_cast<uint64_t>(w.length)) * 64 +
                     Log2Bucket(static_cast<uint64_t>(w.slide) + 1));
  }
  for (const std::string& a : cfg.aggs) {
    CoverFeature(FeatureDomain::kAggregation, NameHash(a));
  }
  const StreamSpec& s = cfg.stream;
  CoverFeature(FeatureDomain::kStreamShape, 0,
               (s.ooo_fraction > 0 ? 1u : 0u) |
                   (s.burst_probability > 0 ? 2u : 0u) |
                   (s.gap_probability > 0 ? 4u : 0u) |
                   (s.punctuation_probability > 0 ? 8u : 0u) |
                   (sorted ? 16u : 0u));
  CoverFeature(FeatureDomain::kStreamShape, 1,
               Log2Bucket(static_cast<uint64_t>(s.max_delay) + 1) * 64 +
                   Log2Bucket(
                       static_cast<uint64_t>(s.ooo_fraction * 100.0) + 1));
  CoverFeature(FeatureDomain::kDimension, 0,
               Log2Bucket(static_cast<uint64_t>(cfg.wm_every) + 1) * 64 +
                   Log2Bucket(static_cast<uint64_t>(cfg.batch) + 1));
  CoverFeature(FeatureDomain::kDimension, 1,
               (cfg.checkpoint != 0 ? 1u : 0u) | (cfg.crash != 0 ? 2u : 0u) |
                   (cfg.rescale != 0 ? 4u : 0u) |
                   (cfg.shared != 0 ? 8u : 0u) |
                   (cfg.overload != 0 ? 16u : 0u));
  CoverFeature(FeatureDomain::kDimension, 2,
               Log2Bucket(static_cast<uint64_t>(s.num_tuples)));
  simd::KernelMode km = simd::KernelMode::kAuto;
  (void)simd::ParseMode(cfg.kernel, &km);
  CoverFeature(FeatureDomain::kDimension, 3, static_cast<uint64_t>(km));
}

/// Per-technique features after a run: which window kinds the technique
/// actually exercised, and — for the slicing operator — the slice-chain
/// shape the stream drove it into (counts log2-bucketed, AFL style).
void CoverTechniqueRun(const std::string& tech, const DifferentialConfig& cfg,
                       const GeneralSlicingOperator* slicing) {
  const uint64_t t = NameHash(tech);
  for (const WindowSpec& w : cfg.windows) {
    CoverFeature(FeatureDomain::kTechniqueWindow, t,
                 static_cast<uint64_t>(w.kind));
  }
  if (slicing == nullptr) return;
  const OperatorStats& st = slicing->stats();
  if (slicing->time_store() != nullptr) {
    CoverFeature(FeatureDomain::kSliceCount, t,
                 Log2Bucket(slicing->time_store()->SlicesCreated()));
  }
  CoverFeature(FeatureDomain::kSliceChurn, t,
               Log2Bucket(st.slice_merges + 1) * 64 +
                   Log2Bucket(st.slice_splits + 1));
  CoverFeature(FeatureDomain::kSliceChurn, t ^ 1,
               Log2Bucket(st.slice_recomputes + 1) * 64 +
                   Log2Bucket(st.count_shifts + 1));
  CoverFeature(FeatureDomain::kTechniqueOutcome, t,
               Log2Bucket(st.windows_emitted + 1) * 64 +
                   Log2Bucket(st.window_updates_emitted + 1));
  CoverFeature(FeatureDomain::kStreamShape, t,
               Log2Bucket(st.out_of_order_tuples + 1) * 64 +
                   Log2Bucket(st.late_tuples + 1));
}

/// Crash/rescale recovery features: persistence mode × injected faults is
/// the fault-site matrix, and the recovery observables (fallback depth,
/// delta-chain length, barrier count) are exactly the rare-path state the
/// nightly random sweeps kept missing.
void CoverCrashRun(const std::string& tech, const FaultPlan& plan,
                   const CrashRunStats& stats, size_t num_tuples) {
  const uint64_t t = NameHash(tech);
  CoverFeature(FeatureDomain::kCrashSite, static_cast<uint64_t>(plan.mode),
               static_cast<uint64_t>(plan.fault) * 8 +
                   static_cast<uint64_t>(plan.delta_fault));
  if (num_tuples > 0) {
    // Crash position in eighths of the stream: early crashes (no barrier
    // yet) and late crashes (deep chains) recover differently.
    CoverFeature(FeatureDomain::kCrashSite,
                 64 + static_cast<uint64_t>(plan.mode),
                 plan.crash_index * 8 / num_tuples);
  }
  CoverFeature(FeatureDomain::kCrashRecovery, t,
               (stats.recovered_from_scratch ? 1u : 0u) |
                   (stats.fell_back ? 2u : 0u) |
                   (stats.delta_tail_rejected ? 4u : 0u));
  CoverFeature(FeatureDomain::kCrashRecovery, t ^ 1,
               Log2Bucket(stats.barriers + 1));
  CoverFeature(FeatureDomain::kDeltaChain, t,
               Log2Bucket(stats.deltas_applied + 1));
}

/// Seed-derived query mix for the shared-registry arm (--shared-queries):
/// the config's own query plus companion queries that duplicate its windows
/// (dedup planning path), use multiples of its tumbling lengths (windows
/// that add no slice edge), and add fresh context-free edges (shared path).
struct SharedPlan {
  std::vector<QueryDef> defs;  // defs[0] is the config's own query
  bool dynamics = false;       // mid-stream deregister + register
  size_t flip_at = 0;          // tuple index of the membership change
  QueryDef late_def;           // context-free query registered at flip_at
};

SharedPlan DeriveSharedPlan(const DifferentialConfig& cfg,
                            size_t num_tuples) {
  Rng rng(cfg.stream.seed ^ 0x5153484152454451ULL);
  SharedPlan plan;
  QueryDef q0;
  for (const WindowSpec& w : cfg.windows) q0.windows.push_back(w.ToString());
  q0.aggs = cfg.aggs;
  plan.defs.push_back(q0);

  // Tumbling lengths a companion window's length and slide can be multiples
  // of, so that every one of its edges is already one of the config's.
  std::vector<Time> bases;
  for (const WindowSpec& w : cfg.windows) {
    if (w.kind == WindowSpec::Kind::kTumbling &&
        w.measure == Measure::kEventTime) {
      bases.push_back(w.length);
    }
  }
  auto fresh_window = [&rng] {
    WindowSpec w;
    if (rng.NextBounded(2) == 0) {
      w.kind = WindowSpec::Kind::kTumbling;
      w.length = 5 + static_cast<Time>(rng.NextBounded(56));
    } else {
      w.kind = WindowSpec::Kind::kSliding;
      w.length = 8 + static_cast<Time>(rng.NextBounded(73));
      w.slide = 1 + static_cast<Time>(
                        rng.NextBounded(static_cast<uint64_t>(w.length)));
    }
    return w;
  };
  auto derived_window = [&rng, &bases] {
    const Time g = bases[rng.NextBounded(bases.size())];
    WindowSpec w;
    if (rng.NextBounded(2) == 0) {
      w.kind = WindowSpec::Kind::kTumbling;
      w.length = g * (2 + static_cast<Time>(rng.NextBounded(3)));
    } else {
      w.kind = WindowSpec::Kind::kSliding;
      w.slide = g * (1 + static_cast<Time>(rng.NextBounded(3)));
      w.length = w.slide * (1 + static_cast<Time>(rng.NextBounded(3)));
    }
    return w;
  };

  // A fixed companion count (> 0) stays bounded so hostile corpus lines
  // cannot turn one exec into hundreds of solo oracle runs.
  const size_t extras = cfg.shared > 0
                            ? std::min<size_t>(static_cast<size_t>(cfg.shared),
                                               16)
                            : 1 + rng.NextBounded(2);
  for (size_t e = 0; e < extras; ++e) {
    QueryDef def;
    const size_t nw = 1 + rng.NextBounded(2);
    for (size_t k = 0; k < nw; ++k) {
      switch (rng.NextBounded(3)) {
        case 0:  // dedup: one of the config's own windows verbatim
          def.windows.push_back(
              cfg.windows[rng.NextBounded(cfg.windows.size())].ToString());
          break;
        case 1:  // edges that are multiples of a live tumbling length
          if (!bases.empty()) {
            def.windows.push_back(derived_window().ToString());
            break;
          }
          [[fallthrough]];
        default:  // shared: fresh context-free edges
          def.windows.push_back(fresh_window().ToString());
          break;
      }
    }
    def.aggs.push_back(cfg.aggs[rng.NextBounded(cfg.aggs.size())]);
    if (rng.NextBounded(3) == 0) {
      // Occasionally a measure the base config does not compute, so the
      // engine's store grows a column only this companion reads.
      const std::vector<std::string>& names = FuzzAggregationNames();
      const std::string& pick = names[rng.NextBounded(names.size())];
      if (pick != def.aggs[0]) def.aggs.push_back(pick);
    }
    plan.defs.push_back(def);
  }

  if (cfg.shared < 0 && num_tuples >= 16) {
    plan.dynamics = true;
    plan.flip_at = num_tuples / 3 + rng.NextBounded(num_tuples / 3 + 1);
    QueryDef late;
    late.windows.push_back((!bases.empty() && rng.NextBounded(2) == 0
                                ? derived_window()
                                : fresh_window())
                               .ToString());
    // Mid-stream registrations cannot grow new store columns: reuse a
    // measure the config's own query already registered.
    late.aggs.push_back(cfg.aggs[rng.NextBounded(cfg.aggs.size())]);
    plan.late_def = late;
  }
  return plan;
}

/// Per-query oracle for the shared arm: a fresh single-query slicing
/// operator over the same stream and watermark cadence.
bool SoloQueryResults(const QueryDef& def, const std::vector<Tuple>& stream,
                      Time final_wm, int wm_every, Time wm_lag,
                      std::map<ResultKey, Value>* out, std::string* err) {
  GeneralSlicingOperator::Options o;
  o.allowed_lateness = kLateness;
  auto op = std::make_unique<GeneralSlicingOperator>(o);
  for (const std::string& name : def.aggs) {
    auto agg = MakeAggregation(name);
    if (agg == nullptr) {
      *err = "unknown aggregation '" + name + "'";
      return false;
    }
    op->AddAggregation(std::move(agg));
  }
  for (const std::string& text : def.windows) {
    WindowDesc d;
    if (!WindowDesc::Parse(text, &d)) {
      *err = "unparseable window '" + text + "'";
      return false;
    }
    op->AddWindow(d.Instantiate());
  }
  *out = RunToFinalResults(*op, stream, final_wm, wm_every, wm_lag);
  return true;
}

/// One registry variant over the whole stream: registers every plan query,
/// applies the plan's mid-stream dynamics, and compares each live query's
/// final results against its solo run. The deregistered query is checked
/// for silence only — its early drains may hold values a later late update
/// would have revised, so they have no final-results oracle.
bool RunSharedRegistryOnce(
    const SharedPlan& plan,
    const std::vector<std::map<ResultKey, Value>>& expected,
    const std::map<ResultKey, Value>& late_expected,
    const DifferentialConfig& cfg, const std::vector<Tuple>& stream,
    Time final_wm, Time wm_lag, StoreMode mode, bool in_order,
    DifferentialOutcome* outcome) {
  const std::string name =
      std::string("shared-registry-") +
      (in_order ? "inorder" : mode == StoreMode::kEager ? "eager" : "lazy");
  auto fail = [&](const std::string& msg) {
    outcome->ok = false;
    outcome->detail = name + ": " + msg;
    return false;
  };

  QueryRegistry::Options ropts;
  ropts.engine.allowed_lateness = kLateness;
  ropts.engine.store_mode = mode;
  ropts.engine.stream_in_order = in_order;
  QueryRegistry reg(ropts);

  std::vector<QueryRegistry::QueryId> ids;
  for (const QueryDef& def : plan.defs) {
    std::string err;
    const QueryRegistry::QueryId id = reg.Register(def, &err);
    if (id == QueryRegistry::kInvalidQuery) {
      return fail("registration rejected: " + err);
    }
    ids.push_back(id);
  }
  // Plan-shape coverage: which planning paths (shared / dedup) this
  // config's query mix actually drove the registry into.
  for (const QueryRegistry::QueryId id : ids) {
    for (const QueryRegistry::PlanKind pk : reg.Plan(id).windows) {
      CoverFeature(FeatureDomain::kTechniqueWindow,
                   NameHash("shared-registry"),
                   16 + static_cast<uint64_t>(pk));
    }
  }

  const size_t dropped = plan.defs.size() - 1;  // dynamics target
  std::vector<size_t> live;
  for (size_t i = 0; i < plan.defs.size(); ++i) live.push_back(i);
  QueryRegistry::QueryId late_id = QueryRegistry::kInvalidQuery;
  Time late_horizon = kNoTime;
  std::vector<std::map<ResultKey, Value>> got(plan.defs.size());
  std::map<ResultKey, Value> late_got;
  auto drain = [&] {
    for (const size_t qi : live) {
      for (const WindowResult& r : reg.TakeQueryResults(ids[qi])) {
        got[qi][{r.window_id, r.agg_id, r.start, r.end}] = r.value;
      }
    }
    if (late_id != QueryRegistry::kInvalidQuery) {
      for (const WindowResult& r : reg.TakeQueryResults(late_id)) {
        late_got[{r.window_id, r.agg_id, r.start, r.end}] = r.value;
      }
    }
  };

  state::CheckpointMetadata at;
  auto ingest = [&](const Tuple& t) { reg.ProcessTuple(t); };
  auto on_watermark = [&](Time wm, const state::CheckpointMetadata&) {
    reg.ProcessWatermark(wm);
    drain();
  };
  if (plan.dynamics) {
    Replay(stream, plan.flip_at, cfg.wm_every, wm_lag, &at, ingest,
           on_watermark);
    drain();
    if (!reg.Deregister(ids[dropped])) return fail("deregister refused");
    live.erase(std::find(live.begin(), live.end(), dropped));
    std::string err;
    late_id = reg.Register(plan.late_def, &err);
    if (late_id == QueryRegistry::kInvalidQuery) {
      return fail("mid-stream registration rejected: " + err);
    }
    late_horizon = reg.Plan(late_id).horizon;
  }
  Replay(stream, stream.size(), cfg.wm_every, wm_lag, &at, ingest,
         on_watermark);
  reg.ProcessWatermark(final_wm);
  drain();

  const std::string solo = "its solo run";
  for (const size_t qi : live) {
    if (!CompareResults(name + " query#" + std::to_string(qi), solo, got[qi],
                        expected[qi], Describe, ApproxFor(plan.defs[qi].aggs),
                        kNoWindow, outcome)) {
      return false;
    }
  }
  if (plan.dynamics) {
    if (reg.Plan(ids[dropped]).alive) {
      return fail("deregistered query still reports alive");
    }
    if (!reg.TakeQueryResults(ids[dropped]).empty()) {
      return fail("deregistered query still yields results");
    }
    // The mid-stream query sees only windows at or past its horizon; the
    // solo run (which saw everything) is filtered to the same set.
    std::map<ResultKey, Value> want;
    for (const auto& [key, value] : late_expected) {
      if (std::get<2>(key) >= late_horizon) want[key] = value;
    }
    if (!CompareResults(name + " (mid-stream) query#" +
                            std::to_string(plan.defs.size()),
                        solo, late_got, want, Describe,
                        ApproxFor(plan.late_def.aggs), kNoWindow, outcome)) {
      return false;
    }
  }
  return true;
}

/// The shared-registry arm: one QueryRegistry serves the config's query
/// plus seed-derived companions from a single slice stream; every query
/// must reproduce its own solo slicing run. Variants mirror the solo
/// technique matrix (lazy / eager stores, in-order fast path on sorted
/// streams).
bool CheckSharedQueries(const DifferentialConfig& cfg,
                        const std::vector<Tuple>& stream, bool sorted,
                        Time final_wm, Time wm_lag,
                        DifferentialOutcome* outcome) {
  const SharedPlan plan = DeriveSharedPlan(cfg, stream.size());
  std::vector<std::map<ResultKey, Value>> expected(plan.defs.size());
  for (size_t i = 0; i < plan.defs.size(); ++i) {
    if (plan.dynamics && i == plan.defs.size() - 1) continue;  // deregistered
    std::string err;
    if (!SoloQueryResults(plan.defs[i], stream, final_wm, cfg.wm_every,
                          wm_lag, &expected[i], &err)) {
      outcome->ok = false;
      outcome->detail =
          "shared-registry solo query#" + std::to_string(i) + ": " + err;
      return false;
    }
  }
  std::map<ResultKey, Value> late_expected;
  if (plan.dynamics) {
    std::string err;
    if (!SoloQueryResults(plan.late_def, stream, final_wm, cfg.wm_every,
                          wm_lag, &late_expected, &err)) {
      outcome->ok = false;
      outcome->detail = std::string("shared-registry solo mid-stream: ") + err;
      return false;
    }
  }
  CoverFeature(FeatureDomain::kDimension, 4,
               (plan.dynamics ? 16u : 0u) | plan.defs.size());
  return RunSharedRegistryOnce(plan, expected, late_expected, cfg, stream,
                               final_wm, wm_lag, StoreMode::kLazy, false,
                               outcome) &&
         RunSharedRegistryOnce(plan, expected, late_expected, cfg, stream,
                               final_wm, wm_lag, StoreMode::kEager, false,
                               outcome) &&
         (!sorted ||
          RunSharedRegistryOnce(plan, expected, late_expected, cfg, stream,
                                final_wm, wm_lag, StoreMode::kLazy, true,
                                outcome));
}

/// The overload-resilience arm (--overload): the config's deterministic-edge
/// time windows run through RunOverloadedToFinalResults' backpressure-
/// controlled executor under a seed-derived consumer stall plus persistence
/// faults, and delivered results ∪ shed-marked windows must exactly
/// partition the unfaulted run — windows without shed overlap bit-identical,
/// overlapped windows free to differ or be absent, nothing delivered the
/// unfaulted run did not produce. The shed set is timing-dependent, but the
/// check holds for ANY shed set, so replays stay meaningful everywhere.
bool CheckOverload(const DifferentialConfig& cfg,
                   const std::vector<Tuple>& stream, Time final_wm,
                   Time wm_lag, DifferentialOutcome* outcome) {
  // Only tumbling/sliding event-time windows have edges independent of
  // which tuples were shed; count/session/frame/punctuation edges move with
  // the data, so per-window shed accounting is undefined for them. Configs
  // without any eligible window get a synthesized tumbling one.
  std::vector<WindowSpec> windows;
  for (const WindowSpec& w : cfg.windows) {
    if (w.measure == Measure::kEventTime &&
        (w.kind == WindowSpec::Kind::kTumbling ||
         w.kind == WindowSpec::Kind::kSliding)) {
      windows.push_back(w);
    }
  }
  if (windows.empty()) {
    WindowSpec w;
    w.kind = WindowSpec::Kind::kTumbling;
    w.length = 40;
    windows.push_back(w);
  }
  auto factory = [&]() -> std::unique_ptr<WindowOperator> {
    GeneralSlicingOperator::Options o;
    o.allowed_lateness = kLateness;
    auto op = std::make_unique<GeneralSlicingOperator>(o);
    for (const std::string& agg : cfg.aggs) {
      op->AddAggregation(MakeAggregation(agg));
    }
    for (const WindowSpec& w : windows) op->AddWindow(w.Instantiate());
    return op;
  };

  // Unfaulted reference under the identical watermark cadence — the
  // overloaded run counts shed tuples toward the cadence, so its trigger
  // edges line up with this run's no matter what gets dropped. A config
  // with only the final watermark gets a periodic cadence instead: barriers
  // are what put the persistence ladder under test.
  const int wm_every = cfg.wm_every > 0 ? cfg.wm_every : 32;
  std::map<ResultKey, Value> want;
  {
    auto op = factory();
    want = RunToFinalResults(*op, stream, final_wm, wm_every, wm_lag);
  }

  const OverloadPlan plan =
      MakeOverloadPlan(cfg.stream.seed ^ 0x4F56455245444C44ULL,
                       stream.size());
  std::map<ResultKey, Value> delivered;
  ShedLedger ledger;
  OverloadRunStats stats;
  std::string err;
  if (!RunOverloadedToFinalResults(factory, stream, final_wm, wm_every,
                                   wm_lag, plan, CrashScratchDir("overload"),
                                   &delivered, &ledger, &err, &stats)) {
    outcome->ok = false;
    outcome->detail = "overloaded run: " + err;
    return false;
  }

  // Shed-marked windows are exempt (their values are unconstrained) but
  // still count as comparisons.
  if (!CompareResults(
          "overloaded run", "the unfaulted run", delivered, want, Describe,
          ApproxFor(cfg.aggs),
          [&ledger](const ResultKey& key) {
            return ledger.OverlapsWindow(std::get<2>(key), std::get<3>(key));
          },
          outcome)) {
    return false;
  }

  // Overload observables: shed volume, admission pressure, and how far the
  // persistence ladder moved — exactly the rare-path state this dimension
  // exists to reach.
  CoverFeature(FeatureDomain::kDimension, 5,
               Log2Bucket(stats.admission.shed + 1) * 64 +
                   Log2Bucket(stats.admission.backpressure_waits + 1));
  const uint64_t ladder = (stats.health.mode_fallbacks > 0 ? 1u : 0u) |
                          (stats.health.mode_promotions > 0 ? 2u : 0u) |
                          (stats.health.alarm ? 4u : 0u) |
                          (ledger.empty() ? 0u : 8u);
  CoverFeature(FeatureDomain::kDimension, 6,
               static_cast<uint64_t>(stats.health.mode) * 16 + ladder);
  return true;
}

}  // namespace

std::string DifferentialConfig::ToFlags() const {
  const StreamSpec def;
  std::ostringstream os;
  os << "--seed=" << stream.seed << " --tuples=" << stream.num_tuples
     << " --queries=" << WindowSpecsToString(windows) << " --aggs=";
  for (size_t i = 0; i < aggs.size(); ++i) {
    if (i > 0) os << ",";
    os << aggs[i];
  }
  auto flag = [&os](const char* name, auto value, auto defval) {
    if (value != defval) os << " --" << name << "=" << value;
  };
  flag("step-lo", stream.step_lo, def.step_lo);
  flag("step-hi", stream.step_hi, def.step_hi);
  flag("gap-prob", stream.gap_probability, def.gap_probability);
  flag("gap-len", stream.gap_length, def.gap_length);
  flag("value-range", stream.value_range, def.value_range);
  flag("punct-prob", stream.punctuation_probability,
       def.punctuation_probability);
  flag("ooo", stream.ooo_fraction, def.ooo_fraction);
  flag("max-delay", stream.max_delay, def.max_delay);
  flag("burst-prob", stream.burst_probability, def.burst_probability);
  flag("burst-len", stream.burst_length, def.burst_length);
  flag("wm-every", wm_every, 0);
  flag("batch", batch, 0);
  flag("checkpoint", checkpoint, 0);
  flag("crash", crash, 0);
  flag("rescale", rescale, 0);
  flag("shared-queries", shared, 0);
  flag("overload", overload, 0);
  flag("kernel", kernel, std::string("auto"));
  return os.str();
}

const std::vector<std::string>& FuzzAggregationNames() {
  // Every aggregate class: distributive (sum/min/max), algebraic
  // (avg/stddev/m4), holistic (median/p90), non-commutative (concat),
  // non-invertible (sum-no-invert), arg/multiplicity trackers. The
  // registry's order-sensitive pseudo aggregations (first/last) are
  // deliberately absent: the oracle does not model arrival order.
  static const std::vector<std::string> kNames = {
      "sum",     "count",     "avg",       "min",
      "max",     "median",    "p90",       "m4",
      "arg-max", "arg-min",   "min-count", "max-count",
      "stddev",  "sum-no-invert", "concat", "geometric-mean"};
  return kNames;
}

bool ParseConfigLine(const std::string& line, DifferentialConfig* out,
                     std::string* error) {
  auto fail = [error](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  DifferentialConfig cfg;
  bool saw_any = false;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) {
    if (tok[0] == '#') break;  // comment runs to end of line
    if (tok.rfind("--", 0) != 0) {
      // Tolerate a leading program token so a pasted reproducer line
      // ("fuzz_differential --seed=... ...") parses as-is.
      if (!saw_any && tok.find('=') == std::string::npos) continue;
      return fail("expected --key=value, got '" + tok + "'");
    }
    const size_t eq = tok.find('=');
    if (eq == std::string::npos) {
      return fail("flag '" + tok + "' is missing '='");
    }
    const std::string key = tok.substr(2, eq - 2);
    const std::string val = tok.substr(eq + 1);
    saw_any = true;
    auto parse_i64 = [&](int64_t* dst) {
      size_t used = 0;
      try {
        *dst = std::stoll(val, &used);
      } catch (...) {
        return false;
      }
      return used == val.size();
    };
    auto parse_f64 = [&](double* dst) {
      size_t used = 0;
      try {
        *dst = std::stod(val, &used);
      } catch (...) {
        return false;
      }
      return used == val.size();
    };
    int64_t i = 0;
    double d = 0;
    if (key == "seed") {
      try {
        cfg.stream.seed = std::stoull(val);
      } catch (...) {
        return fail("bad --seed=" + val);
      }
    } else if (key == "queries") {
      if (!ParseWindowSpecs(val, &cfg.windows)) {
        return fail("bad --queries=" + val);
      }
    } else if (key == "aggs") {
      cfg.aggs.clear();
      std::istringstream as(val);
      std::string name;
      while (std::getline(as, name, ',')) {
        if (name.empty()) continue;
        if (MakeAggregation(name) == nullptr) {
          return fail("unknown aggregation '" + name + "'");
        }
        cfg.aggs.push_back(name);
      }
      if (cfg.aggs.empty()) return fail("empty --aggs");
    } else if (key == "tuples" && parse_i64(&i) && i >= 0) {
      cfg.stream.num_tuples = static_cast<int>(i);
    } else if (key == "step-lo" && parse_i64(&i) && i >= 0) {
      cfg.stream.step_lo = i;
    } else if (key == "step-hi" && parse_i64(&i) && i >= 0) {
      cfg.stream.step_hi = i;
    } else if (key == "gap-prob" && parse_f64(&d) && d >= 0 && d <= 1) {
      cfg.stream.gap_probability = d;
    } else if (key == "gap-len" && parse_i64(&i) && i >= 0) {
      cfg.stream.gap_length = i;
    } else if (key == "value-range" && parse_i64(&i) && i > 0) {
      cfg.stream.value_range = static_cast<uint64_t>(i);
    } else if (key == "punct-prob" && parse_f64(&d) && d >= 0 && d <= 1) {
      cfg.stream.punctuation_probability = d;
    } else if (key == "ooo" && parse_f64(&d) && d >= 0 && d <= 1) {
      cfg.stream.ooo_fraction = d;
    } else if (key == "max-delay" && parse_i64(&i) && i >= 0) {
      cfg.stream.max_delay = i;
    } else if (key == "burst-prob" && parse_f64(&d) && d >= 0 && d <= 1) {
      cfg.stream.burst_probability = d;
    } else if (key == "burst-len" && parse_i64(&i) && i > 0) {
      cfg.stream.burst_length = static_cast<int>(i);
    } else if (key == "wm-every" && parse_i64(&i) && i >= 0) {
      cfg.wm_every = static_cast<int>(i);
    } else if (key == "batch" && parse_i64(&i) && i >= 0) {
      cfg.batch = static_cast<int>(i);
    } else if (key == "checkpoint" && parse_i64(&i) && i >= -1) {
      cfg.checkpoint = static_cast<int>(i);
    } else if (key == "crash" && parse_i64(&i) && i >= -1) {
      cfg.crash = static_cast<int>(i);
    } else if (key == "rescale" && parse_i64(&i) && i >= -1) {
      cfg.rescale = static_cast<int>(i);
    } else if (key == "shared-queries" && parse_i64(&i) && i >= -1) {
      cfg.shared = static_cast<int>(i);
    } else if (key == "overload" && parse_i64(&i) && i >= -1) {
      cfg.overload = static_cast<int>(i);
    } else if (key == "kernel") {
      simd::KernelMode km;
      if (!simd::ParseMode(val, &km)) return fail("bad --kernel=" + val);
      cfg.kernel = val;
    } else {
      return fail("bad flag '" + tok + "'");
    }
  }
  if (!saw_any) return fail("no flags on line");
  if (cfg.windows.empty()) return fail("line has no --queries");
  if (cfg.aggs.empty()) return fail("line has no --aggs");
  if (cfg.stream.step_hi < cfg.stream.step_lo) {
    return fail("--step-hi below --step-lo");
  }
  *out = cfg;
  return true;
}

std::string CrashScratchParentName() {
  return "scotty-crash-" + std::to_string(static_cast<long>(::getpid()));
}

DifferentialOutcome RunDifferential(const DifferentialConfig& cfg) {
  // Each crash arm removes its own scratch directory when it passes; their
  // per-process parent goes too once it is empty. A failed arm keeps its
  // files, and with them the parent.
  struct RemoveEmptyScratchParent {
    ~RemoveEmptyScratchParent() {
      namespace fs = std::filesystem;
      std::error_code ec;
      const fs::path tmp = fs::temp_directory_path(ec);
      if (!ec) fs::remove(tmp / CrashScratchParentName(), ec);
    }
  } remove_empty_scratch_parent;
  DifferentialOutcome outcome;
  const std::vector<Tuple> stream = GenerateStream(cfg.stream);
  if (stream.empty() || cfg.windows.empty() || cfg.aggs.empty()) {
    return outcome;
  }

  // In-order fast-path eligibility: sorted arrival. Same-timestamp
  // punctuation behind a data tuple is fine now — under the FCF no-storage
  // optimization (paper Fig. 5) the store tracks a side partial for the
  // last timestamp of each slice, so a retroactive punctuation edge at
  // t == t_last splits exactly without tuple retention.
  Time last_ts = 0;
  bool sorted = true;
  for (size_t i = 0; i < stream.size(); ++i) {
    const Tuple& t = stream[i];
    last_ts = std::max(last_ts, t.ts);
    if (i > 0 && t.ts < stream[i - 1].ts) sorted = false;
  }
  Time session_slack = 0;
  for (const WindowSpec& w : cfg.windows) {
    if (w.kind == WindowSpec::Kind::kSession) {
      session_slack = std::max(session_slack, w.length);
    }
  }
  const Time final_wm = last_ts + session_slack + 100;
  const Time wm_lag = cfg.stream.MaxLateness() + 1;

  bool has_punct_window = false;
  bool has_lastn_window = false;
  bool has_frames_window = false;
  for (const WindowSpec& w : cfg.windows) {
    has_punct_window |= w.kind == WindowSpec::Kind::kPunctuation;
    has_lastn_window |= w.kind == WindowSpec::Kind::kLastNEveryT;
    has_frames_window |= w.kind == WindowSpec::Kind::kThresholdFrame;
  }

  // Feed the guided fuzzer's semantic coverage map (a no-op signal-wise
  // unless a driver brackets this call with CoverageMap Begin/EndRun).
  CoverConfigFeatures(cfg, sorted);

  struct Run {
    std::string name;
    std::map<ResultKey, Value> results;
  };
  std::vector<Run> runs;

  // Checkpointed twins: each technique is re-run with a
  // snapshot / teardown / restore cycle at tuple index `ckpt_at` and must
  // reproduce its own uninterrupted results EXACTLY — restore is
  // bit-identical by contract, so even the order-dependent floating-point
  // aggregations (stddev, geometric-mean) may not drift by one ulp.
  size_t ckpt_at = 0;
  if (cfg.checkpoint > 0) {
    ckpt_at = static_cast<size_t>(cfg.checkpoint);
  } else if (cfg.checkpoint < 0) {
    // --checkpoint=-1: a seed-derived mid-stream index, so sweep drivers can
    // force checkpointing across many seeds without fixing one cut point.
    const uint64_t h = (cfg.stream.seed + 1) * 0x9E3779B97F4A7C15ULL;
    ckpt_at = 1 + static_cast<size_t>((h >> 33) % stream.size());
  }
  auto check_ckpt = [&](const std::string& name, const auto& factory,
                        const std::map<ResultKey, Value>& expected) {
    if (cfg.checkpoint == 0) return true;
    std::map<ResultKey, Value> got;
    std::string err;
    if (!RunToFinalResultsCheckpointed(factory, stream, final_wm, cfg.wm_every,
                                       wm_lag, ckpt_at, &got, &err)) {
      outcome.ok = false;
      outcome.detail = name + "-checkpointed: " + err;
      return false;
    }
    return CompareResults(name + "-checkpointed", name, got, expected,
                          Describe, kNoWindow, kNoWindow, &outcome);
  };

  // Crash-recovered twins: kill the run mid-stream, possibly damage the
  // newest snapshot file, recover, replay — the merged downstream view must
  // equal the unfaulted run exactly (same bit-identical-restore argument as
  // the checkpointed twins). The fault plan is derived from the stream seed
  // so a (seed, crash) pair replays the identical damage; --crash=N only
  // overrides the kill point.
  FaultPlan crash_plan;
  if (cfg.crash != 0) {
    crash_plan = MakeFaultPlan(cfg.stream.seed ^ 0xC2B2AE3D27D4EB4FULL,
                               stream.size());
    if (cfg.crash > 0) {
      crash_plan.crash_index = std::min<uint64_t>(
          static_cast<uint64_t>(cfg.crash), stream.size());
    }
  }
  auto check_crash = [&](const std::string& name, const auto& factory,
                         const std::map<ResultKey, Value>& expected) {
    if (cfg.crash == 0) return true;
    std::map<ResultKey, Value> got;
    std::string err;
    CrashRunStats crash_stats;
    if (!RunToFinalResultsCrashRecovered(factory, stream, final_wm,
                                         cfg.wm_every, wm_lag, crash_plan,
                                         CrashScratchDir(name), &got, &err,
                                         &crash_stats)) {
      outcome.ok = false;
      outcome.detail = name + "-crashed: " + err;
      return false;
    }
    CoverCrashRun(name, crash_plan, crash_stats, stream.size());
    return CompareResults(name + "-crashed", name, got, expected, Describe,
                          kNoWindow, kNoWindow, &outcome);
  };
  // Both persistence twins (snapshot/restore cycle, crash/recover cycle)
  // for one technique, sharing its uninterrupted results as the oracle.
  auto check_persist = [&](const std::string& name, const auto& factory,
                           const std::map<ResultKey, Value>& expected) {
    return check_ckpt(name, factory, expected) &&
           check_crash(name, factory, expected);
  };

  // Rescaling crash twin: a keyed copy of the stream runs on a
  // PartitionedOperator of W keyed partitions, crashes, and recovers onto
  // W' != W partitions by re-partitioning per-key state out of the base and
  // its delta chain. The reference is one keyed operator over the whole
  // stream — keys never interact and watermarks are broadcast, so any
  // partitioning must reproduce it exactly (restore and re-partitioning
  // move serialized per-key state verbatim). The reference itself is first
  // checked against the brute-force oracle run per key.
  if (cfg.rescale != 0) {
    const uint64_t h =
        (cfg.stream.seed ^ 0xA0761D6478BD642FULL) * 0x9E3779B97F4A7C15ULL;
    const int64_t nkeys = 2 + static_cast<int64_t>((h >> 40) % 7);  // 2..8
    std::vector<Tuple> keyed = stream;
    for (size_t i = 0; i < keyed.size(); ++i) {
      keyed[i].key = static_cast<int64_t>(
          (i * 0x9E3779B97F4A7C15ULL >> 33) % static_cast<uint64_t>(nkeys));
    }
    const size_t from = 1 + static_cast<size_t>((h >> 20) % 4);  // 1..4
    size_t to = 1 + static_cast<size_t>((h >> 10) % 4);
    if (to == from) to = from % 4 + 1;  // force an actual topology change
    FaultPlan plan = MakeFaultPlan(cfg.stream.seed ^ 0x8B72E7F4F9A1C3D5ULL,
                                   stream.size());
    if (cfg.rescale > 0) {
      plan.crash_index = std::min<uint64_t>(
          static_cast<uint64_t>(cfg.rescale), stream.size());
    }
    auto keyed_factory = [&cfg]() -> std::unique_ptr<WindowOperator> {
      return std::make_unique<KeyedWindowOperator>(
          [&cfg] { return MakeSlicing(cfg, StoreMode::kLazy, false); });
    };
    std::map<KeyedResultKey, Value> expected;
    std::map<KeyedResultKey, Value> got;
    std::string err;
    CrashRunStats rescale_stats;
    if (!RunKeyedToFinalResults(keyed_factory, keyed, final_wm, cfg.wm_every,
                                wm_lag, &expected, &err)) {
      outcome.ok = false;
      outcome.detail = "keyed reference: " + err;
      return outcome;
    }
    // Which keyed lane the query set takes: shared slices or per-key
    // operators.
    const KeyedWindowOperator lane_probe(
        [&cfg] { return MakeSlicing(cfg, StoreMode::kLazy, false); });
    CoverFeature(FeatureDomain::kDimension, 4,
                 lane_probe.shares_slices() ? 1u : 0u);
    // Whether the shared lane's trigger answers the instances straddling a
    // watermark's earliest due end from shared suffix and prefix passes:
    // it does when every aggregation regroups exactly.
    const bool shared_fold =
        lane_probe.shares_slices() &&
        std::all_of(cfg.aggs.begin(), cfg.aggs.end(),
                    [](const std::string& a) {
                      return MakeAggregation(a)->RegroupsExactly();
                    });
    CoverFeature(FeatureDomain::kDimension, 7, shared_fold ? 1u : 0u);
    // The harness feed loop stamps each tuple's seq with its arrival index,
    // as the operators saw it. Per key, the oracle starts where the key's
    // own operator does: at its first tuple, or at the watermark before it
    // if one came first.
    std::map<int64_t, std::vector<Tuple>> by_key;
    std::map<int64_t, Time> first_cut;
    Time wm_seen = kNoTime;
    state::CheckpointMetadata at;
    Replay(
        keyed, keyed.size(), cfg.wm_every, wm_lag, &at,
        [&](const Tuple& t) {
          by_key[t.key].push_back(t);
          first_cut.emplace(t.key, wm_seen == kNoTime ? t.ts : wm_seen + 1);
        },
        [&](Time wm, const state::CheckpointMetadata&) {
          wm_seen = std::max(wm_seen, wm);
        });
    // Window instances are defined on non-negative time: one ending at or
    // below 0, which a key first seen after a watermark below zero reports,
    // has no oracle counterpart.
    std::map<KeyedResultKey, Value> oracle;
    for (const auto& [key, tuples] : by_key) {
      for (const auto& [rk, value] : OracleResults(
               cfg.windows, cfg.aggs, tuples, final_wm, first_cut[key])) {
        if (std::get<3>(rk) <= 0) continue;
        oracle[{key, std::get<0>(rk), std::get<1>(rk), std::get<2>(rk),
                std::get<3>(rk)}] = value;
      }
    }
    std::map<KeyedResultKey, Value> keyed_defined;
    for (const auto& [rk, value] : expected) {
      if (std::get<4>(rk) > 0) keyed_defined.emplace(rk, value);
    }
    const auto approx_keyed = [&cfg](const KeyedResultKey& key) {
      return IsApproxAgg(cfg.aggs[static_cast<size_t>(std::get<2>(key))]);
    };
    if (!CompareResults("keyed", "oracle", keyed_defined, oracle,
                        DescribeKeyed, approx_keyed, kNoWindow, &outcome)) {
      return outcome;
    }
    if (!RunKeyedRescaleCrashRecovered(keyed_factory, keyed, final_wm,
                                       cfg.wm_every, wm_lag, plan,
                                       CrashScratchDir("keyed-rescale"), from,
                                       to, &got, &err, &rescale_stats)) {
      outcome.ok = false;
      outcome.detail = "keyed-rescaled (" + std::to_string(from) + "->" +
                       std::to_string(to) + " workers): " + err;
      return outcome;
    }
    CoverFeature(FeatureDomain::kRescaleTopology, from, to);
    CoverCrashRun("keyed-rescale", plan, rescale_stats, stream.size());
    if (!CompareResults("keyed-rescaled (" + std::to_string(from) + "->" +
                            std::to_string(to) + " workers)",
                        "keyed", got, expected, DescribeKeyed, kNoWindow,
                        kNoWindow, &outcome)) {
      return outcome;
    }
  }

  auto lazy = MakeSlicing(cfg, StoreMode::kLazy, false);
  runs.push_back({"slicing-lazy", RunToFinalResults(*lazy, stream, final_wm,
                                                    cfg.wm_every, wm_lag)});
  CoverTechniqueRun("slicing-lazy", cfg, lazy.get());
  if (lazy->stats().dropped_tuples != 0) {
    outcome.ok = false;
    outcome.detail =
        "harness: watermark lag dropped tuples; MaxLateness() bound violated";
    return outcome;
  }
  if (!check_persist("slicing-lazy",
                  [&] { return MakeSlicing(cfg, StoreMode::kLazy, false); },
                  runs.back().results)) {
    return outcome;
  }

  auto eager = MakeSlicing(cfg, StoreMode::kEager, false);
  runs.push_back({"slicing-eager", RunToFinalResults(*eager, stream, final_wm,
                                                     cfg.wm_every, wm_lag)});
  CoverTechniqueRun("slicing-eager", cfg, eager.get());
  if (!check_persist("slicing-eager",
                  [&] { return MakeSlicing(cfg, StoreMode::kEager, false); },
                  runs.back().results)) {
    return outcome;
  }
  if (sorted) {
    auto in_order = MakeSlicing(cfg, StoreMode::kLazy, true);
    runs.push_back({"slicing-inorder",
                    RunToFinalResults(*in_order, stream, final_wm,
                                      cfg.wm_every, wm_lag)});
    CoverTechniqueRun("slicing-inorder", cfg, in_order.get());
    if (!check_persist("slicing-inorder",
                    [&] { return MakeSlicing(cfg, StoreMode::kLazy, true); },
                    runs.back().results)) {
      return outcome;
    }
  }
  if (cfg.batch > 0) {
    // Batched (columnar) ingestion must be bit-identical to the per-tuple
    // path (the run fold preserves the exact left-to-right combine order),
    // so these runs are compared with the same exact/approx rules as the
    // rest. The kernel dispatch is pinned to the configured mode (clamped
    // to what this binary/CPU supports) and, whenever that resolves to a
    // vector mode, the scalar fallback runs too — the fuzzer's SIMD
    // bit-identity check, cross-validated against the oracle below.
    const size_t bs = static_cast<size_t>(cfg.batch);
    simd::KernelMode want = simd::KernelMode::kAuto;
    (void)simd::ParseMode(cfg.kernel, &want);
    simd::SetModeForTesting(want);
    const simd::KernelMode resolved = simd::ActiveMode();
    std::vector<simd::KernelMode> modes = {resolved};
    if (resolved != simd::KernelMode::kScalar) {
      modes.push_back(simd::KernelMode::kScalar);
    }
    for (const simd::KernelMode m : modes) {
      simd::SetModeForTesting(m);
      const std::string suffix = std::string("-batched-") + simd::ModeName(m);
      auto batched_run = [&](const std::string& name, StoreMode mode,
                             bool in_order) {
        auto op = MakeSlicing(cfg, mode, in_order);
        runs.push_back({name + suffix,
                        RunToFinalResultsColumns(*op, stream, final_wm,
                                                 cfg.wm_every, wm_lag, bs)});
        CoverTechniqueRun(name + suffix, cfg, op.get());
      };
      batched_run("slicing-lazy", StoreMode::kLazy, false);
      batched_run("slicing-eager", StoreMode::kEager, false);
      if (sorted) batched_run("slicing-inorder", StoreMode::kLazy, true);
    }
    simd::SetModeForTesting(simd::KernelMode::kAuto);
  }
  // The baselines drive ProcessContext/TriggerWindows directly and never
  // Bind a StreamStateView, so "last N" windows (which resolve their start
  // through NthRecentTupleTime on the view) only run on the slicing store.
  // Threshold frames need no view and work everywhere but buckets.
  if (!has_lastn_window) {
    // One class, read lazily ("tuple-buffer") or eagerly ("aggregate-tree").
    for (const StoreMode mode : {StoreMode::kLazy, StoreMode::kEager}) {
      const auto make = [&] {
        return MakeBaseline<TupleBufferOperator>(cfg, mode);
      };
      auto op = make();
      const std::string name = op->Name();
      runs.push_back({name, RunToFinalResults(*op, stream, final_wm,
                                              cfg.wm_every, wm_lag)});
      CoverTechniqueRun(name, cfg, nullptr);
      if (!check_persist(name, make, runs.back().results)) return outcome;
    }
  }
  // Buckets model tumbling/sliding/session window IDs only.
  if (!has_punct_window && !has_lastn_window && !has_frames_window) {
    auto op = MakeBaseline<BucketsOperator>(cfg);
    runs.push_back({"buckets", RunToFinalResults(*op, stream, final_wm,
                                                 cfg.wm_every, wm_lag)});
    CoverTechniqueRun("buckets", cfg, nullptr);
    if (!check_persist("buckets",
                    [&] { return MakeBaseline<BucketsOperator>(cfg); },
                    runs.back().results)) {
      return outcome;
    }
  }
  {
    // The oracle sees the same seq numbers the operators saw.
    std::vector<Tuple> seqd = stream;
    for (size_t i = 0; i < seqd.size(); ++i) seqd[i].seq = i;
    runs.push_back(
        {"oracle", OracleResults(cfg.windows, cfg.aggs, seqd, final_wm)});
  }

  const Run& ref = runs.front();
  for (size_t r = 1; r < runs.size(); ++r) {
    if (!CompareResults(runs[r].name, ref.name, runs[r].results, ref.results,
                        Describe, ApproxFor(cfg.aggs), kNoWindow, &outcome)) {
      return outcome;
    }
  }
  // Multi-query shared slicing arm: one QueryRegistry serving this config's
  // query plus seed-derived companions, checked per query against solo runs.
  if (cfg.shared != 0 &&
      !CheckSharedQueries(cfg, stream, sorted, final_wm, wm_lag, &outcome)) {
    return outcome;
  }
  // Overload-resilience arm: the deterministic-edge window subset under a
  // seed-derived stall + persistence-fault schedule; delivered ∪ shed-marked
  // windows must exactly partition the unfaulted run.
  if (cfg.overload != 0 &&
      !CheckOverload(cfg, stream, final_wm, wm_lag, &outcome)) {
    return outcome;
  }
  return outcome;
}

DifferentialConfig RandomConfig(uint64_t seed, int num_tuples) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x2545F4914F6CDD1DULL);
  DifferentialConfig cfg;
  cfg.stream.seed = seed;
  cfg.stream.num_tuples = num_tuples;

  const int num_windows = 1 + static_cast<int>(rng.NextBounded(3));
  bool has_punct_window = false;
  bool has_frames_window = false;
  for (int i = 0; i < num_windows; ++i) {
    WindowSpec w;
    switch (rng.NextBounded(8)) {
      case 0:
        w.kind = WindowSpec::Kind::kTumbling;
        w.length = 5 + static_cast<Time>(rng.NextBounded(56));
        break;
      case 1:
        w.kind = WindowSpec::Kind::kSliding;
        w.length = 8 + static_cast<Time>(rng.NextBounded(73));
        w.slide = 1 + static_cast<Time>(
                          rng.NextBounded(static_cast<uint64_t>(w.length)));
        break;
      case 2:
        w.kind = WindowSpec::Kind::kSession;
        w.length = 8 + static_cast<Time>(rng.NextBounded(33));
        break;
      case 3:
        w.kind = WindowSpec::Kind::kTumbling;
        w.measure = Measure::kCount;
        w.length = 2 + static_cast<Time>(rng.NextBounded(19));
        break;
      case 4:
        w.kind = WindowSpec::Kind::kSliding;
        w.measure = Measure::kCount;
        w.length = 3 + static_cast<Time>(rng.NextBounded(22));
        w.slide = 1 + static_cast<Time>(
                          rng.NextBounded(static_cast<uint64_t>(w.length)));
        break;
      case 5:
        w.kind = WindowSpec::Kind::kLastNEveryT;
        w.length = 2 + static_cast<Time>(rng.NextBounded(14));  // N tuples
        w.slide = 5 + static_cast<Time>(rng.NextBounded(41));   // period T
        break;
      case 6:
        w.kind = WindowSpec::Kind::kThresholdFrame;
        w.length = 1;  // threshold; re-drawn once value_range is known
        has_frames_window = true;
        break;
      default:
        w.kind = WindowSpec::Kind::kPunctuation;
        has_punct_window = true;
        break;
    }
    cfg.windows.push_back(w);
  }

  const std::vector<std::string>& agg_names = FuzzAggregationNames();
  const size_t num_aggs = 1 + (rng.NextBounded(4) == 0 ? 1 : 0);
  while (cfg.aggs.size() < num_aggs) {
    const std::string& pick = agg_names[rng.NextBounded(agg_names.size())];
    bool dup = false;
    for (const std::string& a : cfg.aggs) dup |= a == pick;
    if (!dup) cfg.aggs.push_back(pick);
  }

  cfg.stream.step_lo = static_cast<Time>(rng.NextBounded(2));  // 0 => dup ts
  cfg.stream.step_hi =
      cfg.stream.step_lo + 1 + static_cast<Time>(rng.NextBounded(4));
  static const double kGapProb[] = {0.0, 0.02, 0.05};
  cfg.stream.gap_probability = kGapProb[rng.NextBounded(3)];
  cfg.stream.gap_length = 30 + static_cast<Time>(rng.NextBounded(51));
  cfg.stream.value_range = rng.NextBounded(2) == 0 ? 8 : 100;
  for (WindowSpec& w : cfg.windows) {
    if (w.kind == WindowSpec::Kind::kThresholdFrame) {
      // A threshold inside the value range so both qualifying and breaking
      // tuples actually occur.
      w.length = 1 + static_cast<Time>(
                         rng.NextBounded(cfg.stream.value_range));
    }
  }
  if (has_frames_window && cfg.stream.step_lo == 0) {
    // Frames classify per timestamp (a frame boundary is a timestamp, not a
    // tuple); duplicate timestamps mixing qualifying and breaking tuples
    // would make the boundary arrival-order dependent.
    cfg.stream.step_lo = 1;
  }
  static const double kOoo[] = {0.0, 0.05, 0.2, 0.4};
  cfg.stream.ooo_fraction = kOoo[rng.NextBounded(4)];
  static const Time kDelay[] = {4, 16, 60};
  cfg.stream.max_delay = kDelay[rng.NextBounded(3)];
  if (cfg.stream.ooo_fraction > 0 && rng.NextBounded(2) == 0) {
    cfg.stream.burst_probability = 0.03;
    cfg.stream.burst_length = 4 + static_cast<int>(rng.NextBounded(12));
  }
  if (has_punct_window) {
    cfg.stream.punctuation_probability = 0.02 + 0.06 * rng.NextDouble();
  } else if (rng.NextBounded(10) == 0) {
    cfg.stream.punctuation_probability = 0.03;  // context-only punctuation
  }
  static const int kWmEvery[] = {0, 64, 256};
  cfg.wm_every = kWmEvery[rng.NextBounded(3)];
  // Batched ingestion is always exercised: tiny blocks stress the
  // run-splitting logic, 64 is a realistic runtime batch, 0 maps to one
  // whole-stream block.
  static const int kBatch[] = {1, 7, 64, 0};
  cfg.batch = kBatch[rng.NextBounded(4)];
  if (cfg.batch == 0) cfg.batch = std::max(1, num_tuples);
  // Half the seeds also exercise the snapshot/restore cycle at a random
  // mid-stream cut point (the other half keep the base sweep fast).
  if (rng.NextBounded(2) == 0 && num_tuples > 1) {
    cfg.checkpoint = 1 + static_cast<int>(rng.NextBounded(
                             static_cast<uint64_t>(num_tuples - 1)));
  }
  // A quarter of the seeds also run the crash/recover cycle (kill point,
  // persistence mode, and snapshot/delta faults seed-derived); the nightly
  // lane forces it on everywhere.
  if (rng.NextBounded(4) == 0 && num_tuples > 1) cfg.crash = -1;
  // An eighth also run the rescaling crash twin (worker counts W -> W' and
  // the fault plan seed-derived); the nightly rescaling lane forces it on.
  if (rng.NextBounded(8) == 0 && num_tuples > 1) cfg.rescale = -1;
  // Half the seeds pin a kernel mode for the batched runs (the rest keep
  // "auto"); the scalar fallback rides along automatically whenever the
  // pinned mode resolves to a vector kernel.
  if (rng.NextBounded(2) == 0) {
    static const char* kKernels[] = {"auto", "scalar", "sse2", "avx2"};
    cfg.kernel = kKernels[rng.NextBounded(4)];
  }
  // A quarter of the seeds also run the shared-registry arm (seed-derived
  // companion queries plus mid-stream register/deregister dynamics); the
  // nightly shared lane forces it on everywhere.
  if (rng.NextBounded(4) == 0) cfg.shared = -1;
  // An eighth also run the overload-resilience arm (consumer stall, slow
  // and failing persists, watermark-safe shedding — all seed-derived); the
  // nightly fault-matrix lane forces it on everywhere.
  if (rng.NextBounded(8) == 0 && num_tuples > 1) cfg.overload = -1;
  return cfg;
}

DifferentialConfig Shrink(const DifferentialConfig& failing) {
  return ShrinkWhile(failing, [](const DifferentialConfig& c) {
    return !RunDifferential(c).ok;
  });
}

DifferentialConfig ShrinkWhile(
    const DifferentialConfig& cfg,
    const std::function<bool(const DifferentialConfig&)>& keeps) {
  DifferentialConfig best = cfg;

  // Tuple-count bisection. The invariant "`keeps` holds at hi" is
  // maintained throughout (hi is only replaced by a mid where it held), so
  // the result replays even though the predicate is not strictly monotone
  // in the prefix length.
  int lo = 1;
  int hi = best.stream.num_tuples;
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    DifferentialConfig c = best;
    c.stream.num_tuples = mid;
    if (keeps(c)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  best.stream.num_tuples = hi;

  for (size_t i = best.windows.size(); i-- > 0 && best.windows.size() > 1;) {
    DifferentialConfig c = best;
    c.windows.erase(c.windows.begin() + static_cast<long>(i));
    if (keeps(c)) best = c;
  }
  for (size_t i = best.aggs.size(); i-- > 0 && best.aggs.size() > 1;) {
    DifferentialConfig c = best;
    c.aggs.erase(c.aggs.begin() + static_cast<long>(i));
    if (keeps(c)) best = c;
  }
  return best;
}

}  // namespace testing
}  // namespace scotty
