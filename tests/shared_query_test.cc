// Multi-query shared slicing (DESIGN.md §10): the QueryRegistry must answer
// every registered query exactly as a dedicated per-query operator would —
// across slicing techniques and baselines, all aggregate classes,
// out-of-order input, mid-stream register/deregister, and snapshot
// round-trips.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "aggregates/registry.h"
#include "baselines/buckets.h"
#include "baselines/tuple_buffer.h"
#include "common/tuple_batch.h"
#include "core/general_slicing_operator.h"
#include "core/query_builder.h"
#include "query/query_registry.h"
#include "testing/stream_gen.h"
#include "tests/test_util.h"

namespace scotty {
namespace {

using testing::GenerateStream;
using testing::StreamSpec;
using testutil::ResultKey;
using testutil::RunToFinalResults;
using testutil::T;

constexpr Time kLateness = 1'000'000'000'000;

bool IsApproxAgg(const std::string& name) {
  return name == "stddev" || name == "geometric-mean";
}

/// Per-query final results keyed by the query's local window/agg ids.
using FinalMap = std::map<ResultKey, Value>;

/// Drives the registry with the RunToFinalResults cadence, draining every
/// query's results separately after each watermark.
std::map<QueryRegistry::QueryId, FinalMap> RunRegistryToFinal(
    QueryRegistry& reg, const std::vector<QueryRegistry::QueryId>& ids,
    const std::vector<Tuple>& tuples, Time final_wm, int wm_every,
    Time wm_lag) {
  std::map<QueryRegistry::QueryId, FinalMap> out;
  auto drain = [&] {
    for (QueryRegistry::QueryId id : ids) {
      for (const WindowResult& r : reg.TakeQueryResults(id)) {
        out[id][{r.window_id, r.agg_id, r.start, r.end}] = r.value;
      }
    }
  };
  uint64_t seq = 0;
  Time max_ts = kNoTime;
  Time last_wm = kNoTime;
  for (Tuple t : tuples) {
    t.seq = seq++;
    reg.ProcessTuple(t);
    max_ts = std::max(max_ts, t.ts);
    if (wm_every > 0 && seq % static_cast<uint64_t>(wm_every) == 0) {
      const Time wm = max_ts - wm_lag;
      if (wm > last_wm || last_wm == kNoTime) {
        reg.ProcessWatermark(wm);
        last_wm = wm;
        drain();
      }
    }
  }
  reg.ProcessWatermark(final_wm);
  drain();
  return out;
}

std::vector<WindowPtr> InstantiateAll(const std::vector<std::string>& descs) {
  std::vector<WindowPtr> out;
  for (const std::string& text : descs) {
    WindowDesc d;
    EXPECT_TRUE(WindowDesc::Parse(text, &d)) << text;
    out.push_back(d.Instantiate());
  }
  return out;
}

std::unique_ptr<GeneralSlicingOperator> BuildGSO(const QueryDef& def,
                                                 StoreMode mode,
                                                 bool in_order) {
  GeneralSlicingOperator::Options o;
  o.store_mode = mode;
  o.stream_in_order = in_order;
  o.allowed_lateness = in_order ? 0 : kLateness;
  auto op = std::make_unique<GeneralSlicingOperator>(o);
  for (const std::string& a : def.aggs) op->AddAggregation(MakeAggregation(a));
  for (WindowPtr& w : InstantiateAll(def.windows)) op->AddWindow(std::move(w));
  return op;
}

template <typename Op, typename... Args>
std::unique_ptr<Op> BuildBaseline(const QueryDef& def, bool in_order,
                                  Args... args) {
  auto op = std::make_unique<Op>(in_order, in_order ? 0 : kLateness, args...);
  for (const std::string& a : def.aggs) op->AddAggregation(MakeAggregation(a));
  for (WindowPtr& w : InstantiateAll(def.windows)) op->AddWindow(std::move(w));
  return op;
}

QueryRegistry::Options RegistryOptions(bool in_order = false) {
  QueryRegistry::Options o;
  o.engine.stream_in_order = in_order;
  o.engine.allowed_lateness = in_order ? 0 : kLateness;
  return o;
}

void ExpectQueryMatches(const FinalMap& got, const FinalMap& want,
                        const std::vector<std::string>& aggs,
                        const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  auto it = got.begin();
  for (const auto& [key, val] : want) {
    ASSERT_EQ(it->first, key) << label;
    const std::string& agg = aggs[static_cast<size_t>(std::get<1>(key))];
    if (IsApproxAgg(agg)) {
      const double a = it->second.Numeric();
      const double b = val.Numeric();
      if (!(std::isnan(a) && std::isnan(b))) {
        const double tol =
            1e-6 * std::max({1.0, std::fabs(a), std::fabs(b)});
        EXPECT_NEAR(a, b, tol) << label << " agg=" << agg;
      }
    } else {
      EXPECT_EQ(it->second, val) << label << " agg=" << agg;
    }
    ++it;
  }
}

std::vector<Tuple> OOOStream(uint64_t seed, int n, double punct = 0.0) {
  StreamSpec spec;
  spec.seed = seed;
  spec.num_tuples = n;
  spec.step_lo = 1;
  spec.step_hi = 4;
  spec.value_range = 20;
  spec.punctuation_probability = punct;
  spec.ooo_fraction = 0.3;
  spec.max_delay = 40;
  spec.burst_probability = 0.05;
  return GenerateStream(spec);
}

Time MaxTs(const std::vector<Tuple>& tuples) {
  Time max_ts = kNoTime;
  for (const Tuple& t : tuples) max_ts = std::max(max_ts, t.ts);
  return max_ts;
}

// ---------------------------------------------------------------------------
// Planning introspection.

TEST(RegistryPlanning, DedupAndSharedPlans) {
  QueryRegistry reg(RegistryOptions());
  std::string err;
  const auto q1 = reg.Register({{"tumbling:10", "session:7"}, {"sum"}}, &err);
  ASSERT_NE(q1, QueryRegistry::kInvalidQuery) << err;
  const auto q2 =
      reg.Register({{"tumbling:10", "sliding:20:5"}, {"sum", "min"}}, &err);
  ASSERT_NE(q2, QueryRegistry::kInvalidQuery) << err;

  const QueryRegistry::QueryPlan p1 = reg.Plan(q1);
  ASSERT_TRUE(p1.alive);
  EXPECT_EQ(p1.windows[0], QueryRegistry::PlanKind::kShared);
  EXPECT_EQ(p1.windows[1], QueryRegistry::PlanKind::kShared);

  const QueryRegistry::QueryPlan p2 = reg.Plan(q2);
  ASSERT_TRUE(p2.alive);
  // tumbling:10 is already live -> dedup; sliding:20:5 is new -> shared.
  EXPECT_EQ(p2.windows[0], QueryRegistry::PlanKind::kSharedDedup);
  EXPECT_EQ(p2.windows[1], QueryRegistry::PlanKind::kShared);

  // tumbling:10 counted once: the engine carries 3 windows, not 4.
  EXPECT_EQ(reg.EngineWindows(), 3u);
  EXPECT_EQ(reg.ActiveQueries(), 2u);
}

/// (start, end) of every slice the engine's time store holds.
std::vector<std::pair<Time, Time>> SliceBounds(const QueryRegistry& reg) {
  std::vector<std::pair<Time, Time>> out;
  const AggregateStore* store = reg.engine()->time_store();
  if (store == nullptr) return out;
  for (size_t i = 0; i < store->NumSlices(); ++i) {
    out.emplace_back(store->At(i).start(), store->At(i).end());
  }
  return out;
}

TEST(RegistryPlanning, MultiplesOfATumblingBaseAddNoSliceEdge) {
  // Windows whose length and slide are multiples of a live tumbling base's
  // length are engine windows like any other, yet every one of their edges
  // is already a base edge: the shared slice stream does not change.
  QueryRegistry reg(RegistryOptions());
  QueryRegistry base_only(RegistryOptions());
  std::string err;
  ASSERT_NE(reg.Register({{"tumbling:5"}, {"sum"}}, &err),
            QueryRegistry::kInvalidQuery);
  ASSERT_NE(base_only.Register({{"tumbling:5"}, {"sum"}}, &err),
            QueryRegistry::kInvalidQuery);
  const auto q10 = reg.Register({{"tumbling:10"}, {"sum"}}, &err);
  ASSERT_NE(q10, QueryRegistry::kInvalidQuery) << err;
  const auto q =
      reg.Register({{"sliding:40:20", "tumbling:40"}, {"sum"}}, &err);
  ASSERT_NE(q, QueryRegistry::kInvalidQuery) << err;
  EXPECT_EQ(reg.Plan(q10).windows[0], QueryRegistry::PlanKind::kShared);
  const QueryRegistry::QueryPlan p = reg.Plan(q);
  EXPECT_EQ(p.windows[0], QueryRegistry::PlanKind::kShared);
  EXPECT_EQ(p.windows[1], QueryRegistry::PlanKind::kShared);
  EXPECT_EQ(reg.EngineWindows(), 4u);

  // The lateness keeps every slice live, so the final store holds every
  // slice either engine ever cut.
  const std::vector<Tuple> tuples = OOOStream(59, 400);
  const Time final_wm = MaxTs(tuples) + 100;
  RunRegistryToFinal(reg, {}, tuples, final_wm, 16, 64);
  RunRegistryToFinal(base_only, {}, tuples, final_wm, 16, 64);
  const auto bounds = SliceBounds(reg);
  EXPECT_GT(bounds.size(), 50u);
  EXPECT_EQ(bounds, SliceBounds(base_only));
}

TEST(RegistryPlanning, RejectsBadDefs) {
  QueryRegistry reg(RegistryOptions());
  std::string err;
  EXPECT_EQ(reg.Register({{}, {"sum"}}, &err), QueryRegistry::kInvalidQuery);
  EXPECT_EQ(reg.Register({{"tumbling:10"}, {}}, &err),
            QueryRegistry::kInvalidQuery);
  EXPECT_EQ(reg.Register({{"bogus:1"}, {"sum"}}, &err),
            QueryRegistry::kInvalidQuery);
  EXPECT_NE(err.find("bogus"), std::string::npos) << err;
  EXPECT_EQ(reg.Register({{"tumbling:10"}, {"no-such-agg"}}, &err),
            QueryRegistry::kInvalidQuery);
  // Nothing half-registered sticks around after a failed registration.
  EXPECT_EQ(reg.ActiveQueries(), 0u);
  EXPECT_EQ(reg.EngineWindows(), 0u);
}

// ---------------------------------------------------------------------------
// Equivalence: registry vs. one dedicated operator per query.

/// Registers all queries, runs the shared registry once over `tuples`, and
/// checks every query against dedicated operators of every technique.
void CheckSharedAgainstIndependent(const std::vector<QueryDef>& defs,
                                   const std::vector<Tuple>& tuples,
                                   bool in_order) {
  QueryRegistry reg(RegistryOptions(in_order));
  std::vector<QueryRegistry::QueryId> ids;
  std::string err;
  for (const QueryDef& def : defs) {
    const auto id = reg.Register(def, &err);
    ASSERT_NE(id, QueryRegistry::kInvalidQuery) << err;
    ids.push_back(id);
  }

  const Time max_ts = MaxTs(tuples);
  const Time final_wm = max_ts + 100;
  const int wm_every = 16;
  // In-order ops run with allowed_lateness 0: keep the watermark strictly
  // behind any timestamp that can still arrive (punctuation markers share
  // the preceding tuple's timestamp) so nothing is boundary-dropped.
  const Time wm_lag = in_order ? 2 : 64;

  const auto shared =
      RunRegistryToFinal(reg, ids, tuples, final_wm, wm_every, wm_lag);

  for (size_t qi = 0; qi < defs.size(); ++qi) {
    const QueryDef& def = defs[qi];
    const auto shared_it = shared.find(ids[qi]);
    const FinalMap got =
        shared_it != shared.end() ? shared_it->second : FinalMap{};
    const std::string tag = "query " + std::to_string(qi);

    auto lazy = BuildGSO(def, StoreMode::kLazy, in_order);
    ExpectQueryMatches(
        got, RunToFinalResults(*lazy, tuples, final_wm, wm_every, wm_lag),
        def.aggs, tag + " vs gso-lazy");

    auto eager = BuildGSO(def, StoreMode::kEager, in_order);
    ExpectQueryMatches(
        got, RunToFinalResults(*eager, tuples, final_wm, wm_every, wm_lag),
        def.aggs, tag + " vs gso-eager");

    // Baseline applicability mirrors the differential harness: the buffer
    // and tree baselines model everything but lastn; buckets additionally
    // exclude punctuation and frame windows.
    bool has_punct = false, has_lastn = false, has_frames = false;
    for (const std::string& text : def.windows) {
      WindowDesc d;
      ASSERT_TRUE(WindowDesc::Parse(text, &d)) << text;
      has_punct |= d.kind == WindowDesc::Kind::kPunctuation;
      has_lastn |= d.kind == WindowDesc::Kind::kLastNEveryT;
      has_frames |= d.kind == WindowDesc::Kind::kThresholdFrame;
    }
    if (!has_lastn) {
      auto buf = BuildBaseline<TupleBufferOperator>(def, in_order);
      ExpectQueryMatches(
          got, RunToFinalResults(*buf, tuples, final_wm, wm_every, wm_lag),
          def.aggs, tag + " vs tuple-buffer");

      auto tree = BuildBaseline<TupleBufferOperator>(def, in_order,
                                                     StoreMode::kEager);
      ExpectQueryMatches(
          got, RunToFinalResults(*tree, tuples, final_wm, wm_every, wm_lag),
          def.aggs, tag + " vs aggregate-tree");
    }
    if (!has_punct && !has_lastn && !has_frames) {
      auto buckets = BuildBaseline<BucketsOperator>(def, in_order);
      ExpectQueryMatches(
          got,
          RunToFinalResults(*buckets, tuples, final_wm, wm_every, wm_lag),
          def.aggs, tag + " vs buckets");
    }
  }
}

TEST(SharedEquivalence, OutOfOrderAcrossTechniques) {
  const std::vector<QueryDef> defs = {
      {{"tumbling:10", "session:7"}, {"sum", "min"}},
      {{"sliding:20:5", "punct"}, {"count", "avg"}},
      // tumbling:10 dedups against query 0.
      {{"tumbling:10", "sliding:40:20"}, {"max", "median"}},
  };
  CheckSharedAgainstIndependent(defs, OOOStream(7, 400, /*punct=*/0.05),
                                /*in_order=*/false);
}

TEST(SharedEquivalence, InOrderFastPath) {
  StreamSpec spec;
  spec.seed = 11;
  spec.num_tuples = 400;
  spec.punctuation_probability = 0.05;
  const std::vector<QueryDef> defs = {
      {{"tumbling:10", "punct"}, {"sum", "count"}},
      {{"sliding:30:10", "tumbling:10"}, {"min", "max"}},
  };
  CheckSharedAgainstIndependent(defs, GenerateStream(spec),
                                /*in_order=*/true);
}

// Columnar in-order ingestion must produce results bit-identical to
// per-tuple ingestion, whatever the block boundaries, also where duplicate
// timestamps tie the per-tuple watermark at window edges.
TEST(SharedEquivalence, BatchedAndColumnarInOrderMatchPerTuple) {
  const std::vector<QueryDef> defs = {
      {{"tumbling:10"}, {"sum", "count"}},
      // tumbling:10 dedups against query 0.
      {{"sliding:40:20", "tumbling:10"}, {"sum"}},
      {{"tumbling:30"}, {"count"}},
  };
  std::vector<Tuple> tuples;
  for (int i = 0; i < 600; ++i) {
    // Three tuples per timestamp: every trigger-edge crossing leaves
    // same-ts stragglers that tie the advanced watermark.
    tuples.push_back(T(i / 3, (i % 17) - 8));
  }
  const Time final_wm = MaxTs(tuples) + 100;
  const int wm_every = 16;
  const Time wm_lag = 2;

  auto register_all = [&](QueryRegistry& reg,
                          std::vector<QueryRegistry::QueryId>* ids) {
    std::string err;
    for (const QueryDef& def : defs) {
      const auto id = reg.Register(def, &err);
      ASSERT_NE(id, QueryRegistry::kInvalidQuery) << err;
      ids->push_back(id);
    }
  };

  QueryRegistry per_tuple(RegistryOptions(/*in_order=*/true));
  std::vector<QueryRegistry::QueryId> pt_ids;
  register_all(per_tuple, &pt_ids);
  const auto want =
      RunRegistryToFinal(per_tuple, pt_ids, tuples, final_wm, wm_every, wm_lag);

  // Same watermark cadence, but tuples arrive as column blocks: the whole
  // stretch between two watermarks, and 5-tuple blocks whose edges fall
  // inside same-timestamp runs.
  for (const size_t max_block : {size_t{0}, size_t{5}}) {
    QueryRegistry reg(RegistryOptions(/*in_order=*/true));
    std::vector<QueryRegistry::QueryId> ids;
    register_all(reg, &ids);
    std::map<QueryRegistry::QueryId, FinalMap> got;
    auto drain = [&] {
      for (QueryRegistry::QueryId id : ids) {
        for (const WindowResult& r : reg.TakeQueryResults(id)) {
          got[id][{r.window_id, r.agg_id, r.start, r.end}] = r.value;
        }
      }
    };
    TupleBatchSoA block;
    auto flush = [&] {
      if (block.empty()) return;
      reg.ProcessTupleColumns(block.View());
      block.Clear();
    };
    uint64_t seq = 0;
    Time max_ts = kNoTime;
    Time last_wm = kNoTime;
    for (Tuple t : tuples) {
      t.seq = seq++;
      block.PushBack(t);
      if (block.size() == max_block) flush();
      max_ts = std::max(max_ts, t.ts);
      if (seq % wm_every == 0) {
        const Time wm = max_ts - wm_lag;
        if (wm > last_wm || last_wm == kNoTime) {
          flush();
          reg.ProcessWatermark(wm);
          last_wm = wm;
          drain();
        }
      }
    }
    flush();
    reg.ProcessWatermark(final_wm);
    drain();

    for (size_t qi = 0; qi < defs.size(); ++qi) {
      const auto want_it = want.find(pt_ids[qi]);
      const auto got_it = got.find(ids[qi]);
      ExpectQueryMatches(
          got_it != got.end() ? got_it->second : FinalMap{},
          want_it != want.end() ? want_it->second : FinalMap{}, defs[qi].aggs,
          "block=" + std::to_string(max_block) + " query " +
              std::to_string(qi));
    }
  }
}

TEST(SharedEquivalence, CountWindowsAndMultiMeasure) {
  const std::vector<QueryDef> defs = {
      {{"ctumbling:25", "tumbling:15"}, {"sum", "count"}},
      {{"csliding:30:10", "lastn:20:15"}, {"min", "avg"}},
      {{"frames:12", "ctumbling:25"}, {"max", "sum"}},
  };
  CheckSharedAgainstIndependent(defs, OOOStream(13, 400),
                                /*in_order=*/false);
}

TEST(SharedEquivalence, AllAggregateKinds) {
  // Every deterministic aggregation the fuzzer draws from, split over two
  // queries that share both windows (full dedup) plus one window of its own.
  const std::vector<std::string> all = {
      "sum",     "count",     "avg",       "min",
      "max",     "median",    "p90",       "m4",
      "arg-max", "arg-min",   "min-count", "max-count",
      "stddev",  "sum-no-invert", "concat", "geometric-mean"};
  const std::vector<std::string> first(all.begin(), all.begin() + 8);
  const std::vector<std::string> second(all.begin() + 8, all.end());
  const std::vector<QueryDef> defs = {
      {{"tumbling:10", "sliding:30:10"}, first},
      {{"sliding:30:10", "tumbling:10", "tumbling:40"}, second},
  };
  CheckSharedAgainstIndependent(defs, OOOStream(17, 350),
                                /*in_order=*/false);
}

// ---------------------------------------------------------------------------
// Dynamic membership.

TEST(RegistryDynamics, MidStreamRegisterSeesOnlyPostHorizonWindows) {
  const std::vector<Tuple> tuples = OOOStream(31, 400);
  const Time max_ts = MaxTs(tuples);
  const Time final_wm = max_ts + 100;
  const QueryDef base{{"tumbling:10"}, {"sum", "max"}};
  const QueryDef late{{"sliding:30:10", "tumbling:25"}, {"sum"}};

  QueryRegistry reg(RegistryOptions());
  std::string err;
  const auto q0 = reg.Register(base, &err);
  ASSERT_NE(q0, QueryRegistry::kInvalidQuery) << err;

  std::map<QueryRegistry::QueryId, FinalMap> got;
  auto drain = [&](const std::vector<QueryRegistry::QueryId>& ids) {
    for (auto id : ids) {
      for (const WindowResult& r : reg.TakeQueryResults(id)) {
        got[id][{r.window_id, r.agg_id, r.start, r.end}] = r.value;
      }
    }
  };

  QueryRegistry::QueryId q1 = QueryRegistry::kInvalidQuery;
  uint64_t seq = 0;
  Time seen = kNoTime;
  Time last_wm = kNoTime;
  for (Tuple t : tuples) {
    if (seq == tuples.size() / 2) {
      q1 = reg.Register(late, &err);
      ASSERT_NE(q1, QueryRegistry::kInvalidQuery) << err;
    }
    t.seq = seq++;
    reg.ProcessTuple(t);
    seen = std::max(seen, t.ts);
    if (seq % 16 == 0) {
      const Time wm = seen - 64;
      if (wm > last_wm || last_wm == kNoTime) {
        reg.ProcessWatermark(wm);
        last_wm = wm;
        drain({q0, q1});
      }
    }
  }
  reg.ProcessWatermark(final_wm);
  drain({q0, q1});

  const Time horizon = reg.Plan(q1).horizon;
  ASSERT_NE(horizon, kNoTime);
  EXPECT_GT(horizon, 0);

  // The early query is untouched by the membership change.
  auto full = BuildGSO(base, StoreMode::kLazy, false);
  ExpectQueryMatches(got[q0],
                     RunToFinalResults(*full, tuples, final_wm, 16, 64),
                     base.aggs, "pre-registered query");

  // The late query answers exactly the dedicated-operator results filtered
  // to windows that start at or after its horizon.
  auto solo = BuildGSO(late, StoreMode::kLazy, false);
  FinalMap expect;
  for (const auto& [key, val] :
       RunToFinalResults(*solo, tuples, final_wm, 16, 64)) {
    if (std::get<2>(key) >= horizon) expect[key] = val;
  }
  ExpectQueryMatches(got[q1], expect, late.aggs, "mid-stream query");
  // And it genuinely reported something: the horizon is not an excuse to
  // stay silent forever.
  EXPECT_FALSE(got[q1].empty());
}

TEST(RegistryDynamics, DeregisterDropsOnlyThatQuery) {
  const std::vector<Tuple> tuples = OOOStream(37, 400);
  const Time max_ts = MaxTs(tuples);
  const Time final_wm = max_ts + 100;
  const QueryDef keep{{"tumbling:10", "session:7"}, {"sum", "median"}};
  const QueryDef drop{{"tumbling:10", "sliding:20:10"}, {"max"}};

  QueryRegistry reg(RegistryOptions());
  std::string err;
  const auto qk = reg.Register(keep, &err);
  const auto qd = reg.Register(drop, &err);
  ASSERT_NE(qk, QueryRegistry::kInvalidQuery);
  ASSERT_NE(qd, QueryRegistry::kInvalidQuery);
  // tumbling:10 is shared between both; sliding:20:10 is the second query's
  // only engine window.
  EXPECT_EQ(reg.Plan(qd).windows[0], QueryRegistry::PlanKind::kSharedDedup);
  EXPECT_EQ(reg.Plan(qd).windows[1], QueryRegistry::PlanKind::kShared);
  EXPECT_EQ(reg.EngineWindows(), 3u);

  FinalMap kept;
  uint64_t seq = 0;
  Time seen = kNoTime;
  Time last_wm = kNoTime;
  for (Tuple t : tuples) {
    if (seq == tuples.size() / 2) {
      ASSERT_TRUE(reg.Deregister(qd));
      EXPECT_FALSE(reg.Deregister(qd));  // idempotence: already gone
      EXPECT_FALSE(reg.Plan(qd).alive);
      // tumbling:10 lives on for the surviving query; sliding:20:10 is gone.
      EXPECT_EQ(reg.EngineWindows(), 2u);
      EXPECT_EQ(reg.ActiveQueries(), 1u);
    }
    t.seq = seq++;
    reg.ProcessTuple(t);
    seen = std::max(seen, t.ts);
    if (seq % 16 == 0) {
      const Time wm = seen - 64;
      if (wm > last_wm || last_wm == kNoTime) {
        reg.ProcessWatermark(wm);
        last_wm = wm;
        for (const WindowResult& r : reg.TakeQueryResults(qk)) {
          kept[{r.window_id, r.agg_id, r.start, r.end}] = r.value;
        }
        // After the deregistration nothing leaks out under the dead id.
        if (seq > tuples.size() / 2) {
          EXPECT_TRUE(reg.TakeQueryResults(qd).empty());
        }
      }
    }
  }
  reg.ProcessWatermark(final_wm);
  for (const WindowResult& r : reg.TakeQueryResults(qk)) {
    kept[{r.window_id, r.agg_id, r.start, r.end}] = r.value;
  }

  auto solo = BuildGSO(keep, StoreMode::kLazy, false);
  ExpectQueryMatches(kept, RunToFinalResults(*solo, tuples, final_wm, 16, 64),
                     keep.aggs, "surviving query");

  // The registry stays open for business after a deregistration.
  const auto q2 = reg.Register({{"tumbling:50"}, {"sum"}}, &err);
  EXPECT_NE(q2, QueryRegistry::kInvalidQuery) << err;
}

TEST(RegistryDynamics, MidStreamRegistrationLimits) {
  QueryRegistry reg(RegistryOptions());
  std::string err;
  ASSERT_NE(reg.Register({{"tumbling:10"}, {"sum"}}, &err),
            QueryRegistry::kInvalidQuery);
  reg.ProcessTuple(T(5, 1.0));

  // Context-sensitive windows cannot join mid-stream...
  EXPECT_EQ(reg.Register({{"session:7"}, {"sum"}}, &err),
            QueryRegistry::kInvalidQuery);
  EXPECT_NE(err.find("mid-stream"), std::string::npos) << err;
  // ...nor can new aggregation columns be added to a started store...
  EXPECT_EQ(reg.Register({{"tumbling:20"}, {"median"}}, &err),
            QueryRegistry::kInvalidQuery);
  // ...but context-free windows over known aggregations can.
  EXPECT_NE(reg.Register({{"sliding:30:10"}, {"sum"}}, &err),
            QueryRegistry::kInvalidQuery)
      << err;
}

// ---------------------------------------------------------------------------
// Global result stream.

TEST(RegistryResults, TakeResultsUsesDenseGlobalWindowIds) {
  const std::vector<Tuple> tuples = OOOStream(41, 200);
  const Time final_wm = MaxTs(tuples) + 100;
  const QueryDef a{{"tumbling:10", "session:7"}, {"sum"}};
  const QueryDef b{{"tumbling:10"}, {"max", "count"}};

  QueryRegistry reg(RegistryOptions());
  std::string err;
  const auto qa = reg.Register(a, &err);
  const auto qb = reg.Register(b, &err);
  ASSERT_NE(qa, QueryRegistry::kInvalidQuery);
  ASSERT_NE(qb, QueryRegistry::kInvalidQuery);
  EXPECT_EQ(reg.GlobalWindowId(qa, 0), 0);
  EXPECT_EQ(reg.GlobalWindowId(qa, 1), 1);
  EXPECT_EQ(reg.GlobalWindowId(qb, 0), 2);

  uint64_t seq = 0;
  for (Tuple t : tuples) {
    t.seq = seq++;
    reg.ProcessTuple(t);
  }
  reg.ProcessWatermark(final_wm);
  const FinalMap merged = testutil::FinalResults(reg.TakeResults());
  ASSERT_FALSE(merged.empty());

  // Recompute per query and re-key through GlobalWindowId: the merged view
  // is exactly the union (agg ids stay local; window ids disambiguate).
  FinalMap expect;
  for (const auto& [def, id] :
       std::vector<std::pair<QueryDef, QueryRegistry::QueryId>>{{a, qa},
                                                                {b, qb}}) {
    auto solo = BuildGSO(def, StoreMode::kLazy, false);
    for (const auto& [key, val] :
         RunToFinalResults(*solo, tuples, final_wm, 0, 0)) {
      expect[{reg.GlobalWindowId(id, std::get<0>(key)), std::get<1>(key),
              std::get<2>(key), std::get<3>(key)}] = val;
    }
  }
  EXPECT_EQ(merged, expect);
}

// ---------------------------------------------------------------------------
// QueryBuilder front-end.

TEST(RegistryBuilder, PortableBuilderRegisters) {
  QueryBuilder b;
  b.OutOfOrder(kLateness)
      .Aggregate("sum")
      .Aggregate("median")
      .Tumbling(10)
      .Sliding(30, 10);
  ASSERT_TRUE(b.HasPortableDef());
  EXPECT_EQ(b.Def().windows,
            (std::vector<std::string>{"tumbling:10", "sliding:30:10"}));
  EXPECT_EQ(b.Def().aggs, (std::vector<std::string>{"sum", "median"}));

  const std::vector<Tuple> tuples = OOOStream(43, 250);
  const Time final_wm = MaxTs(tuples) + 100;

  QueryRegistry reg(RegistryOptions());
  std::string err;
  const auto q = reg.Register(b, &err);
  ASSERT_NE(q, QueryRegistry::kInvalidQuery) << err;

  const auto shared =
      RunRegistryToFinal(reg, {q}, tuples, final_wm, 16, 64);
  auto solo = b.Build();
  ExpectQueryMatches(shared.at(q),
                     RunToFinalResults(*solo, tuples, final_wm, 16, 64),
                     b.Def().aggs, "builder query");
}

TEST(RegistryBuilder, CustomObjectsForfeitPortability) {
  QueryBuilder b;
  b.Aggregate(MakeAggregation("sum")).Tumbling(10);  // custom fn object
  EXPECT_FALSE(b.HasPortableDef());
  QueryRegistry reg(RegistryOptions());
  std::string err;
  EXPECT_EQ(reg.Register(b, &err), QueryRegistry::kInvalidQuery);
  EXPECT_NE(err.find("textual description"), std::string::npos) << err;
}

// ---------------------------------------------------------------------------
// Snapshot round-trip.

TEST(RegistrySnapshot, CheckpointedTwinIsBitIdentical) {
  const std::vector<QueryDef> defs = {
      {{"tumbling:10", "session:7"}, {"sum", "median"}},
      {{"sliding:40:20", "tumbling:10"}, {"max", "sum"}},
  };
  const std::vector<Tuple> tuples = OOOStream(47, 400);
  const Time final_wm = MaxTs(tuples) + 100;

  auto factory = [&]() -> std::unique_ptr<WindowOperator> {
    auto reg = std::make_unique<QueryRegistry>(RegistryOptions());
    std::string err;
    for (const QueryDef& def : defs) {
      EXPECT_NE(reg->Register(def, &err), QueryRegistry::kInvalidQuery)
          << err;
    }
    return reg;
  };

  auto plain = factory();
  const FinalMap expect =
      RunToFinalResults(*plain, tuples, final_wm, 16, 64);

  for (size_t cut : {size_t{1}, tuples.size() / 3, tuples.size() / 2,
                     tuples.size() - 1}) {
    FinalMap got;
    std::string error;
    ASSERT_TRUE(testing::RunToFinalResultsCheckpointed(
        factory, tuples, final_wm, 16, 64, cut, &got, &error))
        << "cut=" << cut << ": " << error;
    EXPECT_EQ(got, expect) << "cut=" << cut;  // exact, median included
  }
}

TEST(RegistrySnapshot, RestorePreservesDynamicMembership) {
  // Register -> feed -> deregister one -> register mid-stream -> snapshot
  // -> restore onto a fresh registry -> both must finish identically.
  const std::vector<Tuple> tuples = OOOStream(53, 300);
  const Time final_wm = MaxTs(tuples) + 100;
  const size_t cut = tuples.size() * 2 / 3;

  auto drive_prefix = [&](QueryRegistry& reg, FinalMap* out,
                          std::vector<QueryRegistry::QueryId>* ids) {
    std::string err;
    ids->push_back(reg.Register({{"tumbling:10"}, {"sum", "max"}}, &err));
    ids->push_back(
        reg.Register({{"tumbling:10", "session:9"}, {"sum"}}, &err));
    uint64_t seq = 0;
    Time seen = kNoTime;
    Time last_wm = kNoTime;
    for (size_t i = 0; i < cut; ++i) {
      if (i == tuples.size() / 3) {
        ASSERT_TRUE(reg.Deregister((*ids)[1]));
        ids->push_back(
            reg.Register({{"sliding:30:10"}, {"sum"}}, &err));
        ASSERT_NE(ids->back(), QueryRegistry::kInvalidQuery) << err;
      }
      Tuple t = tuples[i];
      t.seq = seq++;
      reg.ProcessTuple(t);
      seen = std::max(seen, t.ts);
      if (seq % 16 == 0 && (seen - 64 > last_wm || last_wm == kNoTime)) {
        last_wm = seen - 64;
        reg.ProcessWatermark(last_wm);
        for (const WindowResult& r : reg.TakeResults()) {
          (*out)[{r.window_id, r.agg_id, r.start, r.end}] = r.value;
        }
      }
    }
  };

  auto drive_suffix = [&](QueryRegistry& reg, FinalMap* out,
                          uint64_t seq, Time seen, Time last_wm) {
    for (size_t i = cut; i < tuples.size(); ++i) {
      Tuple t = tuples[i];
      t.seq = seq++;
      reg.ProcessTuple(t);
      seen = std::max(seen, t.ts);
      if (seq % 16 == 0 && (seen - 64 > last_wm || last_wm == kNoTime)) {
        last_wm = seen - 64;
        reg.ProcessWatermark(last_wm);
        for (const WindowResult& r : reg.TakeResults()) {
          (*out)[{r.window_id, r.agg_id, r.start, r.end}] = r.value;
        }
      }
    }
    reg.ProcessWatermark(final_wm);
    for (const WindowResult& r : reg.TakeResults()) {
      (*out)[{r.window_id, r.agg_id, r.start, r.end}] = r.value;
    }
  };

  // Uninterrupted run.
  QueryRegistry full(RegistryOptions());
  FinalMap want;
  std::vector<QueryRegistry::QueryId> ids;
  drive_prefix(full, &want, &ids);
  {
    // Recover the harness locals the prefix ended with.
    uint64_t seq = cut;
    Time seen = kNoTime;
    for (size_t i = 0; i < cut; ++i) seen = std::max(seen, tuples[i].ts);
    Time last_wm = kNoTime;
    for (size_t s = 16; s <= cut; s += 16) {
      Time m = kNoTime;
      for (size_t i = 0; i < s; ++i) m = std::max(m, tuples[i].ts);
      if (m - 64 > last_wm || last_wm == kNoTime) last_wm = m - 64;
    }
    drive_suffix(full, &want, seq, seen, last_wm);
  }

  // Interrupted twin: snapshot at the cut, restore onto a fresh registry
  // with the same Options and nothing registered.
  QueryRegistry head(RegistryOptions());
  FinalMap got;
  std::vector<QueryRegistry::QueryId> head_ids;
  drive_prefix(head, &got, &head_ids);
  state::Writer w;
  head.SerializeState(w);
  const std::vector<uint8_t> bytes = w.Take();

  QueryRegistry tail(RegistryOptions());
  state::Reader r(bytes);
  tail.DeserializeState(r);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.AtEnd());
  EXPECT_EQ(tail.ActiveQueries(), head.ActiveQueries());
  {
    uint64_t seq = cut;
    Time seen = kNoTime;
    for (size_t i = 0; i < cut; ++i) seen = std::max(seen, tuples[i].ts);
    Time last_wm = kNoTime;
    for (size_t s = 16; s <= cut; s += 16) {
      Time m = kNoTime;
      for (size_t i = 0; i < s; ++i) m = std::max(m, tuples[i].ts);
      if (m - 64 > last_wm || last_wm == kNoTime) last_wm = m - 64;
    }
    drive_suffix(tail, &got, seq, seen, last_wm);
  }
  EXPECT_EQ(got, want);

  // Restoring with different Options must fail loudly, not half-apply.
  QueryRegistry::Options other = RegistryOptions();
  other.engine.store_mode = StoreMode::kEager;
  QueryRegistry wrong(other);
  state::Reader r2(bytes);
  wrong.DeserializeState(r2);
  EXPECT_FALSE(r2.ok());

  // So must a version-1 blob, here the one an empty registry wrote: a
  // retention-guard slot at engine window 0 and the two rewrite options.
  state::Writer v1;
  v1.Tag(0x51524547);  // "QREG"
  v1.U32(1);
  v1.Bool(false);      // engine.stream_in_order
  v1.I64(kLateness);   // engine.allowed_lateness
  v1.U8(static_cast<uint8_t>(StoreMode::kLazy));
  v1.Bool(false);      // engine.force_store_tuples
  v1.Bool(false);      // engine: slice at window ends
  v1.Bool(true);       // enable_rewrites
  v1.I64(4096);        // max_rewrite_fan_in
  v1.Bool(false);      // engine started
  v1.I64(0);           // next query id
  v1.I64(0);           // next global window id
  v1.U32(0);           // aggregations
  v1.U32(1);           // window slots: the guard
  v1.Str("");
  v1.Bool(true);
  v1.I64(0);
  v1.U32(0);           // queries
  v1.Tag(0x47534F50);  // engine "GSOP", never initialized
  v1.Bool(false);
  const std::vector<uint8_t> v1_bytes = v1.Take();
  QueryRegistry fresh(RegistryOptions());
  state::Reader r3(v1_bytes);
  fresh.DeserializeState(r3);
  EXPECT_FALSE(r3.ok());
  EXPECT_EQ(fresh.ActiveQueries(), 0u);

  // And a version-2 blob, the one an empty registry wrote while the
  // options fingerprint still held the start-only slicing flag.
  state::Writer v2;
  v2.Tag(0x51524547);  // "QREG"
  v2.U32(2);
  v2.Bool(false);      // engine.stream_in_order
  v2.I64(kLateness);   // engine.allowed_lateness
  v2.U8(static_cast<uint8_t>(StoreMode::kLazy));
  v2.Bool(false);      // engine.force_store_tuples
  v2.Bool(false);      // engine: slice at window ends
  v2.Bool(false);      // engine started
  v2.I64(0);           // next query id
  v2.I64(0);           // next global window id
  v2.U32(0);           // aggregations
  v2.U32(0);           // window slots
  v2.U32(0);           // queries
  v2.Tag(0x47534F50);  // engine "GSOP", never initialized
  v2.Bool(false);
  const std::vector<uint8_t> v2_bytes = v2.Take();
  QueryRegistry fresh_v2(RegistryOptions());
  state::Reader r4(v2_bytes);
  fresh_v2.DeserializeState(r4);
  EXPECT_FALSE(r4.ok());
  EXPECT_EQ(fresh_v2.ActiveQueries(), 0u);

  // Deregistering the last window of the time or the count lane leaves that
  // lane's state in the engine; the restore must recreate the lane instead
  // of rejecting the state.
  for (const bool drop_time : {true, false}) {
    QueryRegistry lanes(RegistryOptions());
    std::string err;
    const auto qt = lanes.Register({{"tumbling:10"}, {"sum"}}, &err);
    const auto qc = lanes.Register({{"ctumbling:5"}, {"sum"}}, &err);
    ASSERT_NE(qt, QueryRegistry::kInvalidQuery);
    ASSERT_NE(qc, QueryRegistry::kInvalidQuery);
    for (size_t i = 0; i < 40; ++i) lanes.ProcessTuple(tuples[i]);
    ASSERT_TRUE(lanes.Deregister(drop_time ? qt : qc));
    state::Writer w4;
    lanes.SerializeState(w4);
    const std::vector<uint8_t> lane_bytes = w4.Take();
    QueryRegistry lanes_tail(RegistryOptions());
    state::Reader r4(lane_bytes);
    lanes_tail.DeserializeState(r4);
    EXPECT_TRUE(r4.ok()) << "drop_time=" << drop_time;
    EXPECT_TRUE(r4.AtEnd()) << "drop_time=" << drop_time;
  }
}

}  // namespace
}  // namespace scotty
