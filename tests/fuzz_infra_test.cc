// Unit tests for the fuzzing infrastructure itself — the harness verifies
// the engine, this verifies the harness: fault-plan seed derivation,
// oracle agreement on hand-built fixed streams, the coverage map, the
// corpus round trip, and the mutation engine's invariant preservation.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

#include "aggregates/registry.h"
#include "common/rng.h"
#include "core/general_slicing_operator.h"
#include "testing/corpus.h"
#include "testing/coverage.h"
#include "testing/differential.h"
#include "testing/fault_injector.h"
#include "testing/harness.h"
#include "testing/mutator.h"
#include "testing/oracle.h"

namespace scotty {
namespace testing {
namespace {

// ---------------------------------------------------------------------------
// FaultInjector seed derivation

TEST(FaultInjector, PlanDerivationIsDeterministic) {
  for (uint64_t seed : {1ull, 42ull, 0xDEADBEEFull, 987654321ull}) {
    const FaultPlan a = MakeFaultPlan(seed, 500);
    const FaultPlan b = MakeFaultPlan(seed, 500);
    EXPECT_EQ(a.crash_index, b.crash_index);
    EXPECT_EQ(a.fault, b.fault);
    EXPECT_EQ(a.fault_arg, b.fault_arg);
    EXPECT_EQ(a.mode, b.mode);
    EXPECT_EQ(a.delta_fault, b.delta_fault);
    EXPECT_EQ(a.delta_fault_arg, b.delta_fault_arg);
  }
}

TEST(FaultInjector, PlanDerivationCoversTheMatrix) {
  std::set<uint8_t> modes;
  std::set<uint8_t> faults;
  std::set<uint8_t> delta_faults;
  uint64_t min_idx = ~0ull;
  uint64_t max_idx = 0;
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    const FaultPlan p = MakeFaultPlan(seed, 200);
    ASSERT_GE(p.crash_index, 1u);
    ASSERT_LE(p.crash_index, 200u);
    min_idx = std::min(min_idx, p.crash_index);
    max_idx = std::max(max_idx, p.crash_index);
    modes.insert(static_cast<uint8_t>(p.mode));
    faults.insert(static_cast<uint8_t>(p.fault));
    if (p.mode != PersistMode::kSyncFull) {
      delta_faults.insert(static_cast<uint8_t>(p.delta_fault));
    }
  }
  EXPECT_EQ(modes.size(), 3u) << "all three persistence modes drawn";
  EXPECT_EQ(faults.size(), 3u) << "none/truncate/bit-flip all drawn";
  EXPECT_EQ(delta_faults.size(), 4u) << "all delta fault kinds drawn";
  EXPECT_LT(min_idx, 30u) << "early crashes drawn";
  EXPECT_GT(max_idx, 170u) << "late crashes drawn";
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  size_t distinct = 0;
  const FaultPlan base = MakeFaultPlan(1, 1000);
  for (uint64_t seed = 2; seed <= 20; ++seed) {
    const FaultPlan p = MakeFaultPlan(seed, 1000);
    distinct += p.crash_index != base.crash_index;
  }
  EXPECT_GT(distinct, 10u);
}

TEST(FaultInjector, CrashArmsLeaveNoScratchParent) {
  // The crash arms work under one per-process parent, which a passing run
  // removes once it is empty. The test makes the parent first, so a run
  // that removes only the technique directories fails it.
  namespace fs = std::filesystem;
  const fs::path parent = fs::temp_directory_path() / CrashScratchParentName();
  fs::create_directories(parent);
  DifferentialConfig cfg = RandomConfig(1, 200);
  cfg.crash = -1;
  const DifferentialOutcome o = RunDifferential(cfg);
  ASSERT_TRUE(o.ok) << cfg.ToFlags() << "\n  " << o.detail;
  EXPECT_GT(o.comparisons, 0u);
  EXPECT_FALSE(fs::exists(parent)) << parent;
}

// ---------------------------------------------------------------------------
// Oracle agreement on hand-built fixed streams: tiny, exactly computable
// cases run through the real slicing operator AND the brute-force oracle.

std::map<ResultKey, Value> Slicing(const std::vector<WindowSpec>& windows,
                                   const std::vector<std::string>& aggs,
                                   std::vector<Tuple> tuples, Time final_wm) {
  GeneralSlicingOperator::Options o;
  o.allowed_lateness = 1'000'000;
  GeneralSlicingOperator op(o);
  for (const std::string& a : aggs) op.AddAggregation(MakeAggregation(a));
  for (const WindowSpec& w : windows) op.AddWindow(w.Instantiate());
  return RunToFinalResults(op, tuples, final_wm);
}

std::map<ResultKey, Value> Oracle(const std::vector<WindowSpec>& windows,
                                  const std::vector<std::string>& aggs,
                                  std::vector<Tuple> tuples, Time final_wm) {
  for (size_t i = 0; i < tuples.size(); ++i) tuples[i].seq = i;
  return OracleResults(windows, aggs, tuples, final_wm);
}

TEST(OracleFixedStreams, TumblingSumMatchesByHand) {
  std::vector<WindowSpec> w;
  ASSERT_TRUE(ParseWindowSpecs("tumbling:10", &w));
  const std::vector<Tuple> s = {T(1, 2), T(4, 3), T(12, 5), T(19, 7),
                                T(25, 11)};
  // final_wm = 30 keeps the instance set finite: the oracle reports every
  // instance ending at or before the final watermark, including empty ones,
  // so a large watermark would append a tail of <empty> windows here.
  const auto oracle = Oracle(w, {"sum"}, s, 30);
  // Hand-computed: [0,10)=5, [10,20)=12, [20,30)=11.
  const std::map<ResultKey, Value> expected = {
      {{0, 0, 0, 10}, Value(5.0)},
      {{0, 0, 10, 20}, Value(12.0)},
      {{0, 0, 20, 30}, Value(11.0)},
  };
  EXPECT_EQ(oracle, expected);
  EXPECT_EQ(Slicing(w, {"sum"}, s, 30), oracle);
}

TEST(OracleFixedStreams, SlidingSessionAgreeWithOperator) {
  std::vector<WindowSpec> w;
  ASSERT_TRUE(ParseWindowSpecs("sliding:20:5,session:8", &w));
  const std::vector<Tuple> s = {T(2, 1),  T(5, 2),  T(9, 4),
                                T(30, 8), T(33, 16), T(60, 32)};
  const auto oracle = Oracle(w, {"sum", "max"}, s, 200);
  EXPECT_EQ(Slicing(w, {"sum", "max"}, s, 200), oracle);
  // Spot-check the sessions: [2,17), [30,41), [60,68).
  EXPECT_EQ(oracle.at({1, 0, 2, 17}), Value(7.0));
  EXPECT_EQ(oracle.at({1, 0, 30, 41}), Value(24.0));
  EXPECT_EQ(oracle.at({1, 1, 60, 68}), Value(32.0));
}

TEST(OracleFixedStreams, OutOfOrderArrivalAgrees) {
  std::vector<WindowSpec> w;
  ASSERT_TRUE(ParseWindowSpecs("tumbling:10,ctumbling:2", &w));
  // Deliberately shuffled arrival order with a duplicate timestamp.
  const std::vector<Tuple> s = {T(12, 1), T(3, 2), T(17, 3),
                                T(3, 4),  T(8, 5), T(21, 6)};
  const auto oracle = Oracle(w, {"sum", "count"}, s, 100);
  EXPECT_EQ(Slicing(w, {"sum", "count"}, s, 100), oracle);
  // The watermark baseline is the first ARRIVAL's ts - 1 (here 11, from
  // T(12)), so [0,10) is never reported even though tuples at ts 3/3/8
  // exist — they only surface through windows still open at the baseline.
  EXPECT_EQ(oracle.count({0, 0, 0, 10}), 0u);
  EXPECT_EQ(oracle.at({0, 0, 10, 20}), Value(4.0));  // 1+3 at ts 12,17
  // Count windows rank tuples in (ts, seq) order regardless of arrival:
  // ranks 0..1 are the two ts-3 tuples, values 2+4.
  EXPECT_EQ(oracle.at({1, 0, 0, 2}), Value(6.0));
}

TEST(OracleFixedStreams, PunctuationWindowsAgree) {
  std::vector<WindowSpec> w;
  ASSERT_TRUE(ParseWindowSpecs("punct", &w));
  std::vector<Tuple> s = {T(1, 2), T(4, 3)};
  Tuple p1 = T(4, 0);  // punctuation sharing ts 4 — the hard case
  p1.is_punctuation = true;
  s.push_back(p1);
  s.push_back(T(7, 5));
  Tuple p2 = T(9, 0);
  p2.is_punctuation = true;
  s.push_back(p2);
  s.push_back(T(11, 7));
  const auto oracle = Oracle(w, {"sum"}, s, 100);
  EXPECT_EQ(Slicing(w, {"sum"}, s, 100), oracle);
  // The data tuple sharing ts 4 with the punctuation belongs to the window
  // STARTING at 4 (instances are [start, end) over tuple ts), so [4,9)
  // holds T(4,3) + T(7,5) = 8 — exactly the boundary the FCF same-ts bug
  // got wrong.
  EXPECT_EQ(oracle.at({0, 0, 4, 9}), Value(8.0));
}

// ---------------------------------------------------------------------------
// Coverage map

TEST(CoverageMap, NewFeaturesDiscoverOnceThenSaturate) {
  CoverageMap& map = CoverageMap::Global();
  map.Reset();
  map.BeginRun();
  CoverFeature(FeatureDomain::kWindowShape, 1, 2);
  CoverFeature(FeatureDomain::kAggregation, 42);
  std::vector<uint32_t> feats;
  EXPECT_EQ(map.EndRun(&feats), 2u);
  EXPECT_EQ(feats.size(), 2u);
  EXPECT_EQ(map.CoveredCount(), 2u);

  map.BeginRun();
  CoverFeature(FeatureDomain::kWindowShape, 1, 2);
  CoverFeature(FeatureDomain::kAggregation, 42);
  EXPECT_EQ(map.EndRun(&feats), 0u) << "repeat run discovers nothing";
  EXPECT_EQ(feats.size(), 2u) << "but still reports its full feature set";

  map.BeginRun();
  CoverFeature(FeatureDomain::kAggregation, 43);
  EXPECT_EQ(map.EndRun(), 1u);
  EXPECT_EQ(map.CoveredCount(), 3u);
  map.Reset();
  EXPECT_EQ(map.CoveredCount(), 0u);
}

TEST(CoverageMap, EdgeHitCountsAreLog2Bucketed) {
  CoverageMap& map = CoverageMap::Global();
  map.Reset();
  map.BeginRun();
  map.HitEdge(7);
  EXPECT_EQ(map.EndRun(), 1u);
  map.BeginRun();
  map.HitEdge(7);  // same edge, same bucket (count 1)
  EXPECT_EQ(map.EndRun(), 0u);
  map.BeginRun();
  for (int i = 0; i < 100; ++i) map.HitEdge(7);  // bucket log2(100) = 6
  EXPECT_EQ(map.EndRun(), 1u) << "hot loop is a distinct feature";
  map.Reset();
}

TEST(CoverageMap, Log2Buckets) {
  EXPECT_EQ(Log2Bucket(0), 0u);
  EXPECT_EQ(Log2Bucket(1), 0u);
  EXPECT_EQ(Log2Bucket(2), 1u);
  EXPECT_EQ(Log2Bucket(3), 1u);
  EXPECT_EQ(Log2Bucket(4), 2u);
  EXPECT_EQ(Log2Bucket(1023), 9u);
  EXPECT_EQ(Log2Bucket(1024), 10u);
}

TEST(CoverageMap, DifferentialRunEmitsSemanticFeatures) {
  CoverageMap& map = CoverageMap::Global();
  map.Reset();
  map.BeginRun();
  DifferentialConfig cfg = RandomConfig(7, 120);
  EXPECT_TRUE(RunDifferential(cfg).ok);
  EXPECT_GT(map.EndRun(), 10u)
      << "one differential run must light up the semantic map";
  map.Reset();
}

// ---------------------------------------------------------------------------
// Corpus: serialization round trip and persistence

TEST(Corpus, ConfigLineRoundTrips) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const DifferentialConfig cfg = RandomConfig(seed, 777);
    DifferentialConfig back;
    std::string err;
    ASSERT_TRUE(ParseConfigLine(cfg.ToFlags(), &back, &err))
        << cfg.ToFlags() << "\n  " << err;
    EXPECT_EQ(back.ToFlags(), cfg.ToFlags());
  }
}

TEST(Corpus, ParseAcceptsProgramTokenAndComments) {
  DifferentialConfig cfg;
  std::string err;
  EXPECT_TRUE(ParseConfigLine(
      "fuzz_differential --seed=9 --tuples=50 --queries=tumbling:10 "
      "--aggs=sum,count # trailing note",
      &cfg, &err))
      << err;
  EXPECT_EQ(cfg.stream.seed, 9u);
  EXPECT_EQ(cfg.stream.num_tuples, 50);
  EXPECT_EQ(cfg.aggs.size(), 2u);
}

TEST(Corpus, ParseRejectsMalformedLines) {
  DifferentialConfig cfg;
  std::string err;
  EXPECT_FALSE(ParseConfigLine("", &cfg, &err));
  EXPECT_FALSE(ParseConfigLine("--seed=1 --tuples=10 --aggs=sum", &cfg, &err))
      << "missing --queries must fail";
  EXPECT_FALSE(ParseConfigLine(
      "--seed=1 --queries=tumbling:10 --aggs=not-an-agg", &cfg, &err));
  EXPECT_FALSE(ParseConfigLine(
      "--seed=1 --queries=bogus:10 --aggs=sum", &cfg, &err));
  EXPECT_FALSE(ParseConfigLine(
      "--seed=1 --queries=tumbling:10 --aggs=sum --bogus-flag=3", &cfg,
      &err));
}

TEST(Corpus, PersistAndLoadDirRoundTrip) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("scotty-corpus-test-" + std::to_string(static_cast<long>(::getpid()))))
          .string();
  std::filesystem::remove_all(dir);

  Corpus corpus;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    CorpusEntry e;
    e.cfg = RandomConfig(seed, 123);
    e.new_features = {1, 2, 3};
    std::string err;
    ASSERT_TRUE(corpus.Persist(dir, e, &err)) << err;
    corpus.Add(std::move(e));
  }

  Corpus reloaded;
  std::vector<std::string> errors;
  EXPECT_EQ(reloaded.LoadDir(dir, &errors), 5u);
  EXPECT_TRUE(errors.empty());
  for (const CorpusEntry& e : reloaded.entries()) {
    EXPECT_TRUE(corpus.Contains(e.cfg));
  }
  // Re-persisting the same entries is idempotent (same ids, same bytes).
  EXPECT_EQ(reloaded.LoadDir(dir, &errors), 0u)
      << "second load dedups against existing entries";
  std::filesystem::remove_all(dir);
}

TEST(Corpus, LoadDirReportsMalformedFiles) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("scotty-corpus-bad-" + std::to_string(static_cast<long>(::getpid()))))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(dir + "/bad.repro");
    out << "--seed=1 --queries=tumbling:10 --aggs=no-such-agg\n";
  }
  Corpus corpus;
  std::vector<std::string> errors;
  EXPECT_EQ(corpus.LoadDir(dir, &errors), 0u);
  EXPECT_EQ(errors.size(), 1u);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Mutator: determinism and invariant preservation

TEST(Mutator, DeterministicUnderSeededRng) {
  const DifferentialConfig base = RandomConfig(3, 400);
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(Mutate(base, a).ToFlags(), Mutate(base, b).ToFlags());
  }
}

TEST(Mutator, MutantsPreserveHarnessInvariants) {
  Rng rng(17);
  DifferentialConfig cfg = RandomConfig(1, 300);
  for (int step = 0; step < 500; ++step) {
    cfg = Mutate(cfg, rng);
    const StreamSpec& s = cfg.stream;
    ASSERT_GE(s.num_tuples, 1);
    ASSERT_GE(s.step_hi, s.step_lo);
    ASSERT_GE(s.step_hi, 1);
    ASSERT_GE(s.value_range, 1u);
    ASSERT_FALSE(cfg.windows.empty());
    ASSERT_FALSE(cfg.aggs.empty());
    bool has_punct = false;
    for (const WindowSpec& w : cfg.windows) {
      ASSERT_GE(w.length, 1) << w.ToString();
      switch (w.kind) {
        case WindowSpec::Kind::kSliding:
          ASSERT_GE(w.slide, 1) << w.ToString();
          ASSERT_LE(w.slide, w.length) << w.ToString();
          break;
        case WindowSpec::Kind::kThresholdFrame:
          // Frames need a reachable threshold and distinct timestamps.
          ASSERT_LE(static_cast<uint64_t>(w.length), s.value_range);
          ASSERT_GE(s.step_lo, 1) << "frames forbid duplicate timestamps";
          break;
        case WindowSpec::Kind::kPunctuation:
          has_punct = true;
          break;
        case WindowSpec::Kind::kLastNEveryT:
          ASSERT_GE(w.slide, 1) << w.ToString();
          break;
        default:
          break;
      }
    }
    if (has_punct) {
      ASSERT_GT(s.punctuation_probability, 0.0);
    }
    if (s.ooo_fraction > 0) {
      ASSERT_GT(s.max_delay, 0);
    }
    // Every mutant must survive the serialization round trip — mutants ARE
    // corpus entries.
    DifferentialConfig back;
    std::string err;
    ASSERT_TRUE(ParseConfigLine(cfg.ToFlags(), &back, &err))
        << cfg.ToFlags() << "\n  " << err;
    EXPECT_EQ(back.ToFlags(), cfg.ToFlags());
  }
}

TEST(Mutator, SpliceMixesParentsAndStaysValid) {
  Rng rng(23);
  const DifferentialConfig a = RandomConfig(5, 200);
  const DifferentialConfig b = RandomConfig(6, 200);
  for (int i = 0; i < 100; ++i) {
    const DifferentialConfig child = Splice(a, b, rng);
    ASSERT_FALSE(child.windows.empty());
    ASSERT_FALSE(child.aggs.empty());
    DifferentialConfig back;
    std::string err;
    ASSERT_TRUE(ParseConfigLine(child.ToFlags(), &back, &err)) << err;
  }
}

TEST(Mutator, MutantsActuallyRunClean) {
  // A sample of mutation chains through the full differential harness: the
  // mutator must produce configs the harness accepts end to end.
  Rng rng(31);
  DifferentialConfig cfg = RandomConfig(2, 60);
  for (int i = 0; i < 8; ++i) {
    cfg = Mutate(cfg, rng);
    DifferentialConfig small = cfg;
    small.stream.num_tuples = std::min(small.stream.num_tuples, 80);
    small.crash = 0;   // keep the unit test fast; crash runs have their own
    small.rescale = 0; // smoke budget in the fuzz lane
    const DifferentialOutcome o = RunDifferential(small);
    EXPECT_TRUE(o.ok) << small.ToFlags() << "\n  " << o.detail;
  }
}

}  // namespace
}  // namespace testing
}  // namespace scotty
