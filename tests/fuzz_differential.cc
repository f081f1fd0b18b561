// Differential fuzzing driver: runs query sets through the general slicing
// operator (lazy and eager stores), all three baseline operators, and the
// brute-force oracle, requiring identical final window aggregates
// everywhere. On a mismatch it shrinks the failing case and prints a
// one-line reproducer that replays deterministically:
//
//   fuzz_differential --seed=N --tuples=M --queries=... --aggs=...
//
// Modes:
//   fuzz_differential --seed=1 --runs=50 --tuples=20000   # random sweep
//   fuzz_differential --seed=7 --tuples=400 --queries=sliding:20:7 --aggs=sum
//                                                          # replay one case
//   fuzz_differential --guided --corpus=corpus/ --time-budget-s=60
//                                                          # guided loop
//
// The guided loop (DESIGN.md §8) keeps a corpus of configs that each
// contributed new coverage-map features (semantic features always; sancov
// edges too when built with -DSCOTTY_COVERAGE=ON), mutates energy-weighted
// parents, admits mutants that discover more, minimizes them with the
// shrinker while preserving their contribution, and persists every admitted
// entry to --corpus as a one-line .repro file that doubles as a seed for
// the next run and as a pasteable reproducer.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "aggregates/registry.h"
#include "bench/bench_json.h"
#include "common/rng.h"
#include "testing/corpus.h"
#include "testing/coverage.h"
#include "testing/differential.h"
#include "testing/mutator.h"

namespace {

using scotty::testing::Corpus;
using scotty::testing::CorpusEntry;
using scotty::testing::CoverageMap;
using scotty::testing::DifferentialConfig;
using scotty::testing::DifferentialOutcome;
using scotty::testing::GuidedScheduler;
using scotty::testing::Mutate;
using scotty::testing::ParseWindowSpecs;
using scotty::testing::RandomConfig;
using scotty::testing::RunDifferential;
using scotty::testing::Shrink;
using scotty::testing::ShrinkWhile;
using scotty::testing::Splice;

struct Flags {
  std::map<std::string, std::string> kv;
  bool Has(const std::string& k) const { return kv.count(k) != 0; }
  std::string Str(const std::string& k, const std::string& def = "") const {
    auto it = kv.find(k);
    return it == kv.end() ? def : it->second;
  }
  int64_t Int(const std::string& k, int64_t def) const {
    auto it = kv.find(k);
    return it == kv.end() ? def : std::strtoll(it->second.c_str(), nullptr, 10);
  }
  // Seeds are full-range uint64 (the mutator reseeds with NextU64()); going
  // through Int() would clamp values above INT64_MAX and silently replay a
  // different stream than the reproducer that was persisted.
  uint64_t U64(const std::string& k, uint64_t def) const {
    auto it = kv.find(k);
    return it == kv.end() ? def
                          : std::strtoull(it->second.c_str(), nullptr, 10);
  }
  double Dbl(const std::string& k, double def) const {
    auto it = kv.find(k);
    return it == kv.end() ? def : std::strtod(it->second.c_str(), nullptr);
  }
};

constexpr const char* kKnownFlags[] = {
    "seed",       "tuples",     "runs",      "verbose",    "no-shrink",
    "repro-file", "queries",    "aggs",      "step-lo",    "step-hi",
    "gap-prob",   "gap-len",    "value-range", "punct-prob", "ooo",
    "max-delay",  "burst-prob", "burst-len", "wm-every",   "batch",
    "checkpoint", "crash",      "rescale",   "shared-queries",
    "overload",   "kernel",     "guided",    "corpus",
    "seed-corpus", "time-budget-s", "stats-json", "stats-series",
    "no-minimize", "track-coverage"};

bool ParseFlags(int argc, char** argv, Flags* out) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", arg);
      return false;
    }
    const char* eq = std::strchr(arg, '=');
    const std::string key =
        eq == nullptr ? std::string(arg + 2) : std::string(arg + 2, eq);
    bool known = false;
    for (const char* k : kKnownFlags) known |= key == k;
    if (!known) {
      std::fprintf(stderr, "unknown flag: --%s\n", key.c_str());
      return false;
    }
    // Bare flags (e.g. --no-shrink) read as "1".
    out->kv[key] = eq == nullptr ? "1" : std::string(eq + 1);
  }
  return true;
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> parts;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) parts.push_back(cur);
  return parts;
}

/// Overlays any explicitly passed stream/watermark flags onto `cfg`. Replay
/// configs are defaults + flags, so reproducer lines never depend on the
/// RandomConfig derivation staying stable.
void ApplyOverrides(const Flags& flags, DifferentialConfig* cfg) {
  auto& s = cfg->stream;
  if (flags.Has("step-lo")) s.step_lo = flags.Int("step-lo", s.step_lo);
  if (flags.Has("step-hi")) s.step_hi = flags.Int("step-hi", s.step_hi);
  if (flags.Has("gap-prob")) {
    s.gap_probability = flags.Dbl("gap-prob", s.gap_probability);
  }
  if (flags.Has("gap-len")) s.gap_length = flags.Int("gap-len", s.gap_length);
  if (flags.Has("value-range")) {
    s.value_range =
        static_cast<uint64_t>(flags.Int("value-range",
                                        static_cast<int64_t>(s.value_range)));
  }
  if (flags.Has("punct-prob")) {
    s.punctuation_probability =
        flags.Dbl("punct-prob", s.punctuation_probability);
  }
  if (flags.Has("ooo")) s.ooo_fraction = flags.Dbl("ooo", s.ooo_fraction);
  if (flags.Has("max-delay")) s.max_delay = flags.Int("max-delay", s.max_delay);
  if (flags.Has("burst-prob")) {
    s.burst_probability = flags.Dbl("burst-prob", s.burst_probability);
  }
  if (flags.Has("burst-len")) {
    s.burst_length = static_cast<int>(flags.Int("burst-len", s.burst_length));
  }
  if (flags.Has("wm-every")) {
    cfg->wm_every = static_cast<int>(flags.Int("wm-every", cfg->wm_every));
  }
  if (flags.Has("batch")) {
    // N > 0: columnar runs (lazy, eager, in-order) in SoA blocks of N with
    // the kernel dispatch pinned to --kernel and, for vector modes, the
    // scalar fallback cross-check. 0: off.
    cfg->batch = static_cast<int>(flags.Int("batch", cfg->batch));
  }
  if (flags.Has("checkpoint")) {
    // N > 0: snapshot/restore at tuple N. -1: seed-derived random cut point
    // (forces the checkpoint dimension on for a whole sweep). 0: off.
    cfg->checkpoint = static_cast<int>(flags.Int("checkpoint",
                                                 cfg->checkpoint));
  }
  if (flags.Has("crash")) {
    // N > 0: kill the run at tuple N. -1: seed-derived kill point,
    // persistence mode (sync-full / sync-incremental / async-incremental),
    // and snapshot/delta-log fault (forces the crash-recovery dimension on
    // for a whole sweep — the nightly lane runs 500 seeds this way). 0: off.
    cfg->crash = static_cast<int>(flags.Int("crash", cfg->crash));
  }
  if (flags.Has("rescale")) {
    // Rescaling crash twin: keyed stream on W workers, crash, recover onto
    // W' != W by re-partitioning per-key state. N > 0: crash at tuple N.
    // -1: seed-derived crash point, worker counts, and faults (the nightly
    // rescaling lane runs 500 seeds this way). 0: off.
    cfg->rescale = static_cast<int>(flags.Int("rescale", cfg->rescale));
  }
  if (flags.Has("shared-queries")) {
    // Multi-query shared slicing: the config's query plus companion queries
    // in one QueryRegistry, each checked against its own solo run. N > 0:
    // N static companions. -1: seed-derived companions plus mid-stream
    // register/deregister dynamics (the nightly shared lane runs 500 seeds
    // this way). 0: off.
    cfg->shared =
        static_cast<int>(flags.Int("shared-queries", cfg->shared));
  }
  if (flags.Has("overload")) {
    // Overload-resilience arm: consumer stall + slow/failing persists with
    // backpressure, watermark-safe shedding, and the auto-fallback
    // persistence ladder; delivered ∪ shed-marked windows must partition
    // the unfaulted run. Any non-zero value derives the fault schedule from
    // the seed (the nightly fault-matrix lane runs 500 seeds this way).
    // 0: off.
    cfg->overload = static_cast<int>(flags.Int("overload", cfg->overload));
  }
  if (flags.Has("kernel")) cfg->kernel = flags.Str("kernel", cfg->kernel);
}

int ReportFailure(const Flags& flags, DifferentialConfig failing,
                  const std::string& detail) {
  std::fprintf(stderr, "FAIL: %s\n", detail.c_str());
  if (!flags.Has("no-shrink")) {
    std::fprintf(stderr, "shrinking...\n");
    failing = Shrink(failing);
  }
  const DifferentialOutcome replay = RunDifferential(failing);
  const std::string repro = "fuzz_differential " + failing.ToFlags();
  std::fprintf(stderr, "still failing with: %s\n",
               replay.ok ? "(shrunk case passes?! report the original)"
                         : replay.detail.c_str());
  std::fprintf(stderr, "reproducer: %s\n", repro.c_str());
  const std::string repro_file = flags.Str("repro-file");
  if (!repro_file.empty()) {
    std::ofstream out(repro_file, std::ios::app);
    out << repro << "\n" << (replay.ok ? detail : replay.detail) << "\n";
  }
  // A failing input is the most valuable corpus entry of all: persist it so
  // the next guided run re-checks the fix and mutates around the bug.
  const std::string corpus_dir = flags.Str("corpus");
  if (!corpus_dir.empty()) {
    CorpusEntry entry;
    entry.cfg = failing;
    std::string err;
    if (!Corpus().Persist(corpus_dir, entry, &err)) {
      std::fprintf(stderr, "corpus persist failed: %s\n", err.c_str());
    }
  }
  return 1;
}

/// Per-run stats: coverage totals, exec counts, corpus growth. The
/// machine-readable rows go to --stats-json in the BENCH_throughput.json
/// format so the tooling's own cost is tracked next to the perf baselines.
void EmitStats(const Flags& flags, const std::string& mode, size_t execs,
               double secs, size_t features, size_t corpus_size) {
  const double eps = secs > 0 ? static_cast<double>(execs) / secs : 0;
  std::printf(
      "[fuzz-stats] mode=%s execs=%zu secs=%.1f exec/s=%.1f "
      "features=%zu corpus=%zu edges=%s\n",
      mode.c_str(), execs, secs, eps, features, corpus_size,
      CoverageMap::Global().EdgeInstrumented() ? "instrumented" : "semantic-only");
  const std::string path = flags.Str("stats-json");
  if (path.empty()) return;
  ::setenv("SCOTTY_BENCH_JSON", path.c_str(), 1);
  const std::string series = flags.Str("stats-series", mode);
  scotty::bench::AppendJsonRow("fuzzer", series, "execs_per_sec", eps,
                               "exec/s");
  scotty::bench::AppendJsonRow("fuzzer", series, "coverage_features",
                               static_cast<double>(features), "features");
  scotty::bench::AppendJsonRow("fuzzer", series, "corpus_entries",
                               static_cast<double>(corpus_size), "entries");
}

/// Shared execution bookkeeping for the guided loop and the random
/// baseline: every differential run (including shrink probes — they spend
/// the same budget) is counted and feature-tracked here.
struct Executor {
  size_t execs = 0;
  std::set<uint32_t> seen;       // authoritative cross-run feature set
  double last_run_ms = 0;        // duration of the most recent Run()
  /// When non-empty, the config line is written here before every run and
  /// the file is removed after a clean return — an assert/crash mid-run
  /// leaves the triggering input behind (differential FAILs return normally
  /// and go through ReportFailure; this catches the aborts).
  std::string crash_log;

  DifferentialOutcome Run(const DifferentialConfig& cfg,
                          std::vector<uint32_t>* features) {
    if (!crash_log.empty()) {
      std::ofstream out(crash_log, std::ios::trunc);
      out << cfg.ToFlags() << "\n";
    }
    const auto t0 = std::chrono::steady_clock::now();
    CoverageMap::Global().BeginRun();
    const DifferentialOutcome o = RunDifferential(cfg);
    CoverageMap::Global().EndRun(features);
    if (!crash_log.empty()) std::remove(crash_log.c_str());
    last_run_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    ++execs;
    return o;
  }

  /// Runs `cfg` and splits its features into (all, newly seen). The new
  /// ones are NOT recorded into `seen` — admission does that, so probe
  /// runs (minimization, replay checks) never consume discoveries.
  DifferentialOutcome RunAndDiff(const DifferentialConfig& cfg,
                                 std::vector<uint32_t>* all,
                                 std::vector<uint32_t>* fresh) {
    const DifferentialOutcome o = Run(cfg, all);
    fresh->clear();
    for (uint32_t f : *all) {
      if (seen.count(f) == 0) fresh->push_back(f);
    }
    return o;
  }
};

int RunGuided(const Flags& flags) {
  const auto start = std::chrono::steady_clock::now();
  auto elapsed_s = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  const uint64_t seed = flags.U64("seed", 1);
  const int tuples = static_cast<int>(flags.Int("tuples", 600));
  int64_t max_execs = flags.Int("runs", 0);
  double budget_s = flags.Dbl("time-budget-s", 0);
  if (max_execs <= 0 && budget_s <= 0) budget_s = 10;  // always bounded
  const bool verbose = flags.Has("verbose");
  const bool minimize = !flags.Has("no-minimize");
  const std::string corpus_dir = flags.Str("corpus");

  Corpus corpus;
  std::vector<std::string> load_errors;
  if (!corpus_dir.empty()) corpus.LoadDir(corpus_dir, &load_errors);
  for (const std::string& dir : SplitCommas(flags.Str("seed-corpus"))) {
    corpus.LoadDir(dir, &load_errors);
  }
  for (const std::string& e : load_errors) {
    std::fprintf(stderr, "corpus: %s\n", e.c_str());
  }
  if (!load_errors.empty()) return 2;  // a torn corpus should be loud

  GuidedScheduler sched(seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL);
  if (corpus.empty()) {
    // Cold start: a handful of RandomConfig points so mutation has
    // structurally diverse parents from the first round.
    for (int i = 0; i < 4; ++i) {
      CorpusEntry entry;
      entry.cfg = RandomConfig(seed + static_cast<uint64_t>(i), tuples);
      ApplyOverrides(flags, &entry.cfg);
      corpus.Add(std::move(entry));
    }
  }
  std::set<std::string> known_lines;
  for (const CorpusEntry& e : corpus.entries()) {
    known_lines.insert(Corpus::CanonicalLine(e.cfg));
  }

  Executor exec;
  if (!corpus_dir.empty()) exec.crash_log = corpus_dir + "/.inflight";
  auto out_of_budget = [&] {
    return (max_execs > 0 &&
            exec.execs >= static_cast<size_t>(max_execs)) ||
           (budget_s > 0 && elapsed_s() >= budget_s);
  };

  // Replay every seed entry first: establishes the baseline coverage the
  // mutants must beat, re-checks the persisted reproducers against the
  // current build, and records each entry's own contribution.
  for (CorpusEntry& entry : corpus.entries()) {
    std::vector<uint32_t> all;
    std::vector<uint32_t> fresh;
    const DifferentialOutcome o = exec.RunAndDiff(entry.cfg, &all, &fresh);
    if (!o.ok) return ReportFailure(flags, entry.cfg, o.detail);
    entry.new_features = fresh;
    entry.cost_ms = exec.last_run_ms;
    exec.seen.insert(fresh.begin(), fresh.end());
    if (out_of_budget()) break;
  }

  size_t admitted = 0;
  uint64_t fresh_seed = seed + 1000003;  // exploration arm's seed stream
  while (!out_of_budget()) {
    const size_t parent_idx = sched.PickParent(corpus);
    DifferentialConfig mutant;
    const uint64_t round = sched.rng().NextBounded(8);
    if (round == 0) {
      // Exploration round: a brand-new RandomConfig point. Mutation walks
      // locally; this keeps the global sampling the random baseline has,
      // so guided strictly contains random as a sub-strategy.
      mutant = RandomConfig(fresh_seed++, tuples);
      ApplyOverrides(flags, &mutant);
    } else if (round == 1 && corpus.size() >= 2) {
      // Crossover round: splice two parents, then mutate the child.
      size_t other = sched.rng().NextBounded(corpus.size());
      if (other == parent_idx) other = (other + 1) % corpus.size();
      mutant = Mutate(Splice(corpus.entries()[parent_idx].cfg,
                             corpus.entries()[other].cfg, sched.rng()),
                      sched.rng());
    } else {
      mutant = Mutate(corpus.entries()[parent_idx].cfg, sched.rng());
    }
    corpus.entries()[parent_idx].picked++;
    if (known_lines.count(Corpus::CanonicalLine(mutant)) != 0) continue;

    std::vector<uint32_t> all;
    std::vector<uint32_t> fresh;
    const DifferentialOutcome o = exec.RunAndDiff(mutant, &all, &fresh);
    if (!o.ok) return ReportFailure(flags, mutant, o.detail);
    if (fresh.empty()) continue;
    const double mutant_cost_ms = exec.last_run_ms;

    // New coverage: minimize while preserving both the PASS verdict and
    // every newly contributed feature, then admit and persist.
    if (minimize && mutant.stream.num_tuples > 256 && !out_of_budget()) {
      const std::set<uint32_t> keep(fresh.begin(), fresh.end());
      mutant = ShrinkWhile(mutant, [&](const DifferentialConfig& c) {
        std::vector<uint32_t> probe;
        if (!exec.Run(c, &probe).ok) return false;
        size_t covered = 0;
        for (uint32_t f : probe) covered += keep.count(f);
        return covered == keep.size();
      });
      if (known_lines.count(Corpus::CanonicalLine(mutant)) != 0) continue;
    }
    exec.seen.insert(fresh.begin(), fresh.end());
    known_lines.insert(Corpus::CanonicalLine(mutant));
    CorpusEntry entry;
    entry.cfg = mutant;
    entry.new_features = fresh;
    entry.cost_ms = mutant_cost_ms;
    corpus.entries()[parent_idx].children_admitted++;
    if (!corpus_dir.empty()) {
      std::string err;
      if (!corpus.Persist(corpus_dir, entry, &err)) {
        std::fprintf(stderr, "corpus persist failed: %s\n", err.c_str());
        return 2;
      }
    }
    corpus.Add(std::move(entry));
    ++admitted;
    if (verbose) {
      std::printf("admit #%zu: +%zu features at exec %zu (%s)\n", admitted,
                  fresh.size(), exec.execs, mutant.ToFlags().c_str());
    }
  }

  EmitStats(flags, "guided", exec.execs, elapsed_s(), exec.seen.size(),
            corpus.size());
  std::printf("OK: guided, %zu exec(s), %zu features, %zu admitted, corpus %zu\n",
              exec.execs, exec.seen.size(), admitted, corpus.size());
  return 0;
}

/// Random sweep with the same coverage accounting as the guided loop — the
/// control arm of the guided-vs-random comparison in EXPERIMENTS.md.
int RunRandomTracked(const Flags& flags) {
  const auto start = std::chrono::steady_clock::now();
  auto elapsed_s = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  const uint64_t seed = flags.U64("seed", 1);
  const int tuples = static_cast<int>(flags.Int("tuples", 600));
  int64_t max_execs = flags.Int("runs", 0);
  double budget_s = flags.Dbl("time-budget-s", 0);
  if (max_execs <= 0 && budget_s <= 0) budget_s = 10;

  Executor exec;
  const std::string corpus_dir = flags.Str("corpus");
  if (!corpus_dir.empty()) exec.crash_log = corpus_dir + "/.inflight";
  uint64_t s = seed;
  while ((max_execs <= 0 || exec.execs < static_cast<size_t>(max_execs)) &&
         (budget_s <= 0 || elapsed_s() < budget_s)) {
    DifferentialConfig cfg = RandomConfig(s++, tuples);
    ApplyOverrides(flags, &cfg);
    std::vector<uint32_t> all;
    std::vector<uint32_t> fresh;
    const DifferentialOutcome o = exec.RunAndDiff(cfg, &all, &fresh);
    if (!o.ok) return ReportFailure(flags, cfg, o.detail);
    exec.seen.insert(fresh.begin(), fresh.end());
  }
  EmitStats(flags, "random", exec.execs, elapsed_s(), exec.seen.size(), 0);
  std::printf("OK: random, %zu exec(s), %zu features, seeds [%llu, %llu]\n",
              exec.execs, exec.seen.size(),
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(s - 1));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;

  if (flags.Has("guided")) return RunGuided(flags);
  if (flags.Has("track-coverage")) return RunRandomTracked(flags);

  const uint64_t seed = flags.U64("seed", 1);
  const int tuples = static_cast<int>(flags.Int("tuples", 2000));
  const int runs = static_cast<int>(flags.Int("runs", 1));
  const bool verbose = flags.Has("verbose");

  if (flags.Has("queries")) {
    // Replay mode: the config is exactly defaults + flags.
    DifferentialConfig cfg;
    if (!ParseWindowSpecs(flags.Str("queries"), &cfg.windows)) {
      std::fprintf(stderr, "bad --queries: %s\n",
                   flags.Str("queries").c_str());
      return 2;
    }
    cfg.aggs = SplitCommas(flags.Str("aggs", "sum"));
    for (const std::string& name : cfg.aggs) {
      if (scotty::MakeAggregation(name) == nullptr) {
        std::fprintf(stderr, "bad --aggs: unknown aggregation '%s'\n",
                     name.c_str());
        return 2;
      }
    }
    cfg.stream.seed = seed;
    cfg.stream.num_tuples = tuples;
    ApplyOverrides(flags, &cfg);
    const DifferentialOutcome o = RunDifferential(cfg);
    if (!o.ok) return ReportFailure(flags, cfg, o.detail);
    std::printf("OK: %zu comparisons (%s)\n", o.comparisons,
                cfg.ToFlags().c_str());
    return 0;
  }

  size_t total_comparisons = 0;
  for (int r = 0; r < runs; ++r) {
    const uint64_t s = seed + static_cast<uint64_t>(r);
    DifferentialConfig cfg = RandomConfig(s, tuples);
    ApplyOverrides(flags, &cfg);
    const DifferentialOutcome o = RunDifferential(cfg);
    if (!o.ok) return ReportFailure(flags, cfg, o.detail);
    total_comparisons += o.comparisons;
    if (verbose) {
      std::printf("seed %llu ok: %zu comparisons (%s)\n",
                  static_cast<unsigned long long>(s), o.comparisons,
                  cfg.ToFlags().c_str());
    }
  }
  std::printf("OK: %d run(s), %zu comparisons, seeds [%llu, %llu]\n", runs,
              total_comparisons, static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seed + runs - 1));
  return 0;
}
