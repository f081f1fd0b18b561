// End-to-end benchmark program. See perfbench/NOTES.md for the workloads,
// the clock rule and every metric's definition.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--trace-out <file>]
//   perfbench --self-test
//
// Untraced runs (--trace 0) report the end-to-end metrics. Traced runs
// (--trace 1) spend 40% of the budget untraced, 40% traced (a span around
// every call into a layer) and the rest on the single-worker baseline of
// the executor workloads, and report the per-layer metrics. Every drained
// result of every round is checked against the brute-force oracle. The last
// stdout line is one JSON object; run.py turns it into the final report.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "aggregates/kernels.h"
#include "aggregates/registry.h"
#include "core/general_slicing_operator.h"
#include "harness.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace perfbench {
namespace {

/// Why this binary's numbers must not be reported, or "" when they may.
std::string BuildRefusal() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return "sanitizer build";
#endif
#endif
#ifdef SCOTTY_INJECT_SPLIT_BUG
  return "SCOTTY_INJECT_SPLIT_BUG build";
#endif
  const std::string flags = PERFBENCH_CXX_FLAGS;
  for (const char* bad : {"-fsanitize", "--coverage", "-fprofile-arcs",
                          "-ftest-coverage", "SCOTTY_INJECT_SPLIT_BUG"}) {
    if (flags.find(bad) != std::string::npos) {
      return std::string("instrumented build (") + bad + ")";
    }
  }
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "build type '" + type + "' is not optimized";
  }
  return "";
}

std::string EnvStamp() {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"nproc\": %ld, \"hardware_concurrency\": %u, \"kernel_mode\": "
      "\"%s\", \"build_type\": \"%s\", \"compiler\": \"%s\"}",
      sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency(),
      scotty::simd::ModeName(scotty::simd::BestSupportedMode()),
      PERFBENCH_BUILD_TYPE, __VERSION__);
  return buf;
}

/// ns per tuple of one standalone pass of the public column kernels (sum,
/// min, max) over the stream's value column in 1024-tuple blocks: the floor
/// under any columnar ingest of these aggregations. Median of 7 passes.
double FoldNsPerTuple(const scotty::TupleBatchSoA& cols) {
  const double* v = cols.value();
  const size_t n = cols.size();
  std::vector<double> samples;
  volatile double sink = 0;
  for (int rep = 0; rep < 7; ++rep) {
    double s = 0, lo = 1e300, hi = -1e300;
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < n; i += 1024) {
      const size_t len = std::min<size_t>(1024, n - i);
      s = scotty::simd::SumColumn(v + i, len, s);
      lo = scotty::simd::MinColumn(v + i, len, lo);
      hi = scotty::simd::MaxColumn(v + i, len, hi);
    }
    samples.push_back(static_cast<double>(NowNs() - t0) /
                      static_cast<double>(n));
    sink = sink + s + lo + hi;
  }
  return Median(samples);
}

double RoundTps(const RoundResult& r) {
  return static_cast<double>(r.tuples) / r.clock_s;
}

struct Phase {
  std::vector<RoundResult> rounds;

  /// The fastest tenth of the rounds (at least one). Other tenants of the
  /// host only ever slow a round down, and their load shifts over seconds,
  /// so the fastest rounds track the code's own speed from run to run while
  /// the median over all rounds follows the neighbours (printed alongside).
  std::vector<const RoundResult*> Fastest() const {
    std::vector<const RoundResult*> out;
    for (const RoundResult& r : rounds) out.push_back(&r);
    std::sort(out.begin(), out.end(),
              [](const RoundResult* a, const RoundResult* b) {
                return RoundTps(*a) > RoundTps(*b);
              });
    out.resize(std::max<size_t>(1, out.size() / 10));
    return out;
  }
  /// Median throughput of the fastest tenth of the rounds.
  double Tps() const {
    std::vector<double> tps;
    for (const RoundResult* r : Fastest()) tps.push_back(RoundTps(*r));
    return Median(tps);
  }
};

/// Runs rounds until `seconds` of wall time passed, at least `min_rounds`
/// and at most `max_rounds`.
/// A single-threaded workload moves to the next CPU every half second: the
/// scheduler keeps one busy thread on one CPU, and how much a host's other
/// tenants slow each CPU differs and drifts, so rotating samples every CPU
/// instead of whichever one a run happened to land on (the cold round after
/// a move falls out of the fastest tenth). Executor workloads keep the full
/// CPU set, which their workers inherit from the producer.
Phase RunPhase(Workload& w, Tracer* tr, double seconds, size_t min_rounds,
               size_t max_rounds = SIZE_MAX) {
  constexpr int64_t kCpuStintNs = 500'000'000;
  Phase p;
  cpu_set_t all;
  std::vector<int> cpus;
  if (w.Workers() == 0 && sched_getaffinity(0, sizeof(all), &all) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all)) cpus.push_back(c);
    }
  }
  size_t stint = 0;
  int64_t stint_end = 0;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (p.rounds.size() < min_rounds ||
         (NowNs() < deadline && p.rounds.size() < max_rounds)) {
    if (!cpus.empty() && NowNs() >= stint_end) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[stint++ % cpus.size()], &one);
      sched_setaffinity(0, sizeof(one), &one);
      stint_end = NowNs() + kCpuStintNs;
    }
    p.rounds.push_back(w.Round(tr));
  }
  if (!cpus.empty()) sched_setaffinity(0, sizeof(all), &all);
  return p;
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const auto& es = m.entries();
  for (size_t i = 0; i < es.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", es[i].name.c_str(), es[i].value,
                es[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Shows that the check counts one corrupted value and one dropped result:
/// a small out-of-order run must match the oracle exactly, and the two
/// injected faults must each be counted once, as wrong and as missing.
int SelfTest() {
  StreamSpec spec;
  spec.tuples = 50'000;
  spec.ooo_fraction = 0.2;
  spec.max_delay = 2000;
  spec.wm_every = 1024;
  spec.wm_lag = 2000;
  spec.lateness = 2000;
  Stream s = GenerateStream(spec, 7);
  std::vector<scotty::WindowDesc> windows(2);
  scotty::WindowDesc::Parse("tumbling:1000", &windows[0]);
  scotty::WindowDesc::Parse("session:1000", &windows[1]);
  const std::vector<std::string> aggs = {"sum", "max"};
  Reference ref;
  AppendOracle(windows, aggs, s.tuples, s.final_wm, 0, 0, &ref);
  SortReference(&ref);

  scotty::GeneralSlicingOperator::Options o;
  o.allowed_lateness = spec.lateness;
  scotty::GeneralSlicingOperator op(o);
  for (const std::string& a : aggs) op.AddAggregation(scotty::MakeAggregation(a));
  for (const auto& w : windows) op.AddWindow(w.Instantiate());
  std::vector<scotty::WindowResult> got;
  size_t next_wm = 0;
  for (size_t i = 0; i < s.size();) {
    size_t len = std::min<size_t>(1024, s.size() - i);
    if (next_wm < s.wm_after.size()) len = std::min(len, s.wm_after[next_wm] - i);
    op.ProcessTupleColumns(s.cols.Subview(i, len));
    i += len;
    if (next_wm < s.wm_after.size() && s.wm_after[next_wm] == i) {
      op.ProcessWatermark(s.wm_value[next_wm++]);
      op.TakeResultsInto(&got);
    }
  }
  op.ProcessWatermark(s.final_wm);
  op.TakeResultsInto(&got);

  const CheckCounts clean = Compare(ref, got, false);
  // Corrupt the last emission (it is the final value of its instance) and
  // drop every emission of the first instance.
  std::vector<scotty::WindowResult> faulty = got;
  faulty.back().value = scotty::Value(faulty.back().value.Numeric() + 1.0);
  const scotty::WindowResult first = faulty.front();
  std::erase_if(faulty, [&](const scotty::WindowResult& r) {
    return r.window_id == first.window_id && r.agg_id == first.agg_id &&
           r.start == first.start && r.end == first.end;
  });
  const CheckCounts bad = Compare(ref, faulty, false);
  std::printf("self-test: %llu reference results; clean run: missing=%llu "
              "extra=%llu wrong=%llu; faulty run: missing=%llu extra=%llu "
              "wrong=%llu\n",
              static_cast<unsigned long long>(clean.expected),
              static_cast<unsigned long long>(clean.missing),
              static_cast<unsigned long long>(clean.extra),
              static_cast<unsigned long long>(clean.wrong),
              static_cast<unsigned long long>(bad.missing),
              static_cast<unsigned long long>(bad.extra),
              static_cast<unsigned long long>(bad.wrong));
  const bool ok = clean.expected > 0 && clean.failed() == 0 &&
                  bad.missing == 1 && bad.wrong == 1 && bad.extra == 0;
  std::printf("self-test %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>] [--trace-out <file>]\n"
               "       perfbench --self-test\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, work_dir = ".", trace_out;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false, self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--self-test") {
      self_test = true;
    } else if (next == nullptr) {
      return Usage();
    } else if (a == "--workload") {
      workload = argv[++i];
    } else if (a == "--seed") {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--work-dir") {
      work_dir = argv[++i];
    } else if (a == "--trace-out") {
      trace_out = argv[++i];
    } else {
      return Usage();
    }
  }
  const std::string refusal = BuildRefusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "perfbench: refusing to report numbers from a %s\n",
                 refusal.c_str());
    return 3;
  }
  std::printf("# env: %s\n", EnvStamp().c_str());
  if (self_test) return SelfTest();
  std::unique_ptr<Workload> w = MakeWorkload(workload, work_dir);
  if (w == nullptr || !(seconds > 0)) return Usage();

  const int64_t p0 = NowNs();
  w->Prepare(seed);
  std::printf("# %s seed=%llu: inputs and reference in %.2f s\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              static_cast<double>(NowNs() - p0) / 1e9);

  // The first round warms caches and allocators; it is checked but not
  // measured.
  std::vector<RoundResult> all;
  all.push_back(w->Round(nullptr));
  Phase plain = RunPhase(*w, nullptr, trace ? 0.4 * seconds : seconds, 10);
  Tracer tracer;
  Phase traced, single;
  bool has_workers = false;
  if (trace) {
    // 500 traced rounds bound the spans kept in memory on the fast
    // workloads (about 130k spans per 1000 rounds there).
    traced = RunPhase(*w, &tracer, 0.4 * seconds, 2, 500);
    const size_t workers = w->Workers();
    has_workers = workers > 0;
    if (has_workers) {
      w->SetWorkers(1);
      single = RunPhase(*w, nullptr, 0.2 * seconds, 2);
      w->SetWorkers(workers);
    }
  }
  for (const Phase* p : {&plain, &traced, &single}) {
    all.insert(all.end(), p->rounds.begin(), p->rounds.end());
  }

  std::vector<double> setups;
  for (const RoundResult& r : all) setups.push_back(r.setup_s);
  while (setups.size() < 31) setups.push_back(w->SetupOnce());

  CheckCounts check;
  uint64_t barriers = 0, barriers_failed = 0;
  for (const RoundResult& r : all) {
    check.Add(r.check);
    barriers += r.barriers_attempted;
    barriers_failed += r.barriers_failed;
  }
  const uint64_t attempted = check.expected + barriers;
  const uint64_t failed = check.failed() + barriers_failed;
  std::printf("# %zu rounds (%zu measured untraced, %zu traced, %zu "
              "single-worker); check: %llu expected results, missing=%llu "
              "extra=%llu wrong=%llu; barriers %llu, failed %llu\n",
              all.size(), plain.rounds.size(), traced.rounds.size(),
              single.rounds.size(),
              static_cast<unsigned long long>(check.expected),
              static_cast<unsigned long long>(check.missing),
              static_cast<unsigned long long>(check.extra),
              static_cast<unsigned long long>(check.wrong),
              static_cast<unsigned long long>(barriers),
              static_cast<unsigned long long>(barriers_failed));

  Metrics m;
  const double tps = plain.Tps();
  {
    std::vector<double> per_round;
    for (const RoundResult& r : plain.rounds) per_round.push_back(RoundTps(r));
    std::printf("# untraced throughput per round: q1=%.4g median=%.4g "
                "q3=%.4g max=%.4g; fastest tenth (%zu rounds): median=%.4g "
                "tuples/s\n",
                Quantile(per_round, 0.25), Quantile(per_round, 0.5),
                Quantile(per_round, 0.75), Quantile(per_round, 1.0),
                plain.Fastest().size(), tps);
  }
  if (!trace) {
    std::vector<double> lat;
    for (const RoundResult* r : plain.Fastest()) {
      lat.insert(lat.end(), r->latency_us.begin(), r->latency_us.end());
    }
    double state = 0;
    for (const RoundResult& r : plain.rounds) {
      state = std::max(state, r.state_bytes);
    }
    std::printf("# emit latency: %zu samples from the fastest tenth of the "
                "rounds\n",
                lat.size());
    m.Set("throughput_tps", tps, "tuples/s");
    m.Set("emit_latency_p50_us", Quantile(lat, 0.5), "us");
    m.Set("emit_latency_p99_us", Quantile(lat, 0.99), "us");
    m.Set("state_bytes_peak", state, "bytes");
    m.Set("setup_s", Median(setups), "s");
  } else {
    w->LayerMetrics(tracer, &m);
    m.Set("aggregates.fold_ns_per_tuple", FoldNsPerTuple(w->Columns()), "ns");
    if (has_workers) m.Set("runtime.scaling_3v1", tps / single.Tps(), "ratio");
    m.Set("tracing.overhead", 1.0 - traced.Tps() / tps, "frac");
    m.Set("failed_ops_frac",
          static_cast<double>(failed) / static_cast<double>(attempted),
          "frac");
    std::printf("# spans over %zu traced rounds (self = duration minus "
                "child spans):\n",
                traced.rounds.size());
    for (const auto& [name, s] : tracer.Summarize()) {
      std::printf("#   %-26s count=%-9llu total=%10.3f ms  self=%10.3f ms\n",
                  name.c_str(), static_cast<unsigned long long>(s.count),
                  s.total_ns / 1e6, s.self_ns / 1e6);
    }
    if (!trace_out.empty()) {
      // The first traced round (and its worker spans) keeps the file small.
      size_t end = tracer.spans().size();
      int roots = 0;
      for (size_t i = 0; i < tracer.spans().size(); ++i) {
        const Tracer::Span& sp = tracer.spans()[i];
        if (sp.name == "round" && sp.parent < 0 && ++roots == 2) {
          end = i;
          break;
        }
      }
      if (!tracer.WriteChromeTrace(trace_out, end)) {
        std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      }
    }
  }
  PrintJson(failed == 0, attempted, failed, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
