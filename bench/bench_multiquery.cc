// Multi-query shared slicing vs independent pipelines (DESIGN.md §10).
//
// Setup: N concurrent tumbling/sliding dashboard queries (lengths and
// slides all multiples of a 1s base granule, as in the paper's
// live-visualization workload) over one in-order sensor stream.
//
//   shared        one QueryRegistry serves all N queries from a single
//                 slice stream: identical windows deduplicate, and every
//                 distinct window's edges are multiples of the base
//                 tumbling granule, so no query cuts a slice the base does
//                 not and per-tuple cost stays near a single query's.
//   independent   N separate single-query slicing operators, each fed the
//                 whole stream — the one-pipeline-per-query deployment. Its
//                 rate is stream-tuples/s over the summed pass times: the
//                 input must be delivered N times to serve N queries.
//
// Figures (figure "multiquery", x = number of concurrent queries):
//   shared / independent             stream tuples/s
//   speedup-shared-vs-independent    shared over independent
//   engine-windows                   distinct windows the registry's engine
//                                    runs
//
// Rates are single-core and stream-relative, so the comparison is valid on
// any host: "independent" is not parallelized here — on a k-core host it
// could run up to k passes concurrently, which divides the gap by at most
// min(k, N) without changing the per-core work ratio.
//
// A pass lasts a few milliseconds, so every pass (the shared one and each
// independent one) is timed by BestReplayRate (bench_util.h): an untimed
// warm-up, then the fastest of several passes, each on a fresh operator.
//
// Results are appended to BENCH_throughput.json (see bench_json.h).

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "common/tuple_batch.h"
#include "core/general_slicing_operator.h"
#include "query/query_def.h"
#include "query/query_registry.h"
#include "query/window_desc.h"

namespace scotty {
namespace bench {
namespace {

constexpr size_t kReplayTuples = 4'000'000;
constexpr size_t kBatch = 1024;
constexpr size_t kWmEvery = 1 << 18;  // ~262k tuples between watermarks
constexpr Time kWmDelay = 2000;

/// Dashboard query i: tumbling and sliding windows whose lengths and slides
/// are all multiples of the 1s base granule query 0 registers, so every
/// window edge is a base edge.
QueryDef MakeQuery(int i) {
  QueryDef q;
  if (i == 0) {
    q.windows.push_back("tumbling:1000");
  } else if (i % 2 == 1) {
    q.windows.push_back("tumbling:" + std::to_string(1000 * (1 + i % 8)));
  } else {
    q.windows.push_back("sliding:" + std::to_string(1000 * (2 + i % 8)) +
                        ":" + std::to_string(1000 * (1 + i % 4)));
  }
  q.aggs.push_back("sum");
  return q;
}

TupleBatchSoA MaterializeStream() {
  TupleBatchSoA out(kReplayTuples);
  SensorStream src(SensorStream::Football());
  Tuple t;
  for (size_t i = 0; i < kReplayTuples && src.Next(&t); ++i) out.PushBack(t);
  return out;
}

/// One timed replay pass: columnar batch ingestion with periodic lagging
/// watermarks, a final watermark, and all results drained.
ThroughputResult MeasurePass(WindowOperator& op, const TupleBatchSoA& stream) {
  std::vector<WindowResult> drained;
  Time max_ts = kNoTime;
  const auto start = std::chrono::steady_clock::now();
  const size_t n = stream.size();
  for (size_t i = 0; i < n;) {
    const size_t len = std::min(kBatch, n - i);
    op.ProcessTupleColumns(stream.Subview(i, len));
    max_ts = stream.ts()[i + len - 1];  // in-order stream
    i += len;
    if (i % kWmEvery < kBatch) {
      op.ProcessWatermark(max_ts - kWmDelay);
      drained.clear();
      op.TakeResultsInto(&drained);
    }
  }
  op.ProcessWatermark(max_ts);
  drained.clear();
  op.TakeResultsInto(&drained);
  ThroughputResult r;
  r.tuples = n;
  r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  return r;
}

std::unique_ptr<QueryRegistry> MakeRegistry(int queries) {
  QueryRegistry::Options opts;
  opts.engine.stream_in_order = true;
  opts.engine.allowed_lateness = 0;
  auto reg = std::make_unique<QueryRegistry>(opts);
  for (int i = 0; i < queries; ++i) {
    std::string err;
    if (reg->Register(MakeQuery(i), &err) == QueryRegistry::kInvalidQuery) {
      std::fprintf(stderr, "register query %d failed: %s\n", i, err.c_str());
      std::abort();
    }
  }
  return reg;
}

std::unique_ptr<GeneralSlicingOperator> MakeSolo(const QueryDef& def) {
  GeneralSlicingOperator::Options o;
  o.stream_in_order = true;
  o.allowed_lateness = 0;
  auto op = std::make_unique<GeneralSlicingOperator>(o);
  for (const std::string& a : def.aggs) op->AddAggregation(MakeAggregation(a));
  for (const std::string& s : def.windows) {
    WindowDesc d;
    if (!WindowDesc::Parse(s, &d)) std::abort();
    op->AddWindow(d.Instantiate());
  }
  return op;
}

void Run() {
  PrintHeader("multiquery",
              "shared query registry vs N independent pipelines");
  const TupleBatchSoA stream = MaterializeStream();
  const double n_tuples = static_cast<double>(stream.size());
  for (const int queries : {1, 4, 8, 16}) {
    const std::string x = std::to_string(queries);

    EmitRow("multiquery", "engine-windows", x,
            static_cast<double>(MakeRegistry(queries)->EngineWindows()),
            "windows");
    const double shared_rate = BestReplayRate([&] {
      auto reg = MakeRegistry(queries);
      return MeasurePass(*reg, stream);
    });
    EmitRow("multiquery", "shared", x, shared_rate, "tuples/s");

    // Each independent pipeline's pass is timed on its own, best-of-N; the
    // deployment's time is the sum of its pipelines' best pass times.
    double indep_s = 0.0;
    for (int i = 0; i < queries; ++i) {
      indep_s += n_tuples / BestReplayRate([&] {
        auto op = MakeSolo(MakeQuery(i));
        return MeasurePass(*op, stream);
      });
    }
    const double indep_rate = n_tuples / indep_s;
    EmitRow("multiquery", "independent", x, indep_rate, "tuples/s");
    EmitRow("multiquery", "speedup-shared-vs-independent", x,
            shared_rate / indep_rate, "x");
  }
}

}  // namespace
}  // namespace bench
}  // namespace scotty

int main() {
  scotty::bench::Run();
  return 0;
}
