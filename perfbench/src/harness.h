// Shared machinery of the end-to-end benchmark: seeded input generation,
// the independent correctness check against the brute-force oracle, the
// in-memory span tracer, and small statistics helpers.
//
// Everything here runs outside the measured clock except Tracer::Begin/End,
// which the traced run wraps around calls into the library's public API.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "common/tuple.h"
#include "common/tuple_batch.h"
#include "core/window_operator.h"
#include "query/window_desc.h"

namespace perfbench {

using scotty::Time;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolation quantile (q in [0, 1]) of `v`; 0 when empty.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Metrics in report order. Setting a name twice overwrites its value.
class Metrics {
 public:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

// ---------------------------------------------------------------------------
// Seeded inputs.

/// Shape of one generated stream. Streams derive from the football preset
/// (2 kHz, integer values), so integer-valued aggregates are exact in any
/// fold order.
struct StreamSpec {
  size_t tuples = 0;
  int64_t keys = 16;
  double ooo_fraction = 0.0;  // share of tuples whose arrival is delayed
  Time max_delay = 0;         // uniform delay bound, ms
  size_t wm_every = 0;        // periodic watermark every N tuples (0 = none)
  Time wm_lag = 0;            // periodic watermark = max ts seen - wm_lag
  Time lateness = 0;          // the operators' allowed lateness
};

/// A generated stream in arrival order plus its watermark schedule. Tuples
/// that every operator would drop as too late (ts < last watermark −
/// lateness) are removed at generation, so no operation of a workload
/// fails by design; `filtered` counts them.
struct Stream {
  scotty::TupleBatchSoA cols;         // what the code under test receives
  std::vector<scotty::Tuple> tuples;  // same tuples, for the reference only
  std::vector<size_t> wm_after;       // watermark k follows tuple wm_after[k]-1
  std::vector<Time> wm_value;
  Time final_wm = scotty::kNoTime;    // handed in after the last tuple
  size_t filtered = 0;

  size_t size() const { return cols.size(); }
};

Stream GenerateStream(const StreamSpec& spec, uint64_t seed);

/// Deterministic 64-bit mix of a seed and a stream id (splitmix64).
uint64_t MixSeed(uint64_t seed, uint64_t stream);

// ---------------------------------------------------------------------------
// Correctness check.

/// Identity of a window instance: partition key, window id, agg id, extent.
using ResultKey = std::tuple<int64_t, int, int, Time, Time>;
/// Expected final value per instance, sorted by key.
using Reference = std::vector<std::pair<ResultKey, scotty::Value>>;

/// Reference results of one query (window descriptions + aggregation names)
/// over `tuples` (arrival order, seq = arrival index) via
/// testing::OracleResults, appended to `*out` under partition key `key`
/// with window ids shifted by `window_base`. Call SortReference once done.
void AppendOracle(const std::vector<scotty::WindowDesc>& windows,
                  const std::vector<std::string>& aggs,
                  const std::vector<scotty::Tuple>& tuples, Time final_wm,
                  int64_t key, int window_base, Reference* out);
void SortReference(Reference* ref);

struct CheckCounts {
  uint64_t expected = 0;  // reference instances
  uint64_t missing = 0;
  uint64_t extra = 0;
  uint64_t wrong = 0;
  uint64_t failed() const { return missing + extra + wrong; }
  void Add(const CheckCounts& o) {
    expected += o.expected;
    missing += o.missing;
    extra += o.extra;
    wrong += o.wrong;
  }
};

/// Compares every drained result against the reference. Later emissions of
/// an instance (allowed-lateness updates) override earlier ones, so the
/// compared state is what a consumer holds at the end. `keyed` selects
/// whether WindowResult::key is part of the identity.
CheckCounts Compare(const Reference& ref,
                    const std::vector<scotty::WindowResult>& got, bool keyed);

/// Integer-valued numbers must match exactly; other doubles within a
/// relative 1e-9 (avg divides in possibly another order).
bool ValuesMatch(const scotty::Value& a, const scotty::Value& b);

// ---------------------------------------------------------------------------
// Tracing.

/// In-memory span recorder. Spans on track 0 come from the producer thread
/// and nest through Begin/End; worker-thread spans are recorded by the
/// workload into its own buffers and added with AddSpan after the workers
/// joined, each worker on its own track. Nothing here is thread-safe.
class Tracer {
 public:
  struct Span {
    std::string_view name;  // string literal
    int track = 0;
    int parent = -1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  int Begin(std::string_view name) {
    spans_.push_back(Span{name, 0, open_, NowNs(), 0});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }
  void End(int idx) {
    spans_[static_cast<size_t>(idx)].end_ns = NowNs();
    open_ = spans_[static_cast<size_t>(idx)].parent;
  }
  void AddSpan(std::string_view name, int track, int parent, int64_t start_ns,
               int64_t end_ns) {
    spans_.push_back(Span{name, track, parent, start_ns, end_ns});
  }
  const std::vector<Span>& spans() const { return spans_; }

  struct Summary {
    uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;  // duration minus the child spans' durations
    std::vector<double> durations_ns;
  };
  /// Per-name summaries over all spans.
  std::map<std::string, Summary> Summarize() const;

  /// Writes the first `count` spans as Chrome trace-event JSON.
  bool WriteChromeTrace(const std::string& path, size_t count) const;

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

/// RAII span; a null tracer makes it a no-op (the untraced runs).
class Scope {
 public:
  Scope(Tracer* t, std::string_view name)
      : t_(t), idx_(t != nullptr ? t->Begin(name) : -1) {}
  ~Scope() {
    if (t_ != nullptr) t_->End(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int idx_;
};

// ---------------------------------------------------------------------------
// Workloads.

/// One replay of the whole generated stream through a freshly set-up
/// system.
struct RoundResult {
  double setup_s = 0.0;  // construct, register, Start()
  double clock_s = 0.0;  // first tuple handed in .. last result drained
  uint64_t tuples = 0;
  std::vector<double> latency_us;  // emit-latency samples
  double state_bytes = 0.0;        // state_bytes_peak of this round
  CheckCounts check;
  uint64_t barriers_attempted = 0;
  uint64_t barriers_failed = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the seeded inputs and the reference results.
  virtual void Prepare(uint64_t seed) = 0;
  /// Sets up, replays, tears down, and checks. `tracer` is null in
  /// untraced rounds.
  virtual RoundResult Round(Tracer* tracer) = 0;
  /// One set-up alone (torn down outside the measurement), in seconds.
  virtual double SetupOnce() = 0;
  /// Per-layer metrics from the traced rounds' spans plus the counts the
  /// layers expose.
  virtual void LayerMetrics(const Tracer& tracer, Metrics* out) = 0;
  /// The generated stream's columns (the aggregates floor pass reads them).
  virtual const scotty::TupleBatchSoA& Columns() const = 0;
  /// Worker threads of the executor workloads; 0 when single-threaded.
  virtual size_t Workers() const { return 0; }
  /// Executor workloads: changes the worker count of later rounds (the
  /// single-worker baseline).
  virtual void SetWorkers(size_t n) { (void)n; }
};

/// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& work_dir);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
