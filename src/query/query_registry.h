#ifndef SCOTTY_QUERY_QUERY_REGISTRY_H_
#define SCOTTY_QUERY_QUERY_REGISTRY_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/general_slicing_operator.h"
#include "query/query_def.h"
#include "query/window_desc.h"

namespace scotty {

class QueryBuilder;

/// Multi-query shared slicing: one registry serves N concurrent window
/// queries over one shared stream from a single slice stream and a single
/// AggregateStore, instead of running one pipeline per query.
///
/// The registry owns one inner GeneralSlicingOperator ("the engine"). The
/// engine's StreamSlicer already slices at the union of all registered
/// windows' edges and its store already holds one partial per (slice, agg) —
/// so sharing is a matter of *planning* what each registered query adds:
///
///   - kShared:      the window is new — a fresh Window object joins the
///                   engine; its edges refine the shared slice stream.
///   - kSharedDedup: an identical window (same description) is already live —
///                   the query subscribes to the existing engine window and
///                   adds nothing. Identical aggregations (same registry
///                   name) are likewise computed once, whatever number of
///                   queries read them.
///
/// A window whose length and slide are multiples of a live tumbling
/// window's length adds no slice edge as kShared: every one of its edges is
/// already an edge of that tumbling window (DESIGN.md section 10).
///
/// Queries register before or during the stream. Mid-stream registrations
/// are limited to context-free time windows over already-registered
/// aggregation names (the engine's store cannot grow new aggregation columns
/// after the first tuple) and receive a *horizon*: only windows with
/// start >= horizon (the first instant after registration) are reported, so
/// a late-joining query never sees partially-observed history.
/// Deregistration drops the query's undelivered results and removes engine
/// windows that no remaining query subscribes to.
///
/// Results: the registry is itself a WindowOperator, so pipelines, the
/// parallel executor, and the checkpoint coordinator drive it like any other
/// operator. TakeResults() flattens all queries' results with globally dense
/// window ids (see GlobalWindowId) while agg ids stay local to the owning
/// query's def; TakeQueryResults(id) returns one query's results with both
/// ids local to its QueryDef. Each result is delivered exactly once, through
/// whichever accessor drains it first.
///
/// Snapshots: SerializeState writes the full query table (definitions,
/// plans, horizons, undelivered results) followed by the engine state;
/// DeserializeState rebuilds the engine and replays every registration from
/// its description before restoring engine state, so a freshly constructed
/// registry with the same Options — and nothing registered — resumes
/// bit-identically with all queries intact.
class QueryRegistry : public WindowOperator {
 public:
  using QueryId = int;
  static constexpr QueryId kInvalidQuery = -1;

  struct Options {
    GeneralSlicingOperator::Options engine;
  };

  enum class PlanKind : uint8_t {
    kShared = 0,
    kSharedDedup = 1,
    /// Never produced: every distinct window is an engine window. Kept so
    /// callers that tally plan kinds keep compiling; their tally reads 0.
    kDerived = 2,
  };

  /// Introspection: how each window of a query was planned.
  struct QueryPlan {
    bool alive = false;
    Time horizon = kNoTime;
    std::vector<PlanKind> windows;
  };

  QueryRegistry() : QueryRegistry(Options{}) {}
  explicit QueryRegistry(Options opts);
  ~QueryRegistry() override = default;

  QueryRegistry(const QueryRegistry&) = delete;
  QueryRegistry& operator=(const QueryRegistry&) = delete;

  /// Registers a query; returns its id, or kInvalidQuery with *error set
  /// (unparseable window, unknown aggregation, or an unsupported mid-stream
  /// registration). Ids are never reused within a registry's lifetime.
  QueryId Register(const QueryDef& def, std::string* error = nullptr);

  /// Registers a query assembled with the fluent QueryBuilder. The builder
  /// must be portable (QueryBuilder::HasPortableDef()): custom aggregation
  /// functions or window objects have no textual description the registry
  /// could replan or snapshot from.
  QueryId Register(const QueryBuilder& builder, std::string* error = nullptr);

  /// Removes a query: undelivered results are dropped, engine windows no
  /// remaining query needs are removed. False if the id is unknown or
  /// already deregistered.
  bool Deregister(QueryId id);

  /// One query's pending results, window_id/agg_id local to its QueryDef
  /// (window_id indexes def.windows, agg_id indexes def.aggs).
  std::vector<WindowResult> TakeQueryResults(QueryId id);

  QueryPlan Plan(QueryId id) const;
  size_t ActiveQueries() const { return queries_.size(); }
  /// Live engine windows: one per distinct live window description.
  size_t EngineWindows() const;
  /// The dense id TakeResults() reports for a query's local window id.
  int GlobalWindowId(QueryId id, int local_window_id) const;

  GeneralSlicingOperator* engine() { return engine_.get(); }
  const GeneralSlicingOperator* engine() const { return engine_.get(); }
  const Options& options() const { return opts_; }

  void ProcessTuple(const Tuple& t) override;
  void ProcessTupleColumns(const TupleColumnsView& cols) override;
  void ProcessWatermark(Time wm) override;
  void TakeResultsInto(std::vector<WindowResult>* out) override;
  size_t MemoryUsageBytes() const override;
  std::string Name() const override;

  void SerializeState(state::Writer& w) const override;
  void DeserializeState(state::Reader& r) override;
  // Incremental checkpointing composes through the WindowOperator default
  // delta, the full state read onto the previous barrier's registry;
  // per-query dirty tracking is future work (DESIGN.md section 10).

 private:
  struct PlannedWindow {
    PlanKind plan = PlanKind::kShared;
    int slot = -1;  // engine window id; slots_[slot].desc describes it
  };

  struct Query {
    QueryId id = kInvalidQuery;
    Time horizon = kNoTime;  // only windows with start >= horizon reported
    int global_base = 0;     // first dense global window id (TakeResults)
    std::vector<PlannedWindow> windows;
    std::vector<int> agg_slots;         // local agg id -> engine agg slot
    std::vector<WindowResult> pending;  // local ids
  };

  /// Engine window id == index.
  struct WindowSlot {
    std::string desc;
    int refs = 0;  // subscribing queries
    bool alive = false;
  };

  void DrainEngine();
  void RebuildSubscribers();

  Options opts_;
  std::unique_ptr<GeneralSlicingOperator> engine_;
  bool engine_started_ = false;

  std::vector<WindowSlot> slots_;
  std::vector<std::string> agg_names_;  // engine agg slot -> registry name
  std::map<QueryId, Query> queries_;    // alive queries only
  QueryId next_query_id_ = 0;
  int next_global_window_ = 0;

  struct Subscriber {
    QueryId query = kInvalidQuery;
    int local_window = -1;
  };
  std::vector<std::vector<Subscriber>> slot_subs_;  // engine slot -> readers
  bool subs_stale_ = true;

  std::vector<WindowResult> engine_scratch_;
};

}  // namespace scotty

#endif  // SCOTTY_QUERY_QUERY_REGISTRY_H_
