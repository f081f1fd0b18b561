#include "query/query_registry.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "aggregates/registry.h"
#include "core/query_builder.h"

namespace scotty {

namespace {

constexpr uint32_t kRegistryTag = 0x51524547;  // "QREG"
constexpr uint32_t kRegistryVersion = 3;

}  // namespace

QueryRegistry::QueryRegistry(Options opts)
    : opts_(opts),
      engine_(std::make_unique<GeneralSlicingOperator>(opts.engine)) {}

QueryRegistry::QueryId QueryRegistry::Register(const QueryBuilder& builder,
                                               std::string* error) {
  if (!builder.HasPortableDef()) {
    if (error) {
      *error = "builder holds custom window/aggregation objects with no "
               "textual description; register a QueryDef instead";
    }
    return kInvalidQuery;
  }
  return Register(builder.Def(), error);
}

QueryRegistry::QueryId QueryRegistry::Register(const QueryDef& def,
                                               std::string* error) {
  const auto fail = [&](std::string msg) {
    if (error) *error = std::move(msg);
    return kInvalidQuery;
  };
  if (def.windows.empty()) return fail("query has no windows");
  if (def.aggs.empty()) return fail("query has no aggregations");

  std::vector<WindowDesc> descs(def.windows.size());
  for (size_t i = 0; i < def.windows.size(); ++i) {
    if (!WindowDesc::Parse(def.windows[i], &descs[i])) {
      return fail("bad window description '" + def.windows[i] + "'");
    }
    if (engine_started_ && !descs[i].IsContextFreeTime()) {
      return fail("mid-stream registration supports only context-free time "
                  "windows, got '" + def.windows[i] + "'");
    }
  }

  // Resolve aggregations up front so registration is all-or-nothing: the
  // engine's store cannot grow aggregation columns once the stream started.
  std::vector<int> agg_slots(def.aggs.size(), -1);
  std::vector<std::pair<std::string, AggregateFunctionPtr>> new_aggs;
  for (size_t i = 0; i < def.aggs.size(); ++i) {
    const std::string& name = def.aggs[i];
    for (size_t s = 0; s < agg_names_.size(); ++s) {
      if (agg_names_[s] == name) {
        agg_slots[i] = static_cast<int>(s);
        break;
      }
    }
    if (agg_slots[i] >= 0) continue;
    for (size_t n = 0; n < new_aggs.size(); ++n) {
      if (new_aggs[n].first == name) {
        agg_slots[i] = static_cast<int>(agg_names_.size() + n);
        break;
      }
    }
    if (agg_slots[i] >= 0) continue;
    if (engine_started_) {
      return fail("mid-stream registration cannot introduce aggregation '" +
                  name + "' (columns are fixed at the first tuple)");
    }
    AggregateFunctionPtr fn = MakeAggregation(name);
    if (!fn) return fail("unknown aggregation '" + name + "'");
    agg_slots[i] = static_cast<int>(agg_names_.size() + new_aggs.size());
    new_aggs.emplace_back(name, std::move(fn));
  }

  // Validation passed; mutate.
  for (auto& [name, fn] : new_aggs) {
    const int slot = engine_->AddAggregation(std::move(fn));
    assert(slot == static_cast<int>(agg_names_.size()));
    (void)slot;
    agg_names_.push_back(name);
  }

  Query q;
  q.id = next_query_id_++;
  q.agg_slots = std::move(agg_slots);
  q.global_base = next_global_window_;
  next_global_window_ += static_cast<int>(descs.size());
  if (engine_started_) {
    const Time seen =
        std::max(engine_->max_event_time(), engine_->last_watermark());
    if (seen != kNoTime) q.horizon = seen + 1;
  }

  for (const WindowDesc& desc : descs) {
    PlannedWindow pw;
    const std::string key = desc.ToString();

    int dedup = -1;
    for (size_t s = 0; s < slots_.size(); ++s) {
      if (slots_[s].alive && slots_[s].desc == key) {
        dedup = static_cast<int>(s);
        break;
      }
    }
    if (dedup >= 0) {
      pw.plan = PlanKind::kSharedDedup;
      pw.slot = dedup;
      ++slots_[dedup].refs;
      q.windows.push_back(std::move(pw));
      continue;
    }

    pw.plan = PlanKind::kShared;
    pw.slot = engine_->AddWindow(desc.Instantiate());
    assert(pw.slot == static_cast<int>(slots_.size()));
    WindowSlot slot;
    slot.desc = key;
    slot.refs = 1;
    slot.alive = true;
    slots_.push_back(std::move(slot));
    q.windows.push_back(std::move(pw));
  }

  const QueryId id = q.id;
  queries_.emplace(id, std::move(q));
  subs_stale_ = true;
  return id;
}

bool QueryRegistry::Deregister(QueryId id) {
  auto it = queries_.find(id);
  if (it == queries_.end()) return false;
  for (const PlannedWindow& pw : it->second.windows) {
    WindowSlot& slot = slots_[static_cast<size_t>(pw.slot)];
    if (--slot.refs == 0) {
      engine_->RemoveWindow(pw.slot);
      slot.alive = false;
    }
  }
  queries_.erase(it);
  subs_stale_ = true;
  return true;
}

std::vector<WindowResult> QueryRegistry::TakeQueryResults(QueryId id) {
  DrainEngine();
  auto it = queries_.find(id);
  if (it == queries_.end()) return {};
  std::vector<WindowResult> out;
  out.swap(it->second.pending);
  return out;
}

QueryRegistry::QueryPlan QueryRegistry::Plan(QueryId id) const {
  QueryPlan plan;
  auto it = queries_.find(id);
  if (it == queries_.end()) return plan;
  plan.alive = true;
  plan.horizon = it->second.horizon;
  for (const PlannedWindow& pw : it->second.windows) {
    plan.windows.push_back(pw.plan);
  }
  return plan;
}

size_t QueryRegistry::EngineWindows() const {
  return static_cast<size_t>(
      std::count_if(slots_.begin(), slots_.end(),
                    [](const WindowSlot& s) { return s.alive; }));
}

int QueryRegistry::GlobalWindowId(QueryId id, int local_window_id) const {
  auto it = queries_.find(id);
  if (it == queries_.end()) return -1;
  if (local_window_id < 0 ||
      local_window_id >= static_cast<int>(it->second.windows.size())) {
    return -1;
  }
  return it->second.global_base + local_window_id;
}

void QueryRegistry::ProcessTuple(const Tuple& t) {
  engine_started_ = true;
  engine_->ProcessTuple(t);
  DrainEngine();
}

void QueryRegistry::ProcessTupleColumns(const TupleColumnsView& cols) {
  engine_started_ = true;
  engine_->ProcessTupleColumns(cols);
  DrainEngine();
}

void QueryRegistry::ProcessWatermark(Time wm) {
  engine_started_ = true;
  engine_->ProcessWatermark(wm);
  DrainEngine();
}

void QueryRegistry::RebuildSubscribers() {
  slot_subs_.assign(slots_.size(), {});
  for (const auto& [id, q] : queries_) {
    for (size_t w = 0; w < q.windows.size(); ++w) {
      const PlannedWindow& pw = q.windows[w];
      slot_subs_[static_cast<size_t>(pw.slot)].push_back(
          Subscriber{id, static_cast<int>(w)});
    }
  }
  subs_stale_ = false;
}

void QueryRegistry::DrainEngine() {
  engine_scratch_.clear();
  engine_->TakeResultsInto(&engine_scratch_);
  if (engine_scratch_.empty()) return;
  if (subs_stale_) RebuildSubscribers();
  for (const WindowResult& r : engine_scratch_) {
    const size_t slot = static_cast<size_t>(r.window_id);
    if (slot >= slot_subs_.size()) continue;
    for (const Subscriber& sub : slot_subs_[slot]) {
      Query& q = queries_.at(sub.query);
      // The engine emits every aggregation for every window; a query only
      // sees the aggregations its definition names.
      int local_agg = -1;
      for (size_t a = 0; a < q.agg_slots.size(); ++a) {
        if (q.agg_slots[a] == r.agg_id) {
          local_agg = static_cast<int>(a);
          break;
        }
      }
      if (local_agg < 0) continue;
      if (q.horizon != kNoTime && r.start < q.horizon) continue;
      WindowResult out = r;
      out.window_id = sub.local_window;
      out.agg_id = local_agg;
      q.pending.push_back(std::move(out));
    }
  }
}

void QueryRegistry::TakeResultsInto(std::vector<WindowResult>* out) {
  DrainEngine();
  for (auto& [id, q] : queries_) {
    for (WindowResult& r : q.pending) {
      r.window_id += q.global_base;
      out->push_back(std::move(r));
    }
    q.pending.clear();
  }
}

size_t QueryRegistry::MemoryUsageBytes() const {
  size_t bytes = engine_->MemoryUsageBytes();
  for (const auto& [id, q] : queries_) {
    bytes += q.pending.capacity() * sizeof(WindowResult);
  }
  return bytes;
}

std::string QueryRegistry::Name() const {
  return "query-registry(" + engine_->Name() + ")";
}

void QueryRegistry::SerializeState(state::Writer& w) const {
  w.Tag(kRegistryTag);
  w.U32(kRegistryVersion);

  // Options fingerprint: a restore target constructed differently would
  // rebuild a differently-behaving engine; fail fast instead.
  w.Bool(opts_.engine.stream_in_order);
  w.I64(opts_.engine.allowed_lateness);
  w.U8(static_cast<uint8_t>(opts_.engine.store_mode));
  w.Bool(opts_.engine.force_store_tuples);

  w.Bool(engine_started_);
  w.I64(next_query_id_);
  w.I64(next_global_window_);

  w.U32(static_cast<uint32_t>(agg_names_.size()));
  for (const std::string& name : agg_names_) w.Str(name);

  w.U32(static_cast<uint32_t>(slots_.size()));
  for (const WindowSlot& slot : slots_) {
    w.Str(slot.desc);
    w.Bool(slot.alive);
    w.I64(slot.refs);
  }

  w.U32(static_cast<uint32_t>(queries_.size()));
  for (const auto& [id, q] : queries_) {
    w.I64(id);
    w.I64(q.global_base);
    w.I64(q.horizon);
    w.U32(static_cast<uint32_t>(q.windows.size()));
    for (const PlannedWindow& pw : q.windows) {
      w.U8(static_cast<uint8_t>(pw.plan));
      w.I64(pw.slot);
    }
    w.U32(static_cast<uint32_t>(q.agg_slots.size()));
    for (int slot : q.agg_slots) w.I64(slot);
    w.U32(static_cast<uint32_t>(q.pending.size()));
    for (const WindowResult& r : q.pending) SerializeWindowResult(w, r);
  }

  engine_->SerializeState(w);
}

void QueryRegistry::DeserializeState(state::Reader& r) {
  r.Tag(kRegistryTag);
  const uint32_t version = r.U32();
  if (!r.ok() || version != kRegistryVersion) {
    r.Fail();
    return;
  }

  const bool in_order = r.Bool();
  const Time lateness = r.I64();
  const uint8_t store_mode = r.U8();
  const bool force_store = r.Bool();
  if (!r.ok() || in_order != opts_.engine.stream_in_order ||
      lateness != opts_.engine.allowed_lateness ||
      store_mode != static_cast<uint8_t>(opts_.engine.store_mode) ||
      force_store != opts_.engine.force_store_tuples) {
    r.Fail();
    return;
  }

  const bool started = r.Bool();
  const QueryId next_id = static_cast<QueryId>(r.I64());
  const int next_global = static_cast<int>(r.I64());

  // Rebuild the engine from scratch: replay aggregations, then every window
  // slot in id order (dead slots are added then removed so live ids match),
  // then restore the engine's own state on top.
  engine_ = std::make_unique<GeneralSlicingOperator>(opts_.engine);
  slots_.clear();
  agg_names_.clear();
  queries_.clear();
  slot_subs_.clear();
  engine_started_ = started;
  next_query_id_ = next_id;
  next_global_window_ = next_global;

  const uint32_t nagg = r.U32();
  for (uint32_t a = 0; a < nagg && r.ok(); ++a) {
    const std::string name = r.Str();
    AggregateFunctionPtr fn = MakeAggregation(name);
    if (!fn) {
      r.Fail();
      return;
    }
    engine_->AddAggregation(std::move(fn));
    agg_names_.push_back(name);
  }

  const uint32_t nslots = r.U32();
  for (uint32_t s = 0; s < nslots && r.ok(); ++s) {
    WindowSlot slot;
    slot.desc = r.Str();
    slot.alive = r.Bool();
    slot.refs = static_cast<int>(r.I64());
    WindowDesc parsed;
    if (!WindowDesc::Parse(slot.desc, &parsed)) {
      r.Fail();
      return;
    }
    const int id = engine_->AddWindow(parsed.Instantiate());
    assert(id == static_cast<int>(s));
    (void)id;
    slots_.push_back(std::move(slot));
  }
  if (!r.ok()) return;
  for (size_t s = 0; s < slots_.size(); ++s) {
    if (!slots_[s].alive) engine_->RemoveWindow(static_cast<int>(s));
  }

  const uint32_t nqueries = r.U32();
  for (uint32_t i = 0; i < nqueries && r.ok(); ++i) {
    Query q;
    q.id = static_cast<QueryId>(r.I64());
    q.global_base = static_cast<int>(r.I64());
    q.horizon = r.I64();
    const uint32_t nwin = r.U32();
    for (uint32_t win = 0; win < nwin && r.ok(); ++win) {
      PlannedWindow pw;
      pw.plan = static_cast<PlanKind>(r.U8());
      pw.slot = static_cast<int>(r.I64());
      if ((pw.plan != PlanKind::kShared &&
           pw.plan != PlanKind::kSharedDedup) ||
          pw.slot < 0 || pw.slot >= static_cast<int>(slots_.size()) ||
          !slots_[static_cast<size_t>(pw.slot)].alive) {
        r.Fail();
        return;
      }
      q.windows.push_back(std::move(pw));
    }
    const uint32_t naggs = r.U32();
    for (uint32_t a = 0; a < naggs && r.ok(); ++a) {
      q.agg_slots.push_back(static_cast<int>(r.I64()));
    }
    const uint32_t npending = r.U32();
    for (uint32_t p = 0; p < npending && r.ok(); ++p) {
      q.pending.push_back(DeserializeWindowResult(r));
    }
    const QueryId qid = q.id;
    queries_.emplace(qid, std::move(q));
  }
  if (!r.ok()) return;

  engine_->DeserializeState(r);
  subs_stale_ = true;
}

}  // namespace scotty
