#include "runtime/parallel_executor.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>

#include "core/general_slicing_operator.h"
#include "query/query_registry.h"
#include "runtime/keyed_operator.h"
#include "state/serde.h"

namespace scotty {

namespace {

// Combined parallel snapshot blob (the PartitionedOperator state): tag +
// version + partition count + one length-prefixed state per partition. The
// tag makes foreign bytes fail fast; the version gates format evolution (v2
// added rescaled restore).
constexpr uint32_t kParallelSnapshotTag = 0x50534E50;  // "PSNP"
constexpr uint8_t kParallelSnapshotVersion = 2;

void BuildParallelSnapshotBlob(
    state::Writer& w, const std::vector<std::vector<uint8_t>>& states) {
  w.Tag(kParallelSnapshotTag);
  w.U8(kParallelSnapshotVersion);
  w.U64(states.size());
  for (const std::vector<uint8_t>& s : states) {
    w.U64(s.size());
    w.Bytes(s.data(), s.size());
  }
}

/// Inverse of BuildParallelSnapshotBlob; false on foreign or truncated
/// bytes. Trailing bytes are the caller's.
bool ParseParallelSnapshotBlob(state::Reader& r,
                               std::vector<std::vector<uint8_t>>* out) {
  r.Tag(kParallelSnapshotTag);
  if (r.U8() != kParallelSnapshotVersion) return false;
  const uint64_t count = r.U64();
  if (!r.ok() || count == 0 || count > r.remaining()) return false;
  out->assign(static_cast<size_t>(count), {});
  for (std::vector<uint8_t>& s : *out) {
    const uint64_t size = r.U64();
    if (!r.ok() || size > r.remaining()) return false;
    s.resize(static_cast<size_t>(size));
    r.Bytes(s.data(), s.size());
  }
  return r.ok();
}

/// Folds a shared-mode worker's share of the stream into its private store
/// of engine slices: each run of data tuples that is non-decreasing in ts
/// and stays inside one slice goes through one Slice::AddTupleColumns call,
/// the engine's own run fold. Punctuation carries no data.
void FoldIntoSlices(const TupleColumnsView& cols, const QuerySet& queries,
                    AggregateStore* local) {
  size_t i = 0;
  while (i < cols.size) {
    if (cols.IsPunct(i)) {
      ++i;
      continue;
    }
    Slice& s = local->At(local->FindOrInsertCovering(cols.ts[i], queries));
    size_t j = i + 1;
    while (j < cols.size && !cols.IsPunct(j) && cols.ts[j] >= cols.ts[j - 1] &&
           cols.ts[j] < s.end()) {
      ++j;
    }
    s.AddTupleColumns(cols.Subview(i, j - i), local->fns(),
                      /*store_tuples=*/false);
    local->NoteTuplesAdded(j - i);
    i = j;
  }
}

/// One partition's base or delta.
std::vector<uint8_t> SerializePartition(const WindowOperator& op, bool delta) {
  state::Writer w;
  if (delta) {
    op.SerializeDelta(w);
  } else {
    op.SerializeState(w);
  }
  return w.Take();
}

}  // namespace

SpscQueue::SpscQueue(size_t capacity)
    : cap_(capacity), mask_(capacity - 1), ctrl_(kCtrlCapacity) {
  if (capacity == 0 || (capacity & (capacity - 1)) != 0 ||
      capacity % kBatchAlignElems != 0) {
    std::fprintf(stderr,
                 "SpscQueue: capacity must be a power of two and a multiple "
                 "of %zu, got %zu\n",
                 kBatchAlignElems, capacity);
    std::abort();
  }
  static_assert((kCtrlCapacity & (kCtrlCapacity - 1)) == 0);
  ring_.Reserve(capacity);
}

TupleColumnsView SpscQueue::RingView(size_t pos, size_t n) const {
  // The ring's punct column is always materialized (CopyIn zero-fills when
  // the producer had none), so the view can expose it unconditionally.
  return TupleColumnsView{ring_.ts() + pos,  ring_.value() + pos,
                          ring_.key() + pos, ring_.seq() + pos,
                          ring_.punct() + pos, n};
}

void SpscQueue::CopyIn(size_t pos, const TupleColumnsView& v) {
  std::memcpy(ring_.mutable_ts() + pos, v.ts, v.size * sizeof(Time));
  std::memcpy(ring_.mutable_value() + pos, v.value, v.size * sizeof(double));
  std::memcpy(ring_.mutable_key() + pos, v.key, v.size * sizeof(int64_t));
  std::memcpy(ring_.mutable_seq() + pos, v.seq, v.size * sizeof(uint64_t));
  if (v.punct != nullptr) {
    std::memcpy(ring_.mutable_punct() + pos, v.punct, v.size);
  } else {
    std::memset(ring_.mutable_punct() + pos, 0, v.size);
  }
}

size_t SpscQueue::TryPushTuplesFor(const TupleColumnsView& cols,
                                   std::chrono::nanoseconds timeout) {
  // nanoseconds::max() is "no deadline": the untimed push never reads the
  // clock, and the deadline check sits on the ring-full path only.
  const bool timed = timeout != std::chrono::nanoseconds::max();
  const auto deadline =
      timed ? std::chrono::steady_clock::now() + timeout
            : std::chrono::steady_clock::time_point::max();
  size_t done = 0;
  while (done < cols.size) {
    const uint64_t tail = data_tail_.load(std::memory_order_relaxed);
    uint64_t free = cap_ - (tail - data_head_cache_);
    if (free == 0) {
      data_head_cache_ = data_head_.load(std::memory_order_acquire);
      free = cap_ - (tail - data_head_cache_);
    }
    if (free == 0) {
      if (timed && std::chrono::steady_clock::now() >= deadline) return done;
      std::this_thread::yield();  // backpressure
      continue;
    }
    const size_t chunk =
        std::min(cols.size - done, static_cast<size_t>(free));
    const size_t pos = static_cast<size_t>(tail) & mask_;
    const size_t first = std::min(chunk, cap_ - pos);
    CopyIn(pos, cols.Subview(done, first));
    if (chunk > first) CopyIn(0, cols.Subview(done + first, chunk - first));
    data_tail_.store(tail + chunk, std::memory_order_release);
    done += chunk;
  }
  return done;
}

bool SpscQueue::TryPushControlFor(Control c, std::chrono::nanoseconds timeout) {
  // Stamp the boundary: everything pushed so far precedes this control.
  c.data_pos = data_tail_.load(std::memory_order_relaxed);
  const uint64_t tail = ctrl_tail_.load(std::memory_order_relaxed);
  const bool timed = timeout != std::chrono::nanoseconds::max();
  const auto deadline =
      timed ? std::chrono::steady_clock::now() + timeout
            : std::chrono::steady_clock::time_point::max();
  while (tail - ctrl_head_cache_ >= kCtrlCapacity) {
    ctrl_head_cache_ = ctrl_head_.load(std::memory_order_acquire);
    if (tail - ctrl_head_cache_ >= kCtrlCapacity) {
      if (timed && std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::yield();  // backpressure
    }
  }
  ctrl_[static_cast<size_t>(tail) & (kCtrlCapacity - 1)] = c;
  ctrl_tail_.store(tail + 1, std::memory_order_release);
  return true;
}

double SpscQueue::ApproxOccupancy() const {
  const uint64_t tail = data_tail_.load(std::memory_order_relaxed);
  const uint64_t head = data_head_.load(std::memory_order_relaxed);
  // Both loads are relaxed and unordered, so a freshly-advanced head can
  // overtake a stale tail read; clamp instead of wrapping to 2^64.
  if (tail <= head) return 0.0;
  return static_cast<double>(tail - head) / static_cast<double>(cap_);
}

size_t SpscQueue::PopTuples(TupleBatchSoA* out, size_t max_n) {
  const uint64_t head = data_head_.load(std::memory_order_relaxed);
  uint64_t avail = data_tail_cache_ - head;
  if (avail == 0) {
    data_tail_cache_ = data_tail_.load(std::memory_order_acquire);
    avail = data_tail_cache_ - head;
  }
  // Refresh the control cache AFTER the data cache (see the class comment):
  // once the data acquire above observes tuples past some control's
  // data_pos, this control acquire is guaranteed to observe that control,
  // so the bound below can never be missed.
  const uint64_t chead = ctrl_head_.load(std::memory_order_relaxed);
  if (chead == ctrl_tail_cache_) {
    ctrl_tail_cache_ = ctrl_tail_.load(std::memory_order_acquire);
  }
  if (chead != ctrl_tail_cache_) {
    const uint64_t bound =
        ctrl_[static_cast<size_t>(chead) & (kCtrlCapacity - 1)].data_pos;
    assert(bound >= head && "consumed past a pending control boundary");
    avail = std::min(avail, bound - head);
  }
  if (avail == 0) return 0;
  const size_t n = std::min(max_n, static_cast<size_t>(avail));
  const size_t pos = static_cast<size_t>(head) & mask_;
  const size_t first = std::min(n, cap_ - pos);
  out->AppendView(RingView(pos, first));
  if (n > first) out->AppendView(RingView(0, n - first));
  data_head_.store(head + n, std::memory_order_release);
  return n;
}

bool SpscQueue::PopControl(Control* out) {
  const uint64_t chead = ctrl_head_.load(std::memory_order_relaxed);
  if (chead == ctrl_tail_cache_) {
    ctrl_tail_cache_ = ctrl_tail_.load(std::memory_order_acquire);
    if (chead == ctrl_tail_cache_) return false;
  }
  const Control& c = ctrl_[static_cast<size_t>(chead) & (kCtrlCapacity - 1)];
  // Deliver only once every tuple pushed before the control is consumed,
  // preserving the producer's exact tuple/control interleaving.
  if (data_head_.load(std::memory_order_relaxed) < c.data_pos) return false;
  *out = c;
  ctrl_head_.store(chead + 1, std::memory_order_release);
  return true;
}

ParallelExecutor::ParallelExecutor(size_t num_workers,
                                   OperatorFactory factory)
    : ParallelExecutor(num_workers, std::move(factory), Options{}) {}

ParallelExecutor::ParallelExecutor(size_t num_workers,
                                   OperatorFactory factory, Options opts)
    : opts_(std::move(opts)),
      num_workers_(num_workers),
      partitions_(std::make_unique<PartitionedOperator>(
          opts_.shared_preagg ? 1 : num_workers, factory)) {
  assert(num_workers_ > 0);
  if (opts_.shared_preagg) {
    WindowOperator& shared = partitions_->partition(0);
    shared_op_ = dynamic_cast<GeneralSlicingOperator*>(&shared);
    if (auto* registry = dynamic_cast<QueryRegistry*>(&shared)) {
      shared_op_ = registry->engine();
    }
    const char* why = nullptr;
    if (shared_op_ == nullptr) {
      why = "the factory must build a GeneralSlicingOperator or a "
            "QueryRegistry";
    } else {
      const QuerySet& q = shared_op_->queries();
      if (!q.AllCommutative()) {
        why = "every aggregation must be commutative: workers merge in any "
              "order";
      } else if (q.chars.any_count_measure || q.chars.any_session_window ||
                 q.chars.any_context_aware_non_session) {
        why = "every window must be context free on the time lane (no "
              "session, punctuation, frames, last-N or count window)";
      } else if (!q.HasTimeLane()) {
        why = "the factory must register the operator's windows";
      }
    }
    if (why != nullptr) {
      std::fprintf(stderr, "ParallelExecutor: shared_preagg: %s\n", why);
      std::abort();
    }
    shared_queries_ = shared_op_->queries();
    merged_to_.assign(num_workers_, kNoTime);
  }
  BuildQueues();
}

ParallelExecutor::ParallelExecutor(std::unique_ptr<WindowOperator> restored,
                                   Options opts)
    : opts_(std::move(opts)) {
  auto* partitions = dynamic_cast<PartitionedOperator*>(restored.get());
  if (partitions == nullptr || opts_.shared_preagg) {
    std::fprintf(stderr,
                 "ParallelExecutor: a restored executor needs the "
                 "PartitionedOperator RestoreOperator returned and "
                 "key-partitioned mode\n");
    std::abort();
  }
  restored.release();
  partitions_.reset(partitions);
  num_workers_ = partitions_->size();
  BuildQueues();
}

void ParallelExecutor::BuildQueues() {
  for (size_t i = 0; i < num_workers_; ++i) {
    queues_.push_back(std::make_unique<SpscQueue>(opts_.queue_capacity));
  }
  staging_.resize(num_workers_);
  if (opts_.batch_size > 1) {
    for (TupleBatchSoA& s : staging_) s.Reserve(opts_.batch_size);
  }
  workers_.reserve(num_workers_);
}

ParallelExecutor::~ParallelExecutor() {
  if (started_ && !finished_) Finish();
}

void ParallelExecutor::Start() {
  assert(!started_);
  started_ = true;
  for (size_t i = 0; i < num_workers_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

void ParallelExecutor::FlushStaging(size_t w) {
  TupleBatchSoA& s = staging_[w];
  if (s.empty()) return;
  queues_[w]->PushTuples(s.View());
  s.Clear();
}

void ParallelExecutor::FlushAllStaging() {
  for (size_t w = 0; w < staging_.size(); ++w) FlushStaging(w);
}

void ParallelExecutor::Push(const Tuple& t) {
  const uint8_t punct = t.is_punctuation ? 1 : 0;
  PushColumns(TupleColumnsView{&t.ts, &t.value, &t.key, &t.seq, &punct, 1});
}

bool ParallelExecutor::TryPushFor(const Tuple& t,
                                  std::chrono::nanoseconds timeout) {
  const size_t w = opts_.shared_preagg
                       ? rr_worker_
                       : WorkerIndexForKey(t.key, num_workers_);
  // Anything staged for this worker precedes the tuple in arrival order;
  // with batch_size <= 1 (the admission-controlled configuration) staging
  // is always empty and this is a no-op.
  FlushStaging(w);
  const uint8_t punct = t.is_punctuation ? 1 : 0;
  const TupleColumnsView one{&t.ts, &t.value, &t.key, &t.seq, &punct, 1};
  if (queues_[w]->TryPushTuplesFor(one, timeout) != 1) return false;
  if (opts_.shared_preagg) AdvanceRoundRobin();
  return true;
}

void ParallelExecutor::PushColumns(const TupleColumnsView& cols) {
  if (!opts_.shared_preagg) {
    // Key partitioning: consistent routing keeps all tuples of a key on one
    // worker, so per-key window semantics are preserved. A batch_size of 0
    // or 1 flushes after every tuple.
    for (size_t i = 0; i < cols.size; ++i) {
      const size_t w = WorkerIndexForKey(cols.key[i], num_workers_);
      staging_[w].PushBack(cols.Get(i));
      if (staging_[w].size() >= opts_.batch_size) FlushStaging(w);
    }
    return;
  }
  // Shared mode: tuple-to-worker placement is semantically free (slices
  // are cut by timestamp, merges commute), so full chunks forward
  // zero-copy from the caller's columns straight into the worker ring.
  const size_t chunk_len = std::max<size_t>(size_t{1}, opts_.batch_size);
  size_t i = 0;
  while (i < cols.size) {
    TupleBatchSoA& s = staging_[rr_worker_];
    if (s.empty() && cols.size - i >= chunk_len) {
      queues_[rr_worker_]->PushTuples(cols.Subview(i, chunk_len));
      i += chunk_len;
      AdvanceRoundRobin();
      continue;
    }
    const size_t take = std::min(chunk_len - s.size(), cols.size - i);
    s.AppendView(cols.Subview(i, take));
    i += take;
    if (s.size() >= chunk_len) {
      FlushStaging(rr_worker_);
      AdvanceRoundRobin();
    }
  }
}

void ParallelExecutor::PushWatermark(Time wm) {
  // Staged tuples precede the watermark in arrival order; transfer them
  // first so every worker observes the exact unbatched item sequence.
  FlushAllStaging();
  SpscQueue::Control c;
  c.kind = SpscQueue::Control::Kind::kWatermark;
  c.watermark = wm;
  for (auto& q : queues_) q->PushControl(c);
}

bool ParallelExecutor::TryPushWatermarkFor(Time wm,
                                           std::chrono::nanoseconds timeout) {
  assert(!opts_.shared_preagg &&
         "timed watermarks are key-partitioned only: a shared-mode watermark "
         "that reached only some workers would hold back every trigger");
  FlushAllStaging();
  SpscQueue::Control c;
  c.kind = SpscQueue::Control::Kind::kWatermark;
  c.watermark = wm;
  bool ok = true;
  for (auto& q : queues_) ok &= q->TryPushControlFor(c, timeout);
  return ok;
}

void ParallelExecutor::Finish() {
  if (!started_ || finished_) return;
  FlushAllStaging();
  SpscQueue::Control stop;
  stop.kind = SpscQueue::Control::Kind::kStop;
  for (auto& q : queues_) q->PushControl(stop);
  for (std::thread& t : workers_) t.join();
  finished_ = true;
}

void ParallelExecutor::SnapshotAtBarrier(state::Writer& w, bool delta) {
  assert(started_ && !finished_ && !opts_.shared_preagg);
  snap_slots_.assign(queues_.size(), {});
  snap_remaining_.store(queues_.size(), std::memory_order_release);
  // Staged tuples precede the barrier, exactly like PushWatermark.
  FlushAllStaging();
  SpscQueue::Control c;
  c.kind = SpscQueue::Control::Kind::kSnapshot;
  c.delta = delta;
  for (auto& q : queues_) q->PushControl(c);
  while (snap_remaining_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  BuildParallelSnapshotBlob(w, snap_slots_);
  snap_slots_.clear();
}

PartitionedOperator::PartitionedOperator(size_t partitions,
                                         const OperatorFactory& factory) {
  assert(partitions > 0);
  partitions_.reserve(partitions);
  for (size_t i = 0; i < partitions; ++i) partitions_.push_back(factory());
}

OperatorFactory PartitionedOperator::Factory(size_t partitions,
                                             OperatorFactory factory) {
  return [partitions, factory = std::move(factory)] {
    return std::make_unique<PartitionedOperator>(partitions, factory);
  };
}

void PartitionedOperator::ProcessTuple(const Tuple& t) {
  partitions_[ParallelExecutor::WorkerIndexForKey(t.key, size())]
      ->ProcessTuple(t);
}

void PartitionedOperator::ProcessWatermark(Time wm) {
  for (auto& p : partitions_) p->ProcessWatermark(wm);
}

void PartitionedOperator::TakeResultsInto(std::vector<WindowResult>* out) {
  for (auto& p : partitions_) p->TakeResultsInto(out);
}

size_t PartitionedOperator::MemoryUsageBytes() const {
  size_t bytes = 0;
  for (const auto& p : partitions_) bytes += p->MemoryUsageBytes();
  return bytes;
}

void PartitionedOperator::Serialize(state::Writer& w, bool delta) const {
  std::vector<std::vector<uint8_t>> states;
  states.reserve(size());
  for (const auto& p : partitions_) {
    states.push_back(SerializePartition(*p, delta));
  }
  BuildParallelSnapshotBlob(w, states);
}

void PartitionedOperator::DeserializeState(state::Reader& r) {
  std::vector<std::vector<uint8_t>> states;
  if (!ParseParallelSnapshotBlob(r, &states)) {
    r.Fail();
    return;
  }
  if (states.size() != size()) {
    std::vector<std::vector<uint8_t>> rescaled;
    if (!RepartitionKeyedStates(states, size(), &rescaled, nullptr)) {
      r.Fail();
      return;
    }
    states = std::move(rescaled);
  }
  for (size_t i = 0; i < size(); ++i) {
    state::Reader in(states[i]);
    partitions_[i]->DeserializeState(in);
    if (!in.ok() || !in.AtEnd()) {
      r.Fail();
      return;
    }
  }
}

void PartitionedOperator::MarkSnapshotClean() {
  for (auto& p : partitions_) p->MarkSnapshotClean();
}

void PartitionedOperator::FinishDeltaRestore() {
  for (auto& p : partitions_) p->FinishDeltaRestore();
}

bool RepartitionKeyedStates(
    const std::vector<std::vector<uint8_t>>& worker_states,
    size_t new_workers, std::vector<std::vector<uint8_t>>* out,
    std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (new_workers == 0) return fail("cannot re-partition onto zero workers");
  std::vector<KeyedWindowOperator::KeyedStateParts> buckets(new_workers);
  Time last_wm = kNoTime;
  uint8_t version = KeyedWindowOperator::kPerKeyFormat;
  for (size_t i = 0; i < worker_states.size(); ++i) {
    KeyedWindowOperator::KeyedStateParts parts;
    if (!KeyedWindowOperator::ParseKeyedState(worker_states[i], &parts)) {
      return fail("worker " + std::to_string(i) +
                  " state is not a keyed payload (non-keyed operator state "
                  "cannot be re-partitioned)");
    }
    // Units of the two keyed lanes do not mix: every worker must run the
    // same lane, whose version the re-partitioned states keep.
    if (i == 0) {
      version = parts.version;
    } else if (parts.version != version) {
      return fail("worker " + std::to_string(i) +
                  " keyed state has another layout version than worker 0");
    }
    // Watermarks were broadcast, so all workers agree except ones that
    // never saw one; merge to the furthest progress.
    last_wm = std::max(last_wm, parts.last_wm);
    for (auto& kv : parts.keys) {
      const size_t w = ParallelExecutor::WorkerIndexForKey(kv.first,
                                                           new_workers);
      buckets[w].keys.push_back(std::move(kv));
    }
    // A reference goes where the re-partitioned previous barrier put its
    // key, so it resolves there.
    for (const int64_t key : parts.refs) {
      buckets[ParallelExecutor::WorkerIndexForKey(key, new_workers)]
          .refs.push_back(key);
    }
    for (auto& res : parts.results) {
      // Pending (undrained) results re-emit from whichever worker owns the
      // key after the rescale — exactly once, like the tuples that formed
      // them would.
      const size_t w =
          ParallelExecutor::WorkerIndexForKey(res.key, new_workers);
      buckets[w].results.push_back(std::move(res));
    }
  }
  out->clear();
  out->reserve(new_workers);
  for (KeyedWindowOperator::KeyedStateParts& b : buckets) {
    b.version = version;
    b.last_wm = last_wm;
    out->push_back(KeyedWindowOperator::BuildKeyedState(std::move(b)));
  }
  return true;
}

void ParallelExecutor::WorkerLoop(size_t i) {
  if (opts_.shared_preagg) {
    SharedWorkerLoop(i);
    return;
  }
  SpscQueue& q = *queues_[i];
  WindowOperator& op = partitions_->partition(i);
  const size_t batch = std::max<size_t>(size_t{1}, opts_.batch_size);
  TupleBatchSoA buf(batch);
  std::vector<WindowResult> drained;
  uint64_t results = 0;
  uint64_t updates = 0;
  auto drain = [&] {
    drained.clear();
    op.TakeResultsInto(&drained);
    results += drained.size();
    for (const WindowResult& r : drained) updates += r.is_update ? 1 : 0;
    if (opts_.result_sink) opts_.result_sink(drained);
  };
  SpscQueue::Control c;
  while (true) {
    if (opts_.worker_tick_hook) opts_.worker_tick_hook(i);
    buf.Clear();
    if (q.PopTuples(&buf, batch) > 0) {
      // Straight from the SoA ring into the columnar ingestion hot path:
      // the batch was never an array of structs at any point.
      op.ProcessTupleColumns(buf.View());
      continue;
    }
    if (!q.PopControl(&c)) {
      std::this_thread::yield();
      continue;
    }
    switch (c.kind) {
      case SpscQueue::Control::Kind::kWatermark:
        op.ProcessWatermark(c.watermark);
        drain();
        break;
      case SpscQueue::Control::Kind::kSnapshot:
        // Serialize between two items of this worker's own stream: the
        // state captured here is exactly the state a sequential run of
        // this worker's item sequence would have at this point. Marking
        // clean here too keeps the partition single-threaded.
        snap_slots_[i] = SerializePartition(op, c.delta);
        op.MarkSnapshotClean();
        snap_remaining_.fetch_sub(1, std::memory_order_acq_rel);
        break;
      case SpscQueue::Control::Kind::kStop:
        drain();
        total_results_.fetch_add(results);
        total_updates_.fetch_add(updates);
        return;
    }
  }
}

void ParallelExecutor::SharedWorkerLoop(size_t i) {
  SpscQueue& q = *queues_[i];
  const size_t batch = std::max<size_t>(size_t{1}, opts_.batch_size);
  TupleBatchSoA buf(batch);
  // All heavy lifting happens here, unsynchronized: tuples fold into this
  // worker's private slices; only finished slices cross the mutex.
  AggregateStore local(StoreMode::kLazy, shared_queries_.aggs);
  // Slices merge straight into the engine; with a registry on top, its
  // watermark below still demuxes the engine's results to its queries.
  const auto merge_until = [&](Time end) {
    for (size_t k = 0; k < local.NumSlices() && local.At(k).end() <= end;
         ++k) {
      shared_op_->MergePreAggregatedSlice(local.At(k));
    }
  };
  std::vector<WindowResult> drained;
  uint64_t results = 0;
  uint64_t updates = 0;
  SpscQueue::Control c;
  while (true) {
    if (opts_.worker_tick_hook) opts_.worker_tick_hook(i);
    buf.Clear();
    if (q.PopTuples(&buf, batch) > 0) {
      FoldIntoSlices(buf.View(), shared_queries_, &local);
      continue;
    }
    if (!q.PopControl(&c)) {
      std::this_thread::yield();
      continue;
    }
    std::lock_guard<std::mutex> lk(merge_mu_);
    if (c.kind == SpscQueue::Control::Kind::kStop) {
      // Remaining slices (past the last watermark) merge into the shared
      // store so no data is lost; the caller finalizes via SharedOperator()
      // after Finish().
      merge_until(kMaxTime);
      total_results_.fetch_add(results);
      total_updates_.fetch_add(updates);
      return;
    }
    // Shared mode takes no snapshot barrier: the control is a watermark.
    assert(c.kind == SpscQueue::Control::Kind::kWatermark);
    merge_until(c.watermark);
    local.EvictBefore(c.watermark);
    merged_to_[i] = std::max(merged_to_[i], c.watermark);
    // Every window ending at or before the smallest merged watermark has
    // all its slices in the engine. Each worker passes every watermark in
    // order, so the minimum takes each watermark value in turn.
    const Time merged =
        *std::min_element(merged_to_.begin(), merged_to_.end());
    if (merged > merged_min_) {
      merged_min_ = merged;
      // The one partition is the registry when there is one, else the
      // engine itself.
      WindowOperator& shared = partitions_->partition(0);
      drained.clear();
      shared.ProcessWatermark(merged);
      shared.TakeResultsInto(&drained);
      results += drained.size();
      for (const WindowResult& r : drained) updates += r.is_update ? 1 : 0;
      shared_results_.insert(shared_results_.end(),
                             std::make_move_iterator(drained.begin()),
                             std::make_move_iterator(drained.end()));
    }
  }
}

std::vector<WindowResult> ParallelExecutor::TakeSharedResults() {
  std::lock_guard<std::mutex> lk(merge_mu_);
  std::vector<WindowResult> out = std::move(shared_results_);
  shared_results_.clear();
  return out;
}

double ParallelExecutor::ApproxMaxQueueFraction() const {
  double frac = 0.0;
  for (const auto& q : queues_) frac = std::max(frac, q->ApproxOccupancy());
  return frac;
}

size_t ParallelExecutor::MemoryUsageBytes() const {
  return partitions_->MemoryUsageBytes();
}

}  // namespace scotty
