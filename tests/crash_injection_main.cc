// Crash-injection driver for the checkpoint/restore subsystem (DESIGN.md §7).
//
// Runs a deterministic workload through one windowing technique with a
// checkpoint barrier at every injected watermark, appending every drained
// result to a durable log (flushed line-by-line, because the injected crash
// is std::_Exit — no destructors, no stdio flush). With SCOTTY_CRASH_AFTER=n
// in the environment the process dies with exit code 42 right after the n-th
// snapshot file is persisted; invoking the driver again with --resume picks
// the newest snapshot in --dir, restores, and replays the remainder.
//
// Contract checked by scripts/crash_sweep.sh: for every technique and every
// crash point, the concatenated log of (crashed run, resumed run) is
// byte-identical to the log of an uninterrupted run — no window result is
// lost, duplicated, or altered by recovery.
//
// Every technique but one is a single operator. keyed-parallel is a
// one-worker key-partitioned ParallelExecutor over a KeyedWindowOperator of
// the same queries: its worker thread logs the results, a barrier
// serializes its partition, and a resume restores the snapshot onto a
// one-partition PartitionedOperator. Both run through RunPipeline.
//
// Usage:
//   crash_injection --technique=slicing-lazy --tuples=4096 --wm-every=256 \
//       --dir=/tmp/ckpt --out=/tmp/results.log [--resume] \
//       [--mode=sync-full|async-full|async-incremental]
//
// --mode picks the persistence protocol. Every mode persists on the
// coordinator's persist thread, and SCOTTY_CRASH_AFTER kills the process
// from inside it. sync-full (the default) holds each barrier until its full
// snapshot is durable, so the log and the snapshot advance in lockstep and
// recovery is exactly-once (byte-identical concatenated logs). In the async
// modes ingestion runs ahead of the persist thread, so recovery replays a
// suffix the crashed run already logged — at-least-once. crash_sweep.sh
// switches to a superset/no-alteration comparison for those modes.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "aggregates/registry.h"
#include "baselines/buckets.h"
#include "baselines/tuple_buffer.h"
#include "core/general_slicing_operator.h"
#include "datagen/generators.h"
#include "runtime/checkpoint.h"
#include "runtime/keyed_operator.h"
#include "runtime/parallel_executor.h"
#include "runtime/pipeline.h"
#include "windows/session.h"
#include "windows/sliding.h"
#include "windows/tumbling.h"

namespace scotty {
namespace {

namespace fs = std::filesystem;

struct Args {
  std::string technique = "slicing-lazy";
  uint64_t tuples = 4096;
  uint64_t wm_every = 256;
  std::string dir = ".";
  std::string out = "results.log";
  std::string mode = "sync-full";
  bool resume = false;
};

bool ApplyMode(const std::string& mode, CheckpointOptions* copts) {
  if (mode == "sync-full") return true;
  if (mode == "async-full") {
    copts->async = true;
    return true;
  }
  if (mode == "async-incremental") {
    copts->async = true;
    copts->incremental = true;
    copts->full_snapshot_every = 4;
    return true;
  }
  return false;
}

void PrintUsage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: crash_injection [--technique=slicing-lazy|slicing-eager|"
      "slicing-inorder|\n"
      "                          tuple-buffer|aggregate-tree|buckets|"
      "keyed-parallel]\n"
      "                       [--tuples=N] [--wm-every=N] [--dir=DIR] "
      "[--out=FILE]\n"
      "                       [--mode=sync-full|async-full|"
      "async-incremental]\n"
      "                       [--resume]\n");
}

/// Strict unsigned parse: whole token, digits only. strtoull's silent
/// garbage-to-zero (and negative wraparound) would turn a typo'd
/// --tuples/--wm-every into a degenerate run that crash_sweep.sh then
/// compares as if it were real.
bool ParseU64(const char* v, uint64_t* dst) {
  if (v[0] < '0' || v[0] > '9') return false;
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v, &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *dst = x;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto val = [&](const char* name) -> const char* {
      const size_t n = std::strlen(name);
      if (arg.compare(0, n, name) == 0 && arg.size() > n && arg[n] == '=') {
        return arg.c_str() + n + 1;
      }
      return nullptr;
    };
    if (const char* v = val("--technique")) {
      a->technique = v;
    } else if (const char* v = val("--tuples")) {
      if (!ParseU64(v, &a->tuples)) {
        std::fprintf(stderr, "bad --tuples=%s (expected an integer)\n", v);
        return false;
      }
    } else if (const char* v = val("--wm-every")) {
      if (!ParseU64(v, &a->wm_every)) {
        std::fprintf(stderr, "bad --wm-every=%s (expected an integer)\n", v);
        return false;
      }
    } else if (const char* v = val("--dir")) {
      a->dir = v;
    } else if (const char* v = val("--out")) {
      a->out = v;
    } else if (const char* v = val("--mode")) {
      a->mode = v;
    } else if (arg == "--resume") {
      a->resume = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  // Validate --mode here, not in Run(): by the time Run() applies the
  // checkpoint options it has already truncated --out, so a typo'd mode
  // must fail before any file is touched.
  CheckpointOptions probe;
  if (!ApplyMode(a->mode, &probe)) {
    std::fprintf(stderr, "unknown mode: %s\n", a->mode.c_str());
    return false;
  }
  return true;
}

void AddQueries(auto& op) {
  op.AddAggregation(MakeAggregation("sum"));
  op.AddAggregation(MakeAggregation("median"));
  op.AddWindow(std::make_shared<TumblingWindow>(500));
  op.AddWindow(std::make_shared<SlidingWindow>(1000, 250));
  op.AddWindow(std::make_shared<SessionWindow>(300));
}

constexpr char kKeyedParallel[] = "keyed-parallel";

OperatorFactory MakeFactory(const std::string& technique) {
  if (technique == kKeyedParallel) {
    const OperatorFactory per_key = MakeFactory("slicing-lazy");
    return [per_key] { return std::make_unique<KeyedWindowOperator>(per_key); };
  }
  if (technique == "slicing-lazy" || technique == "slicing-eager" ||
      technique == "slicing-inorder") {
    GeneralSlicingOperator::Options o;
    o.stream_in_order = technique == "slicing-inorder";
    o.allowed_lateness = o.stream_in_order ? 0 : 2000;
    o.store_mode = technique == "slicing-eager" ? StoreMode::kEager
                                                : StoreMode::kLazy;
    return [o] {
      auto op = std::make_unique<GeneralSlicingOperator>(o);
      AddQueries(*op);
      return op;
    };
  }
  if (technique == "tuple-buffer" || technique == "aggregate-tree") {
    const StoreMode mode =
        technique == "tuple-buffer" ? StoreMode::kLazy : StoreMode::kEager;
    return [mode] {
      auto op = std::make_unique<TupleBufferOperator>(false, 2000, mode);
      AddQueries(*op);
      return op;
    };
  }
  if (technique == "buckets") {
    return [] {
      auto op = std::make_unique<BucketsOperator>(
          false, 2000, BucketsOperator::BucketKind::kAuto);
      AddQueries(*op);
      return op;
    };
  }
  return nullptr;
}

/// Drops an unterminated final line from the crashed run's log. The async
/// crash fires from the persist thread while the ingestion thread may be
/// mid-line; the torn line is past the durable snapshot's offset, so the
/// resumed replay re-emits it whole.
void TrimTornTail(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec || size == 0) return;
  std::ifstream in(path, std::ios::binary);
  std::string content(static_cast<size_t>(size), '\0');
  in.read(content.data(), static_cast<std::streamsize>(size));
  if (!in || content.back() == '\n') return;
  const size_t last_nl = content.find_last_of('\n');
  fs::resize_file(path, last_nl == std::string::npos ? 0 : last_nl + 1, ec);
}

int Run(const Args& a) {
  OperatorFactory factory = MakeFactory(a.technique);
  if (!factory) {
    std::fprintf(stderr, "unknown technique: %s\n", a.technique.c_str());
    return 2;
  }

  // Append on resume, truncate on a fresh run. std::endl per line: the log
  // must be on disk before the barrier that could kill the process.
  if (a.resume) TrimTornTail(a.out);
  std::ofstream log(a.out, a.resume ? std::ios::app : std::ios::trunc);
  if (!log) {
    std::fprintf(stderr, "cannot open log: %s\n", a.out.c_str());
    return 2;
  }
  // The keyed wrapper's order across keys within one watermark is not a
  // contract and can change after a restore, so each delivered batch is
  // logged stably sorted by key (a no-op for the unkeyed techniques).
  ResultSink sink = [&log](const std::vector<WindowResult>& drained) {
    std::vector<WindowResult> rs = drained;
    std::stable_sort(rs.begin(), rs.end(),
                     [](const WindowResult& x, const WindowResult& y) {
                       return x.key < y.key;
                     });
    for (const WindowResult& r : rs) {
      uint64_t bits;
      const double num = r.value.Numeric();
      std::memcpy(&bits, &num, sizeof(bits));
      log << r.key << ' ' << r.window_id << ' ' << r.agg_id << ' ' << r.start
          << ' ' << r.end << ' ' << (r.is_update ? 1 : 0) << ' ' << std::hex
          << bits << std::dec << std::endl;
    }
  };

  SensorStream src(SensorStream::Machine());
  PipelineOptions popts;
  popts.watermark_every = a.wm_every;
  popts.watermark_delay = 100;
  CheckpointOptions copts;
  copts.directory = a.dir;
  copts.prefix = "ckpt";
  if (!ApplyMode(a.mode, &copts)) {
    std::fprintf(stderr, "unknown mode: %s\n", a.mode.c_str());
    return 2;
  }
  CheckpointCoordinator coord(copts);

  // The executor runs the partitions of one PartitionedOperator, so that is
  // what a fresh run builds and what a resume restores.
  const bool parallel = a.technique == kKeyedParallel;
  if (parallel) factory = PartitionedOperator::Factory(1, factory);
  std::unique_ptr<WindowOperator> op;
  std::optional<state::CheckpointMetadata> from;
  std::string snap;
  if (a.resume) {
    const std::vector<std::string> snaps = ListSnapshots(a.dir, "ckpt");
    if (snaps.empty()) {
      std::fprintf(stderr, "no snapshot to resume from in %s\n",
                   a.dir.c_str());
      return 2;
    }
    snap = snaps.front();
    RestoredOperator restored = RestoreOperator(snap, factory);
    if (!restored.ok) {
      std::fprintf(stderr, "restore failed: %s\n", restored.error.c_str());
      return 1;
    }
    op = std::move(restored.op);
    from = restored.meta;
  } else {
    op = factory();
  }

  PipelineReport rep;
  if (parallel) {
    ParallelExecutor::Options xopts;
    xopts.result_sink = sink;
    ParallelExecutor exec(std::move(op), xopts);
    rep = RunPipeline(src, exec, a.tuples, popts, &coord, from);
  } else {
    rep = RunPipeline(src, *op, a.tuples, popts, &coord, sink, from);
  }
  if (!rep.ok) {
    std::fprintf(stderr, "run failed: %s\n", rep.error.c_str());
    return 1;
  }
  if (a.resume) std::printf("resumed from %s: ", snap.c_str());
  std::printf("%stuples=%llu results=%llu checkpoints=%llu\n",
              a.resume ? "" : "run: ",
              static_cast<unsigned long long>(rep.tuples),
              static_cast<unsigned long long>(rep.results),
              static_cast<unsigned long long>(rep.checkpoints));
  return 0;
}

}  // namespace
}  // namespace scotty

int main(int argc, char** argv) {
  scotty::Args args;
  if (!scotty::ParseArgs(argc, argv, &args)) {
    scotty::PrintUsage(stderr);
    return 2;
  }
  return scotty::Run(args);
}
