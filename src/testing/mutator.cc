#include "testing/mutator.h"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "aggregates/kernels.h"

namespace scotty {
namespace testing {

namespace {

constexpr int kMaxTuples = 4096;
constexpr size_t kMaxWindows = 4;
constexpr size_t kMaxAggs = 3;

/// Multiply-or-divide a positive quantity by a small factor — the generic
/// "nudge" all resize/retime operators share. Keeps the result in
/// [lo, hi].
Time NudgeTime(Rng& rng, Time v, Time lo, Time hi) {
  const Time factor = 1 + static_cast<Time>(rng.NextBounded(3));  // 1..3
  Time out = rng.NextBounded(2) == 0 ? v * factor : v / factor;
  if (rng.NextBounded(2) == 0) out += static_cast<Time>(rng.NextBounded(5));
  return std::clamp(out, lo, hi);
}

WindowSpec RandomWindow(Rng& rng, uint64_t value_range) {
  WindowSpec w;
  switch (rng.NextBounded(8)) {
    case 0:
      w.kind = WindowSpec::Kind::kTumbling;
      w.length = 5 + static_cast<Time>(rng.NextBounded(56));
      break;
    case 1:
      w.kind = WindowSpec::Kind::kSliding;
      w.length = 8 + static_cast<Time>(rng.NextBounded(73));
      w.slide = 1 + static_cast<Time>(
                        rng.NextBounded(static_cast<uint64_t>(w.length)));
      break;
    case 2:
      w.kind = WindowSpec::Kind::kSession;
      w.length = 8 + static_cast<Time>(rng.NextBounded(33));
      break;
    case 3:
      w.kind = WindowSpec::Kind::kTumbling;
      w.measure = Measure::kCount;
      w.length = 2 + static_cast<Time>(rng.NextBounded(19));
      break;
    case 4:
      w.kind = WindowSpec::Kind::kSliding;
      w.measure = Measure::kCount;
      w.length = 3 + static_cast<Time>(rng.NextBounded(22));
      w.slide = 1 + static_cast<Time>(
                        rng.NextBounded(static_cast<uint64_t>(w.length)));
      break;
    case 5:
      w.kind = WindowSpec::Kind::kLastNEveryT;
      w.length = 2 + static_cast<Time>(rng.NextBounded(14));
      w.slide = 5 + static_cast<Time>(rng.NextBounded(41));
      break;
    case 6:
      w.kind = WindowSpec::Kind::kThresholdFrame;
      w.length = 1 + static_cast<Time>(rng.NextBounded(value_range));
      break;
    default:
      w.kind = WindowSpec::Kind::kPunctuation;
      break;
  }
  return w;
}

/// The individual mutation operators. Each does one structural thing and
/// relies on Sanitize() for global invariants.
enum class Op {
  kReseed,
  kResize,
  kRetime,
  kRedisorder,
  kValueRange,
  kPunctuation,
  kWindowNudge,
  kWindowAdd,
  kWindowDrop,
  kAggAdd,
  kAggSwap,
  kDimensionShift,
  kFaultSiteShift,
  kCount,
};

void Apply(Op op, DifferentialConfig* cfg, Rng& rng) {
  StreamSpec& s = cfg->stream;
  switch (op) {
    case Op::kReseed:
      // New stream realization, same regime: the cheapest way to probe
      // whether a feature came from the shape or the particular sample.
      s.seed = rng.NextU64() | 1;
      break;
    case Op::kResize:
      s.num_tuples = static_cast<int>(
          NudgeTime(rng, s.num_tuples, 1, kMaxTuples));
      break;
    case Op::kRetime:
      // Timestamp dynamics: step range and gap structure.
      s.step_lo = static_cast<Time>(rng.NextBounded(3));
      s.step_hi = s.step_lo + 1 + static_cast<Time>(rng.NextBounded(6));
      if (rng.NextBounded(2) == 0) {
        s.gap_probability = rng.NextBounded(2) == 0 ? 0.0 : 0.05;
        s.gap_length = NudgeTime(rng, s.gap_length, 1, 400);
      }
      break;
    case Op::kRedisorder: {
      static const double kOoo[] = {0.0, 0.05, 0.2, 0.4, 0.7};
      s.ooo_fraction = kOoo[rng.NextBounded(5)];
      static const Time kDelay[] = {2, 4, 16, 60, 200};
      s.max_delay = kDelay[rng.NextBounded(5)];
      if (rng.NextBounded(2) == 0) {
        s.burst_probability = rng.NextBounded(2) == 0 ? 0.0 : 0.03;
        s.burst_length = 2 + static_cast<int>(rng.NextBounded(14));
      }
      break;
    }
    case Op::kValueRange:
      s.value_range = 1 + rng.NextBounded(rng.NextBounded(2) == 0 ? 8 : 200);
      break;
    case Op::kPunctuation:
      s.punctuation_probability =
          rng.NextBounded(3) == 0 ? 0.0 : 0.01 + 0.07 * rng.NextDouble();
      break;
    case Op::kWindowNudge: {
      WindowSpec& w =
          cfg->windows[rng.NextBounded(cfg->windows.size())];
      w.length = NudgeTime(rng, w.length, 1, 512);
      if (w.slide > 0) w.slide = NudgeTime(rng, w.slide, 1, 512);
      break;
    }
    case Op::kWindowAdd:
      if (cfg->windows.size() < kMaxWindows) {
        cfg->windows.push_back(RandomWindow(rng, s.value_range));
      }
      break;
    case Op::kWindowDrop:
      if (cfg->windows.size() > 1) {
        cfg->windows.erase(cfg->windows.begin() +
                           static_cast<long>(
                               rng.NextBounded(cfg->windows.size())));
      }
      break;
    case Op::kAggAdd:
      if (cfg->aggs.size() < kMaxAggs) {
        const auto& names = FuzzAggregationNames();
        cfg->aggs.push_back(names[rng.NextBounded(names.size())]);
      }
      break;
    case Op::kAggSwap: {
      const auto& names = FuzzAggregationNames();
      cfg->aggs[rng.NextBounded(cfg->aggs.size())] =
          names[rng.NextBounded(names.size())];
      break;
    }
    case Op::kDimensionShift: {
      static const int kWm[] = {0, 16, 64, 256};
      static const int kBatch[] = {0, 1, 7, 64, 333};
      static const char* kKernels[] = {"auto", "scalar", "sse2", "avx2"};
      switch (rng.NextBounded(5)) {
        case 0:
          cfg->wm_every = kWm[rng.NextBounded(4)];
          break;
        case 1:
          cfg->batch = kBatch[rng.NextBounded(5)];
          break;
        case 2:
          // Batched runs add the kernel cross-check in this mode.
          cfg->kernel = kKernels[rng.NextBounded(4)];
          break;
        case 3:
          // Shared-registry arm: off, static companions, or seed-derived
          // companions with mid-stream membership dynamics.
          cfg->shared =
              rng.NextBounded(3) == 0
                  ? 0
                  : (rng.NextBounded(2) == 0
                         ? -1
                         : 1 + static_cast<int>(rng.NextBounded(4)));
          break;
        default:
          cfg->checkpoint =
              rng.NextBounded(2) == 0
                  ? 0
                  : 1 + static_cast<int>(rng.NextBounded(
                            static_cast<uint64_t>(
                                std::max(1, s.num_tuples))));
          break;
      }
      break;
    }
    case Op::kFaultSiteShift:
      // The crash/rescale/overload fault plans are derived from the stream
      // seed, so shifting the kill point (or toggling a whole dimension)
      // explores the persistence-mode × fault × position matrix.
      switch (rng.NextBounded(3)) {
        case 0:
          cfg->crash = rng.NextBounded(3) == 0
                           ? 0
                           : (rng.NextBounded(2) == 0
                                  ? -1
                                  : 1 + static_cast<int>(rng.NextBounded(
                                            static_cast<uint64_t>(std::max(
                                                1, s.num_tuples)))));
          break;
        case 1:
          cfg->rescale = rng.NextBounded(3) == 0
                             ? 0
                             : (rng.NextBounded(2) == 0
                                    ? -1
                                    : 1 + static_cast<int>(rng.NextBounded(
                                              static_cast<uint64_t>(std::max(
                                                  1, s.num_tuples)))));
          break;
        default:
          // The overload schedule is wholly seed-derived; the dimension is
          // effectively on/off (any non-zero value behaves like -1).
          cfg->overload = rng.NextBounded(3) == 0 ? 0 : -1;
          break;
      }
      break;
    case Op::kCount:
      break;
  }
}

}  // namespace

void Sanitize(DifferentialConfig* cfg) {
  StreamSpec& s = cfg->stream;
  s.num_tuples = std::clamp(s.num_tuples, 1, kMaxTuples);
  if (s.value_range == 0) s.value_range = 1;
  if (s.step_hi < s.step_lo) std::swap(s.step_lo, s.step_hi);
  if (s.step_hi == 0) s.step_hi = 1;
  if (s.gap_length <= 0) s.gap_length = 1;
  if (s.burst_length <= 0) s.burst_length = 1;
  s.gap_probability = std::clamp(s.gap_probability, 0.0, 0.5);
  s.burst_probability = std::clamp(s.burst_probability, 0.0, 0.5);
  s.punctuation_probability =
      std::clamp(s.punctuation_probability, 0.0, 0.5);
  s.ooo_fraction = std::clamp(s.ooo_fraction, 0.0, 1.0);
  if (s.ooo_fraction > 0 && s.max_delay <= 0) s.max_delay = 4;
  if (s.ooo_fraction == 0) s.burst_probability = 0;

  if (cfg->windows.empty()) cfg->windows.push_back(WindowSpec{});
  if (cfg->windows.size() > kMaxWindows) cfg->windows.resize(kMaxWindows);
  bool has_punct = false;
  bool has_frames = false;
  for (WindowSpec& w : cfg->windows) {
    if (w.length <= 0) w.length = 1;
    switch (w.kind) {
      case WindowSpec::Kind::kSliding:
        if (w.slide <= 0) w.slide = 1;
        w.slide = std::min(w.slide, w.length);
        if (w.measure == Measure::kCount && w.length < 2) w.length = 2;
        break;
      case WindowSpec::Kind::kTumbling:
        w.slide = 0;
        if (w.measure == Measure::kCount && w.length < 1) w.length = 1;
        break;
      case WindowSpec::Kind::kSession:
        w.slide = 0;
        break;
      case WindowSpec::Kind::kPunctuation:
        w.slide = 0;
        has_punct = true;
        break;
      case WindowSpec::Kind::kLastNEveryT:
        if (w.slide <= 0) w.slide = 1;
        break;
      case WindowSpec::Kind::kThresholdFrame:
        w.slide = 0;
        // Threshold inside the value range so qualifying and breaking
        // tuples both occur.
        w.length = std::clamp<Time>(
            w.length, 1, static_cast<Time>(s.value_range));
        has_frames = true;
        break;
    }
  }
  // Punctuation windows need punctuation to ever close; frames classify
  // per timestamp, so duplicate timestamps must be impossible.
  if (has_punct && s.punctuation_probability <= 0) {
    s.punctuation_probability = 0.03;
  }
  if (has_frames && s.step_lo == 0) s.step_lo = 1;
  if (s.step_hi < s.step_lo) s.step_hi = s.step_lo;

  if (cfg->aggs.empty()) cfg->aggs.push_back("sum");
  std::vector<std::string> deduped;
  for (const std::string& a : cfg->aggs) {
    if (std::find(deduped.begin(), deduped.end(), a) == deduped.end()) {
      deduped.push_back(a);
    }
  }
  if (deduped.size() > kMaxAggs) deduped.resize(kMaxAggs);
  cfg->aggs = std::move(deduped);

  cfg->wm_every = std::max(0, cfg->wm_every);
  cfg->batch = std::clamp(cfg->batch, 0, kMaxTuples);
  simd::KernelMode km;
  if (!simd::ParseMode(cfg->kernel, &km)) cfg->kernel = "auto";
  const int n = s.num_tuples;
  cfg->checkpoint = std::clamp(cfg->checkpoint, -1, n);
  cfg->crash = std::clamp(cfg->crash, -1, n);
  cfg->rescale = std::clamp(cfg->rescale, -1, n);
  cfg->shared = std::clamp(cfg->shared, -1, 16);
  cfg->overload = std::clamp(cfg->overload, -1, 1);
  // The persistence twins need at least one tuple on each side of the cut.
  if (n <= 1) {
    cfg->checkpoint = 0;
    cfg->crash = 0;
    cfg->rescale = 0;
    cfg->overload = 0;
  }
}

DifferentialConfig Mutate(const DifferentialConfig& cfg, Rng& rng) {
  DifferentialConfig out = cfg;
  const int steps = 1 + static_cast<int>(rng.NextBounded(3));
  for (int i = 0; i < steps; ++i) {
    Apply(static_cast<Op>(
              rng.NextBounded(static_cast<uint64_t>(Op::kCount))),
          &out, rng);
  }
  Sanitize(&out);
  return out;
}

DifferentialConfig Splice(const DifferentialConfig& a,
                          const DifferentialConfig& b, Rng& rng) {
  DifferentialConfig out = rng.NextBounded(2) == 0 ? a : b;
  out.windows.clear();
  for (const WindowSpec& w : a.windows) {
    if (rng.NextBounded(2) == 0) out.windows.push_back(w);
  }
  for (const WindowSpec& w : b.windows) {
    if (rng.NextBounded(2) == 0) out.windows.push_back(w);
  }
  if (out.windows.empty()) {
    out.windows.push_back(rng.NextBounded(2) == 0 ? a.windows.front()
                                                  : b.windows.front());
  }
  out.aggs.clear();
  for (const std::string& g : a.aggs) {
    if (rng.NextBounded(2) == 0) out.aggs.push_back(g);
  }
  for (const std::string& g : b.aggs) {
    if (rng.NextBounded(2) == 0) out.aggs.push_back(g);
  }
  if (out.aggs.empty()) {
    out.aggs.push_back(rng.NextBounded(2) == 0 ? a.aggs.front()
                                               : b.aggs.front());
  }
  Sanitize(&out);
  return out;
}

}  // namespace testing
}  // namespace scotty
