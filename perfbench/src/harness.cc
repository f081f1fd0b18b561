#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>

#include "datagen/generators.h"
#include "datagen/ooo_injector.h"
#include "testing/oracle.h"

namespace perfbench {

using scotty::Tuple;
using scotty::Value;
using scotty::WindowResult;

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back(Entry{name, value, unit});
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Stream GenerateStream(const StreamSpec& spec, uint64_t seed) {
  scotty::SensorConfig config = scotty::SensorStream::Football();
  config.num_keys = spec.keys;
  config.seed = MixSeed(seed, 1);
  scotty::SensorStream sensor(config);
  std::unique_ptr<scotty::OutOfOrderInjector> ooo;
  scotty::TupleSource* src = &sensor;
  if (spec.ooo_fraction > 0.0) {
    scotty::OutOfOrderInjector::Options o;
    o.fraction = spec.ooo_fraction;
    o.min_delay = 0;
    o.max_delay = spec.max_delay;
    o.seed = MixSeed(seed, 2);
    ooo = std::make_unique<scotty::OutOfOrderInjector>(&sensor, o);
    src = ooo.get();
  }

  Stream out;
  out.tuples.reserve(spec.tuples);
  Time max_ts = scotty::kNoTime;
  Time last_wm = scotty::kNoTime;
  Tuple t;
  while (out.tuples.size() < spec.tuples && src->Next(&t)) {
    if (last_wm != scotty::kNoTime && t.ts < last_wm - spec.lateness) {
      ++out.filtered;
      continue;
    }
    t.seq = out.tuples.size();
    out.tuples.push_back(t);
    max_ts = std::max(max_ts, t.ts);
    if (spec.wm_every > 0 && out.tuples.size() % spec.wm_every == 0) {
      const Time wm = max_ts - spec.wm_lag;
      if (last_wm == scotty::kNoTime || wm > last_wm) {
        out.wm_after.push_back(out.tuples.size());
        out.wm_value.push_back(wm);
        last_wm = wm;
      }
    }
  }
  out.final_wm = max_ts;
  out.cols.Reserve(out.tuples.size());
  out.cols.AppendTuples(out.tuples);
  std::printf("# stream: %zu tuples, %zu watermarks + final, %zu generated "
              "tuples left out as beyond the allowed lateness\n",
              out.size(), out.wm_after.size(), out.filtered);
  return out;
}

void AppendOracle(const std::vector<scotty::WindowDesc>& windows,
                  const std::vector<std::string>& aggs,
                  const std::vector<Tuple>& tuples, Time final_wm,
                  int64_t key, int window_base, Reference* out) {
  for (auto& [k, v] :
       scotty::testing::OracleResults(windows, aggs, tuples, final_wm)) {
    const auto& [w, a, s, e] = k;
    out->emplace_back(ResultKey{key, window_base + w, a, s, e}, v);
  }
}

void SortReference(Reference* ref) {
  std::sort(ref->begin(), ref->end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

namespace {

bool NumbersMatch(double a, double b) {
  if (a == b) return true;
  if (std::isnan(a) && std::isnan(b)) return true;
  if (a == std::floor(a) && b == std::floor(b)) return false;  // exact
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(a));
}

}  // namespace

bool ValuesMatch(const Value& a, const Value& b) {
  if (a.IsEmpty() || b.IsEmpty()) return a.IsEmpty() && b.IsEmpty();
  if (a.IsM4() && b.IsM4()) {
    const scotty::M4Result& x = a.AsM4();
    const scotty::M4Result& y = b.AsM4();
    return NumbersMatch(x.min, y.min) && NumbersMatch(x.max, y.max) &&
           NumbersMatch(x.first, y.first) && NumbersMatch(x.last, y.last);
  }
  if (a.IsInt() && b.IsInt()) return a.AsInt() == b.AsInt();
  if ((a.IsDouble() || a.IsInt()) && (b.IsDouble() || b.IsInt())) {
    return NumbersMatch(a.Numeric(), b.Numeric());
  }
  return a == b;
}

CheckCounts Compare(const Reference& ref, const std::vector<WindowResult>& got,
                    bool keyed) {
  auto key_of = [keyed](const WindowResult& r) {
    return ResultKey{keyed ? r.key : 0, r.window_id, r.agg_id, r.start, r.end};
  };
  std::vector<uint32_t> idx(got.size());
  std::iota(idx.begin(), idx.end(), 0u);
  // Stable: emissions of one instance keep their order, the last one wins.
  std::stable_sort(idx.begin(), idx.end(), [&](uint32_t x, uint32_t y) {
    return key_of(got[x]) < key_of(got[y]);
  });
  CheckCounts c;
  c.expected = ref.size();
  size_t i = 0;
  for (size_t j = 0; j < idx.size();) {
    const ResultKey k = key_of(got[idx[j]]);
    size_t last = j;
    while (last + 1 < idx.size() && key_of(got[idx[last + 1]]) == k) ++last;
    while (i < ref.size() && ref[i].first < k) {
      ++c.missing;
      ++i;
    }
    if (i < ref.size() && ref[i].first == k) {
      if (!ValuesMatch(ref[i].second, got[idx[last]].value)) ++c.wrong;
      ++i;
    } else {
      ++c.extra;
    }
    j = last + 1;
  }
  c.missing += ref.size() - i;
  return c;
}

std::map<std::string, Tracer::Summary> Tracer::Summarize() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int p = spans_[i].parent;
    if (p >= 0) {
      child_ns[static_cast<size_t>(p)] +=
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    }
  }
  std::map<std::string, Summary> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    Summary& sum = out[std::string(s.name)];
    ++sum.count;
    sum.total_ns += d;
    sum.self_ns += d - child_ns[i];
    sum.durations_ns.push_back(d);
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path, size_t count) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  count = std::min(count, spans_.size());
  const int64_t t0 = count > 0 ? spans_[0].start_ns : 0;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < count; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%.*s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                 i == 0 ? "" : ",\n", static_cast<int>(s.name.size()),
                 s.name.data(), s.track,
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
