#ifndef SCOTTY_COMMON_TUPLE_H_
#define SCOTTY_COMMON_TUPLE_H_

#include <cstdint>
#include <ostream>

#include "common/time.h"

namespace scotty {

/// A stream tuple. The payload is a single double value (the column being
/// aggregated); richer schemas in the original Flink deployment reduce to
/// this after projection, and the paper aggregates one column per query.
struct Tuple {
  /// Event-time (or the value of an arbitrary advancing measure).
  Time ts = 0;
  /// The value being aggregated.
  double value = 0.0;
  /// Partition key (player id / machine id); used by the parallel executor.
  int64_t key = 0;
  /// Arrival sequence number assigned by the ingestion pipeline; strictly
  /// increasing in processing order. Used to detect out-of-order tuples and
  /// to define count-based measures on in-order streams.
  uint64_t seq = 0;
  /// True for punctuation tuples that carry window markers instead of data
  /// (forward-context-free punctuation windows, paper Section 4.4).
  bool is_punctuation = false;

  friend bool operator==(const Tuple& a, const Tuple& b) = default;
};

inline std::ostream& operator<<(std::ostream& os, const Tuple& t) {
  return os << "Tuple{ts=" << t.ts << ", value=" << t.value
            << ", key=" << t.key << ", seq=" << t.seq
            << (t.is_punctuation ? ", punct" : "") << "}";
}

/// The order of stored tuples: by timestamp, ties by arrival sequence.
inline bool TupleLess(const Tuple& a, const Tuple& b) {
  if (a.ts != b.ts) return a.ts < b.ts;
  return a.seq < b.seq;
}

}  // namespace scotty

#endif  // SCOTTY_COMMON_TUPLE_H_
