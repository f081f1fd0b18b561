#ifndef SCOTTY_QUERY_WINDOW_DESC_H_
#define SCOTTY_QUERY_WINDOW_DESC_H_

#include <string>
#include <vector>

#include "common/time.h"
#include "windows/window.h"

namespace scotty {

/// A declarative, parse-/printable window description. Window instances are
/// stateful, so anything that needs to (re)create windows — the query
/// registry's register/deregister/snapshot cycle, the differential fuzzer's
/// one-technique-per-operator runs, the brute-force oracle — works on
/// descriptions and instantiates fresh objects per operator.
///
/// Textual form (also the fuzzer's --queries= reproducer syntax):
///   tumbling:L       time tumbling, length L
///   sliding:L:S      time sliding, length L, slide S
///   session:G        session with inactivity gap G
///   ctumbling:N      count tumbling, N tuples
///   csliding:N:S     count sliding, length N tuples, slide S tuples
///   punct            punctuation-delimited windows (FCF)
///   lastn:N:T        FCA multi-measure "last N tuples every T time units"
///   frames:V         threshold frames, qualifying value >= V (FCF)
struct WindowDesc {
  enum class Kind {
    kTumbling,
    kSliding,
    kSession,
    kPunctuation,
    kLastNEveryT,
    kThresholdFrame,
  };

  Kind kind = Kind::kTumbling;
  Measure measure = Measure::kEventTime;  // kCount for count windows
  Time length = 10;  // tumbling length / sliding length / session gap /
                     // lastn N / frames threshold
  Time slide = 0;    // sliding windows (slide) and lastn (period T)

  std::string ToString() const;
  /// Fresh, stateless-as-of-yet window object for one operator instance.
  WindowPtr Instantiate() const;

  /// Parses one desc; returns false (leaving *out* unspecified) on syntax
  /// errors or non-positive parameters.
  static bool Parse(const std::string& text, WindowDesc* out);

  /// True for the context-free event-time kinds (tumbling/sliding on the
  /// time measure). These are the kinds whose window edges are known in
  /// advance, which is what makes them eligible for mid-stream registration
  /// (the registry can place a horizon under them).
  bool IsContextFreeTime() const {
    return measure == Measure::kEventTime &&
           (kind == Kind::kTumbling || kind == Kind::kSliding);
  }
};

/// Comma-joined list form used by --queries= and the reproducer line.
std::string WindowDescsToString(const std::vector<WindowDesc>& descs);
bool ParseWindowDescs(const std::string& text, std::vector<WindowDesc>* out);

}  // namespace scotty

#endif  // SCOTTY_QUERY_WINDOW_DESC_H_
