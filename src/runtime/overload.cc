#include "runtime/overload.h"

#include <algorithm>

namespace scotty {

BackpressureController::BackpressureController(BackpressureOptions opts)
    : opts_(opts) {
  // Keep the thresholds ordered even when callers hand in odd values, so
  // the policy stays monotone: resume <= backpressure <= shed.
  opts_.shed_fraction = std::clamp(opts_.shed_fraction, 0.0, 1.0);
  opts_.backpressure_fraction =
      std::clamp(opts_.backpressure_fraction, 0.0, opts_.shed_fraction);
  opts_.resume_fraction =
      std::clamp(opts_.resume_fraction, 0.0, opts_.backpressure_fraction);
}

Admission BackpressureController::Decide(double queue_fraction,
                                         size_t persist_queue_depth) {
  const bool persist_lag =
      opts_.persist_queue_soft_limit > 0 &&
      persist_queue_depth >= opts_.persist_queue_soft_limit;

  if (shedding_) {
    if (queue_fraction >= opts_.resume_fraction) {
      ++shed_decisions_;
      return Admission::kShed;
    }
    shedding_ = false;  // drained past the hysteresis floor; resume
  }
  if (queue_fraction >= opts_.shed_fraction) {
    shedding_ = true;
    ++shed_decisions_;
    return Admission::kShed;
  }
  if (queue_fraction >= opts_.backpressure_fraction || persist_lag) {
    ++backpressure_decisions_;
    return Admission::kBackpressure;
  }
  return Admission::kAccept;
}

}  // namespace scotty
