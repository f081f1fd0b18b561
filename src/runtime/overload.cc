#include "runtime/overload.h"

#include <algorithm>

#include "runtime/parallel_executor.h"

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
      ++stats_.shed_decisions;
      return Admission::kShed;
    }
    shedding_ = false;  // drained past the hysteresis floor; resume
  }
  if (queue_fraction >= opts_.shed_fraction) {
    shedding_ = true;
    ++stats_.shed_decisions;
    return Admission::kShed;
  }
  if (queue_fraction >= opts_.backpressure_fraction || persist_lag) {
    ++stats_.backpressure_decisions;
    return Admission::kBackpressure;
  }
  return Admission::kAccept;
}

bool BackpressureController::Admit(ParallelExecutor& exec, const Tuple& t,
                                   size_t persist_queue_depth,
                                   ShedLedger* ledger) {
  if (t.is_punctuation) return exec.TryPushFor(t, kDeliverTimeout);
  const Admission a = Decide(exec.ApproxMaxQueueFraction(),
                             persist_queue_depth);
  if (a == Admission::kBackpressure) ++stats_.backpressure_waits;
  if (a != Admission::kShed && exec.TryPushFor(t, opts_.block_timeout)) {
    ++stats_.accepted;
    return true;
  }
  // Shed at the door, or the bounded wait expired: the consumer is
  // stalled, not merely slow, so escalate to shedding instead of spinning.
  if (a == Admission::kBackpressure) ++stats_.backpressure_timeouts;
  if (ledger != nullptr) ledger->RecordShed(t.ts);
  ++stats_.shed;
  return true;
}

}  // namespace scotty
