//===- llm/Resilience.h - circuit-breaker client decorator -----*- C++ -*-===//
///
/// \file
/// Serving-policy decorator over the `LLMClient` seam, composing with
/// `llm::wrapChaos` the same way chaos composes with any inner client:
/// `wrapBreaker` gates every call through a shared
/// `support::CircuitBreaker`. A rejected call throws a *transient*
/// `ClientError` without touching the backend — the service's existing
/// retry/classification machinery then treats an open breaker exactly
/// like a fast-failing endpoint (retries spin the breaker's reject
/// countdown toward the half-open probe, and exhaustion classifies as
/// ClientTransient). The breaker learns from the calls it admits: a
/// success closes, client faults count toward the trip threshold.
///
/// The decorator preserves the one-task-one-client ownership contract:
/// the breaker pointer is the only shared state, and it is internally
/// locked.
///
//===----------------------------------------------------------------------===//

#ifndef LV_LLM_RESILIENCE_H
#define LV_LLM_RESILIENCE_H

#include "llm/Client.h"
#include "support/Breaker.h"

#include <memory>

namespace lv {
namespace llm {

/// Decorates \p Inner with circuit-breaker admission. \p Breaker is shared
/// per-service state and must outlive the returned client. Rejected calls
/// throw ClientError("circuit breaker open", Transient=true) and count in
/// the `llm.breaker_rejected` counter.
std::unique_ptr<LLMClient> wrapBreaker(std::unique_ptr<LLMClient> Inner,
                                       support::CircuitBreaker *Breaker);

} // namespace llm
} // namespace lv

#endif // LV_LLM_RESILIENCE_H
