//===- llm/Resilience.cpp - circuit-breaker client decorator -----------------===//

#include "llm/Resilience.h"

#include "obs/Metrics.h"

using namespace lv;
using namespace lv::llm;

namespace {

/// Circuit-breaker admission over an inner client. The breaker is the one
/// deliberately shared piece of the failure path (per-service); the inner
/// client keeps the one-task ownership contract.
class BreakerClient : public LLMClient {
public:
  BreakerClient(std::unique_ptr<LLMClient> Inner,
                support::CircuitBreaker *Breaker)
      : Inner(std::move(Inner)), Breaker(Breaker) {}

  Completion complete(const Prompt &P, uint64_t SampleIndex) override {
    if (!Breaker->admit()) {
      obs::counter("llm.breaker_rejected").inc();
      // Transient: the open state is expected to clear (the reject
      // countdown leads to a probe), so the retry machinery applies.
      throw ClientError("circuit breaker open", /*Transient=*/true);
    }
    try {
      Completion C = Inner->complete(P, SampleIndex);
      Breaker->onSuccess();
      return C;
    } catch (const ClientError &) {
      Breaker->onFailure();
      throw;
    } catch (...) {
      // Cancellation (or any non-client fault) says nothing about the
      // backend's health; just release a held probe slot.
      Breaker->onAbandoned();
      throw;
    }
  }

private:
  std::unique_ptr<LLMClient> Inner;
  support::CircuitBreaker *Breaker;
};

} // namespace

std::unique_ptr<LLMClient> llm::wrapBreaker(std::unique_ptr<LLMClient> Inner,
                                            support::CircuitBreaker *Breaker) {
  if (!Breaker || !Breaker->config().Enabled)
    return Inner;
  return std::make_unique<BreakerClient>(std::move(Inner), Breaker);
}
