//===- llm/Client.h - simulated LLM client ----------------------*- C++ -*-===//
///
/// \file
/// The LLM interface of LLM-Vectorizer and its simulated implementation.
///
/// The paper's tool holds a GPT-4 endpoint behind an agent abstraction; the
/// reproduction substitutes `SimulatedLLM`, which combines
///
///   (a) the rule-based AVX2 vectorizer (llm/Vectorizer.h) — the model's
///       "capability", and
///   (b) a seeded stochastic *competence model* — the model's reliability:
///       each completion draws success/failure from a per-test difficulty
///       derived from loop features, and failures materialize as faults
///       from the paper's observed error catalog (llm/Faults.h).
///
/// Determinism: completion k for a given prompt is a pure function of
/// (seed, prompt text, k), so Table 2 / Figure 5 / the FSM experiments are
/// exactly reproducible. Feedback in the prompt (dependence remarks,
/// failing I/O examples) raises the success probability and suppresses the
/// fault classes the feedback exposes — the mechanism behind the paper's
/// multi-agent repair results (§4.4).
///
/// Only semantic faults are modelled: wrong code from a healthy endpoint.
/// There is no transport-failure type. A client whose complete() throws
/// fails its task, and the vectorization service classifies the throw as
/// StageDegraded or Internal (src/svc/README.md "Failure model").
///
//===----------------------------------------------------------------------===//

#ifndef LV_LLM_CLIENT_H
#define LV_LLM_CLIENT_H

#include "llm/Faults.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace lv {
namespace llm {

/// A request to the model.
struct Prompt {
  std::string ScalarSource;        ///< The C function to vectorize.
  std::string DependenceFeedback;  ///< Clang-style remarks ("" = none).
  std::vector<std::string> FailureFeedback; ///< Tester-agent reports.
  double Temperature = 1.0;
};

/// A model completion.
struct Completion {
  std::string Source;    ///< The "model output": C code text.
  std::string Rationale; ///< Transcript note (strategy + injected faults).
};

/// Abstract LLM endpoint.
///
/// Ownership/threading contract: a client instance is owned by exactly one
/// task at a time and is never shared across threads — the vectorization
/// service constructs one client per task through a ClientFactory.
/// Implementations therefore need no internal locking, but distinct
/// instances built from the same seed must produce identical streams
/// (complete() is a pure function of (seed, prompt, sample index)).
class LLMClient {
public:
  virtual ~LLMClient();

  /// Produces completion number \p SampleIndex for \p P.
  virtual Completion complete(const Prompt &P, uint64_t SampleIndex) = 0;
};

/// Builds a fresh client for one task from the request's seed. The default
/// factory (simulatedClientFactory) yields SimulatedLLM; swap in a factory
/// producing remote-endpoint clients to point the service at a real model.
using ClientFactory =
    std::function<std::unique_ptr<LLMClient>(uint64_t Seed)>;

/// Factory for the paper-reproduction client: SimulatedLLM(Seed).
ClientFactory simulatedClientFactory();

/// Difficulty tier assigned to a test by the competence model.
enum class Difficulty : uint8_t { Easy, Medium, Hard, Never };

/// The simulated GPT-4.
class SimulatedLLM : public LLMClient {
public:
  explicit SimulatedLLM(uint64_t Seed) : Seed(Seed) {}

  Completion complete(const Prompt &P, uint64_t SampleIndex) override;

  /// Exposed for tests/benches: the tier the competence model assigns.
  static Difficulty classifyDifficulty(const std::string &ScalarSource);

  /// Per-completion success probability for a tier (before feedback).
  static double successProbability(Difficulty D);

private:
  uint64_t Seed;
};

} // namespace llm
} // namespace lv

#endif // LV_LLM_CLIENT_H
