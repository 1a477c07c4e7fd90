//===- agents/Fsm.h - multi-agent finite state machine ----------*- C++ -*-===//
///
/// \file
/// The multi-agent FSM of paper §2.2/Fig. 3: a user proxy agent opens a
/// dialogue with the vectorizer assistant agent, attaching the scalar code
/// and Clang-style dependence remarks; the vectorizer consults the LLM; the
/// compiler tester assistant compiles the candidate and runs checksum
/// testing; failures are fed back to the vectorizer for repair. The loop
/// runs until a plausible candidate emerges or the attempt budget (10 in
/// the paper) is exhausted.
///
/// States: Init -> Vectorize -> Compile -> Test -> {Done | Feedback ->
/// Vectorize} -> Failed. The transcript records every agent message so the
/// examples can replay the paper's s453 repair dialogue (§4.4.2).
///
//===----------------------------------------------------------------------===//

#ifndef LV_AGENTS_FSM_H
#define LV_AGENTS_FSM_H

#include "interp/Checksum.h"
#include "llm/Client.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace lv {
namespace agents {

/// FSM states (for the transition log).
enum class State : uint8_t {
  Init,
  Vectorize,
  Compile,
  Test,
  Feedback,
  Done,
  Failed,
};

const char *stateName(State S);

/// One message in the agent conversation.
struct Message {
  std::string From;
  std::string To;
  std::string Content;
};

/// Signature of the compiler-tester's checksum runner: candidate source
/// (for content addressing) plus both compiled functions. The vectorization
/// service installs its content-addressed outcome cache through this hook;
/// null runs interp::runChecksumTest directly.
using ChecksumRunner = std::function<interp::ChecksumOutcome(
    const std::string &CandidateSrc, const vir::VFunction &Scalar,
    const vir::VFunction &Vec, const interp::ChecksumConfig &Cfg)>;

/// FSM configuration.
struct FsmConfig {
  int MaxAttempts = 10; ///< The paper's repair budget.
  bool ProvideDependenceFeedback = true; ///< Clang remarks in the prompt.
  double Temperature = 1.0;
  interp::ChecksumConfig Checksum;
  /// Optional interception of the tester agent's checksum run (cache /
  /// instrumentation hook). Only its presence participates in
  /// configHash() — callbacks have no content identity.
  ChecksumRunner Tester;

  /// Canonical content hash (tagged per field; see support/Rng.h). Keys
  /// the service-layer verdict cache; extend when adding fields.
  uint64_t configHash() const;
};

/// Why a run stopped before the FSM itself concluded. The only abort is
/// the task's deadline (or drain()) firing: run() catches the cancellation
/// instead of letting it unwind, so the partial transcript/transitions
/// stay on the result and the service classifies the task TimedOut (see
/// src/svc/README.md "Failure model"). Anything else a client throws
/// propagates to the service.
enum class FsmAbort : uint8_t {
  None,      ///< Ran to a normal Done/Failed conclusion.
  Cancelled, ///< Task deadline expired (support::CancelledError).
};

/// Result of a run.
struct FsmResult {
  bool Plausible = false;
  int Attempts = 0;
  std::string FinalCandidate; ///< Last candidate source (plausible or not).
  interp::ChecksumOutcome LastChecksum;
  std::vector<Message> Transcript;
  std::vector<State> Transitions;
  FsmAbort Abort = FsmAbort::None; ///< Cancellation abort, if any.
  std::string AbortMsg;            ///< The cancellation's message.
};

/// The orchestrator.
class MultiAgentFsm {
public:
  MultiAgentFsm(llm::LLMClient &Client, FsmConfig Cfg)
      : Client(Client), Cfg(Cfg) {}

  /// Runs the dialogue for one scalar function. Task cancellation does
  /// not throw: it surfaces as FsmResult::Abort with the progress made so
  /// far intact.
  FsmResult run(const std::string &ScalarSource);

private:
  void runImpl(FsmResult &R, const std::string &ScalarSource);

  llm::LLMClient &Client;
  FsmConfig Cfg;
};

} // namespace agents
} // namespace lv

#endif // LV_AGENTS_FSM_H
