//===- agents/Fsm.cpp - multi-agent finite state machine -----------------------===//

#include "agents/Fsm.h"

#include "deps/Analysis.h"
#include "minic/Parser.h"
#include "support/Cancel.h"
#include "support/Format.h"
#include "support/Rng.h"
#include "vir/Compile.h"

using namespace lv;
using namespace lv::agents;

const char *lv::agents::stateName(State S) {
  switch (S) {
  case State::Init: return "Init";
  case State::Vectorize: return "Vectorize";
  case State::Compile: return "Compile";
  case State::Test: return "Test";
  case State::Feedback: return "Feedback";
  case State::Done: return "Done";
  case State::Failed: return "Failed";
  }
  return "?";
}

uint64_t FsmConfig::configHash() const {
  uint64_t H = 0xF53ULL;
  H = hashField(H, 1, static_cast<uint64_t>(MaxAttempts));
  H = hashField(H, 2, ProvideDependenceFeedback ? 1 : 0);
  H = hashField(H, 3, bitsOfDouble(Temperature));
  H = hashField(H, 4, Checksum.configHash());
  H = hashField(H, 5, Tester ? 1 : 0);
  return H;
}

FsmResult MultiAgentFsm::run(const std::string &ScalarSource) {
  FsmResult R;
  try {
    runImpl(R, ScalarSource);
  } catch (const support::CancelledError &E) {
    R.Abort = FsmAbort::Cancelled;
    R.AbortMsg = E.what();
    R.Transitions.push_back(State::Failed);
  }
  return R;
}

void MultiAgentFsm::runImpl(FsmResult &R, const std::string &ScalarSource) {
  R.Transitions.push_back(State::Init);

  // The user proxy prepares the task, optionally with Clang-style
  // dependence remarks explaining why the compiler will not vectorize.
  llm::Prompt P;
  P.ScalarSource = ScalarSource;
  P.Temperature = Cfg.Temperature;
  std::string ProxyMsg =
      "Vectorize the following C loop for an AVX2 target using intrinsics. "
      "Preserve the function signature and semantics.\n" +
      ScalarSource;
  if (Cfg.ProvideDependenceFeedback) {
    minic::ParseResult PR = minic::parseFunction(ScalarSource);
    if (PR.ok()) {
      deps::LoopAnalysis LA = deps::analyzeFunction(*PR.Fn);
      P.DependenceFeedback = deps::renderCompilerFeedback(LA);
      ProxyMsg += "\nCompiler dependence analysis:\n" + P.DependenceFeedback;
    }
  }
  R.Transcript.push_back({"user-proxy", "vectorizer", ProxyMsg});

  vir::CompileResult SC = vir::compileFunction(ScalarSource);
  if (!SC.ok()) {
    R.Transcript.push_back(
        {"compiler-tester", "user-proxy",
         "the scalar input does not compile: " + SC.Error});
    R.Transitions.push_back(State::Failed);
    return;
  }

  // Reference memo for the default tester path: the scalar runs once per
  // (seed, bound) input set and its outputs are reused across every
  // repair attempt of this run. (With an external Tester hook the hook
  // owner — e.g. the vectorization service — supplies its own memo.)
  interp::ScalarRefMemo ChecksumMemo;

  for (int Attempt = 0; Attempt < Cfg.MaxAttempts; ++Attempt) {
    // Cooperative deadline checkpoint: a task past its budget stops
    // between attempts (the client call and the tester below have their
    // own checks for the long in-attempt stretches).
    support::throwIfCancelled("agents.fsm.attempt");
    R.Attempts = Attempt + 1;
    R.Transitions.push_back(State::Vectorize);
    llm::Completion C =
        Client.complete(P, static_cast<uint64_t>(Attempt));
    R.Transcript.push_back({"vectorizer", "compiler-tester",
                            format("[%s]\n", C.Rationale.c_str()) +
                                C.Source});
    R.FinalCandidate = C.Source;

    // Compile.
    R.Transitions.push_back(State::Compile);
    vir::CompileResult VC = vir::compileFunction(C.Source);
    if (!VC.ok()) {
      R.Transitions.push_back(State::Feedback);
      std::string FB = "the candidate does not compile:\nerror: " + VC.Error;
      R.Transcript.push_back({"compiler-tester", "vectorizer", FB});
      P.FailureFeedback.push_back(FB);
      continue;
    }

    // A candidate that contains no vector intrinsics is not a
    // vectorization; reject it (covers the model's echo fallback).
    if (C.Source.find("_mm256_") == std::string::npos) {
      R.Transitions.push_back(State::Feedback);
      std::string FB = "the candidate is not vectorized: no AVX2 "
                       "intrinsics found";
      R.Transcript.push_back({"compiler-tester", "vectorizer", FB});
      P.FailureFeedback.push_back(FB);
      continue;
    }

    // Test.
    R.Transitions.push_back(State::Test);
    interp::ChecksumOutcome O =
        Cfg.Tester ? Cfg.Tester(C.Source, *SC.Fn, *VC.Fn, Cfg.Checksum)
                   : interp::runChecksumTest(*SC.Fn, *VC.Fn, Cfg.Checksum,
                                             &ChecksumMemo);
    R.LastChecksum = O;
    if (O.Verdict == interp::TestVerdict::Plausible) {
      R.Transcript.push_back(
          {"compiler-tester", "user-proxy",
           "checksum testing found no discrepancy: candidate is "
           "plausible"});
      R.Transitions.push_back(State::Done);
      R.Plausible = true;
      return;
    }
    // Feedback with the concrete distinguishing example (paper §4.4.2).
    R.Transitions.push_back(State::Feedback);
    std::string FB = "checksum testing failed: " + O.Detail;
    if (!O.FirstMismatch.Where.empty())
      FB += format("\ninput bound n=%d, %s: expected %d, got %d",
                   O.FirstMismatch.N, O.FirstMismatch.Where.c_str(),
                   O.FirstMismatch.Expected, O.FirstMismatch.Actual);
    R.Transcript.push_back({"compiler-tester", "vectorizer", FB});
    P.FailureFeedback.push_back(FB);
  }
  R.Transitions.push_back(State::Failed);
}
