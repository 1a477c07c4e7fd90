//===- tests/test_chaos.cpp - deadline & timed-wait tests ---------------------===//
//
// The failure-model contract (src/svc/README.md "Failure model"):
// (1) deadline expiry degrades to a classified TimedOut outcome with its
// partial progress kept, in Verify and in the FSM; (2) partial
// equivalence evidence cut short by a deadline is never cached; (3)
// waitFor returns the timed-out sentinel without abandoning the task.
//
//===----------------------------------------------------------------------===//

#include "support/Cancel.h"
#include "svc/Service.h"
#include "tsvc/Suite.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace lv;
using namespace lv::svc;

namespace {

/// Small budgets: these tests exercise failure plumbing, not verdict
/// power (mirrors tests/test_svc.cpp).
interp::ChecksumConfig fastChecksum() {
  interp::ChecksumConfig C;
  C.RunsPerN = 1;
  C.NValues = {0, 8, 32};
  C.BufferLen = 128;
  return C;
}

core::EquivConfig fastEquiv() {
  core::EquivConfig Cfg;
  Cfg.Checksum = fastChecksum();
  Cfg.ScalarMax = 4;
  Cfg.MaxTerms = 30'000;
  Cfg.Alive2Budget = 100;
  Cfg.CUnrollBudget = 200;
  Cfg.SplitBudget = 50;
  return Cfg;
}

std::vector<Request> sampleBatch() {
  std::vector<Request> Out;
  for (const tsvc::TsvcTest *T : tsvc::suiteSample(40, 3)) {
    Request R;
    R.Mode = RunMode::Pipeline;
    R.Name = T->Name;
    R.ScalarSource = T->Source;
    R.Fsm.MaxAttempts = 2;
    R.Fsm.Checksum = fastChecksum();
    R.Equiv = fastEquiv();
    Out.push_back(std::move(R));
  }
  return Out;
}

/// SimulatedLLM that stalls every call in a cancellable sleep, so a
/// deadline or drain() cuts it short.
struct SlowLLM : llm::SimulatedLLM {
  SlowLLM(uint64_t Seed, uint64_t StallNanos)
      : SimulatedLLM(Seed), StallNanos(StallNanos) {}
  llm::Completion complete(const llm::Prompt &P, uint64_t K) override {
    support::cancellableSleepNanos(StallNanos, "test.slow_llm");
    return SimulatedLLM::complete(P, K);
  }
  uint64_t StallNanos;
};

llm::ClientFactory slowClients(uint64_t StallNanos) {
  return [StallNanos](uint64_t Seed) {
    return std::make_unique<SlowLLM>(Seed, StallNanos);
  };
}

TEST(Chaos, DeadlineExpiryClassifiedTimedOutWithPartialEvidence) {
  ServiceConfig SC;
  SC.Workers = 1;
  VectorizerService S(SC);

  Request R;
  R.Mode = RunMode::Verify;
  R.Name = "doomed";
  R.ScalarSource = "void f(int n, int *a) { for (int i = 0; i < n; i++) "
                   "a[i] = a[i] + 1; }";
  R.CandidateSource = R.ScalarSource;
  R.Equiv = fastEquiv();
  R.DeadlineNanos = 1; // expired before the first checkpoint
  const Outcome &O = S.wait(S.submit(R));
  EXPECT_TRUE(O.Failed);
  EXPECT_EQ(O.Failure, FailureKind::TimedOut);
  EXPECT_TRUE(O.VerifyRan);
  EXPECT_TRUE(O.Equiv.Cancelled);
  EXPECT_EQ(O.Equiv.Final, core::EquivResult::Inconclusive);
  EXPECT_EQ(O.DeadlineNanos, 1u);
}

TEST(Chaos, PipelineDeadlineAbortsFsmAsTimedOut) {
  ServiceConfig SC;
  SC.Workers = 1;
  VectorizerService S(SC);
  std::vector<Request> Batch = sampleBatch();
  Batch[0].DeadlineNanos = 1;
  const Outcome &O = S.wait(S.submit(Batch[0]));
  EXPECT_TRUE(O.Failed);
  EXPECT_EQ(O.Failure, FailureKind::TimedOut);
  EXPECT_TRUE(O.GenerateRan);
  EXPECT_EQ(O.Fsm.Abort, agents::FsmAbort::Cancelled);
}

// A cancelled equivalence result reflects the deadline, not the pair: it
// must never be served to a later request for the same pair.
TEST(Chaos, CancelledVerdictIsNeverCached) {
  ServiceConfig SC;
  SC.Workers = 1;
  VectorizerService S(SC);

  Request R;
  R.Mode = RunMode::Verify;
  R.Name = "pair";
  R.ScalarSource = "void f(int n, int *a, int *b) { for (int i = 0; i < n; "
                   "i++) a[i] = b[i]; }";
  R.CandidateSource = R.ScalarSource;
  R.Equiv = fastEquiv();

  Request Doomed = R;
  Doomed.DeadlineNanos = 1;
  const Outcome &First = S.wait(S.submit(Doomed));
  ASSERT_EQ(First.Failure, FailureKind::TimedOut);

  const Outcome &Second = S.wait(S.submit(R));
  EXPECT_FALSE(Second.Failed);
  EXPECT_FALSE(Second.VerdictCacheHit)
      << "the cancelled result must not have been cached";
  EXPECT_FALSE(Second.Equiv.Cancelled);

  const Outcome &Third = S.wait(S.submit(R));
  EXPECT_TRUE(Third.VerdictCacheHit) << "the real verdict is cached";
  EXPECT_EQ(debugString(Third), debugString(Second));
}

TEST(Chaos, WaitForReturnsSentinelThenOutcome) {
  ServiceConfig SC;
  SC.Workers = 1;
  // A guaranteed-slow task: every client call stalls 200ms (no
  // deadline, so it completes fine).
  SC.MakeClient = slowClients(200'000'000);
  VectorizerService S(SC);
  Ticket T = S.submit(sampleBatch()[0]);
  const Outcome *Peek = S.waitFor(T, 1'000'000); // 1ms: still running
  EXPECT_EQ(Peek, nullptr);
  const Outcome *Done = S.waitFor(T, 60'000'000'000ULL);
  ASSERT_NE(Done, nullptr);
  EXPECT_FALSE(Done->Failed);

  std::vector<VectorizerService::TaskStatus> Batch =
      S.waitBatchFor({T}, 1'000'000);
  ASSERT_EQ(Batch.size(), 1u);
  EXPECT_EQ(Batch[0].State, VectorizerService::TaskState::Done);
  EXPECT_EQ(Batch[0].Out, Done) << "a finished task is returned immediately";
}

} // namespace
