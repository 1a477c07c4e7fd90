//===- tests/test_overload.cpp - timed waits, slots, journal, drain -----------===//
//
// The drain and crash-recovery contract (src/svc/README.md "Drain &
// recovery"): (1) timed batch waits report each task's state without
// blocking on slow ones; (2) in-flight slots are released exactly once,
// even when the task body throws; (3) the crash-recovery journal replays
// completed tasks across a process boundary byte-identically and re-runs
// only the remainder; (4) drain() settles every task, sheds what never
// started and admissions that arrive after it, and cancellation reaches
// the stage-4 cell loop.
//
//===----------------------------------------------------------------------===//

#include "llm/Chaos.h"
#include "store/Journal.h"
#include "svc/Service.h"
#include "tsvc/Suite.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

using namespace lv;
using namespace lv::svc;

namespace {

/// Small budgets: these tests exercise serving plumbing, not verdict
/// power (mirrors tests/test_chaos.cpp).
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

std::vector<Request> pipelineBatch(int N) {
  std::vector<Request> Out;
  // Stride chosen so the sample pool is comfortably larger than any batch
  // these tests request (stride 40 yields only 4 tests from the suite).
  for (const tsvc::TsvcTest *T : tsvc::suiteSample(9, N)) {
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

std::filesystem::path tempDir(const char *Leaf) {
  std::filesystem::path P = std::filesystem::temp_directory_path() / Leaf;
  std::error_code EC;
  std::filesystem::remove_all(P, EC);
  return P;
}

//===----------------------------------------------------------------------===//
// Timed waits
//===----------------------------------------------------------------------===//

TEST(Admission, WaitBatchForReportsPerTaskStatus) {
  // The Shed state is covered by Drain.SettlesEveryTaskAndShedsLateAdmissions.
  ServiceConfig SC;
  SC.Workers = 1;
  SC.Chaos.LatencyRate = 1.0;
  SC.Chaos.LatencyNanos = 300'000'000;
  VectorizerService S(SC);
  std::vector<Ticket> Tickets = S.submitBatch(pipelineBatch(1));
  // The task is still sleeping on injected latency.
  std::vector<VectorizerService::TaskStatus> St =
      S.waitBatchFor(Tickets, 1'000'000);
  ASSERT_EQ(St.size(), 1u);
  EXPECT_EQ(St[0].State, VectorizerService::TaskState::Pending);
  EXPECT_EQ(St[0].Out, nullptr);

  const Outcome *Done = S.waitFor(Tickets[0], 60'000'000'000ULL);
  ASSERT_NE(Done, nullptr);
  St = S.waitBatchFor(Tickets, 0);
  EXPECT_EQ(St[0].State, VectorizerService::TaskState::Done);
  EXPECT_EQ(St[0].Out, Done);
}

//===----------------------------------------------------------------------===//
// Slot release (exactly once, even for throwing tasks)
//===----------------------------------------------------------------------===//

TEST(Admission, ThrowingTasksReleaseTheirSlotExactlyOnce) {
  // Every client call throws a non-client exception: each task fails
  // Internal. drain() waits on Inflight == 0, so a slot released zero
  // times hangs it and one released twice wraps Inflight around to a
  // value that never returns to 0.
  ServiceConfig SC;
  SC.Workers = 2;
  SC.MakeClient = [](uint64_t) -> std::unique_ptr<llm::LLMClient> {
    class Bomb : public llm::LLMClient {
      llm::Completion complete(const llm::Prompt &, uint64_t) override {
        throw std::runtime_error("boom");
      }
    };
    return std::make_unique<Bomb>();
  };
  VectorizerService S(SC);
  std::vector<Ticket> Tickets = S.submitBatch(pipelineBatch(6));
  for (Ticket T : Tickets) {
    const Outcome &O = S.wait(T);
    EXPECT_TRUE(O.Failed);
    EXPECT_EQ(O.Failure, FailureKind::Internal);
  }
  // drain() waits on Inflight == 0: a leaked slot would hang here.
  VectorizerService::DrainResult DR = S.drain(0);
  EXPECT_EQ(DR.Cancelled, 0u);
  EXPECT_EQ(DR.Shed, 0u);
}

//===----------------------------------------------------------------------===//
// Crash-recovery batch journal
//===----------------------------------------------------------------------===//

TEST(Journal, OutcomeSerializationRoundTrips) {
  ServiceConfig SC;
  SC.Workers = 1;
  VectorizerService S(SC);
  std::vector<Request> B = pipelineBatch(1);
  Outcome Original = S.wait(S.submit(std::move(B[0])));

  std::string Bytes = serializeOutcome(Original);
  Outcome Back;
  ASSERT_TRUE(deserializeOutcome(Bytes, Back));
  EXPECT_EQ(debugString(Back), debugString(Original));
  EXPECT_EQ(Back.ChecksumWork.InputSets, Original.ChecksumWork.InputSets);
  EXPECT_EQ(Back.ChecksumWork.Instrs, Original.ChecksumWork.Instrs);
  EXPECT_EQ(Back.Alive2Work.Conflicts, Original.Alive2Work.Conflicts);
  EXPECT_EQ(Back.Retries, Original.Retries);

  // Truncation at any prefix must fail the decode, not mis-parse.
  for (size_t Cut : {size_t(0), Bytes.size() / 2, Bytes.size() - 1}) {
    Outcome Junk;
    EXPECT_FALSE(deserializeOutcome(Bytes.substr(0, Cut), Junk));
  }
}

TEST(Journal, ReplaysAcrossProcessBoundary) {
  std::filesystem::path Dir = tempDir("lv_test_journal_replay");
  std::vector<std::string> FirstRun;
  {
    ServiceConfig SC;
    SC.Workers = 2;
    SC.JournalPath = Dir.string();
    VectorizerService S(SC);
    std::vector<Ticket> Tickets = S.submitBatch(pipelineBatch(4));
    for (Ticket T : Tickets) {
      const Outcome &O = S.wait(T);
      EXPECT_FALSE(O.Failed);
      EXPECT_FALSE(O.JournalReplayed);
      FirstRun.push_back(debugString(O));
    }
    EXPECT_EQ(S.resilienceStats().JournalReplayed, 0u);
  }
  {
    // "Restart": a fresh service on the same journal directory.
    ServiceConfig SC;
    SC.Workers = 2;
    SC.JournalPath = Dir.string();
    VectorizerService S(SC);
    std::vector<Ticket> Tickets = S.submitBatch(pipelineBatch(4));
    for (size_t I = 0; I < Tickets.size(); ++I) {
      const Outcome &O = S.wait(Tickets[I]);
      EXPECT_TRUE(O.JournalReplayed) << O.Name;
      EXPECT_EQ(debugString(O), FirstRun[I])
          << "replayed outcome must be byte-identical";
    }
    EXPECT_EQ(S.resilienceStats().JournalReplayed, 4u);
    ASSERT_NE(S.journal(), nullptr);
    EXPECT_EQ(S.journal()->stats().LoadedDone, 4u);
  }
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
}

TEST(Journal, ServingConfigChangeInvalidatesReplay) {
  // The journal task key folds in the serving-policy salt: a run with a
  // different chaos schedule must not replay outcomes recorded without
  // one (they could legitimately differ in retries/failures).
  std::filesystem::path Dir = tempDir("lv_test_journal_salt");
  {
    ServiceConfig SC;
    SC.Workers = 1;
    SC.JournalPath = Dir.string();
    VectorizerService S(SC);
    for (Ticket T : S.submitBatch(pipelineBatch(2)))
      S.wait(T);
  }
  {
    ServiceConfig SC;
    SC.Workers = 1;
    SC.JournalPath = Dir.string();
    SC.Chaos.TransientCallScript = {0}; // different serving policy
    VectorizerService S(SC);
    for (Ticket T : S.submitBatch(pipelineBatch(2))) {
      const Outcome &O = S.wait(T);
      EXPECT_FALSE(O.JournalReplayed)
          << "different serving salt must miss the journal";
    }
    EXPECT_EQ(S.resilienceStats().JournalReplayed, 0u);
  }
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
}

TEST(Journal, TornTailIsTruncatedAndReplaySurvives) {
  std::filesystem::path Dir = tempDir("lv_test_journal_torn");
  {
    ServiceConfig SC;
    SC.Workers = 1;
    SC.JournalPath = Dir.string();
    VectorizerService S(SC);
    for (Ticket T : S.submitBatch(pipelineBatch(2)))
      EXPECT_FALSE(S.wait(T).Failed);
  }
  // Simulate a crash mid-append: a torn half-record at the tail.
  {
    std::FILE *F =
        std::fopen((Dir / "journal.log").string().c_str(), "ab");
    ASSERT_NE(F, nullptr);
    const char Garbage[] = "LVRCtorn-frame";
    std::fwrite(Garbage, 1, sizeof(Garbage), F);
    std::fclose(F);
  }
  {
    ServiceConfig SC;
    SC.Workers = 1;
    SC.JournalPath = Dir.string();
    VectorizerService S(SC);
    ASSERT_NE(S.journal(), nullptr);
    EXPECT_TRUE(S.journal()->ok());
    EXPECT_EQ(S.journal()->stats().LoadedDone, 2u)
        << "records before the torn tail survive";
    for (Ticket T : S.submitBatch(pipelineBatch(2)))
      EXPECT_TRUE(S.wait(T).JournalReplayed);
  }
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
}

//===----------------------------------------------------------------------===//
// Graceful drain + cancellation propagation
//===----------------------------------------------------------------------===//

TEST(Drain, SettlesEveryTaskAndShedsLateAdmissions) {
  ServiceConfig SC;
  SC.Workers = 1;
  SC.Chaos.LatencyRate = 1.0;
  SC.Chaos.LatencyNanos = 10'000'000'000ULL; // parks every task 10s
  VectorizerService S(SC);
  std::vector<Ticket> Tickets = S.submitBatch(pipelineBatch(3));
  // Let the worker park on task 0's cancellable latency sleep.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  VectorizerService::DrainResult DR = S.drain(/*DeadlineNanos=*/0);
  EXPECT_EQ(DR.Cancelled, 1u) << "the in-flight task was cancelled";
  EXPECT_EQ(DR.Shed, 2u) << "queued tasks were shed";
  std::vector<VectorizerService::TaskStatus> St = S.waitBatchFor(Tickets, 0);
  ASSERT_NE(St[0].Out, nullptr);
  EXPECT_EQ(St[0].Out->Failure, FailureKind::TimedOut);
  for (size_t I = 1; I < St.size(); ++I) {
    EXPECT_EQ(St[I].State, VectorizerService::TaskState::Shed);
    ASSERT_NE(St[I].Out, nullptr);
    EXPECT_NE(St[I].Out->Error.find("drain"), std::string::npos);
  }
  // Post-drain admissions shed immediately.
  std::vector<Request> More = pipelineBatch(1);
  const Outcome &Late = S.wait(S.submit(std::move(More[0])));
  EXPECT_EQ(Late.Failure, FailureKind::Shed);
  EXPECT_NE(Late.Error.find("draining"), std::string::npos);
}

TEST(Drain, GracePeriodLetsWorkFinish) {
  ServiceConfig SC;
  SC.Workers = 2;
  VectorizerService S(SC);
  std::vector<Ticket> Tickets = S.submitBatch(pipelineBatch(2));
  VectorizerService::DrainResult DR = S.drain(60'000'000'000ULL);
  EXPECT_EQ(DR.Completed + 0u, 2u) << "fast tasks finish inside the grace";
  EXPECT_EQ(DR.Cancelled, 0u);
  EXPECT_EQ(DR.Shed, 0u);
  for (Ticket T : Tickets)
    EXPECT_FALSE(S.wait(T).Failed);
}

TEST(Drain, CancelPropagatesIntoSplitCellLoop) {
  // Disable stages 2-3 so the verify falls through to spatial splitting
  // with a per-cell budget far beyond what drain allows: the stage-4 loop
  // polls the task token before every cell and every query, and the SAT
  // search polls it inside its budget loop, so drain's requestCancel must
  // unwind the loop promptly into a classified TimedOut outcome. A hang
  // here means the token did not propagate.
  const char *Scalar =
      "void f(int n, int *a, int *b) { for (int i = 0; i < n; i++) "
      "a[i] = b[i] + 1; }";
  const char *Vec = R"(
      void f(int n, int *a, int *b) {
        __m256i one = _mm256_set1_epi32(1);
        for (int i = 0; i < n; i += 8) {
          __m256i v = _mm256_loadu_si256((__m256i *)&b[i]);
          _mm256_storeu_si256((__m256i *)&a[i], _mm256_add_epi32(v, one));
        }
      })";
  ServiceConfig SC;
  SC.Workers = 1;
  VectorizerService S(SC);
  Request R;
  R.Mode = RunMode::Verify;
  R.Name = "split_cancel";
  R.ScalarSource = Scalar;
  R.CandidateSource = Vec;
  R.Equiv = fastEquiv();
  R.Equiv.EnableAlive2 = false;
  R.Equiv.EnableCUnroll = false;
  R.Equiv.SplitBudget = 50'000;
  R.Equiv.MaxTerms = 200'000;
  Ticket T = S.submit(std::move(R));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  VectorizerService::DrainResult DR = S.drain(0);
  const Outcome &O = S.wait(T);
  if (O.Failed) {
    // Cancellation unwound the cell loop: a classified timeout.
    EXPECT_EQ(O.Failure, FailureKind::TimedOut);
    EXPECT_EQ(DR.Cancelled, 1u);
  } else {
    // The verify outran the head start (or the cancel landed after its
    // last poll) — legal; it settled, and nothing was shed.
    EXPECT_EQ(DR.Shed, 0u);
  }
}

} // namespace
