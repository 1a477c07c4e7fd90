//===- tests/test_svc.cpp - vectorization-service tests -----------------------===//
//
// The service contract: (1) verdicts, stage attribution, and FSM
// transcripts are bit-identical at any worker count — the full TSVC suite
// runs through VectorizerService at 1, 2, and 8 workers and every
// Outcome's deterministic serialization must match byte for byte; (2) the
// content-addressed verdict cache replays identical results and never
// caches around unhashable callbacks; (3) configHash() is canonical —
// same-typed fields cannot alias, every field participates.
//
//===----------------------------------------------------------------------===//

#include "svc/Service.h"
#include "tsvc/Suite.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

using namespace lv;
using namespace lv::svc;

namespace {

/// Small checksum harness and SAT budgets keep the three full-suite runs
/// fast; the point is parity, not verification power.
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

std::vector<Request> suitePipelineBatch() {
  std::vector<Request> Out;
  for (const tsvc::TsvcTest &T : tsvc::suite()) {
    Request R;
    R.Mode = RunMode::Pipeline;
    R.Name = T.Name;
    R.ScalarSource = T.Source;
    R.Fsm.MaxAttempts = 2;
    R.Fsm.Checksum = fastChecksum();
    R.Equiv = fastEquiv();
    Out.push_back(std::move(R));
  }
  return Out;
}

/// Runs the whole suite at the given worker count and serializes every
/// outcome in submission order.
std::vector<std::string> runSuiteAt(int Workers) {
  ServiceConfig SC;
  SC.Workers = Workers;
  VectorizerService S(SC);
  std::vector<Ticket> Tickets = S.submitBatch(suitePipelineBatch());
  std::vector<std::string> Out;
  Out.reserve(Tickets.size());
  for (Ticket T : Tickets)
    Out.push_back(debugString(S.wait(T)));
  return Out;
}

TEST(Service, DeterminismParityAcrossWorkerCounts) {
  std::vector<std::string> One = runSuiteAt(1);
  std::vector<std::string> Two = runSuiteAt(2);
  std::vector<std::string> Eight = runSuiteAt(8);
  ASSERT_EQ(One.size(), tsvc::suite().size());
  ASSERT_EQ(Two.size(), One.size());
  ASSERT_EQ(Eight.size(), One.size());
  for (size_t I = 0; I < One.size(); ++I) {
    EXPECT_EQ(One[I], Two[I]) << "1-vs-2 worker divergence on "
                              << tsvc::suite()[I].Name;
    EXPECT_EQ(One[I], Eight[I]) << "1-vs-8 worker divergence on "
                                << tsvc::suite()[I].Name;
  }
}

TEST(Service, BatchTicketsPreserveSubmissionOrder) {
  ServiceConfig SC;
  SC.Workers = 4;
  VectorizerService S(SC);
  std::vector<Request> Batch;
  for (int I = 0; I < 8; ++I) {
    Request R;
    R.Mode = RunMode::Verify;
    R.Name = "t" + std::to_string(I);
    R.ScalarSource =
        "void f(int n, int *a) { for (int i = 0; i < n; i++) a[i] = " +
        std::to_string(I) + "; }";
    R.CandidateSource = R.ScalarSource;
    Batch.push_back(std::move(R));
  }
  std::vector<Ticket> Tickets = S.submitBatch(std::move(Batch));
  ASSERT_EQ(Tickets.size(), 8u);
  std::vector<Outcome> Out = S.waitBatch(Tickets);
  for (int I = 0; I < 8; ++I)
    EXPECT_EQ(Out[static_cast<size_t>(I)].Name, "t" + std::to_string(I));
}

TEST(Service, VerdictCacheReplaysIdenticalResults) {
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
  VectorizerService S; // one worker, own memory-only cache
  EXPECT_EQ(S.resultStore(), nullptr);
  Request R;
  R.Mode = RunMode::Verify;
  R.ScalarSource = Scalar;
  R.CandidateSource = Vec;
  R.Equiv = fastEquiv();
  Request R2 = R;
  const Outcome &First = S.wait(S.submit(std::move(R)));
  const Outcome &Second = S.wait(S.submit(std::move(R2)));
  EXPECT_FALSE(First.VerdictCacheHit);
  EXPECT_TRUE(Second.VerdictCacheHit);
  // The replay is the stored object: identical in every field.
  EXPECT_EQ(debugString(First), debugString(Second));
  CacheStats CS = S.cacheStats();
  EXPECT_GE(CS.Hits, 1u);
  EXPECT_GE(CS.Entries, 1u);
}

TEST(Service, CacheKeyedByConfigHash) {
  const char *Scalar =
      "void f(int n, int *a) { for (int i = 0; i < n; i++) a[i] = 1; }";
  VectorizerService S;
  Request R;
  R.Mode = RunMode::Verify;
  R.ScalarSource = Scalar;
  R.CandidateSource = Scalar; // not vectorized; cheap checksum-stage work
  R.Equiv = fastEquiv();
  Request R2 = R;
  R2.Equiv.Alive2Budget += 1; // different config => different key
  (void)S.wait(S.submit(std::move(R)));
  const Outcome &Second = S.wait(S.submit(std::move(R2)));
  EXPECT_FALSE(Second.VerdictCacheHit);
}

TEST(Service, CacheBypassedForUnhashableCallbacks) {
  const char *Scalar =
      "void f(int n, int *a) { for (int i = 0; i < n; i++) a[i] = 1; }";
  VectorizerService S;
  Request R;
  R.Mode = RunMode::Verify;
  R.ScalarSource = Scalar;
  R.CandidateSource = Scalar;
  R.Equiv = fastEquiv();
  R.Equiv.SplitCellOverride = [](const vir::VFunction &S2,
                                 const vir::VFunction &T,
                                 const tv::RefineOptions &RO) {
    return tv::checkRefinement(S2, T, RO);
  };
  Request R2 = R;
  (void)S.wait(S.submit(std::move(R)));
  const Outcome &Second = S.wait(S.submit(std::move(R2)));
  EXPECT_FALSE(Second.VerdictCacheHit);
  EXPECT_EQ(S.cacheStats().Entries, 0u);
}

//===----------------------------------------------------------------------===//
// configHash
//===----------------------------------------------------------------------===//

TEST(Service, ChecksumWorkAggregatesInterpCounters) {
  const char *Scalar =
      "void f(int n, int *a, int *b) { for (int i = 0; i < n; i++) "
      "a[i] = b[i] + 1; }";
  VectorizerService S;
  Request R;
  R.Mode = RunMode::Verify;
  R.ScalarSource = Scalar;
  R.CandidateSource = Scalar;
  R.Equiv = fastEquiv();
  const Outcome &O = S.wait(S.submit(std::move(R)));
  // Stage 1 ran: the testing-stage counters must reflect real work.
  EXPECT_EQ(O.ChecksumWork.ChecksumCalls, 1u);
  EXPECT_GT(O.ChecksumWork.InputSets, 0u);
  EXPECT_GT(O.ChecksumWork.CandRuns, 0u);
  EXPECT_GT(O.ChecksumWork.ScalarRuns, 0u);
  EXPECT_GT(O.ChecksumWork.Instrs, 0u);
  EXPECT_GT(O.ChecksumWork.Loads, 0u);
  EXPECT_GT(O.ChecksumWork.Stores, 0u);
  EXPECT_EQ(O.ChecksumWork.Traps, 0u);
}

/// A verify request whose pair falls through to spatial splitting:
/// stages 2-3 are disabled, stage 4 gets a generous per-cell budget.
Request splittingRequest() {
  Request R;
  R.Mode = RunMode::Verify;
  R.ScalarSource =
      "void f(int n, int *a, int *b) { for (int i = 0; i < n; i++) "
      "a[i] = b[i] + 1; }";
  R.CandidateSource = R"(
      void f(int n, int *a, int *b) {
        __m256i one = _mm256_set1_epi32(1);
        for (int i = 0; i < n; i += 8) {
          __m256i v = _mm256_loadu_si256((__m256i *)&b[i]);
          _mm256_storeu_si256((__m256i *)&a[i], _mm256_add_epi32(v, one));
        }
      })";
  R.Equiv = fastEquiv();
  R.Equiv.EnableAlive2 = false;
  R.Equiv.EnableCUnroll = false;
  R.Equiv.SplitBudget = 50'000;
  return R;
}

TEST(Service, SplitCellOverrideRoutesEveryCellThroughTheCallback) {
  // The reference seam: with SplitCellOverride installed, every stage-4
  // cell is one callback call, and the verdict equals the default session
  // path's.
  VectorizerService S;
  Outcome Default = S.wait(S.submit(splittingRequest()));
  int Calls = 0;
  Request R = splittingRequest();
  R.Equiv.SplitCellOverride = [&Calls](const vir::VFunction &S2,
                                       const vir::VFunction &T,
                                       const tv::RefineOptions &RO) {
    ++Calls;
    return tv::checkRefinement(S2, T, RO);
  };
  Outcome Over = S.wait(S.submit(std::move(R)));
  ASSERT_FALSE(Over.Equiv.SplitRes.empty()) << "splitting stage must run";
  EXPECT_EQ(Calls, static_cast<int>(Over.Equiv.SplitRes.size()));
  EXPECT_EQ(Over.Equiv.Final, Default.Equiv.Final);
  EXPECT_EQ(Over.Equiv.DecidedBy, Default.Equiv.DecidedBy);
  ASSERT_EQ(Over.Equiv.SplitRes.size(), Default.Equiv.SplitRes.size());
  for (size_t I = 0; I < Over.Equiv.SplitRes.size(); ++I)
    EXPECT_EQ(Over.Equiv.SplitRes[I].V, Default.Equiv.SplitRes[I].V)
        << "cell " << I;
}

TEST(ConfigHash, ChecksumFieldsDoNotAlias) {
  interp::ChecksumConfig A, B;
  // The classic reordering mistake: swapping two same-typed fields must
  // change the hash (tagged-field hashing, support/Rng.h).
  A.ValueMin = -7;
  A.ValueMax = 9;
  B.ValueMin = 9;
  B.ValueMax = -7;
  EXPECT_NE(A.configHash(), B.configHash());
  interp::ChecksumConfig C;
  EXPECT_EQ(C.configHash(), interp::ChecksumConfig().configHash());
  C.NValues.push_back(512);
  EXPECT_NE(C.configHash(), interp::ChecksumConfig().configHash());
  // The execution-engine knob participates: tree-walk and bytecode
  // outcomes must never share a cache slot.
  interp::ChecksumConfig D;
  D.UseBytecode = !D.UseBytecode;
  EXPECT_NE(D.configHash(), interp::ChecksumConfig().configHash());
}

TEST(ConfigHash, EquivFieldsDoNotAlias) {
  core::EquivConfig A, B;
  A.Alive2Budget = 111;
  A.CUnrollBudget = 222;
  B.Alive2Budget = 222;
  B.CUnrollBudget = 111;
  EXPECT_NE(A.configHash(), B.configHash());

  core::EquivConfig C, D;
  C.EnableAlive2 = false;
  D.EnableCUnroll = false;
  EXPECT_NE(C.configHash(), D.configHash());

  core::EquivConfig E;
  E.Checksum.Seed ^= 1; // nested config participates
  EXPECT_NE(E.configHash(), core::EquivConfig().configHash());
}

TEST(ConfigHash, FsmFieldsDoNotAlias) {
  agents::FsmConfig A;
  EXPECT_EQ(A.configHash(), agents::FsmConfig().configHash());
  A.MaxAttempts = 3;
  EXPECT_NE(A.configHash(), agents::FsmConfig().configHash());
  agents::FsmConfig B;
  B.Temperature = 0.5;
  EXPECT_NE(B.configHash(), agents::FsmConfig().configHash());
  agents::FsmConfig C;
  C.ProvideDependenceFeedback = false;
  EXPECT_NE(C.configHash(), agents::FsmConfig().configHash());
}

TEST(ConfigHash, PinnedGoldenValues) {
  // Golden pins: adding, removing, or reordering hashed fields must be a
  // conscious change — update these constants (and bump any persistent
  // cache format) when configHash legitimately changes.
  // PR 5: ChecksumConfig grew the UseBytecode engine knob (which also
  // shifts the nested hashes in EquivConfig and FsmConfig).
  // PR 7: EquivConfig grew PortfolioSolving (default true) and
  // SplitCellWorkers — portfolio verdicts must never share a cache slot
  // with the pre-portfolio default.
  // Solver-mode matrix removed: EquivConfig retired tags 10 and 12-14
  // (the scratch, shared-learnt, cone-projection and trail-reuse modes).
  // Cell fan-out removed: EquivConfig retired tag 16 (SplitCellWorkers).
  // Stage-3/4 racer removed: EquivConfig retired tag 15
  // (PortfolioSolving).
  // Store and journal headers embed this hash, so logs written under the
  // old default are set aside on open.
  EXPECT_EQ(interp::ChecksumConfig().configHash(), 0xf48e134cc157f574ULL);
  EXPECT_EQ(core::EquivConfig().configHash(), 0xfe1451b5a1eb05fbULL);
  EXPECT_EQ(agents::FsmConfig().configHash(), 0x5052f9edddaa4b60ULL);
}

TEST(Service, TaskSeedDerivation) {
  EXPECT_NE(taskSeed(1, "s000"), taskSeed(1, "s111"));
  EXPECT_NE(taskSeed(1, "s000"), taskSeed(2, "s000"));
  EXPECT_EQ(taskSeed(7, "s241"), taskSeed(7, "s241"));
}

TEST(Service, TaskFailureIsCapturedNotFatal) {
  ServiceConfig SC;
  SC.MakeClient = [](uint64_t) -> std::unique_ptr<llm::LLMClient> {
    throw std::runtime_error("client backend unavailable");
  };
  VectorizerService S(SC);
  Request R;
  R.Mode = RunMode::Generate;
  R.Name = "doomed";
  R.ScalarSource =
      "void f(int n, int *a) { for (int i = 0; i < n; i++) a[i] = 1; }";
  const Outcome &O = S.wait(S.submit(std::move(R)));
  EXPECT_TRUE(O.Failed);
  EXPECT_NE(O.Error.find("client backend unavailable"), std::string::npos);
  // The single-call wrappers restore throwing semantics.
  Request R2;
  R2.Mode = RunMode::Generate;
  R2.ScalarSource = "void f(int n) { }";
  R2.Fsm.MaxAttempts = 1;
  EXPECT_NO_THROW(runOne(std::move(R2)));
}

} // namespace
