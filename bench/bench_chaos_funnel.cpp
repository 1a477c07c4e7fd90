//===- bench/bench_chaos_funnel.cpp - fault-injection funnel gates ------------===//
//
// The chaos harness: drives the TSVC pipeline funnel through
// svc::VectorizerService under per-task deadlines, storage faults
// (store::ChaosFileHooks) and an interrupted journaled batch, gating the
// contracts of src/svc/README.md "Failure model" and "Drain & recovery".
// Every arm also gates that each failed task carries a non-None
// FailureKind and that the batch lands within a harness budget enforced
// via waitBatchFor (no crash, no hang).
//
//   arm 0  baseline: a fault-free run has no failed task, and its
//          outcomes are debugString-bit-identical at 1/2/8 workers;
//   arm 1  deadline: two Pipeline tasks that verify for seconds run
//          once without a deadline and once with a deadline of 1/5 of
//          the faster one's wall; every task must time out, and none may
//          overrun the deadline by more than the deadline again;
//   arm 2  store chaos: a store whose appends fail mid-run degrades to
//          memory-only without changing a verdict, and a failed load
//          leaves the log intact;
//   arm 3  kill/resume: drain(0) interrupts a journaled batch mid-run; a
//          fresh service on the same journal replays exactly the
//          journaled completions and the resumed batch is byte-identical
//          to the uninterrupted run.
//
// `--smoke` shrinks the suite slice and the equivalence budgets for CI.
//
//===----------------------------------------------------------------------===//

#include "bench/Harness.h"
#include "store/Store.h"
#include "support/Cancel.h"
#include "support/Format.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

using namespace lv;
using namespace lv::bench;

namespace {

int GateFailures = 0;

void gate(bool Ok, const std::string &What) {
  std::printf("  [%s] %s\n", Ok ? "PASS" : "FAIL", What.c_str());
  if (!Ok)
    ++GateFailures;
}

struct ArmResult {
  std::vector<svc::Outcome> Outcomes;
  svc::VectorizerService::ResilienceStats Stats;
  bool BudgetHit = false; ///< A task outlived the harness wait budget.
};

struct ArmSpec {
  int Workers = 2;
  uint64_t DeadlineNanos = 0;
  uint64_t HarnessBudgetNanos = 600'000'000'000ULL;
  std::string StorePath;
  bool Storeless = false; ///< Memory-only store even under --store.
  std::string JournalPath;
  llm::ClientFactory MakeClient; ///< Null: SimulatedLLM.
};

/// --store DIR: every arm that does not pin its own store directory (the
/// storage-chaos arm does) runs against this one, so a killed run's torn
/// on-disk state is exactly what the CI re-run must salvage.
std::string DefaultStorePath;

svc::ServiceConfig makeConfig(const ArmSpec &Spec) {
  svc::ServiceConfig SC;
  SC.Workers = Spec.Workers;
  if (!Spec.Storeless)
    SC.StorePath = Spec.StorePath.empty() ? DefaultStorePath : Spec.StorePath;
  SC.JournalPath = Spec.JournalPath;
  SC.MakeClient = Spec.MakeClient;
  return SC;
}

/// SimulatedLLM that stalls every call. The stall is a cancellable sleep,
/// so drain() and task deadlines cut it short; the completions are the
/// plain simulator's.
struct SlowLLM : llm::SimulatedLLM {
  SlowLLM(uint64_t Seed, uint64_t StallNanos)
      : SimulatedLLM(Seed), StallNanos(StallNanos) {}
  llm::Completion complete(const llm::Prompt &P, uint64_t K) override {
    support::cancellableSleepNanos(StallNanos, "bench.slow_llm");
    return SimulatedLLM::complete(P, K);
  }
  uint64_t StallNanos;
};

llm::ClientFactory slowClients(uint64_t StallNanos) {
  return [StallNanos](uint64_t Seed) {
    return std::make_unique<SlowLLM>(Seed, StallNanos);
  };
}

std::vector<svc::Request>
makeBatch(const std::vector<const tsvc::TsvcTest *> &Tests,
          const ArmSpec &Spec, const core::EquivConfig &Equiv,
          int MaxAttempts) {
  std::vector<svc::Request> Batch;
  Batch.reserve(Tests.size());
  for (const tsvc::TsvcTest *T : Tests) {
    svc::Request R;
    R.Mode = svc::RunMode::Pipeline;
    R.Name = T->Name;
    R.ScalarSource = T->Source;
    R.Seed = ExperimentSeed;
    R.Fsm.MaxAttempts = MaxAttempts;
    R.Equiv = Equiv;
    R.DeadlineNanos = Spec.DeadlineNanos;
    Batch.push_back(std::move(R));
  }
  return Batch;
}

/// One pipeline run of \p Tests under \p Spec. Collection goes through
/// waitBatchFor so a task that somehow outlives its deadline turns into a
/// gate failure instead of a hang (we then wait() it out — the budgets
/// below it are finite — so teardown stays clean).
ArmResult runArm(const std::vector<const tsvc::TsvcTest *> &Tests,
                 const ArmSpec &Spec, const core::EquivConfig &Equiv,
                 int MaxAttempts) {
  svc::VectorizerService Service(makeConfig(Spec));
  std::vector<svc::Ticket> Tickets =
      Service.submitBatch(makeBatch(Tests, Spec, Equiv, MaxAttempts));

  ArmResult Out;
  std::vector<svc::VectorizerService::TaskStatus> Sts =
      Service.waitBatchFor(Tickets, Spec.HarnessBudgetNanos);
  for (size_t I = 0; I < Tickets.size(); ++I) {
    const svc::Outcome *O = Sts[I].Out;
    if (!O) {
      Out.BudgetHit = true;
      O = &Service.wait(Tickets[I]);
    }
    Out.Outcomes.push_back(*O);
  }
  Out.Stats = Service.resilienceStats();
  noteServiceStats(Service);
  return Out;
}

std::string armJson(const char *Name, const ArmResult &A) {
  uint64_t Failed = 0;
  for (const svc::Outcome &O : A.Outcomes)
    Failed += O.Failed ? 1 : 0;
  std::string J;
  appendf(J,
          "    {\"arm\": \"%s\", \"tasks\": %zu, \"failed\": %llu, "
          "\"timeouts\": %llu, \"degraded\": %llu, \"internal\": %llu, "
          "\"shed\": %llu, \"journal_replayed\": %llu}",
          Name, A.Outcomes.size(), static_cast<unsigned long long>(Failed),
          static_cast<unsigned long long>(A.Stats.Timeouts),
          static_cast<unsigned long long>(A.Stats.Degraded),
          static_cast<unsigned long long>(A.Stats.Internal),
          static_cast<unsigned long long>(A.Stats.Shed),
          static_cast<unsigned long long>(A.Stats.JournalReplayed));
  return J;
}

/// Failure-classification invariants every arm must satisfy.
void gateClassified(const char *Arm, const ArmResult &A) {
  bool Consistent = true;
  for (const svc::Outcome &O : A.Outcomes)
    if (O.Failed != (O.Failure != svc::FailureKind::None))
      Consistent = false;
  gate(Consistent,
       format("%s: Failed <=> classified FailureKind on every task", Arm));
  gate(!A.BudgetHit, format("%s: batch landed within the harness budget",
                            Arm));
}

} // namespace

int main(int argc, char **argv) {
  BenchOptions Opt = parseBenchArgs(argc, argv);
  DefaultStorePath = Opt.StorePath;
  bool Smoke = false;
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--smoke") == 0)
      Smoke = true;

  // Slice and budgets. The equivalence budgets are deliberately modest:
  // chaos gates exercise the failure plumbing, not verdict power, and
  // every arm shares one config so comparisons stay apples-to-apples.
  std::vector<const tsvc::TsvcTest *> Tests =
      Smoke ? tsvc::suiteSample(20, 6) : tsvc::suiteSample(6, 25);
  core::EquivConfig Equiv;
  Equiv.Alive2Budget = Smoke ? 2'000 : 10'000;
  Equiv.CUnrollBudget = Smoke ? 2'000 : 10'000;
  Equiv.SplitBudget = Smoke ? 1'000 : 5'000;
  Equiv.MaxTerms = 200'000;
  int MaxAttempts = Smoke ? 2 : 4;

  printHeader("arm 0: fault-free baseline + worker-count parity");
  ArmSpec Base;
  Base.Workers = 1;
  ArmResult Baseline = runArm(Tests, Base, Equiv, MaxAttempts);
  gateClassified("baseline", Baseline);
  {
    bool NoneFailed = true;
    for (const svc::Outcome &O : Baseline.Outcomes)
      NoneFailed = NoneFailed && !O.Failed;
    gate(NoneFailed, "baseline: fault-free run has no failed tasks");
  }
  for (int W : {2, 8}) {
    ArmSpec S = Base;
    S.Workers = W;
    ArmResult R = runArm(Tests, S, Equiv, MaxAttempts);
    bool Identical = R.Outcomes.size() == Baseline.Outcomes.size();
    for (size_t I = 0; Identical && I < R.Outcomes.size(); ++I)
      Identical = svc::debugString(R.Outcomes[I]) ==
                  svc::debugString(Baseline.Outcomes[I]);
    gate(Identical,
         format("parity: %d workers debugString-identical to 1 worker", W));
  }

  printHeader("arm 1: per-task deadline, every task outlasts it");
  // s2710 and s279 verify for about a second each at bench_table3's Base
  // budgets, a config no other arm uses, once the FSM has the paper's
  // repair budget (s279 needs 3 attempts). The arm's services are
  // memory-only, so a warm --store can never serve it and the free run
  // times real work.
  std::vector<const tsvc::TsvcTest *> SlowTests = {tsvc::findTest("s2710"),
                                                   tsvc::findTest("s279")};
  core::EquivConfig SlowEquiv;
  SlowEquiv.ScalarMax = 8;
  SlowEquiv.MaxTerms = 120'000;
  SlowEquiv.Alive2Budget = 500;
  SlowEquiv.CUnrollBudget = 2'000;
  SlowEquiv.SplitBudget = 300;
  ArmSpec Slow;
  Slow.Storeless = true;
  const int SlowAttempts = agents::FsmConfig().MaxAttempts;
  ArmResult Free = runArm(SlowTests, Slow, SlowEquiv, SlowAttempts);
  gateClassified("deadline (free run)", Free);
  uint64_t MinWall = UINT64_MAX;
  bool AllVerified = true;
  for (const svc::Outcome &O : Free.Outcomes) {
    std::printf("  %s: %.3f s without a deadline (%s)\n", O.Name.c_str(),
                O.WallNanos * 1e-9,
                O.VerifyRan ? core::outcomeName(O.Equiv.Final) : "unverified");
    MinWall = std::min(MinWall, O.WallNanos);
    AllVerified = AllVerified && O.VerifyRan && !O.Failed;
  }
  gate(AllVerified, "deadline (free run): every task reached Algorithm 1");
  // At 1/5 of the fastest free wall no task can finish in time, and a task
  // that ignored its token would overrun deadline + grace by far.
  uint64_t Deadline = MinWall / 5;
  uint64_t Grace = Deadline;
  Slow.DeadlineNanos = Deadline;
  ArmResult Timed = runArm(SlowTests, Slow, SlowEquiv, SlowAttempts);
  gateClassified("deadline", Timed);
  {
    bool AllTimedOut = true, DeadlineHeld = true;
    for (const svc::Outcome &O : Timed.Outcomes) {
      std::printf("  %s: %s after %.3f s\n", O.Name.c_str(),
                  svc::failureKindName(O.Failure), O.WallNanos * 1e-9);
      AllTimedOut = AllTimedOut && O.Failure == svc::FailureKind::TimedOut;
      DeadlineHeld = DeadlineHeld && O.WallNanos <= Deadline + Grace;
    }
    gate(AllTimedOut, format("deadline: all %zu tasks TimedOut at a %.3f s "
                             "deadline",
                             Timed.Outcomes.size(), Deadline * 1e-9));
    gate(DeadlineHeld,
         format("deadline: no task overran deadline + grace (%.3f s)",
                (Deadline + Grace) * 1e-9));
  }

  printHeader("arm 2: storage faults degrade to memory-only");
  namespace fs = std::filesystem;
  std::string Dir =
      (fs::temp_directory_path() / "lv_chaos_bench_store").string();
  std::error_code EC;
  fs::remove_all(Dir, EC);
  {
    // Let the first append through, fail every later one: the run keeps
    // going memory-only and verdicts match the storeless baseline.
    std::atomic<int> Appends{0};
    store::ChaosFileHooks H;
    H.FailAppend = [&Appends] { return ++Appends > 1; };
    store::setChaosFileHooks(H);
    ArmSpec S;
    S.Workers = 2;
    S.StorePath = Dir;
    ArmResult R = runArm(Tests, S, Equiv, MaxAttempts);
    store::setChaosFileHooks(store::ChaosFileHooks());
    gateClassified("store-chaos", R);
    bool Identical = true;
    for (size_t I = 0; I < R.Outcomes.size(); ++I)
      Identical = Identical && svc::debugString(R.Outcomes[I]) ==
                                   svc::debugString(Baseline.Outcomes[I]);
    gate(Identical, "store-chaos: verdicts identical to storeless baseline");
    gate(Appends.load() > 1, "store-chaos: append failures were injected");
  }
  {
    // A load failure on reopen must serve from empty without touching the
    // (partial) log left by the previous phase.
    store::ChaosFileHooks H;
    std::atomic<bool> Once{true};
    H.FailLoad = [&Once] { return Once.exchange(false); };
    store::setChaosFileHooks(H);
    store::ResultStore Reopened(Dir);
    store::setChaosFileHooks(store::ChaosFileHooks());
    gate(Reopened.stats().ReadFailed == 1 && !Reopened.ok(),
         "store-chaos: failed load counted and store degraded");
    store::ResultStore Clean(Dir);
    gate(Clean.ok() && Clean.stats().ReadFailed == 0,
         "store-chaos: log survived the failed load and reopens cleanly");
  }
  fs::remove_all(Dir, EC);

  printHeader("arm 3: kill/resume — crash-recovery batch journal");
  std::string JDir =
      (fs::temp_directory_path() / "lv_chaos_bench_journal").string();
  fs::remove_all(JDir, EC);
  size_t CompletedBeforeKill = 0;
  {
    // Interrupted phase: journaled run, killed mid-batch. drain(0) is the
    // in-process stand-in for SIGKILL: it stops the service at an
    // arbitrary point with completions already journaled (CI additionally
    // kills the whole process with a real SIGKILL and re-runs).
    ArmSpec S;
    S.Workers = 2;
    S.JournalPath = JDir;
    // A stall per client call keeps every task slow even when a warm
    // --store makes the compute near-instant — without it the whole batch
    // can finish before drain() lands and there is no "mid-batch" left to
    // gate. The stall never changes content, so the resume phase runs
    // the plain simulator.
    S.MakeClient = slowClients(150'000'000);
    svc::VectorizerService Service(makeConfig(S));
    std::vector<svc::Ticket> Tickets =
        Service.submitBatch(makeBatch(Tests, S, Equiv, MaxAttempts));
    Service.wait(Tickets[0]); // ensure at least one completion journaled
    svc::VectorizerService::DrainResult DR =
        Service.drain(/*DeadlineNanos=*/0);
    std::vector<svc::VectorizerService::TaskStatus> Sts =
        Service.waitBatchFor(Tickets, 0);
    bool AllSettled = true;
    for (const svc::VectorizerService::TaskStatus &St : Sts) {
      AllSettled = AllSettled && St.Out != nullptr;
      if (St.Out && !St.Out->Failed)
        ++CompletedBeforeKill;
    }
    gate(AllSettled, "kill: drain settles every task (done/cancelled/shed)");
    gate(CompletedBeforeKill >= 1 && CompletedBeforeKill < Tests.size(),
         format("kill: interrupted mid-batch (%zu of %zu complete, "
                "%zu cancelled, %zu shed)",
                CompletedBeforeKill, Tests.size(), DR.Cancelled, DR.Shed));
    noteServiceStats(Service);
  }
  ArmResult Resumed;
  {
    // Resume phase: a fresh service on the same journal directory replays
    // completed tasks and re-runs only the remainder.
    ArmSpec S;
    S.Workers = 2;
    S.JournalPath = JDir;
    Resumed = runArm(Tests, S, Equiv, MaxAttempts);
    gateClassified("resume", Resumed);
    gate(Resumed.Stats.JournalReplayed == CompletedBeforeKill,
         format("resume: replayed exactly the %zu journaled completions",
                CompletedBeforeKill));
    bool Identical = true;
    for (size_t I = 0; I < Resumed.Outcomes.size(); ++I)
      Identical = Identical && svc::debugString(Resumed.Outcomes[I]) ==
                                   svc::debugString(Baseline.Outcomes[I]);
    gate(Identical,
         "resume: resumed batch byte-identical to the uninterrupted run");
  }
  fs::remove_all(JDir, EC);

  // JSON mirror.
  std::string Payload = "  \"smoke\": ";
  Payload += Smoke ? "true" : "false";
  appendf(Payload, ",\n  \"tests\": %zu,\n  \"gate_failures\": %d,\n",
          Tests.size(), GateFailures);
  appendf(Payload,
          "  \"kill_resume\": {\"completed_before_kill\": %zu, "
          "\"replayed\": %llu, \"rerun\": %zu},\n",
          CompletedBeforeKill,
          static_cast<unsigned long long>(Resumed.Stats.JournalReplayed),
          Tests.size() - CompletedBeforeKill);
  Payload += "  \"arms\": [\n";
  Payload += armJson("baseline", Baseline) + ",\n";
  Payload += armJson("deadline", Timed) + ",\n";
  Payload += armJson("kill_resume", Resumed);
  Payload += "\n  ]";
  writeBenchJson("chaos_funnel", Opt, Payload, "BENCH_chaos.json");
  writeObsArtifacts(Opt);

  if (GateFailures) {
    std::fprintf(stderr, "bench_chaos_funnel: %d gate(s) FAILED\n",
                 GateFailures);
    return 1;
  }
  std::printf("\nbench_chaos_funnel: all gates passed\n");
  return 0;
}
