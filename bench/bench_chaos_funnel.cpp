//===- bench/bench_chaos_funnel.cpp - fault-injection funnel gates ------------===//
//
// The chaos harness: drives the TSVC pipeline funnel through
// svc::VectorizerService under injected transport faults (llm/Chaos.h),
// storage faults (store::ChaosFileHooks) and an interrupted journaled
// batch, gating the contracts of src/svc/README.md "Failure model" and
// "Drain & recovery". Every arm also gates that each failed task carries
// a non-None FailureKind and that the batch lands within a harness budget
// enforced via waitBatchFor (no crash, no hang).
//
//   arm 0  baseline: a zero-chaos run has no failed task, and its
//          outcomes are debugString-bit-identical at 1/2/8 workers;
//   arm 1  absorbed: a scripted transient fault on every task's first
//          call is retried once, and each task is bit-identical to the
//          fault-free run modulo the resilience tally line;
//   arm 2  chaos ladder: random faults plus per-task deadlines; no
//          timed-out task overran deadline + checkpoint grace (SKIPPED,
//          out of the exit code, when no task timed out);
//   arm 3  store chaos: a store whose appends fail mid-run degrades to
//          memory-only without changing a verdict, and a failed load
//          leaves the log intact;
//   arm 4  kill/resume: drain(0) interrupts a journaled batch mid-run; a
//          fresh service on the same journal replays exactly the
//          journaled completions and the resumed batch is byte-identical
//          to the uninterrupted run.
//
// `--smoke` shrinks the suite slice and fault ladder for CI.
//
//===----------------------------------------------------------------------===//

#include "bench/Harness.h"
#include "store/Store.h"
#include "support/Format.h"

#include <atomic>
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

/// A gate whose precondition did not occur on this run: reported, but
/// kept out of the exit code.
void skipped(const std::string &What, const std::string &Why) {
  std::printf("  [SKIPPED] %s (%s)\n", What.c_str(), Why.c_str());
}

/// debugString minus the ` resilience:` tally line — the one line the
/// failure model *expects* to differ between an absorbed-fault run and a
/// fault-free run (retry counts live there).
std::string stripResilience(const std::string &S) {
  std::string Out;
  size_t Pos = 0;
  while (Pos < S.size()) {
    size_t Eol = S.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = S.size() - 1;
    if (S.compare(Pos, 13, " resilience: ") != 0)
      Out.append(S, Pos, Eol - Pos + 1);
    Pos = Eol + 1;
  }
  return Out;
}

struct ArmResult {
  std::vector<svc::Outcome> Outcomes;
  svc::VectorizerService::ResilienceStats Stats;
  bool BudgetHit = false; ///< A task outlived the harness wait budget.
};

struct ArmSpec {
  int Workers = 2;
  llm::ChaosConfig Chaos;
  uint64_t DeadlineNanos = 0;
  int ClientRetries = 2;
  uint64_t BackoffNanos = 0; ///< 0 in gates: backoff only stretches wall.
  uint64_t HarnessBudgetNanos = 600'000'000'000ULL;
  std::string StorePath;
  std::string JournalPath;
};

/// --store DIR: every arm that does not pin its own store directory (the
/// storage-chaos arm does) runs against this one, so a killed run's torn
/// on-disk state is exactly what the CI re-run must salvage.
std::string DefaultStorePath;

svc::ServiceConfig makeConfig(const ArmSpec &Spec) {
  svc::ServiceConfig SC;
  SC.Workers = Spec.Workers;
  SC.Chaos = Spec.Chaos;
  SC.ClientRetries = Spec.ClientRetries;
  SC.RetryBackoffNanos = Spec.BackoffNanos;
  SC.StorePath = Spec.StorePath.empty() ? DefaultStorePath : Spec.StorePath;
  SC.JournalPath = Spec.JournalPath;
  return SC;
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
          "\"retries\": %llu, \"timeouts\": %llu, \"degraded\": %llu, "
          "\"client_transient\": %llu, \"client_permanent\": %llu, "
          "\"internal\": %llu, \"shed\": %llu, \"journal_replayed\": %llu}",
          Name, A.Outcomes.size(), static_cast<unsigned long long>(Failed),
          static_cast<unsigned long long>(A.Stats.Retries),
          static_cast<unsigned long long>(A.Stats.Timeouts),
          static_cast<unsigned long long>(A.Stats.Degraded),
          static_cast<unsigned long long>(A.Stats.ClientTransient),
          static_cast<unsigned long long>(A.Stats.ClientPermanent),
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
  uint64_t Deadline = Smoke ? 2'000'000'000ULL : 10'000'000'000ULL;
  uint64_t Grace = Smoke ? 5'000'000'000ULL : 15'000'000'000ULL;

  printHeader("arm 0: fault-free baseline + worker-count parity");
  ArmSpec Base;
  Base.Workers = 1;
  ArmResult Baseline = runArm(Tests, Base, Equiv, MaxAttempts);
  gateClassified("baseline", Baseline);
  {
    bool NoneFailed = true;
    for (const svc::Outcome &O : Baseline.Outcomes)
      NoneFailed = NoneFailed && !O.Failed;
    gate(NoneFailed, "baseline: zero-chaos run has no failed tasks");
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

  printHeader("arm 1: scripted transient fault, absorbed by retry");
  // Call 0 of every task's client faults once; with retries available the
  // task re-runs the FSM on the same client, whose schedule has consumed
  // the fault, so the surviving run replays the fault-free stream.
  ArmSpec Script;
  Script.Workers = 2;
  Script.Chaos.TransientCallScript = {0};
  ArmResult Absorbed = runArm(Tests, Script, Equiv, MaxAttempts);
  gateClassified("absorbed", Absorbed);
  {
    bool AllRetried = true, AllIdentical = true;
    for (size_t I = 0; I < Absorbed.Outcomes.size(); ++I) {
      const svc::Outcome &O = Absorbed.Outcomes[I];
      AllRetried = AllRetried && !O.Failed && O.Retries == 1;
      AllIdentical = AllIdentical &&
                     stripResilience(svc::debugString(O)) ==
                         stripResilience(
                             svc::debugString(Baseline.Outcomes[I]));
    }
    gate(AllRetried, "absorbed: every task succeeded with exactly 1 retry");
    gate(AllIdentical, "absorbed: every task bit-identical to fault-free "
                       "run modulo the resilience line");
  }

  printHeader("arm 2: escalating random faults + per-task deadlines");
  std::vector<double> Ladder =
      Smoke ? std::vector<double>{0.4} : std::vector<double>{0.1, 0.3, 0.6};
  std::vector<ArmResult> LadderResults;
  for (double Rate : Ladder) {
    ArmSpec S;
    S.Workers = Smoke ? 2 : 4;
    S.Chaos.TransientRate = 0.5 * Rate;
    S.Chaos.PermanentRate = 0.15 * Rate;
    S.Chaos.TruncateRate = 0.2 * Rate;
    S.Chaos.GarbageRate = 0.2 * Rate;
    S.Chaos.LatencyRate = 0.2 * Rate;
    // A latency fault parks the client well past the deadline: the
    // cancellable sleep is how TimedOut gets exercised deterministically.
    S.Chaos.LatencyNanos = Deadline * 4;
    S.DeadlineNanos = Deadline;
    ArmResult R = runArm(Tests, S, Equiv, MaxAttempts);
    std::string Arm = format("chaos rate=%.2f", Rate);
    gateClassified(Arm.c_str(), R);
    bool DeadlineHeld = true;
    size_t TimedOut = 0;
    for (const svc::Outcome &O : R.Outcomes) {
      if (O.Failure != svc::FailureKind::TimedOut)
        continue;
      ++TimedOut;
      if (O.WallNanos > Deadline + Grace) {
        DeadlineHeld = false;
        std::fprintf(stderr,
                     "    overrun: %s wall=%.2fs deadline=%.2fs err=%s\n",
                     O.Name.c_str(), O.WallNanos * 1e-9, Deadline * 1e-9,
                     O.Error.c_str());
      }
    }
    std::printf("  %s: %zu of %zu tasks timed out\n", Arm.c_str(), TimedOut,
                R.Outcomes.size());
    std::string What =
        Arm + ": no timed-out task overran deadline + checkpoint grace";
    if (TimedOut == 0)
      skipped(What, "no task timed out");
    else
      gate(DeadlineHeld, What);
    LadderResults.push_back(std::move(R));
  }

  printHeader("arm 3: storage faults degrade to memory-only");
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

  printHeader("arm 4: kill/resume — crash-recovery batch journal");
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
    // Injected latency keeps every task slow even when a warm --store
    // makes the compute near-instant — without it the whole batch can
    // finish before drain() lands and there is no "mid-batch" left to
    // gate. Latency never changes content, but the chaos config is part
    // of the journal salt, so the resume phase must share it.
    S.Chaos.LatencyRate = 1.0;
    S.Chaos.LatencyNanos = 150'000'000;
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
    S.Chaos.LatencyRate = 1.0; // same salt as the interrupted phase
    S.Chaos.LatencyNanos = 150'000'000;
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
  Payload += armJson("absorbed", Absorbed);
  for (size_t I = 0; I < LadderResults.size(); ++I) {
    Payload += ",\n";
    Payload += armJson(format("chaos_%.2f", Ladder[I]).c_str(),
                       LadderResults[I]);
  }
  Payload += ",\n";
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
