//===- bench/bench_table2_checksum.cpp - Table 2 reproduction -----------------===//
//
// Reproduces paper Table 2 (checksum-based classification of LLM-generated
// vectorizations at k = 1, 10, 100 over the 149-test TSVC dataset; paper
// numbers: Plausible 72/107/125, Not-equivalent 62/40/24, Cannot-compile
// 15/2/0) and A/B-measures the testing stage itself:
//
//   arm "tree_walk"       — the seed path: per-candidate sequential
//                           runChecksumTest on the tree-walk interpreter
//                           (scalar reference re-run per candidate).
//   arm "bytecode_batch"  — the PR-5 path: bytecode VM (one compile per
//                           function per batch) + runChecksumBatch
//                           (inputs built and scalar run once per input
//                           set, candidates replayed via image restore).
//
// Exit gates: bit-identical checksum verdicts between the arms on every
// (test, candidate) pair; bit-identical modeled cycle counts between the
// engines across the corpus; >= 2x wall-clock reduction on the checksum
// stage; and the svc::VectorizerService Sample-mode routing (batch + cache
// composition) reproducing the same tallies. The svc phase additionally
// runs traced on clean obs state: per-stage span sums and metrics
// counters must reproduce the StageInterpWork tally exactly, the
// trace/metrics artifacts must be well-formed JSON, and (full mode) the
// measured tracing overhead on the checksum stage must stay under 3%.
// `--smoke` shrinks bounds and runs the parity gates only (CI mode).
// Results land in BENCH_table2.json via the shared bench JSON writer.
//
//===----------------------------------------------------------------------===//

#include "bench/Harness.h"
#include "interp/Bytecode.h"
#include "llm/Client.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Format.h"
#include "support/Rng.h"
#include "vir/Compile.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>

using namespace lv;
using namespace lv::bench;

static uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

/// One unique candidate source for a test (the corpora repeat sources;
/// both arms classify each distinct source once, as the svc checksum
/// cache already arranged for the seed path).
struct UniqueCand {
  std::string Source;
  vir::VFunctionPtr Fn; ///< Null when the candidate does not compile.
  bool Eligible = false; ///< Compiles, scalar ok, contains intrinsics.
  std::vector<size_t> Samples; ///< Sample indices using this source.
  interp::ChecksumOutcome TreeOut, BcOut;
};

struct TestSet {
  const tsvc::TsvcTest *Test = nullptr;
  vir::VFunctionPtr Scalar;
  std::vector<UniqueCand> Cands;
  std::vector<int> SampleCand;  ///< Sample index -> unique-cand index.
};

std::string verdictString(const interp::ChecksumOutcome &O) {
  return format("%d|%s|%s|%d|%d|%d|%s", static_cast<int>(O.Verdict),
                O.Detail.c_str(), O.FirstMismatch.Where.c_str(),
                O.FirstMismatch.N, O.FirstMismatch.Expected,
                O.FirstMismatch.Actual, O.FirstMismatch.TrapMsg.c_str());
}

} // namespace

int main(int argc, char **argv) {
  BenchOptions Opt = parseBenchArgs(argc, argv);
  bool Smoke = false;
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--smoke") == 0)
      Smoke = true;
  // The A/B arms must run untraced (they are the baseline the tracing
  // overhead is measured against); the dedicated phases below flip
  // tracing back on.
  const bool TraceRequested = obs::tracingEnabled();
  obs::setTracingEnabled(false);
  int SvcJobs = Opt.JobsSet ? Opt.Jobs : (Smoke ? 1 : 4);
  const int K = Smoke ? 8 : 100;

  interp::ChecksumConfig BaseCfg;
  if (Smoke) {
    BaseCfg.RunsPerN = 1;
    BaseCfg.NValues = {0, 8};
    BaseCfg.BufferLen = 64;
  }
  interp::ChecksumConfig TreeCfg = BaseCfg;
  TreeCfg.UseBytecode = false;
  interp::ChecksumConfig BcCfg = BaseCfg; // UseBytecode = true (default)

  printHeader(Smoke ? "Table 2: checksum testing (smoke: parity gates)"
                    : "Table 2: checksum-based testing at k completions");
  std::printf("  sampling %d completions per test over %zu TSVC tests "
              "(seed 0x%llx)...\n",
              K, tsvc::suite().size(),
              static_cast<unsigned long long>(ExperimentSeed));

  // [1/4] Corpus generation: the §4.1.1 sampling setting, deduplicated
  // per test (repeat completions share one classification in both arms).
  llm::ClientFactory Factory = llm::simulatedClientFactory();
  std::vector<TestSet> Sets;
  Sets.reserve(tsvc::suite().size());
  size_t TotalSamples = 0, TotalUnique = 0, TotalEligible = 0;
  for (const tsvc::TsvcTest &T : tsvc::suite()) {
    TestSet S;
    S.Test = &T;
    vir::CompileResult SC = vir::compileFunction(T.Source);
    bool ScalarOk = SC.ok();
    if (ScalarOk)
      S.Scalar = std::move(SC.Fn);
    std::unique_ptr<llm::LLMClient> Client = Factory(ExperimentSeed);
    llm::Prompt P;
    P.ScalarSource = T.Source;
    std::map<std::string, size_t> Idx;
    for (int I = 0; I < K; ++I) {
      llm::Completion C = Client->complete(P, static_cast<uint64_t>(I));
      auto It = Idx.find(C.Source);
      size_t CI;
      if (It == Idx.end()) {
        CI = S.Cands.size();
        Idx.emplace(C.Source, CI);
        UniqueCand U;
        U.Source = C.Source;
        vir::CompileResult VC = vir::compileFunction(C.Source);
        if (VC.ok())
          U.Fn = std::move(VC.Fn);
        U.Eligible = U.Fn && ScalarOk &&
                     C.Source.find("_mm256_") != std::string::npos;
        S.Cands.push_back(std::move(U));
      } else {
        CI = It->second;
      }
      S.Cands[CI].Samples.push_back(static_cast<size_t>(I));
      S.SampleCand.push_back(static_cast<int>(CI));
      ++TotalSamples;
    }
    TotalUnique += S.Cands.size();
    for (const UniqueCand &U : S.Cands)
      TotalEligible += U.Eligible ? 1 : 0;
    Sets.push_back(std::move(S));
  }
  std::printf("  corpus: %zu samples, %zu unique candidates (%zu "
              "checksum-eligible)\n",
              TotalSamples, TotalUnique, TotalEligible);

  // Both arms run Reps times; the minimum wall is the noise-robust
  // steady-state estimate on a shared host (every repetition redoes the
  // full classification — compiles, RNG draws, scalar runs, candidate
  // runs).
  const int Reps = Smoke ? 1 : 3;

  // [2/4] Arm A — seed path: tree-walk, sequential, per-candidate scalar
  // re-runs (no memo, no batch).
  std::printf("  [arm 1/2] tree-walk sequential checksum (x%d)...\n", Reps);
  uint64_t TreeNanos = ~0ULL;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    uint64_t T0 = nowNanos();
    for (TestSet &S : Sets)
      for (UniqueCand &U : S.Cands)
        if (U.Eligible)
          U.TreeOut = interp::runChecksumTest(*S.Scalar, *U.Fn, TreeCfg);
    TreeNanos = std::min(TreeNanos, nowNanos() - T0);
  }

  // [3/4] Arm B — bytecode VM + batched harness.
  std::printf("  [arm 2/2] bytecode + batched checksum (x%d)...\n", Reps);
  uint64_t BcNanos = ~0ULL;
  uint64_t BcScalarRuns = 0, BcInputSets = 0;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    BcScalarRuns = BcInputSets = 0;
    uint64_t T0 = nowNanos();
    for (TestSet &S : Sets) {
      std::vector<const vir::VFunction *> Fns;
      std::vector<size_t> Which;
      for (size_t I = 0; I < S.Cands.size(); ++I)
        if (S.Cands[I].Eligible) {
          Fns.push_back(S.Cands[I].Fn.get());
          Which.push_back(I);
        }
      if (Fns.empty())
        continue;
      interp::ChecksumBatchResult BR =
          interp::runChecksumBatch(*S.Scalar, Fns, BcCfg);
      for (size_t I = 0; I < Which.size(); ++I)
        S.Cands[Which[I]].BcOut = std::move(BR.Outcomes[I]);
      BcScalarRuns += BR.ScalarRuns;
      BcInputSets += BR.InputSets;
    }
    BcNanos = std::min(BcNanos, nowNanos() - T0);
  }

  // Tracing-overhead measurement: the bytecode arm rerun with span
  // tracing enabled, same min-of-reps estimator. Verdicts are
  // deterministic, so re-writing BcOut is a no-op; the recorded spans are
  // discarded afterwards so the svc-phase parity gates see a clean trace.
  std::printf("  [obs] bytecode arm rerun with tracing on (x%d)...\n",
              Reps);
  obs::setTracingEnabled(true);
  uint64_t BcTracedNanos = ~0ULL;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    uint64_t T0 = nowNanos();
    for (TestSet &S : Sets) {
      std::vector<const vir::VFunction *> Fns;
      std::vector<size_t> Which;
      for (size_t I = 0; I < S.Cands.size(); ++I)
        if (S.Cands[I].Eligible) {
          Fns.push_back(S.Cands[I].Fn.get());
          Which.push_back(I);
        }
      if (Fns.empty())
        continue;
      interp::ChecksumBatchResult BR =
          interp::runChecksumBatch(*S.Scalar, Fns, BcCfg);
      for (size_t I = 0; I < Which.size(); ++I)
        S.Cands[Which[I]].BcOut = std::move(BR.Outcomes[I]);
    }
    BcTracedNanos = std::min(BcTracedNanos, nowNanos() - T0);
  }
  obs::setTracingEnabled(false);
  obs::resetTrace();
  double OverheadPct =
      BcNanos ? (static_cast<double>(BcTracedNanos) -
                 static_cast<double>(BcNanos)) /
                    static_cast<double>(BcNanos) * 100.0
              : 0.0;

  // Gate 1: bit-identical verdicts between the arms.
  int VerdictMismatches = 0;
  uint64_t TreeCandRuns = 0, TreeScalarRuns = 0;
  for (const TestSet &S : Sets)
    for (const UniqueCand &U : S.Cands) {
      if (!U.Eligible)
        continue;
      TreeCandRuns += U.TreeOut.Work.CandRuns;
      TreeScalarRuns += U.TreeOut.Work.ScalarRuns;
      if (verdictString(U.TreeOut) != verdictString(U.BcOut)) {
        if (++VerdictMismatches <= 3)
          std::printf("  VERDICT MISMATCH %s:\n    tree: %s\n    bc:   "
                      "%s\n",
                      S.Test->Name.c_str(),
                      verdictString(U.TreeOut).c_str(),
                      verdictString(U.BcOut).c_str());
      }
    }

  // Gate 2: bit-identical modeled cycle counts between the engines (the
  // Figure-6 cost model) on every test scalar and compiled candidate.
  int CycleMismatches = 0;
  {
    interp::CostModel CM;
    interp::ExecConfig EC;
    EC.Costs = &CM;
    int N = Smoke ? 8 : 64;
    int BufLen = N + 16;
    auto checkPair = [&](const vir::VFunction &F, uint64_t Seed,
                         const char *Name) {
      Rng R(Seed);
      interp::MemoryImage M1;
      for (size_t I = 0; I < F.Memories.size(); ++I) {
        M1.Regions.emplace_back();
        if (!F.Memories[I].IsParam)
          continue;
        std::vector<int32_t> Buf(static_cast<size_t>(BufLen));
        for (int32_t &V : Buf)
          V = R.rangeInt(-100, 100);
        M1.Regions.back() = std::move(Buf);
      }
      std::vector<int32_t> Args;
      for (const vir::VParam &P : F.Params) {
        if (P.IsPointer)
          continue;
        Args.push_back(P.Name == "n" ? N : R.rangeInt(0, 8));
      }
      interp::MemoryImage M2 = M1;
      interp::ExecResult RT = interp::execute(F, Args, M1, EC);
      interp::ExecResult RB =
          interp::execBytecode(interp::compileBytecode(F), Args, M2, EC);
      bool Ok = RT.St == RB.St && RT.Steps == RB.Steps &&
                std::memcmp(&RT.Cycles, &RB.Cycles, sizeof(double)) == 0 &&
                RT.RetVal == RB.RetVal && RT.TrapMsg == RB.TrapMsg;
      for (size_t I = 0; Ok && I < M1.Regions.size(); ++I)
        Ok = M1.Regions[I] == M2.Regions[I];
      if (!Ok) {
        if (++CycleMismatches <= 3)
          std::printf("  CYCLE MISMATCH %s: steps %llu/%llu cycles "
                      "%.17g/%.17g\n",
                      Name, static_cast<unsigned long long>(RT.Steps),
                      static_cast<unsigned long long>(RB.Steps), RT.Cycles,
                      RB.Cycles);
      }
    };
    for (const TestSet &S : Sets) {
      if (S.Scalar)
        checkPair(*S.Scalar, hashString(S.Test->Name.c_str()),
                  S.Test->Name.c_str());
      for (const UniqueCand &U : S.Cands)
        if (U.Fn)
          checkPair(*U.Fn, hashString(U.Source.c_str()),
                    S.Test->Name.c_str());
    }
  }

  // [store] Persistent warm-start: the same Sample batch served twice
  // through a scratch result store — cold (every outcome written through)
  // then warm (a fresh service, so every checksum classification replays
  // from disk). Gates: both runs reproduce the bytecode arm's verdicts
  // bit-for-bit, the cold run persisted records, the warm run has no
  // store miss (its hits include memory hits, so hits alone would not show
  // that the log was read), and its checksum-stage span total collapses
  // (every batch skipped — >= 5x under the cold wall by construction). With --store DIR a third run
  // against the user's persistent directory feeds the CI cross-process
  // warm-start smoke. Runs before the traced svc phase, which resets
  // trace/metrics state at its start.
  struct StoreRun {
    std::string Verdicts; ///< Deterministic per-sample verdict lines.
    svc::CacheStats Cache;
    store::StoreStats St;
    uint64_t ChecksumSpanNs = 0; ///< Sum of checksum.batch span walls.
    uint64_t WallNs = 0;
    int Mismatches = 0; ///< Samples disagreeing with the bytecode arm.
  };
  auto storeRun = [&](const std::string &Dir) {
    StoreRun Out;
    obs::resetTrace();
    obs::setTracingEnabled(true);
    {
      svc::ServiceConfig SC;
      SC.Workers = SvcJobs;
      SC.StorePath = Dir;
      svc::VectorizerService Service(SC);
      std::vector<svc::Request> Batch;
      for (const TestSet &S : Sets) {
        svc::Request R;
        R.Mode = svc::RunMode::Sample;
        R.Name = S.Test->Name;
        R.ScalarSource = S.Test->Source;
        R.Seed = ExperimentSeed;
        R.SampleCount = K;
        R.Fsm.Checksum = BcCfg;
        Batch.push_back(std::move(R));
      }
      uint64_t T0 = nowNanos();
      std::vector<svc::Ticket> Tickets =
          Service.submitBatch(std::move(Batch));
      for (size_t TI = 0; TI < Tickets.size(); ++TI) {
        const svc::Outcome &O = Service.wait(Tickets[TI]);
        if (O.Failed) {
          std::fprintf(stderr, "store-phase task '%s' failed: %s\n",
                       O.Name.c_str(), O.Error.c_str());
          std::exit(1);
        }
        const TestSet &S = Sets[TI];
        for (size_t I = 0; I < O.Samples.size(); ++I) {
          const UniqueCand &U =
              S.Cands[static_cast<size_t>(S.SampleCand[I])];
          bool Want = U.Eligible && U.BcOut.plausible();
          if (O.Samples[I].Plausible != Want ||
              O.Samples[I].Compiles != (U.Fn != nullptr))
            ++Out.Mismatches;
          appendf(Out.Verdicts, "%s %zu %d %d %llx\n", O.Name.c_str(), I,
                  O.Samples[I].Compiles ? 1 : 0,
                  O.Samples[I].Plausible ? 1 : 0,
                  static_cast<unsigned long long>(
                      hashString(O.Samples[I].Source.c_str())));
        }
      }
      Out.WallNs = nowNanos() - T0;
      Out.Cache = Service.cacheStats();
      Out.St = Service.resultStore()->stats();
      noteServiceStats(Service);
    }
    obs::setTracingEnabled(false);
    for (const obs::TraceEvent &E : obs::snapshotTrace())
      if (std::strcmp(E.Name, "checksum.batch") == 0)
        Out.ChecksumSpanNs += E.DurNs;
    obs::resetTrace();
    return Out;
  };
  std::printf("  [store] cold/warm Sample batches on a scratch store...\n");
  const std::string ScratchStore = "BENCH_table2.store.scratch";
  std::error_code ScratchEC;
  std::filesystem::remove_all(ScratchStore, ScratchEC);
  StoreRun ColdRun = storeRun(ScratchStore);
  StoreRun WarmRun = storeRun(ScratchStore);
  bool StoreParityOk = ColdRun.Mismatches == 0 && WarmRun.Mismatches == 0 &&
                       ColdRun.Verdicts == WarmRun.Verdicts;
  bool StoreColdOk = ColdRun.St.Writes > 0;
  bool StoreWarmOk = WarmRun.St.Hits > 0 && WarmRun.St.Misses == 0 &&
                     ColdRun.ChecksumSpanNs > 0 &&
                     ColdRun.ChecksumSpanNs >= 5 * WarmRun.ChecksumSpanNs;
  StoreRun PersistRun;
  const bool HavePersist = !Opt.StorePath.empty();
  bool PersistOk = true;
  if (HavePersist) {
    std::printf("  [store] run against --store %s...\n",
                Opt.StorePath.c_str());
    PersistRun = storeRun(Opt.StorePath);
    PersistOk = PersistRun.Mismatches == 0 &&
                PersistRun.Verdicts == ColdRun.Verdicts;
  }

  // [4/4] Service routing: Sample mode composes the batch path with the
  // checksum-outcome cache; tallies must reproduce the arm verdicts.
  // This phase runs traced on clean trace/metrics state: it is cache-free
  // (fresh service, one distinct scalar per task, within-task duplicates
  // deduplicated before the batch), so span sums and registry counters
  // must equal the StageInterpWork tally exactly — the obs parity gates.
  std::printf("  [svc] Sample mode at %d worker(s), traced...\n", SvcJobs);
  obs::resetTrace();
  obs::resetMetrics();
  obs::setTracingEnabled(true);
  svc::StageInterpWork SvcWork;
  int SvcMismatches = 0;
  uint64_t SvcNanos = 0;
  {
    svc::ServiceConfig SC;
    SC.Workers = SvcJobs;
    svc::VectorizerService Service(SC);
    std::vector<svc::Request> Batch;
    for (const TestSet &S : Sets) {
      svc::Request R;
      R.Mode = svc::RunMode::Sample;
      R.Name = S.Test->Name;
      R.ScalarSource = S.Test->Source;
      R.Seed = ExperimentSeed;
      R.SampleCount = K;
      R.Fsm.Checksum = BcCfg;
      Batch.push_back(std::move(R));
    }
    uint64_t T0 = nowNanos();
    std::vector<svc::Ticket> Tickets = Service.submitBatch(std::move(Batch));
    for (size_t TI = 0; TI < Tickets.size(); ++TI) {
      const svc::Outcome &O = Service.wait(Tickets[TI]);
      if (O.Failed) {
        std::fprintf(stderr, "svc task '%s' failed: %s\n", O.Name.c_str(),
                     O.Error.c_str());
        return 1;
      }
      SvcWork.add(O.ChecksumWork);
      const TestSet &S = Sets[TI];
      for (size_t I = 0; I < O.Samples.size(); ++I) {
        const UniqueCand &U =
            S.Cands[static_cast<size_t>(S.SampleCand[I])];
        bool Want = U.Eligible && U.BcOut.plausible();
        if (O.Samples[I].Plausible != Want ||
            O.Samples[I].Compiles != (U.Fn != nullptr))
          ++SvcMismatches;
      }
    }
    SvcNanos = nowNanos() - T0;
  }
  obs::setTracingEnabled(TraceRequested);
  std::vector<obs::TraceEvent> Events = obs::snapshotTrace();

  // Table-2 tallies from the (parity-gated) arm verdicts.
  std::vector<TestCorpus> Corpus;
  for (const TestSet &S : Sets) {
    TestCorpus TC;
    TC.Test = S.Test;
    for (size_t I = 0; I < S.SampleCand.size(); ++I) {
      const UniqueCand &U = S.Cands[static_cast<size_t>(S.SampleCand[I])];
      CandidateRecord R;
      R.Source = U.Source;
      R.Compiles = U.Fn != nullptr;
      R.Plausible = U.Eligible && U.BcOut.plausible();
      TC.Samples.push_back(std::move(R));
    }
    Corpus.push_back(std::move(TC));
  }
  struct Row {
    int K;
    int PaperPlausible, PaperNotEq, PaperNoCompile;
  };
  const Row Rows[] = {{1, 72, 62, 15}, {10, 107, 40, 2}, {100, 125, 24, 0}};
  ChecksumTally Tallies[3];
  for (int I = 0; I < 3; ++I)
    Tallies[I] = tallyAt(Corpus, Rows[I].K);
  std::printf("\n  %-18s %8s %8s %8s\n", "", "k=1", "k=10", "k=100");
  auto row = [&](const char *Name, auto Get, auto GetPaper) {
    std::printf("  %-18s", Name);
    for (int I = 0; I < 3; ++I)
      std::printf(" %8d", Get(Tallies[I]));
    std::printf("   (paper:");
    for (int I = 0; I < 3; ++I)
      std::printf(" %d", GetPaper(Rows[I]));
    std::printf(")\n");
  };
  row("Plausible", [](const ChecksumTally &T) { return T.Plausible; },
      [](const Row &R) { return R.PaperPlausible; });
  row("Not equivalent",
      [](const ChecksumTally &T) { return T.NotEquivalent; },
      [](const Row &R) { return R.PaperNotEq; });
  row("Cannot compile",
      [](const ChecksumTally &T) { return T.CannotCompile; },
      [](const Row &R) { return R.PaperNoCompile; });

  // Gates.
  bool ShapeOk = Smoke || (Tallies[0].Plausible < Tallies[1].Plausible &&
                           Tallies[1].Plausible <= Tallies[2].Plausible &&
                           Tallies[0].CannotCompile >=
                               Tallies[1].CannotCompile &&
                           Tallies[1].CannotCompile >=
                               Tallies[2].CannotCompile);
  bool VerdictOk = VerdictMismatches == 0;
  bool CycleOk = CycleMismatches == 0;
  bool SvcOk = SvcMismatches == 0;
  double Speedup = BcNanos ? static_cast<double>(TreeNanos) /
                                 static_cast<double>(BcNanos)
                           : 1.0;
  bool SpeedupOk = Smoke || Speedup >= 2.0;

  // Observability gates: the traced svc phase's span sums and registry
  // counters must reproduce the StageInterpWork tally bit-for-bit, and
  // both exported artifacts must be well-formed JSON with the expected
  // top-level keys. Overhead is gated in full mode only (single smoke
  // reps are too noisy to gate on).
  bool SpanParityOk =
      sumSpanArg(Events, "checksum.batch", "instrs") == SvcWork.Instrs &&
      sumSpanArg(Events, "checksum.batch", "cand_runs") ==
          SvcWork.CandRuns &&
      sumSpanArg(Events, "checksum.batch", "scalar_runs") ==
          SvcWork.ScalarRuns &&
      sumSpanArg(Events, "checksum.batch", "input_sets") ==
          SvcWork.InputSets &&
      sumSpanArg(Events, "checksum.batch", "scalar_runs_saved") ==
          SvcWork.ScalarRunsSaved &&
      countSpans(Events, "task.sample") == Sets.size();
  bool CounterParityOk =
      obs::counterValue("interp.instrs") == SvcWork.Instrs &&
      obs::counterValue("interp.cand_runs") == SvcWork.CandRuns &&
      obs::counterValue("interp.scalar_runs") == SvcWork.ScalarRuns &&
      obs::counterValue("interp.input_sets") == SvcWork.InputSets &&
      obs::counterValue("interp.scalar_runs_saved") ==
          SvcWork.ScalarRunsSaved &&
      obs::counterValue("interp.traps") == SvcWork.Traps &&
      obs::counterValue("interp.hangs") == SvcWork.Hangs &&
      obs::counterValue("interp.checksum_batches") ==
          countSpans(Events, "checksum.batch") &&
      obs::counterValue("svc.tasks") == Sets.size();
  std::string TraceJson = obs::traceChromeJson();
  std::string MetricsStr = obs::metricsJson();
  std::string JsonErr;
  std::vector<std::string> Keys;
  auto hasKey = [&](const char *K) {
    for (const std::string &S : Keys)
      if (S == K)
        return true;
    return false;
  };
  bool TraceJsonOk =
      obs::json::validate(TraceJson, &JsonErr, &Keys) &&
      hasKey("traceEvents");
  if (!TraceJsonOk)
    std::printf("  TRACE JSON INVALID: %s\n", JsonErr.c_str());
  Keys.clear();
  bool MetricsJsonOk = obs::json::validate(MetricsStr, &JsonErr, &Keys) &&
                       hasKey("schema_version") && hasKey("counters") &&
                       hasKey("histograms");
  if (!MetricsJsonOk)
    std::printf("  METRICS JSON INVALID: %s\n", JsonErr.c_str());
  bool OverheadOk = Smoke || OverheadPct < 3.0;

  std::printf("\n  checksum-stage wall: %8.1fms tree-walk, %8.1fms "
              "bytecode+batch (%.2fx)\n",
              static_cast<double>(TreeNanos) / 1e6,
              static_cast<double>(BcNanos) / 1e6, Speedup);
  std::printf("  scalar reference runs: %llu tree-walk -> %llu batched "
              "(%llu input sets shared)\n",
              static_cast<unsigned long long>(TreeScalarRuns),
              static_cast<unsigned long long>(BcScalarRuns),
              static_cast<unsigned long long>(BcInputSets));
  std::printf("  svc sample arm: %.1fms at %d worker(s); interp work: "
              "%llu instrs, %llu cand runs, %llu scalar runs (%llu "
              "saved)\n",
              static_cast<double>(SvcNanos) / 1e6, SvcJobs,
              static_cast<unsigned long long>(SvcWork.Instrs),
              static_cast<unsigned long long>(SvcWork.CandRuns),
              static_cast<unsigned long long>(SvcWork.ScalarRuns),
              static_cast<unsigned long long>(SvcWork.ScalarRunsSaved));
  std::printf("  verdict parity (tree-walk vs bytecode+batch): %s\n",
              VerdictOk ? "OK" : "MISMATCH");
  std::printf("  modeled-cycle parity (bitwise, whole corpus): %s\n",
              CycleOk ? "OK" : "MISMATCH");
  std::printf("  svc Sample-mode routing reproduces verdicts: %s\n",
              SvcOk ? "OK" : "MISMATCH");
  std::printf("  shape (plausible grows, compile failures decay): %s\n",
              Smoke ? "SKIPPED (smoke)" : (ShapeOk ? "OK" : "MISMATCH"));
  std::printf("  checksum stage speeds up (>= 2x): %s\n",
              Smoke ? "SKIPPED (smoke)"
                    : (SpeedupOk ? "OK" : "MISMATCH"));
  std::printf("  tracing overhead on checksum stage: %.2f%% (%s)\n",
              OverheadPct,
              Smoke ? "report-only in smoke"
                    : (OverheadOk ? "OK, < 3%" : "MISMATCH, >= 3%"));
  std::printf("  span sums reproduce StageInterpWork tally: %s\n",
              SpanParityOk ? "OK" : "MISMATCH");
  std::printf("  metrics counters reproduce StageInterpWork tally: %s\n",
              CounterParityOk ? "OK" : "MISMATCH");
  std::printf("  trace/metrics JSON well-formed: %s / %s\n",
              TraceJsonOk ? "OK" : "MISMATCH",
              MetricsJsonOk ? "OK" : "MISMATCH");
  obs::TraceStats TS = obs::traceStats();
  std::printf("  trace: %zu events on %zu thread(s), %llu dropped\n",
              TS.Events, TS.Threads,
              static_cast<unsigned long long>(TS.Dropped));
  std::printf("  store cold run: %.1fms wall, %.1fms checksum spans, "
              "%llu writes, %llu hits\n",
              static_cast<double>(ColdRun.WallNs) / 1e6,
              static_cast<double>(ColdRun.ChecksumSpanNs) / 1e6,
              static_cast<unsigned long long>(ColdRun.St.Writes),
              static_cast<unsigned long long>(ColdRun.St.Hits));
  std::printf("  store warm run: %.1fms wall, %.1fms checksum spans, "
              "%llu hits, %llu misses\n",
              static_cast<double>(WarmRun.WallNs) / 1e6,
              static_cast<double>(WarmRun.ChecksumSpanNs) / 1e6,
              static_cast<unsigned long long>(WarmRun.St.Hits),
              static_cast<unsigned long long>(WarmRun.St.Misses));
  std::printf("  warm-start verdict parity (cold == warm == arms): %s\n",
              StoreParityOk ? "OK" : "MISMATCH");
  std::printf("  warm run all hits, checksum spans collapse (>= 5x under "
              "cold): %s\n",
              StoreColdOk && StoreWarmOk ? "OK" : "MISMATCH");
  if (HavePersist)
    std::printf("  persistent store run (--store): %llu hits, %llu "
                "writes, parity %s\n",
                static_cast<unsigned long long>(PersistRun.St.Hits),
                static_cast<unsigned long long>(PersistRun.St.Writes),
                PersistOk ? "OK" : "MISMATCH");

  std::string J;
  appendf(J, "  \"smoke\": %s,\n  \"k\": %d,\n", Smoke ? "true" : "false",
          K);
  appendf(J, "  \"tallies\": {\n");
  for (int I = 0; I < 3; ++I)
    appendf(J,
            "    \"k%d\": {\"plausible\": %d, \"noteq\": %d, "
            "\"nocompile\": %d}%s\n",
            Rows[I].K, Tallies[I].Plausible, Tallies[I].NotEquivalent,
            Tallies[I].CannotCompile, I == 2 ? "" : ",");
  appendf(J, "  },\n");
  appendf(J,
          "  \"arms\": [\n"
          "    {\"engine\": \"tree_walk\", \"wall_ns\": %llu, "
          "\"scalar_runs\": %llu},\n"
          "    {\"engine\": \"bytecode_batch\", \"wall_ns\": %llu, "
          "\"scalar_runs\": %llu}\n  ],\n",
          static_cast<unsigned long long>(TreeNanos),
          static_cast<unsigned long long>(TreeScalarRuns),
          static_cast<unsigned long long>(BcNanos),
          static_cast<unsigned long long>(BcScalarRuns));
  appendf(J, "  \"speedup\": %.3f,\n", Speedup);
  appendf(J,
          "  \"svc\": {\"jobs\": %d, \"wall_ns\": %llu, \"interp_work\": "
          "{\"instrs\": %llu, \"loads\": %llu, \"stores\": %llu, "
          "\"branches\": %llu, \"cand_runs\": %llu, \"scalar_runs\": "
          "%llu, \"scalar_runs_saved\": %llu, \"input_sets\": %llu, "
          "\"traps\": %llu, \"hangs\": %llu}},\n",
          SvcJobs, static_cast<unsigned long long>(SvcNanos),
          static_cast<unsigned long long>(SvcWork.Instrs),
          static_cast<unsigned long long>(SvcWork.Loads),
          static_cast<unsigned long long>(SvcWork.Stores),
          static_cast<unsigned long long>(SvcWork.Branches),
          static_cast<unsigned long long>(SvcWork.CandRuns),
          static_cast<unsigned long long>(SvcWork.ScalarRuns),
          static_cast<unsigned long long>(SvcWork.ScalarRunsSaved),
          static_cast<unsigned long long>(SvcWork.InputSets),
          static_cast<unsigned long long>(SvcWork.Traps),
          static_cast<unsigned long long>(SvcWork.Hangs));
  appendf(J,
          "  \"obs\": {\"traced_wall_ns\": %llu, \"overhead_pct\": %.3f, "
          "\"trace_events\": %zu, \"trace_threads\": %zu, "
          "\"trace_dropped\": %llu},\n",
          static_cast<unsigned long long>(BcTracedNanos), OverheadPct,
          TS.Events, TS.Threads,
          static_cast<unsigned long long>(TS.Dropped));
  appendf(J,
          "  \"verdict_mismatches\": %d,\n  \"cycle_mismatches\": %d,\n"
          "  \"svc_mismatches\": %d,\n",
          VerdictMismatches, CycleMismatches, SvcMismatches);
  appendf(J,
          "  \"verdict_ok\": %s,\n  \"cycle_ok\": %s,\n  \"svc_ok\": "
          "%s,\n  \"shape_ok\": %s,\n  \"speedup_ok\": %s,\n",
          VerdictOk ? "true" : "false", CycleOk ? "true" : "false",
          SvcOk ? "true" : "false", ShapeOk ? "true" : "false",
          SpeedupOk ? "true" : "false");
  appendf(J,
          "  \"span_parity_ok\": %s,\n  \"counter_parity_ok\": %s,\n"
          "  \"trace_json_ok\": %s,\n  \"metrics_json_ok\": %s,\n"
          "  \"overhead_ok\": %s,\n",
          SpanParityOk ? "true" : "false",
          CounterParityOk ? "true" : "false",
          TraceJsonOk ? "true" : "false", MetricsJsonOk ? "true" : "false",
          OverheadOk ? "true" : "false");
  auto appendStoreRun = [&](const char *Name, const StoreRun &R,
                            const char *Trail) {
    appendf(J,
            "    \"%s\": {\"wall_ns\": %llu, \"checksum_span_ns\": %llu, "
            "\"mismatches\": %d, \"cache\": {\"hits\": %llu, \"misses\": "
            "%llu}, \"store\": {\"hits\": %llu, \"misses\": %llu, "
            "\"writes\": %llu, \"corrupt_skipped\": %llu, "
            "\"version_skipped\": %llu}}%s\n",
            Name, static_cast<unsigned long long>(R.WallNs),
            static_cast<unsigned long long>(R.ChecksumSpanNs), R.Mismatches,
            static_cast<unsigned long long>(R.Cache.Hits),
            static_cast<unsigned long long>(R.Cache.Misses),
            static_cast<unsigned long long>(R.St.Hits),
            static_cast<unsigned long long>(R.St.Misses),
            static_cast<unsigned long long>(R.St.Writes),
            static_cast<unsigned long long>(R.St.CorruptSkipped),
            static_cast<unsigned long long>(R.St.VersionSkipped), Trail);
  };
  appendf(J, "  \"warm_start\": {\n");
  appendStoreRun("cold", ColdRun, ",");
  appendStoreRun("warm", WarmRun, ",");
  if (HavePersist)
    appendStoreRun("persistent", PersistRun, ",");
  appendf(J,
          "    \"parity_ok\": %s,\n    \"cold_ok\": %s,\n"
          "    \"warm_ok\": %s,\n    \"persistent_ok\": %s\n  }",
          StoreParityOk ? "true" : "false", StoreColdOk ? "true" : "false",
          StoreWarmOk ? "true" : "false", PersistOk ? "true" : "false");
  bool JsonOk = writeBenchJson("bench_table2_checksum", Opt, J,
                               "BENCH_table2.json");
  bool ObsOk = writeObsArtifacts(Opt);
  bool StoreOk = StoreParityOk && StoreColdOk && StoreWarmOk && PersistOk;

  return VerdictOk && CycleOk && SvcOk && ShapeOk && SpeedupOk &&
                 SpanParityOk && CounterParityOk && TraceJsonOk &&
                 MetricsJsonOk && OverheadOk && StoreOk && JsonOk && ObsOk
             ? 0
             : 1;
}
