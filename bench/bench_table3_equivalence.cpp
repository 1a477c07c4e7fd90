//===- bench/bench_table3_equivalence.cpp - Table 3 reproduction --------------===//
//
// Reproduces paper Table 3: the staged equivalence-checking funnel over the
// TSVC dataset. Each stage consumes the previous stage's Inconclusive
// set:
//
//      Techniques   Total   Equiv  NotEquiv  Inconcl     (paper)
//      Checksum      149      0       24       125
//      Alive2        125     26       17        82
//      C-Unroll       82     28       18        36
//      Splitting      36      3        2        31
//      All           149     57       61        31
//
// We report the same funnel for our pipeline, plus per-stage query-size
// statistics showing *why* the domain-specific techniques scale better
// (the paper's §3 argument).
//
// The funnel then runs once per arm, one fixed list for --quick and the
// full corpus:
//
//   seed              frozen copy of the seed smt stack (bench/seedref/)
//                     driven per stage-4 cell through SplitCellOverride:
//                     scratch solver + full re-blast per cell — the fixed
//                     "before" baseline and an independent reference
//   fork              the EquivConfig defaults: one session per task,
//                     every stage-3/4 query one solve in a fork of its
//                     pristine base
//
// Budget-bound verdicts are sensitive to search order, so the arms are a
// verdict-parity harness first and a speedup report second: the seed arm
// counts tests whose (Final, DecidedBy) differ from the fork reference,
// and the exit gates require (a) seed/fork parity over the whole corpus
// (an arm with missing records fails it) and (b) the seed->fork splitting
// win, SKIPPED — and out of the exit code — when neither arm did stage-4
// work.
// Everything is mirrored to BENCH_table3.json for CI tracking.
//
//===----------------------------------------------------------------------===//

#include "bench/Harness.h"
#include "bench/seedref/SeedRef.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Format.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>

using namespace lv;
using namespace lv::bench;
using core::EquivResult;
using core::Stage;

static uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

/// Funnel tallies for one run.
struct FunnelTally {
  int ChecksumNotEq = 0, Plaus = 0;
  int A2Eq = 0, A2Neq = 0, A2In = 0;
  int CUEq = 0, CUNeq = 0, CUIn = 0;
  int SpEq = 0, SpNeq = 0, SpIn = 0;
  uint64_t A2Clauses = 0, CUClauses = 0, SpClauses = 0;
  int A2N = 0, CUN = 0, SpN = 0;
  // Spatial-splitting stage cost (per-stage SatWork aggregated by svc).
  svc::StageSatWork SplitWork;
  uint64_t SplitWallNanos = 0;
  int SplitQueries = 0;

  int allEq() const { return A2Eq + CUEq + SpEq; }
  int allNeq() const { return ChecksumNotEq + A2Neq + CUNeq + SpNeq; }
  uint64_t splitSatWork() const {
    return SplitWork.Conflicts + SplitWork.Propagations;
  }
};

FunnelTally tally(const std::vector<FunnelRecord> &Funnel) {
  FunnelTally T;
  for (const FunnelRecord &R : Funnel) {
    // Splitting-stage cost is charged whenever the stage ran, regardless
    // of which stage decided.
    T.SplitWork.add(R.SplitWork);
    T.SplitQueries += static_cast<int>(R.Result.SplitRes.size());
    T.SplitWallNanos += R.Result.SplitNanos;

    if (!R.HadPlausible) {
      ++T.ChecksumNotEq;
      continue;
    }
    // A plausible candidate entering the funnel may still be rejected by
    // the fresh checksum run inside checkEquivalence; count it as decided
    // by testing.
    if (R.Result.DecidedBy == Stage::Checksum) {
      ++T.ChecksumNotEq;
      continue;
    }
    ++T.Plaus;
    const tv::TVResult &A = R.Result.Alive2Res;
    bool A2Decided = A.V == tv::TVVerdict::Equivalent ||
                     A.V == tv::TVVerdict::Inequivalent;
    if (A.Clauses > 0) {
      T.A2Clauses += A.Clauses;
      ++T.A2N;
    }
    if (A.V == tv::TVVerdict::Equivalent)
      ++T.A2Eq;
    else if (A.V == tv::TVVerdict::Inequivalent)
      ++T.A2Neq;
    else
      ++T.A2In;
    if (A2Decided)
      continue;
    const tv::TVResult &CU = R.Result.CUnrollRes;
    bool CUDecided = CU.V == tv::TVVerdict::Equivalent ||
                     CU.V == tv::TVVerdict::Inequivalent;
    if (CU.Clauses > 0) {
      T.CUClauses += CU.Clauses;
      ++T.CUN;
    }
    if (CU.V == tv::TVVerdict::Equivalent)
      ++T.CUEq;
    else if (CU.V == tv::TVVerdict::Inequivalent)
      ++T.CUNeq;
    else
      ++T.CUIn;
    if (CUDecided)
      continue;
    for (const tv::TVResult &S : R.Result.SplitRes)
      if (S.Clauses > 0) {
        T.SpClauses += S.Clauses;
        ++T.SpN;
      }
    if (R.Result.DecidedBy == Stage::Splitting) {
      if (R.Result.Final == EquivResult::Equivalent)
        ++T.SpEq;
      else
        ++T.SpNeq;
    } else {
      ++T.SpIn;
    }
  }
  return T;
}

/// Before/After ratio; an idle "after" side means either no regression to
/// measure (both zero -> 1.0) or an unmeasurably large win (capped so the
/// JSON stays finite).
double ratio(uint64_t Before, uint64_t After) {
  if (After == 0)
    return Before ? 1e9 : 1.0;
  return static_cast<double>(Before) / static_cast<double>(After);
}

/// One arm: a stage-3/4 solving configuration of the funnel.
struct Arm {
  const char *Name;
  bool Seed = false; ///< Frozen seedref backend (fixed baseline).

  std::vector<FunnelRecord> Records;
  FunnelTally T;
  int Mismatches = 0; ///< Tests whose (Final, DecidedBy) differ from fork.
};

/// --quick test subset: budget-borderline pairs that are decided close to
/// their stage budget, all the way into stage 4, plus enough ordinary
/// pairs to keep the funnel-shape gate meaningful (checksum rejects,
/// alive2/c-unroll deciders, and splitting survivors).
const char *QuickTests[] = {
    // Budget-borderline pairs (s319 decided at c-unroll, the rest at
    // spatial splitting).
    "s253", "s271", "s272", "s319", "s1279", "s2711",
    // Splitting-stage survivors (stay inconclusive end to end).
    "s273", "s274", "s276", "s2712",
    // C-unroll equivalence deciders, one alive2 decider, and checksum
    // rejects, keeping the funnel-shape gate meaningful.
    "s000", "s113", "s125", "s131", "s291", "vcnt", "s111", "s112", "s114",
};

} // namespace

int main(int argc, char **argv) {
  BenchOptions Opt = parseBenchArgs(argc, argv);
  bool Quick = false; // --quick: flip-pair test subset
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--quick") == 0)
      Quick = true;

  // Tracing is scoped to the fork arm only: corpus generation and the
  // seed arm would otherwise pollute the span-vs-tally parity sums.
  const bool TraceRequested = obs::tracingEnabled();
  obs::setTracingEnabled(false);

  printHeader("Table 3: equivalence-checking funnel");
  std::vector<TestCorpus> Corpus;
  if (Quick) {
    std::vector<const tsvc::TsvcTest *> Tests;
    for (const char *Name : QuickTests)
      if (const tsvc::TsvcTest *T = tsvc::findTest(Name))
        Tests.push_back(T);
    std::printf("  sampling candidates and running Algorithm 1 over %zu "
                "tests (--quick subset, --jobs %d)...\n",
                Tests.size(), Opt.Jobs);
    Corpus = buildCorpusFor(Tests, 100, ExperimentSeed, Opt.Jobs);
  } else {
    std::printf("  sampling candidates and running Algorithm 1 over %zu "
                "tests (--jobs %d)...\n",
                tsvc::suite().size(), Opt.Jobs);
    Corpus = buildCorpus(100, ExperimentSeed, Opt.Jobs);
  }
  const int Total = static_cast<int>(Corpus.size());

  core::EquivConfig Base;
  Base.ScalarMax = 8;
  Base.MaxTerms = 120'000;
  Base.Alive2Budget = 500;
  Base.CUnrollBudget = 2'000;
  Base.SplitBudget = 300;

  // [store] Persistent warm-start measurement: the funnel serves the same
  // corpus twice through a scratch result store — the cold run populates
  // it, the warm run (a fresh service over the same directory) replays
  // every verdict from disk and never enters the checksum or solver
  // stages. Gates: serialized EquivResults bit-identical across the two
  // runs (the store's replay contract), the cold run persisted records,
  // the warm run was pure hits, and the combined checksum+splitting span
  // wall collapsed by >= 5x. Runs before the arms so the traced fork arm
  // still owns the trace buffers at artifact-write time.
  struct StoreRun {
    std::string Bits;    ///< Concatenated serializeEquivResult records.
    std::string Summary; ///< "name final decided-by" lines (arm-comparable:
                         ///< stable under wall-clock jitter, unlike Bits).
    ServiceRunStats Stats;
    uint64_t StageNs = 0; ///< stage.checksum + stage.split span walls.
    uint64_t WallNs = 0;
  };
  auto storeRun = [&](const std::string &Dir) {
    StoreRun Out;
    obs::resetTrace();
    obs::setTracingEnabled(true);
    uint64_t T0 = nowNanos();
    std::vector<FunnelRecord> Recs =
        runFunnel(Corpus, Base, Opt.Jobs, Dir, &Out.Stats);
    Out.WallNs = nowNanos() - T0;
    obs::setTracingEnabled(false);
    for (const obs::TraceEvent &E : obs::snapshotTrace())
      if (std::strcmp(E.Name, "stage.checksum") == 0 ||
          std::strcmp(E.Name, "stage.split") == 0)
        Out.StageNs += E.DurNs;
    obs::resetTrace();
    for (const FunnelRecord &R : Recs) {
      Out.Bits += R.Name;
      Out.Bits += store::serializeEquivResult(R.Result);
      appendf(Out.Summary, "%s %s %s\n", R.Name.c_str(),
              core::outcomeName(R.Result.Final),
              core::stageName(R.Result.DecidedBy));
    }
    return Out;
  };
  std::printf("  [store] cold/warm funnel on a scratch store...\n");
  const std::string ScratchStore = "BENCH_table3.store.scratch";
  std::error_code ScratchEC;
  std::filesystem::remove_all(ScratchStore, ScratchEC);
  StoreRun ColdRun = storeRun(ScratchStore);
  StoreRun WarmRun = storeRun(ScratchStore);
  bool StoreBitOk = !ColdRun.Bits.empty() && ColdRun.Bits == WarmRun.Bits;
  bool StoreColdOk = ColdRun.Stats.Store.Writes > 0;
  bool StoreWarmOk =
      WarmRun.Stats.Store.Hits > 0 && WarmRun.Stats.Store.Misses == 0;
  bool StoreSpeedOk =
      ColdRun.StageNs > 0 && ColdRun.StageNs >= 5 * WarmRun.StageNs;
  StoreRun PersistRun;
  const bool HavePersist = !Opt.StorePath.empty();
  bool PersistOk = true;
  if (HavePersist) {
    std::printf("  [store] run against --store %s...\n",
                Opt.StorePath.c_str());
    PersistRun = storeRun(Opt.StorePath);
    PersistOk = PersistRun.Summary == ColdRun.Summary;
  }

  // Name, Seed: the same list for --quick and the full corpus.
  enum { SeedArm, ForkArm };
  std::vector<Arm> Arms = {
      {"seed", true},
      {"fork"},
  };

  // The fork arm runs Base unchanged — the configuration the svc funnel
  // ships — and is both the verdict-parity reference and the
  // observability reference: it runs traced (fresh trace + metrics), and
  // its span/counter sums are gated against the StageSatWork/
  // StageInterpWork tallies below.
  const size_t TracedArm = ForkArm;
  std::vector<obs::TraceEvent> Events;
  std::vector<obs::CounterSample> Counters;
  std::string TraceDoc, MetricsDoc;

  for (size_t I = 0; I < Arms.size(); ++I) {
    Arm &A = Arms[I];
    core::EquivConfig Cfg = Base;
    if (A.Seed)
      // Frozen seed smt stack: scratch solver + full re-blast per cell.
      Cfg.SplitCellOverride = [](const vir::VFunction &S,
                                 const vir::VFunction &T,
                                 const tv::RefineOptions &RO) {
        return seedref::checkRefinementSeed(S, T, RO);
      };
    std::printf("  [%zu/%zu] %s...\n", I + 1, Arms.size(), A.Name);
    if (I == TracedArm) {
      obs::resetTrace();
      obs::resetMetrics();
      obs::setTracingEnabled(true);
    }
    A.Records = runFunnel(Corpus, Cfg, Opt.Jobs);
    A.T = tally(A.Records);
    if (I == TracedArm) {
      obs::setTracingEnabled(false);
      // Scrape immediately: a later arm would keep feeding the (always-on)
      // metrics registry, so the parity comparison needs a point-in-time
      // snapshot of counters and both JSON documents.
      Events = obs::snapshotTrace();
      Counters = obs::snapshotCounters();
      TraceDoc = obs::traceChromeJson();
      MetricsDoc = obs::metricsJson();
    }
  }

  // Verdict parity: every arm against the fork reference.
  int TotalMismatches = 0;
  for (size_t I = 0; I < Arms.size(); ++I) {
    if (I == ForkArm)
      continue;
    Arm &A = Arms[I];
    for (size_t K = 0;
         K < A.Records.size() && K < Arms[ForkArm].Records.size(); ++K) {
      if (A.Records[K].Result.Final !=
              Arms[ForkArm].Records[K].Result.Final ||
          A.Records[K].Result.DecidedBy !=
              Arms[ForkArm].Records[K].Result.DecidedBy) {
        ++A.Mismatches;
        std::printf("  VERDICT MISMATCH [%s] %s: %s/%s vs fork %s/%s\n",
                    A.Name, A.Records[K].Name.c_str(),
                    core::outcomeName(A.Records[K].Result.Final),
                    core::stageName(A.Records[K].Result.DecidedBy),
                    core::outcomeName(Arms[ForkArm].Records[K].Result.Final),
                    core::stageName(Arms[ForkArm].Records[K].Result.DecidedBy));
      }
    }
    TotalMismatches += A.Mismatches;
  }
  // Every arm is designed to match fork verdict for verdict, so this is a
  // hard gate; an arm that did not cover the whole corpus fails it.
  bool AllArmsParityOk = TotalMismatches == 0;
  for (const Arm &A : Arms)
    if (A.Records.size() != Corpus.size())
      AllArmsParityOk = false;

  // The store runs used the unmodified Base config, as the fork arm did,
  // so their (Final, DecidedBy) funnel must match the fork arm exactly.
  std::string ForkSummary;
  for (const FunnelRecord &R : Arms[ForkArm].Records)
    appendf(ForkSummary, "%s %s %s\n", R.Name.c_str(),
            core::outcomeName(R.Result.Final),
            core::stageName(R.Result.DecidedBy));
  bool StoreArmParityOk = ColdRun.Summary == ForkSummary;

  const FunnelTally &TA = Arms[ForkArm].T; // funnel shape from fork arm

  std::printf("\n  %-12s %7s %7s %9s %9s   (paper)\n", "Technique", "Total",
              "Equiv", "NotEquiv", "Inconcl");
  std::printf("  %-12s %7d %7d %9d %9d   149/0/24/125\n", "Checksum", Total,
              0, TA.ChecksumNotEq, TA.Plaus);
  std::printf("  %-12s %7d %7d %9d %9d   125/26/17/82\n", "Alive2",
              TA.Plaus, TA.A2Eq, TA.A2Neq, TA.A2In);
  std::printf("  %-12s %7d %7d %9d %9d   82/28/18/36\n", "C-Unroll",
              TA.A2In, TA.CUEq, TA.CUNeq, TA.CUIn);
  std::printf("  %-12s %7d %7d %9d %9d   36/3/2/31\n", "Splitting",
              TA.CUIn, TA.SpEq, TA.SpNeq, TA.SpIn);
  std::printf("  %-12s %7d %7d %9d %9d   149/57/61/31\n", "All", Total,
              TA.allEq(), TA.allNeq(), TA.SpIn);

  std::printf("\n  mean SAT clauses per query (why the techniques scale):\n");
  if (TA.A2N)
    std::printf("    alive2-unroll: %10llu\n",
                static_cast<unsigned long long>(
                    TA.A2Clauses / static_cast<uint64_t>(TA.A2N)));
  if (TA.CUN)
    std::printf("    c-unroll:      %10llu\n",
                static_cast<unsigned long long>(
                    TA.CUClauses / static_cast<uint64_t>(TA.CUN)));
  if (TA.SpN)
    std::printf("    splitting:     %10llu (per cell)\n",
                static_cast<unsigned long long>(
                    TA.SpClauses / static_cast<uint64_t>(TA.SpN)));

  // Splitting-stage cost per arm.
  std::printf("\n  spatial-splitting stage by arm (parity vs fork):\n");
  std::printf("  %-18s %9s %12s %12s %10s %9s\n", "mode", "queries",
              "conflicts", "props", "wall-ms", "mismatch");
  for (const Arm &A : Arms) {
    std::printf("  %-18s %9d %12llu %12llu %10.1f %9d\n", A.Name,
                A.T.SplitQueries,
                static_cast<unsigned long long>(A.T.SplitWork.Conflicts),
                static_cast<unsigned long long>(A.T.SplitWork.Propagations),
                static_cast<double>(A.T.SplitWallNanos) / 1e6,
                A.Mismatches);
  }

  // Gates.
  const Arm *SeedA = &Arms[SeedArm];

  bool ShapeOk = TA.allEq() > TA.A2Eq && (TA.CUEq + TA.CUNeq) > 0 &&
                 TA.Plaus > TA.allEq();
  bool SeedParityOk = SeedA->Mismatches == 0;

  // Seed -> fork: the session-reuse win must not regress. The SAT-work
  // ratio is deterministic (1.08x on the full corpus — most of the win is
  // the skipped per-query re-encode, which conflicts don't count); the
  // wall ratio carries the real reduction but is machine-sensitive
  // (measured 1.8-2.9x across hosts and corpus subsets), so it gates at
  // 1.5x: low enough to be stable, high enough that losing the session
  // reuse (ratio -> ~1.0) still trips it. SKIPPED — printed as such, and
  // kept out of the exit code and the JSON verdict — when stage 4 did no
  // work in either arm: there is then nothing to measure.
  double SeedSatRatio = ratio(SeedA->T.splitSatWork(), TA.splitSatWork());
  double SeedWallRatio = ratio(SeedA->T.SplitWallNanos, TA.SplitWallNanos);
  bool NoSplitWork = SeedA->T.splitSatWork() == 0 && TA.splitSatWork() == 0 &&
                     SeedA->T.SplitWallNanos == 0 && TA.SplitWallNanos == 0;
  bool SpeedupOk = SeedSatRatio >= 2.0 || SeedWallRatio >= 1.5;

  // Observability gates on the traced fork arm: the per-stage span args
  // and the tv.* counters must reproduce the StageSatWork/
  // StageInterpWork tallies svc aggregated from the same TVResults
  // (cache-free funnel, so every verify task emits exactly one set of
  // stage spans).
  svc::StageSatWork FA2, FCU, FSP;
  svc::StageInterpWork FCK;
  uint64_t FA2Nanos = 0, FCUNanos = 0, FSPNanos = 0, FCKNanos = 0;
  size_t VerifyTasks = 0;
  for (const FunnelRecord &R : Arms[TracedArm].Records) {
    if (R.HadPlausible)
      ++VerifyTasks;
    FA2.add(R.Alive2Work);
    FCU.add(R.CUnrollWork);
    FSP.add(R.SplitWork);
    FCK.add(R.ChecksumWork);
    FA2Nanos += R.Result.Alive2Nanos;
    FCUNanos += R.Result.CUnrollNanos;
    FSPNanos += R.Result.SplitNanos;
    FCKNanos += R.Result.ChecksumNanos;
  }
  auto satStageParity = [&](const char *Span, const svc::StageSatWork &W) {
    return sumSpanArg(Events, Span, "conflicts") == W.Conflicts &&
           sumSpanArg(Events, Span, "propagations") == W.Propagations &&
           sumSpanArg(Events, Span, "restarts") == W.Restarts;
  };
  bool SpanParityOk =
      satStageParity("stage.alive2", FA2) &&
      satStageParity("stage.cunroll", FCU) &&
      satStageParity("stage.split", FSP) &&
      sumSpanArg(Events, "stage.checksum", "instrs") == FCK.Instrs &&
      sumSpanArg(Events, "stage.checksum", "cand_runs") == FCK.CandRuns &&
      sumSpanArg(Events, "stage.checksum", "scalar_runs") == FCK.ScalarRuns &&
      countSpans(Events, "task.verify") == VerifyTasks;
  // The EquivResult per-stage nanos are *sourced from* the spans (the Span
  // DurOut accumulates the same duration the event records), so the span
  // durations must sum to the record fields exactly.
  auto sumSpanDur = [&](const char *Name) {
    uint64_t Sum = 0;
    for (const obs::TraceEvent &Ev : Events)
      if (std::strcmp(Ev.Name, Name) == 0)
        Sum += Ev.DurNs;
    return Sum;
  };
  bool WallParityOk = sumSpanDur("stage.alive2") == FA2Nanos &&
                      sumSpanDur("stage.cunroll") == FCUNanos &&
                      sumSpanDur("stage.split") == FSPNanos &&
                      sumSpanDur("stage.checksum") == FCKNanos;
  // tv.* counters aggregate every solver query; in the funnel each query
  // result lands in exactly one of the three stage works.
  auto cval = [&](const char *Name) {
    for (const obs::CounterSample &C : Counters)
      if (C.Name == Name)
        return C.Value;
    return static_cast<uint64_t>(0);
  };
  bool CounterParityOk =
      cval("tv.conflicts") == FA2.Conflicts + FCU.Conflicts + FSP.Conflicts &&
      cval("tv.propagations") ==
          FA2.Propagations + FCU.Propagations + FSP.Propagations &&
      cval("tv.restarts") == FA2.Restarts + FCU.Restarts + FSP.Restarts &&
      cval("svc.tasks") == VerifyTasks;
  std::string TraceErr, MetricsErr;
  std::vector<std::string> TraceKeys, MetricsKeys;
  auto hasKey = [](const std::vector<std::string> &Keys, const char *K) {
    for (const std::string &S : Keys)
      if (S == K)
        return true;
    return false;
  };
  bool TraceJsonOk = obs::json::validate(TraceDoc, &TraceErr, &TraceKeys) &&
                     hasKey(TraceKeys, "traceEvents");
  bool MetricsJsonOk =
      obs::json::validate(MetricsDoc, &MetricsErr, &MetricsKeys) &&
      hasKey(MetricsKeys, "schema_version") &&
      hasKey(MetricsKeys, "counters") && hasKey(MetricsKeys, "histograms");
  obs::TraceStats TS = obs::traceStats();

  std::printf("\n  funnel shape (stages add verdicts beyond Alive2): %s\n",
              ShapeOk ? "OK" : "MISMATCH");
  std::printf("  seed == fork verdicts on all %d pairs: %s\n", Total,
              SeedParityOk ? "OK" : "MISMATCH");
  std::printf("  all arms verdict-identical to fork: %s (%d mismatching "
              "verdicts)\n",
              AllArmsParityOk ? "OK" : "MISMATCH", TotalMismatches);
  if (NoSplitWork)
    std::printf("  seed->fork splitting reduction (>=2x sat or >=1.5x wall): "
                "SKIPPED (no stage-4 work in either arm)\n");
  else
    std::printf("  seed->fork splitting reduction (>=2x sat or >=1.5x wall): "
                "%s (%.2fx sat, %.2fx wall)\n",
                SpeedupOk ? "OK" : "MISMATCH", SeedSatRatio, SeedWallRatio);
  std::printf("  stage span sums reproduce StageSat/InterpWork tallies: %s\n",
              SpanParityOk ? "OK" : "MISMATCH");
  std::printf("  stage span durations reproduce EquivResult nanos: %s\n",
              WallParityOk ? "OK" : "MISMATCH");
  std::printf("  tv.*/svc.* counters reproduce stage tallies: %s\n",
              CounterParityOk ? "OK" : "MISMATCH");
  std::printf("  trace/metrics JSON well-formed: %s / %s\n",
              TraceJsonOk ? "OK" : TraceErr.c_str(),
              MetricsJsonOk ? "OK" : MetricsErr.c_str());
  std::printf("  trace: %llu events on %llu thread(s), %llu dropped\n",
              static_cast<unsigned long long>(TS.Events),
              static_cast<unsigned long long>(TS.Threads),
              static_cast<unsigned long long>(TS.Dropped));
  std::printf("  store cold run: %.1fms wall, %.1fms checksum+split spans, "
              "%llu writes\n",
              static_cast<double>(ColdRun.WallNs) / 1e6,
              static_cast<double>(ColdRun.StageNs) / 1e6,
              static_cast<unsigned long long>(ColdRun.Stats.Store.Writes));
  std::printf("  store warm run: %.1fms wall, %.1fms checksum+split spans, "
              "%llu hits, %llu misses\n",
              static_cast<double>(WarmRun.WallNs) / 1e6,
              static_cast<double>(WarmRun.StageNs) / 1e6,
              static_cast<unsigned long long>(WarmRun.Stats.Store.Hits),
              static_cast<unsigned long long>(WarmRun.Stats.Store.Misses));
  std::printf("  warm replay bit-identical EquivResults: %s\n",
              StoreBitOk ? "OK" : "MISMATCH");
  std::printf("  warm run pure store hits, cold run persisted: %s\n",
              StoreWarmOk && StoreColdOk ? "OK" : "MISMATCH");
  std::printf("  warm checksum+split spans collapse (>= 5x under cold): %s\n",
              StoreSpeedOk ? "OK" : "MISMATCH");
  std::printf("  store funnel matches fork arm (Final/DecidedBy): %s\n",
              StoreArmParityOk ? "OK" : "MISMATCH");
  if (HavePersist)
    std::printf("  persistent store run (--store): %llu hits, %llu writes, "
                "parity %s\n",
                static_cast<unsigned long long>(PersistRun.Stats.Store.Hits),
                static_cast<unsigned long long>(PersistRun.Stats.Store.Writes),
                PersistOk ? "OK" : "MISMATCH");

  // Machine-readable mirror for the perf trajectory (envelope comes from
  // the shared writeBenchJson writer).
  std::string J;
  appendf(J, "  \"funnel\": {\n");
  appendf(J,
          "    \"checksum\": {\"total\": %d, \"equiv\": 0, \"noteq\": %d, "
          "\"inconcl\": %d},\n",
          Total, TA.ChecksumNotEq, TA.Plaus);
  appendf(J,
          "    \"alive2\": {\"total\": %d, \"equiv\": %d, \"noteq\": %d, "
          "\"inconcl\": %d},\n",
          TA.Plaus, TA.A2Eq, TA.A2Neq, TA.A2In);
  appendf(J,
          "    \"c_unroll\": {\"total\": %d, \"equiv\": %d, \"noteq\": %d, "
          "\"inconcl\": %d},\n",
          TA.A2In, TA.CUEq, TA.CUNeq, TA.CUIn);
  appendf(J,
          "    \"splitting\": {\"total\": %d, \"equiv\": %d, \"noteq\": %d, "
          "\"inconcl\": %d},\n",
          TA.CUIn, TA.SpEq, TA.SpNeq, TA.SpIn);
  appendf(J,
          "    \"all\": {\"total\": %d, \"equiv\": %d, \"noteq\": %d, "
          "\"inconcl\": %d}\n  },\n",
          Total, TA.allEq(), TA.allNeq(), TA.SpIn);
  appendf(J, "  \"arms\": [\n");
  for (size_t I = 0; I < Arms.size(); ++I) {
    const Arm &A = Arms[I];
    appendf(J,
            "    {\"name\": \"%s\", \"queries\": %d, \"conflicts\": %llu, "
            "\"propagations\": %llu, \"wall_ns\": %llu, "
            "\"mismatches\": %d}%s\n",
            A.Name, A.T.SplitQueries,
            static_cast<unsigned long long>(A.T.SplitWork.Conflicts),
            static_cast<unsigned long long>(A.T.SplitWork.Propagations),
            static_cast<unsigned long long>(A.T.SplitWallNanos),
            A.Mismatches, I + 1 < Arms.size() ? "," : "");
  }
  appendf(J, "  ],\n");
  // Per-stage SAT work of the default configuration (the fork arm; the
  // numbers the svc Outcome aggregation feeds): alive2 / c-unroll /
  // splitting. FA2/FCU/FSP were summed from the fork arm's records above.
  appendf(J, "  \"default_mode\": \"%s\",\n", Arms[ForkArm].Name);
  appendf(J, "  \"default_stage_work\": {\n");
  auto StageJson = [&](const char *Name, const svc::StageSatWork &W,
                       const char *Sep) {
    appendf(J,
            "    \"%s\": {\"conflicts\": %llu, \"propagations\": %llu, "
            "\"restarts\": %llu}%s\n",
            Name, static_cast<unsigned long long>(W.Conflicts),
            static_cast<unsigned long long>(W.Propagations),
            static_cast<unsigned long long>(W.Restarts), Sep);
  };
  StageJson("alive2", FA2, ",");
  StageJson("c_unroll", FCU, ",");
  StageJson("splitting", FSP, "");
  appendf(J, "  },\n");
  appendf(J, "  \"seed_sat_ratio\": %.3f,\n  \"seed_wall_ratio\": %.3f,\n",
          SeedSatRatio, SeedWallRatio);
  appendf(J, "  \"total_mismatches\": %d,\n", TotalMismatches);
  appendf(J,
          "  \"obs\": {\"trace_events\": %llu, \"trace_threads\": %llu, "
          "\"trace_dropped\": %llu, \"verify_tasks\": %llu},\n",
          static_cast<unsigned long long>(TS.Events),
          static_cast<unsigned long long>(TS.Threads),
          static_cast<unsigned long long>(TS.Dropped),
          static_cast<unsigned long long>(VerifyTasks));
  appendf(J,
          "  \"shape_ok\": %s,\n  \"seed_parity_ok\": %s,\n"
          "  \"all_arms_parity_ok\": %s,\n  \"speedup_ok\": %s,\n",
          ShapeOk ? "true" : "false", SeedParityOk ? "true" : "false",
          AllArmsParityOk ? "true" : "false",
          NoSplitWork ? "null" : (SpeedupOk ? "true" : "false"));
  appendf(J,
          "  \"span_parity_ok\": %s,\n  \"wall_parity_ok\": %s,\n"
          "  \"counter_parity_ok\": %s,\n  \"trace_json_ok\": %s,\n"
          "  \"metrics_json_ok\": %s,\n",
          SpanParityOk ? "true" : "false", WallParityOk ? "true" : "false",
          CounterParityOk ? "true" : "false", TraceJsonOk ? "true" : "false",
          MetricsJsonOk ? "true" : "false");
  auto appendStoreRun = [&](const char *Name, const StoreRun &R) {
    appendf(J,
            "    \"%s\": {\"wall_ns\": %llu, \"stage_span_ns\": %llu, "
            "\"cache\": {\"hits\": %llu, \"misses\": %llu}, "
            "\"store\": {\"hits\": %llu, \"misses\": %llu, \"writes\": "
            "%llu, \"corrupt_skipped\": %llu, \"version_skipped\": "
            "%llu}},\n",
            Name, static_cast<unsigned long long>(R.WallNs),
            static_cast<unsigned long long>(R.StageNs),
            static_cast<unsigned long long>(R.Stats.Cache.Hits),
            static_cast<unsigned long long>(R.Stats.Cache.Misses),
            static_cast<unsigned long long>(R.Stats.Store.Hits),
            static_cast<unsigned long long>(R.Stats.Store.Misses),
            static_cast<unsigned long long>(R.Stats.Store.Writes),
            static_cast<unsigned long long>(R.Stats.Store.CorruptSkipped),
            static_cast<unsigned long long>(R.Stats.Store.VersionSkipped));
  };
  appendf(J, "  \"warm_start\": {\n");
  appendStoreRun("cold", ColdRun);
  appendStoreRun("warm", WarmRun);
  if (HavePersist)
    appendStoreRun("persistent", PersistRun);
  appendf(J,
          "    \"bit_identical_ok\": %s,\n    \"cold_ok\": %s,\n"
          "    \"warm_ok\": %s,\n    \"speed_ok\": %s,\n"
          "    \"arm_parity_ok\": %s,\n    \"persistent_ok\": %s\n  }",
          StoreBitOk ? "true" : "false", StoreColdOk ? "true" : "false",
          StoreWarmOk ? "true" : "false", StoreSpeedOk ? "true" : "false",
          StoreArmParityOk ? "true" : "false", PersistOk ? "true" : "false");
  bool JsonOk =
      writeBenchJson("bench_table3_equivalence", Opt, J, "BENCH_table3.json");

  // --trace/--metrics artifacts: the trace buffers still hold only the
  // fork arm's spans (the seed arm ran untraced); the metrics file covers
  // the whole run.
  obs::setTracingEnabled(TraceRequested);
  bool ObsOk = writeObsArtifacts(Opt);

  bool StoreOk = StoreBitOk && StoreColdOk && StoreWarmOk && StoreSpeedOk &&
                 StoreArmParityOk && PersistOk;

  return ShapeOk && SeedParityOk && AllArmsParityOk &&
                 (SpeedupOk || NoSplitWork) && SpanParityOk && WallParityOk &&
                 CounterParityOk && TraceJsonOk && MetricsJsonOk && StoreOk &&
                 JsonOk && ObsOk
             ? 0
             : 1;
}
