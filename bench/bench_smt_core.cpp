//===- bench/bench_smt_core.cpp - SMT/interpreter micro-benchmarks ------------===//
//
// google-benchmark microbenchmarks for the verification substrate: term
// construction + rewriting throughput, bit-blasting + CDCL solving on
// representative circuit equivalences, the incremental-vs-scratch solving
// pattern behind the spatial-splitting stage, and the concrete
// interpreter's throughput (which bounds the checksum harness's cost).
//
// Solver statistics (conflicts, propagations, restarts, learnt clauses,
// mean LBD) are attached as benchmark counters, and the full result set is
// mirrored to BENCH_smt_core.json so the perf trajectory is machine
// readable across PRs.
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"
#include "smt/Solve.h"
#include "vir/Compile.h"

#include <benchmark/benchmark.h>

#include <fstream>

using namespace lv;

static void BM_TermRewriting(benchmark::State &State) {
  for (auto _ : State) {
    smt::TermTable T;
    smt::TermId X = T.mkVar("x");
    smt::TermId Acc = T.mkConst(0);
    for (int I = 0; I < 256; ++I)
      Acc = T.mkAdd(Acc, T.mkMul(X, T.mkConst(static_cast<uint32_t>(I))));
    benchmark::DoNotOptimize(Acc);
  }
}
BENCHMARK(BM_TermRewriting);

static void BM_SolveAdderEquivalence(benchmark::State &State) {
  uint64_t Conflicts = 0;
  for (auto _ : State) {
    smt::TermTable T;
    smt::TermId X = T.mkVar("x");
    smt::TermId Y = T.mkVar("y");
    // (x + y) - y != x must be UNSAT.
    smt::TermId Q = T.mkNe(T.mkSub(T.mkAdd(X, Y), Y), X);
    smt::SmtResult R = smt::checkSat(T, Q);
    benchmark::DoNotOptimize(R.R);
    Conflicts += R.ConflictsUsed;
  }
  State.counters["conflicts"] = static_cast<double>(Conflicts);
}
BENCHMARK(BM_SolveAdderEquivalence);

static void BM_SolveShiftMulEquivalence(benchmark::State &State) {
  uint64_t Conflicts = 0;
  for (auto _ : State) {
    smt::TermTable T;
    smt::TermId X = T.mkVar("x");
    // x*5 != (x<<2) + x must be UNSAT (a real vectorizer rewrite).
    smt::TermId Q = T.mkNe(T.mkMul(X, T.mkConst(5)),
                           T.mkAdd(T.mkShl(X, T.mkConst(2)), X));
    smt::SmtResult R = smt::checkSat(T, Q);
    benchmark::DoNotOptimize(R.R);
    Conflicts += R.ConflictsUsed;
  }
  State.counters["conflicts"] = static_cast<double>(Conflicts);
}
BENCHMARK(BM_SolveShiftMulEquivalence);

static void BM_SolveCounterexample(benchmark::State &State) {
  for (auto _ : State) {
    smt::TermTable T;
    smt::TermId X = T.mkVar("x");
    smt::TermId Y = T.mkVar("y");
    // SAT instance with model extraction.
    smt::TermId Q = T.mkAnd(T.mkEq(T.mkMul(X, Y), T.mkConst(391)),
                            T.mkUlt(X, T.mkConst(100)));
    benchmark::DoNotOptimize(smt::checkSat(T, Q).Model.size());
  }
}
BENCHMARK(BM_SolveCounterexample);

//===----------------------------------------------------------------------===//
// The spatial-splitting pattern: one shared encoding, many small queries.
//===----------------------------------------------------------------------===//

namespace {

/// Builds the shared "formula" — a shift-add multiplier equivalence over a
/// bounded domain, standing in for the common symbolic encoding both sides
/// of a refinement query share — plus NumCells cheap per-cell predicates.
struct SplitFixture {
  smt::TermTable T;
  smt::TermId Domain;
  std::vector<smt::TermId> CellQueries;

  explicit SplitFixture(int NumCells) {
    smt::TermId X = T.mkVar("x");
    smt::TermId Y = T.mkVar("y");
    Domain = T.mkAnd(T.mkUlt(X, T.mkConst(1u << 12)),
                     T.mkUlt(Y, T.mkConst(1u << 12)));
    // Shared structure: both "sides" compute x*9 + y differently.
    smt::TermId Lhs = T.mkAdd(T.mkMul(X, T.mkConst(9)), Y);
    smt::TermId Rhs =
        T.mkAdd(T.mkAdd(T.mkShl(X, T.mkConst(3)), X), Y);
    for (int C = 0; C < NumCells; ++C) {
      // Per-cell disagreement at offset C: unsat cell queries, as in the
      // splitting stage of an equivalent pair.
      smt::TermId Off = T.mkConst(static_cast<uint32_t>(C));
      CellQueries.push_back(
          T.mkNe(T.mkAdd(Lhs, Off), T.mkAdd(Rhs, Off)));
    }
  }
};

constexpr int SplitCells = 8;

} // namespace

static void BM_SplitCellsScratch(benchmark::State &State) {
  // Seed behaviour: every per-cell query re-blasts the shared encoding
  // into a cold solver.
  uint64_t Conflicts = 0, Props = 0;
  for (auto _ : State) {
    SplitFixture F(SplitCells);
    for (smt::TermId Q : F.CellQueries) {
      smt::SmtResult R = smt::checkSat(F.T, F.T.mkAnd(F.Domain, Q));
      benchmark::DoNotOptimize(R.R);
      Conflicts += R.ConflictsUsed;
      Props += R.PropagationsUsed;
    }
  }
  State.counters["conflicts"] = static_cast<double>(Conflicts);
  State.counters["propagations"] = static_cast<double>(Props);
  State.SetItemsProcessed(State.iterations() * SplitCells);
}
BENCHMARK(BM_SplitCellsScratch);

static void BM_SplitCellsIncremental(benchmark::State &State) {
  // Incremental backend: the shared encoding blasts once; per-cell
  // queries run under assumption literals with learnt-clause reuse.
  uint64_t Conflicts = 0, Props = 0;
  uint64_t Restarts = 0, Learnt = 0;
  double AvgLBD = 0;
  for (auto _ : State) {
    SplitFixture F(SplitCells);
    smt::IncrementalSolver IS(F.T);
    IS.assertAlways(F.Domain);
    for (smt::TermId Q : F.CellQueries) {
      smt::SmtResult R = IS.check(Q);
      benchmark::DoNotOptimize(R.R);
      Conflicts += R.ConflictsUsed;
      Props += R.PropagationsUsed;
    }
    Restarts += IS.stats().Restarts;
    Learnt += IS.stats().LearntTotal;
    AvgLBD = IS.stats().avgLBD();
  }
  State.counters["conflicts"] = static_cast<double>(Conflicts);
  State.counters["propagations"] = static_cast<double>(Props);
  State.counters["restarts"] = static_cast<double>(Restarts);
  State.counters["learnt"] = static_cast<double>(Learnt);
  State.counters["avg_lbd"] = AvgLBD;
  State.SetItemsProcessed(State.iterations() * SplitCells);
}
BENCHMARK(BM_SplitCellsIncremental);

static void BM_LearntDBReduction(benchmark::State &State) {
  // A long-budget hard instance (PHP 8/7): exercises LBD scoring,
  // reduceDB and the clause-arena GC on the learnt set.
  uint64_t Reduces = 0, Deleted = 0;
  for (auto _ : State) {
    const int N = 8;
    smt::SatSolver S;
    std::vector<std::vector<smt::Var>> P(
        N, std::vector<smt::Var>(N - 1));
    for (auto &Row : P)
      for (smt::Var &V : Row)
        V = S.newVar();
    for (int I = 0; I < N; ++I) {
      std::vector<smt::Lit> C;
      for (int H = 0; H < N - 1; ++H)
        C.push_back(smt::Lit(P[static_cast<size_t>(I)][static_cast<size_t>(H)],
                             false));
      S.addClause(C);
    }
    for (int H = 0; H < N - 1; ++H)
      for (int I = 0; I < N; ++I)
        for (int J = I + 1; J < N; ++J)
          S.addClause(
              smt::Lit(P[static_cast<size_t>(I)][static_cast<size_t>(H)], true),
              smt::Lit(P[static_cast<size_t>(J)][static_cast<size_t>(H)], true));
    benchmark::DoNotOptimize(S.solve());
    Reduces += S.stats().ReduceDBs;
    Deleted += S.stats().LearntDeleted;
  }
  State.counters["reduce_dbs"] = static_cast<double>(Reduces);
  State.counters["learnt_deleted"] = static_cast<double>(Deleted);
}
BENCHMARK(BM_LearntDBReduction);

static void BM_InterpThroughput(benchmark::State &State) {
  vir::CompileResult C = vir::compileFunction(
      "void f(int n, int *a, int *b, int *c) { for (int i = 0; i < n; i++) "
      "a[i] = b[i] * c[i] + b[i]; }");
  const int N = 4096;
  for (auto _ : State) {
    interp::MemoryImage Mem;
    Mem.Regions.assign(3, std::vector<int32_t>(N + 8, 3));
    benchmark::DoNotOptimize(interp::execute(*C.Fn, {N}, Mem).Steps);
  }
  State.SetItemsProcessed(State.iterations() * N);
}
BENCHMARK(BM_InterpThroughput);

static void BM_VectorInterpThroughput(benchmark::State &State) {
  vir::CompileResult C = vir::compileFunction(R"(
    void f(int n, int *a, int *b) {
      __m256i one = _mm256_set1_epi32(1);
      for (int i = 0; i < n; i += 8) {
        __m256i v = _mm256_loadu_si256((__m256i *)&b[i]);
        _mm256_storeu_si256((__m256i *)&a[i], _mm256_add_epi32(v, one));
      }
    })");
  const int N = 4096;
  for (auto _ : State) {
    interp::MemoryImage Mem;
    Mem.Regions.assign(2, std::vector<int32_t>(N + 8, 3));
    benchmark::DoNotOptimize(interp::execute(*C.Fn, {N}, Mem).Steps);
  }
  State.SetItemsProcessed(State.iterations() * N);
}
BENCHMARK(BM_VectorInterpThroughput);

int main(int argc, char **argv) {
  // Mirror results (name, iterations, ns/op, counters) to JSON so CI can
  // track the perf trajectory. Injected as flags so explicit
  // --benchmark_out on the command line still wins. --smoke (used by CI)
  // caps measurement time so every benchmark runs ~one iteration: enough
  // to exercise the code paths, fast enough for a per-push workflow.
  std::vector<char *> Args;
  bool HasOut = false, Smoke = false;
  Args.push_back(argv[0]);
  for (int I = 1; I < argc; ++I) {
    if (std::string(argv[I]) == "--smoke") {
      Smoke = true;
      continue;
    }
    if (std::string(argv[I]).rfind("--benchmark_out=", 0) == 0)
      HasOut = true;
    Args.push_back(argv[I]);
  }
  std::string OutFlag = "--benchmark_out=BENCH_smt_core.json";
  std::string FmtFlag = "--benchmark_out_format=json";
  std::string SmokeFlag = "--benchmark_min_time=0.001";
  if (!HasOut) {
    Args.push_back(&OutFlag[0]);
    Args.push_back(&FmtFlag[0]);
  }
  if (Smoke)
    Args.push_back(&SmokeFlag[0]);
  int Argc = static_cast<int>(Args.size());
  benchmark::Initialize(&Argc, Args.data());
  if (benchmark::ReportUnrecognizedArguments(Argc, Args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
