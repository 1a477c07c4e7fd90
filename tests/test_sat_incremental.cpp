//===- tests/test_sat_incremental.cpp - incremental SAT backend tests --------===//
//
// Cross-validation of the incremental solver path against scratch solving:
// (1) solve(assumptions) on randomized CNF agrees with a fresh solver that
// has the assumptions asserted as unit clauses, and Sat models satisfy the
// assumptions; (2) the learnt-clause DB reduction keeps verdicts correct on
// instances hard enough to trigger it; (3) the IncrementalSolver facade
// agrees with one-shot checkSat across repeated queries on a shared term
// table; (4) regression: stage-4 spatial splitting returns identical
// EquivResult verdicts whether queries share one incremental session or
// re-solve from scratch per cell (the seed behaviour), and the stage-3
// session query reproduces one-shot solving exactly.
//
//===----------------------------------------------------------------------===//

#include "core/Equivalence.h"
#include "smt/Sat.h"
#include "smt/Solve.h"
#include "smt/Term.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace lv;
using namespace lv::smt;

namespace {

//===----------------------------------------------------------------------===//
// solve(assumptions) vs scratch solver
//===----------------------------------------------------------------------===//

struct RandomCnf {
  int NumVars = 0;
  std::vector<std::vector<Lit>> Clauses;
};

static RandomCnf makeRandomCnf(Rng &R) {
  RandomCnf C;
  C.NumVars = 6 + static_cast<int>(R.below(10)); // 6..15
  int NumClauses = 10 + static_cast<int>(R.below(60));
  for (int I = 0; I < NumClauses; ++I) {
    std::vector<Lit> Cl;
    int Len = 2 + static_cast<int>(R.below(3)); // 2..4 literals
    for (int K = 0; K < Len; ++K) {
      Var V = static_cast<Var>(R.below(static_cast<uint64_t>(C.NumVars)));
      Cl.push_back(Lit(V, R.chance(0.5)));
    }
    C.Clauses.push_back(Cl);
  }
  return C;
}

/// Loads a CNF into a solver whose vars are created on the fly.
static bool loadCnf(SatSolver &S, const RandomCnf &C) {
  for (int I = 0; I < C.NumVars; ++I)
    S.newVar();
  bool Ok = true;
  for (const auto &Cl : C.Clauses)
    Ok = S.addClause(Cl) && Ok;
  return Ok;
}

class SatAssumptionsTest : public ::testing::TestWithParam<int> {};

TEST_P(SatAssumptionsTest, AgreesWithScratchSolver) {
  Rng R(static_cast<uint64_t>(GetParam()) * 48271 + 11);
  RandomCnf C = makeRandomCnf(R);

  // One incremental solver answers a whole batch of assumption queries...
  SatSolver Inc;
  bool IncOk = loadCnf(Inc, C);

  for (int Q = 0; Q < 8; ++Q) {
    std::vector<Lit> Assumps;
    int NumA = static_cast<int>(R.below(4)); // 0..3 assumptions
    for (int K = 0; K < NumA; ++K) {
      Var V = static_cast<Var>(R.below(static_cast<uint64_t>(C.NumVars)));
      Assumps.push_back(Lit(V, R.chance(0.5)));
    }

    // ...each cross-checked against a scratch solver with the assumptions
    // baked in as unit clauses.
    SatSolver Scratch;
    bool ScratchOk = loadCnf(Scratch, C);
    for (Lit A : Assumps)
      ScratchOk = Scratch.addClause(A) && ScratchOk;

    SatResult Want =
        ScratchOk ? Scratch.solve() : SatResult::Unsat;
    SatResult Got =
        IncOk ? Inc.solve(Assumps, SatBudget()) : SatResult::Unsat;
    ASSERT_NE(Got, SatResult::Unknown);
    EXPECT_EQ(Got, Want) << "query " << Q;

    if (Got == SatResult::Sat) {
      // The model must satisfy every assumption and every clause.
      for (Lit A : Assumps)
        EXPECT_EQ(Inc.modelValue(A.var()), !A.sign())
            << "assumption violated";
      for (const auto &Cl : C.Clauses) {
        bool Any = false;
        for (Lit L : Cl)
          if (Inc.modelValue(L.var()) == !L.sign())
            Any = true;
        EXPECT_TRUE(Any) << "model violates a clause";
      }
    }
    // Unsat under assumptions must not poison the incremental solver:
    // the empty query on a satisfiable DB must still come back Sat.
    if (Got == SatResult::Unsat && IncOk && Inc.ok()) {
      SatSolver Plain;
      bool PlainOk = loadCnf(Plain, C);
      SatResult Base = PlainOk ? Plain.solve() : SatResult::Unsat;
      EXPECT_EQ(Inc.solve(), Base) << "solver poisoned by assumptions";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, SatAssumptionsTest, ::testing::Range(0, 30));

TEST(SatIncremental, ClausesAddedBetweenQueries) {
  // x1 assumed, then (~x1 | x2) added, then ~x2 assumed: must flip to
  // Unsat while plain solving stays Sat.
  SatSolver S;
  Var X1 = S.newVar();
  Var X2 = S.newVar();
  EXPECT_EQ(S.solve(std::vector<Lit>{Lit(X1, false)}, SatBudget()),
            SatResult::Sat);
  S.addClause(Lit(X1, true), Lit(X2, false));
  EXPECT_EQ(S.solve(std::vector<Lit>{Lit(X1, false), Lit(X2, true)},
                    SatBudget()),
            SatResult::Unsat);
  EXPECT_EQ(S.solve(), SatResult::Sat);
  EXPECT_TRUE(S.ok());
}

TEST(SatIncremental, ContradictoryAssumptionsAreUnsatNotFatal) {
  SatSolver S;
  Var X = S.newVar();
  EXPECT_EQ(S.solve(std::vector<Lit>{Lit(X, false), Lit(X, true)},
                    SatBudget()),
            SatResult::Unsat);
  EXPECT_TRUE(S.ok());
  EXPECT_EQ(S.solve(), SatResult::Sat);
}

//===----------------------------------------------------------------------===//
// addClause overload parity
//===----------------------------------------------------------------------===//

/// One clause-normalization case: \p Setup clauses go in first, then
/// \p Clause through the overload under test. \p Stored is the normalized
/// clause expected in the arena (empty: none stored).
struct AddClauseCase {
  const char *Name;
  std::vector<std::vector<Lit>> Setup;
  std::vector<Lit> Clause;
  bool WantReturn;
  bool WantOk;
  std::vector<Lit> Stored;
  std::vector<Lit> Trail;
};

TEST(AddClauseParity, FixedArityMatchesVectorOverload) {
  const Lit A(0, false), B(1, false), C(2, false);
  const std::vector<AddClauseCase> Cases = {
      {"duplicate literal", {}, {B, A, B}, true, true, {A, B}, {}},
      {"tautology", {}, {A, ~A, B}, true, true, {}, {}},
      {"literal true at level 0", {{C}}, {A, C, B}, true, true, {}, {C}},
      {"literal false at level 0", {{~C}}, {C, B, A}, true, true, {A, B},
       {~C}},
      {"unit clause propagates", {{~A, B}}, {A}, true, true, {}, {A, B}},
      {"unit after dropping false literals", {{~C}, {~A, B}}, {C, A},
       true, true, {}, {~C, A, B}},
      {"empty clause", {{~C}}, {C}, false, false, {}, {~C}},
      {"empty after dropping false literals", {{~C}, {~B}}, {C, B, C},
       false, false, {}, {~C, ~B}},
  };
  for (const AddClauseCase &K : Cases) {
    SCOPED_TRACE(K.Name);
    SatSolver Fixed, Vec;
    for (SatSolver *S : {&Fixed, &Vec}) {
      for (int I = 0; I < 3; ++I)
        S->newVar();
      for (const std::vector<Lit> &Cl : K.Setup)
        S->addClause(Cl);
    }
    size_t Before = Fixed.problemClauseRefs().size();
    bool FixedRet = false;
    switch (K.Clause.size()) {
    case 1:
      FixedRet = Fixed.addClause(K.Clause[0]);
      break;
    case 2:
      FixedRet = Fixed.addClause(K.Clause[0], K.Clause[1]);
      break;
    case 3:
      FixedRet = Fixed.addClause(K.Clause[0], K.Clause[1], K.Clause[2]);
      break;
    default:
      FAIL() << "no fixed-arity overload for " << K.Clause.size();
    }
    bool VecRet = Vec.addClause(K.Clause);

    EXPECT_EQ(FixedRet, K.WantReturn);
    EXPECT_EQ(VecRet, K.WantReturn);
    EXPECT_EQ(Fixed.ok(), K.WantOk);
    EXPECT_EQ(Vec.ok(), K.WantOk);
    EXPECT_EQ(Fixed.arenaWords(), Vec.arenaWords());
    EXPECT_EQ(Fixed.problemClauseRefs(), Vec.problemClauseRefs());
    EXPECT_EQ(Fixed.trail(), K.Trail);
    EXPECT_EQ(Vec.trail(), K.Trail);

    const std::vector<uint32_t> &Arena = Fixed.arenaWords();
    const std::vector<uint32_t> &Refs = Fixed.problemClauseRefs();
    ASSERT_EQ(Refs.size(), Before + (K.Stored.empty() ? 0 : 1));
    if (K.Stored.empty())
      continue;
    std::vector<uint32_t> Want = {
        static_cast<uint32_t>(K.Stored.size()) << 2, 0u};
    for (Lit L : K.Stored)
      Want.push_back(static_cast<uint32_t>(L.X));
    std::vector<uint32_t> Got(Arena.begin() + Refs.back(), Arena.end());
    EXPECT_EQ(Got, Want);
  }

  // The vector overload also takes the literally empty clause.
  SatSolver S;
  EXPECT_FALSE(S.addClause(std::vector<Lit>{}));
  EXPECT_FALSE(S.ok());
  EXPECT_TRUE(S.arenaWords().empty());
}

//===----------------------------------------------------------------------===//
// Luby restart schedule
//===----------------------------------------------------------------------===//

TEST(LubySchedule, ReluctantDoublingPrefix) {
  // luby(2, i) for i = 0.. must be the classic reluctant-doubling
  // sequence 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
  const double Want[] = {1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8};
  for (int I = 0; I < 15; ++I)
    EXPECT_DOUBLE_EQ(luby(2.0, I), Want[I]) << "index " << I;
}

TEST(LubySchedule, EverySubsequenceRestartsAtOne) {
  // The sequence value is a power of the base, and position 2^k - 1 holds
  // the maximum 2^(k-1) seen so far (the doubling envelope).
  for (int K = 1; K <= 6; ++K) {
    int Pos = (1 << K) - 1;
    EXPECT_DOUBLE_EQ(luby(2.0, Pos - 1),
                     std::pow(2.0, K - 1)) << "envelope at " << Pos;
    EXPECT_DOUBLE_EQ(luby(2.0, Pos), 1.0) << "restart at " << Pos;
  }
}

//===----------------------------------------------------------------------===//
// Learnt-clause DB reduction
//===----------------------------------------------------------------------===//

TEST(SatIncremental, ReduceDBKeepsVerdictOnHardInstance) {
  // PHP(8,7) needs far more than the 2000-conflict first-reduce threshold,
  // so this exercises reduceDB (and usually the arena GC) mid-search.
  const int N = 8;
  SatSolver S;
  std::vector<std::vector<Var>> P(N, std::vector<Var>(N - 1));
  for (auto &Row : P)
    for (Var &V : Row)
      V = S.newVar();
  for (int I = 0; I < N; ++I) {
    std::vector<Lit> C;
    for (int H = 0; H < N - 1; ++H)
      C.push_back(Lit(P[static_cast<size_t>(I)][static_cast<size_t>(H)],
                      false));
    S.addClause(C);
  }
  for (int H = 0; H < N - 1; ++H)
    for (int I = 0; I < N; ++I)
      for (int J = I + 1; J < N; ++J)
        S.addClause(
            Lit(P[static_cast<size_t>(I)][static_cast<size_t>(H)], true),
            Lit(P[static_cast<size_t>(J)][static_cast<size_t>(H)], true));
  EXPECT_EQ(S.solve(), SatResult::Unsat);
  EXPECT_GE(S.stats().ReduceDBs, 1u) << "expected at least one reduction";
  EXPECT_GT(S.stats().LearntDeleted, 0u);
  EXPECT_GT(S.stats().avgLBD(), 0.0);
}

//===----------------------------------------------------------------------===//
// IncrementalSolver facade vs one-shot checkSat
//===----------------------------------------------------------------------===//

class IncrementalFacadeTest : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalFacadeTest, AgreesWithOneShot) {
  Rng R(static_cast<uint64_t>(GetParam()) * 2654435761u + 3);
  TermTable T;
  TermId X = T.mkVar("x");
  TermId Y = T.mkVar("y");
  // Shared domain, as a verification task would assert.
  TermId Dom = T.mkAnd(T.mkUlt(X, T.mkConst(64)), T.mkUlt(Y, T.mkConst(64)));

  IncrementalSolver IS(T);
  IS.assertAlways(Dom);

  for (int Q = 0; Q < 6; ++Q) {
    uint32_t A = static_cast<uint32_t>(R.below(8));
    uint32_t B = static_cast<uint32_t>(R.below(128));
    TermId Sum = T.mkAdd(T.mkMul(X, T.mkConst(A)), Y);
    TermId Pred = R.chance(0.5) ? T.mkEq(Sum, T.mkConst(B))
                                : T.mkUlt(Sum, T.mkConst(B));
    if (R.chance(0.3))
      Pred = T.mkNot(Pred);

    SmtResult Incr = IS.check(Pred);
    SmtResult Shot = checkSat(T, T.mkAnd(Dom, Pred));
    ASSERT_FALSE(Incr.unknown());
    ASSERT_FALSE(Shot.unknown());
    EXPECT_EQ(Incr.R, Shot.R) << "query " << Q;
    if (Incr.sat()) {
      std::unordered_map<TermId, uint32_t> Env = Incr.Model;
      EXPECT_TRUE(T.evalBool(T.mkAnd(Dom, Pred), Env))
          << "incremental model does not satisfy query";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, IncrementalFacadeTest,
                         ::testing::Range(0, 20));

//===----------------------------------------------------------------------===//
// Stage-4 spatial splitting: incremental vs scratch (seed behaviour)
//===----------------------------------------------------------------------===//

namespace stage4 {

const char *ScalarAdd1 =
    "void f(int n, int *a, int *b) { for (int i = 0; i < n; i++) "
    "a[i] = b[i] + 1; }";
const char *VectorAdd1 = R"(
  void f(int n, int *a, int *b) {
    __m256i one = _mm256_set1_epi32(1);
    for (int i = 0; i < n; i += 8) {
      __m256i v = _mm256_loadu_si256((__m256i *)&b[i]);
      _mm256_storeu_si256((__m256i *)&a[i], _mm256_add_epi32(v, one));
    }
  })";
const char *VectorAdd2 = R"(
  void f(int n, int *a, int *b) {
    __m256i two = _mm256_set1_epi32(2);
    for (int i = 0; i < n; i += 8) {
      __m256i v = _mm256_loadu_si256((__m256i *)&b[i]);
      _mm256_storeu_si256((__m256i *)&a[i], _mm256_add_epi32(v, two));
    }
  })";

/// a[i] = b[i] * 5 against a shift-add rewrite: equivalent, but the
/// refinement query needs real SAT work (nsw poison on the source side).
const char *ScalarMul5 =
    "void f(int n, int *a, int *b) { for (int i = 0; i < n; i++) "
    "a[i] = b[i] * 5; }";
const char *VectorMul5 = R"(
  void f(int n, int *a, int *b) {
    for (int i = 0; i < n; i += 8) {
      __m256i v = _mm256_loadu_si256((__m256i *)&b[i]);
      __m256i x4 = _mm256_slli_epi32(v, 2);
      _mm256_storeu_si256((__m256i *)&a[i], _mm256_add_epi32(x4, v));
    }
  })";

/// Funnel config that forces the decision onto stage 4. \p Scratch routes
/// every cell through one-shot tv::checkRefinement (a scratch solver per
/// cell) instead of the shared session — the reference the session's
/// verdicts must reproduce.
core::EquivConfig splittingOnly(bool Scratch) {
  core::EquivConfig Cfg;
  Cfg.EnableAlive2 = false;
  Cfg.EnableCUnroll = false;
  Cfg.EnableSplitting = true;
  if (Scratch)
    Cfg.SplitCellOverride = tv::checkRefinement;
  return Cfg;
}

} // namespace stage4

TEST(SpatialSplittingRegression, EquivalentPairIdenticalVerdicts) {
  core::EquivResult Inc = core::checkEquivalence(
      stage4::ScalarAdd1, stage4::VectorAdd1, stage4::splittingOnly(false));
  core::EquivResult Scr = core::checkEquivalence(
      stage4::ScalarAdd1, stage4::VectorAdd1, stage4::splittingOnly(true));

  EXPECT_EQ(Inc.Final, core::EquivResult::Equivalent) << Inc.Detail;
  EXPECT_EQ(Inc.Final, Scr.Final);
  EXPECT_EQ(Inc.DecidedBy, core::Stage::Splitting);
  EXPECT_EQ(Inc.DecidedBy, Scr.DecidedBy);
  ASSERT_EQ(Inc.SplitRes.size(), Scr.SplitRes.size());
  for (size_t I = 0; I < Inc.SplitRes.size(); ++I)
    EXPECT_EQ(Inc.SplitRes[I].V, Scr.SplitRes[I].V) << "cell " << I;
}

TEST(SpatialSplittingRegression, InequivalentPairIdenticalVerdicts) {
  // Disable checksum runs so the broken candidate reaches the formal
  // stages (the paper relies on testing to catch this; here we want the
  // splitting stage itself to refute it).
  core::EquivConfig Inc4 = stage4::splittingOnly(false);
  Inc4.Checksum.NValues.clear();
  core::EquivConfig Scr4 = stage4::splittingOnly(true);
  Scr4.Checksum.NValues.clear();

  core::EquivResult Inc = core::checkEquivalence(stage4::ScalarAdd1,
                                                 stage4::VectorAdd2, Inc4);
  core::EquivResult Scr = core::checkEquivalence(stage4::ScalarAdd1,
                                                 stage4::VectorAdd2, Scr4);

  EXPECT_EQ(Inc.Final, core::EquivResult::Inequivalent) << Inc.Detail;
  EXPECT_EQ(Inc.Final, Scr.Final);
  EXPECT_EQ(Inc.DecidedBy, core::Stage::Splitting);
  EXPECT_EQ(Inc.DecidedBy, Scr.DecidedBy);
  ASSERT_EQ(Inc.SplitRes.size(), Scr.SplitRes.size());
  for (size_t I = 0; I < Inc.SplitRes.size(); ++I)
    EXPECT_EQ(Inc.SplitRes[I].V, Scr.SplitRes[I].V) << "cell " << I;
  EXPECT_FALSE(Inc.Counterexample.empty());
}

TEST(SpatialSplittingRegression, StageThreeQueryMatchesOneShot) {
  // Stage 3 asks the shared session one checkFull query, and that query
  // is exactly one solve: its TVResult must equal one-shot
  // tv::checkRefinement over the same straight-lined pair and options.
  // The stage-4 override receives those functions and the session's
  // options (cell filter and budget aside), so it computes the reference;
  // a small c-unroll budget leaves stage 3 inconclusive so stage 4 runs.
  const uint64_t CUnrollBudget = 20;
  core::EquivConfig Cfg;
  Cfg.EnableAlive2 = false;
  Cfg.CUnrollBudget = CUnrollBudget;
  bool HaveRef = false;
  tv::TVResult Ref;
  Cfg.SplitCellOverride = [&](const vir::VFunction &S,
                              const vir::VFunction &V,
                              const tv::RefineOptions &RO) {
    if (!HaveRef) {
      tv::RefineOptions Full = RO;
      Full.CellFilter = -1;
      Full.Budget.MaxConflicts = CUnrollBudget;
      Ref = tv::checkRefinement(S, V, Full);
      HaveRef = true;
    }
    return tv::checkRefinement(S, V, RO);
  };
  core::EquivResult Inc = core::checkEquivalence(stage4::ScalarMul5,
                                                 stage4::VectorMul5, Cfg);
  ASSERT_TRUE(HaveRef) << "stage 3 decided, so stage 4 never ran";
  const tv::TVResult &S3 = Inc.CUnrollRes;
  EXPECT_EQ(S3.V, tv::TVVerdict::Inconclusive) << S3.Detail;
  EXPECT_GT(S3.Conflicts, 0u);
  EXPECT_EQ(S3.V, Ref.V);
  EXPECT_EQ(S3.Detail, Ref.Detail);
  EXPECT_EQ(S3.Conflicts, Ref.Conflicts);
  EXPECT_EQ(S3.Propagations, Ref.Propagations);
  EXPECT_EQ(S3.Clauses, Ref.Clauses);
}

TEST(SpatialSplittingRegression, IncrementalSharesOneEncoding) {
  // With a shared session the per-cell clause counts must be cumulative
  // over one encoding, not cells-many re-blasts: the *first* cell carries
  // nearly all blasting work and later cells add only their compare terms.
  core::EquivResult Inc = core::checkEquivalence(
      stage4::ScalarAdd1, stage4::VectorAdd1, stage4::splittingOnly(false));
  ASSERT_GE(Inc.SplitRes.size(), 2u);
  uint64_t First = Inc.SplitRes.front().Clauses;
  uint64_t Last = Inc.SplitRes.back().Clauses;
  ASSERT_GT(First, 0u);
  // Cumulative growth across all later cells stays small relative to the
  // shared encoding.
  EXPECT_LT(Last - First, First / 2)
      << "per-cell queries appear to re-blast the shared encoding";
}

} // namespace
