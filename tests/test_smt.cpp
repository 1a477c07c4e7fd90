//===- tests/test_smt.cpp - SMT substrate tests -----------------------------===//
//
// Unit and property tests for the term rewriter, the CDCL SAT core, and the
// bit-blaster. The property suites cross-validate: (1) random term DAGs are
// solved and any model is re-evaluated against the term semantics; (2) UNSAT
// answers on small-domain queries are checked by exhaustive enumeration.
// The CNF-identity tests pin the gate memo and a golden stage-2 encoding,
// so a change to how clauses are emitted cannot move the CNF unnoticed.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "smt/Blast.h"
#include "smt/Sat.h"
#include "smt/Solve.h"
#include "smt/Term.h"
#include "support/Rng.h"
#include "tv/Refine.h"
#include "tv/SymExec.h"
#include "vir/Compile.h"

#include <gtest/gtest.h>

#include <memory>

using namespace lv;
using namespace lv::smt;

namespace {

//===----------------------------------------------------------------------===//
// Term rewriter
//===----------------------------------------------------------------------===//

TEST(Term, ConstantFolding) {
  TermTable T;
  EXPECT_EQ(T.mkAdd(T.mkConst(2), T.mkConst(3)), T.mkConst(5));
  EXPECT_EQ(T.mkMul(T.mkConst(6), T.mkConst(7)), T.mkConst(42));
  EXPECT_EQ(T.mkSub(T.mkConst(2), T.mkConst(3)), T.mkConst(0xffffffffu));
  EXPECT_TRUE(T.isTrue(T.mkSlt(T.mkConstS(-1), T.mkConst(0))));
  EXPECT_TRUE(T.isFalse(T.mkUlt(T.mkConstS(-1), T.mkConst(0))));
}

TEST(Term, IdentityRules) {
  TermTable T;
  TermId X = T.mkVar("x");
  EXPECT_EQ(T.mkAdd(X, T.mkConst(0)), X);
  EXPECT_EQ(T.mkMul(X, T.mkConst(1)), X);
  EXPECT_EQ(T.mkMul(X, T.mkConst(0)), T.mkConst(0));
  EXPECT_EQ(T.mkSub(X, X), T.mkConst(0));
  EXPECT_EQ(T.mkBvXor(X, X), T.mkConst(0));
  EXPECT_EQ(T.mkBvAnd(X, T.mkConst(0xffffffffu)), X);
  EXPECT_TRUE(T.isTrue(T.mkEq(X, X)));
}

TEST(Term, RewriteMemoReplaysIdenticalIds) {
  // The rewrite memo ((kind, operands) -> constructor result) must replay
  // without re-running the simplification chain or interning anything new.
  TermTable T;
  TermId X = T.mkVar("x"), Y = T.mkVar("y");
  auto build = [&] {
    TermId A = T.mkAdd(T.mkMul(X, Y), T.mkConst(4));
    TermId B = T.mkIte(T.mkSlt(X, Y), A, T.mkSub(A, X));
    return T.mkEq(B, T.mkAdd(X, T.mkConst(1)));
  };
  TermId First = build();
  uint64_t MissesAfterFirst = T.rewriteMemoMisses();
  size_t TermsAfterFirst = T.size();
  TermId Second = build();
  EXPECT_EQ(First, Second);
  EXPECT_EQ(T.size(), TermsAfterFirst);
  EXPECT_EQ(T.rewriteMemoMisses(), MissesAfterFirst); // pure replay
  EXPECT_GT(T.rewriteMemoHits(), 0u);
}

TEST(Term, RewriteMemoSurvivesGrowth) {
  // Push well past the initial memo capacity (4096) so the open-addressing
  // table rehashes, then verify every application still replays.
  TermTable T;
  TermId X = T.mkVar("x");
  std::vector<TermId> Sums;
  for (int I = 0; I < 10000; ++I)
    Sums.push_back(T.mkAdd(X, T.mkConst(static_cast<uint32_t>(I))));
  uint64_t Hits = T.rewriteMemoHits();
  for (int I = 0; I < 10000; ++I)
    ASSERT_EQ(T.mkAdd(X, T.mkConst(static_cast<uint32_t>(I))),
              Sums[static_cast<size_t>(I)]);
  EXPECT_GE(T.rewriteMemoHits(), Hits + 10000);
}

TEST(Term, HashConsing) {
  TermTable T;
  TermId X = T.mkVar("x");
  TermId Y = T.mkVar("y");
  EXPECT_EQ(T.mkAdd(X, Y), T.mkAdd(Y, X)) << "commutative normalization";
  EXPECT_EQ(T.mkAdd(T.mkAdd(X, T.mkConst(1)), T.mkConst(2)),
            T.mkAdd(X, T.mkConst(3)))
      << "constant chains flatten";
}

TEST(Term, SubNormalizesToAddConst) {
  TermTable T;
  TermId X = T.mkVar("x");
  // x - 3 == x + (-3): index normalization for memory resolution.
  EXPECT_EQ(T.mkSub(X, T.mkConst(3)),
            T.mkAdd(X, T.mkConst(static_cast<uint32_t>(-3))));
}

TEST(Term, BoolRules) {
  TermTable T;
  TermId A = T.mkBVar("a");
  EXPECT_TRUE(T.isFalse(T.mkAnd(A, T.mkNot(A))));
  EXPECT_TRUE(T.isTrue(T.mkOr(A, T.mkNot(A))));
  EXPECT_EQ(T.mkNot(T.mkNot(A)), A);
  EXPECT_EQ(T.mkAnd(A, T.mkTrue()), A);
  EXPECT_EQ(T.mkBIte(A, T.mkTrue(), T.mkFalse()), A);
}

TEST(Term, SRemPowerOfTwoRewrite) {
  TermTable T;
  TermId X = T.mkVar("x");
  TermId R = T.mkSRem(X, T.mkConst(8));
  // Must not remain an SRem node (rewritten to sign-aware masking).
  EXPECT_NE(T.get(R).K, TK::SRem);
  // Semantics check across signs.
  std::unordered_map<TermId, uint32_t> Env;
  for (int32_t V : {13, -13, 8, -8, 0, 7, -7, 1000001, -999999}) {
    Env[X] = static_cast<uint32_t>(V);
    EXPECT_EQ(static_cast<int32_t>(T.evalBv(R, Env)), V % 8) << V;
  }
}

TEST(Term, EvalMatchesConstFold) {
  TermTable T;
  std::unordered_map<TermId, uint32_t> Env;
  TermId E = T.mkMul(T.mkAdd(T.mkConst(3), T.mkConst(4)), T.mkConst(5));
  EXPECT_EQ(T.evalBv(E, Env), 35u);
}

//===----------------------------------------------------------------------===//
// Mask idioms: ite lifting (smt/README.md "Mask idioms")
//===----------------------------------------------------------------------===//
//
// Each rule is checked by brute force: the lifted term, evaluated by
// TermTable::evalBv, must equal the unlifted operation computed directly on
// the operand values, over edge values and seeded random inputs. Each case
// also checks that the rule fired (the result is an ite), so a rule that
// silently stops matching fails here instead of passing vacuously.

const TK LiftKinds[] = {TK::Add,   TK::Sub,  TK::Mul,
                        TK::BvAnd, TK::BvOr, TK::BvXor};

TermId mkOp(TermTable &T, TK K, TermId X, TermId Y) {
  switch (K) {
  case TK::Add: return T.mkAdd(X, Y);
  case TK::Sub: return T.mkSub(X, Y);
  case TK::Mul: return T.mkMul(X, Y);
  case TK::BvAnd: return T.mkBvAnd(X, Y);
  case TK::BvOr: return T.mkBvOr(X, Y);
  default: return T.mkBvXor(X, Y);
  }
}

uint32_t applyOp(TK K, uint32_t X, uint32_t Y) {
  switch (K) {
  case TK::Add: return X + Y;
  case TK::Sub: return X - Y;
  case TK::Mul: return X * Y;
  case TK::BvAnd: return X & Y;
  case TK::BvOr: return X | Y;
  default: return X ^ Y;
  }
}

/// Edge values (0, ±1, INT_MIN, INT_MAX; -1 is the all-ones mask) followed
/// by seeded random values: 16 values per call.
std::vector<uint32_t> liftValues(Rng &R) {
  std::vector<uint32_t> V = {0u, 1u, 0xffffffffu, 0x80000000u, 0x7fffffffu};
  while (V.size() < 16)
    V.push_back(static_cast<uint32_t>(R.next()));
  return V;
}

TEST(IteLift, ConstantArmedIteFoldsThroughOp) {
  // op(ite(c,k1,k2), k3) == ite(c, k1 op k3, k2 op k3), and the mirror.
  Rng R(0x11f7);
  TermTable T;
  TermId C = T.mkBVar("c");
  std::vector<uint32_t> V = liftValues(R);
  for (TK K : LiftKinds)
    for (uint32_t K1 : V)
      for (uint32_t K2 : V) {
        if (K1 == K2)
          continue; // ite(c,k,k) is k: no ite to lift
        TermId I = T.mkIte(C, T.mkConst(K1), T.mkConst(K2));
        for (size_t J = 0; J < 6; ++J) {
          uint32_t K3 = V[(J * 5 + K1) % V.size()];
          TermId Left = mkOp(T, K, I, T.mkConst(K3));
          TermId Right = mkOp(T, K, T.mkConst(K3), I);
          for (TermId L : {Left, Right})
            EXPECT_TRUE(T.get(L).K == TK::Ite || T.isConst(L))
                << T.print(L);
          for (uint32_t CV : {0u, 1u}) {
            std::unordered_map<TermId, uint32_t> Env{{C, CV}};
            uint32_t Arm = CV ? K1 : K2;
            EXPECT_EQ(T.evalBv(Left, Env), applyOp(K, Arm, K3))
                << T.print(Left);
            EXPECT_EQ(T.evalBv(Right, Env), applyOp(K, K3, Arm))
                << T.print(Right);
          }
        }
      }
}

TEST(IteLift, SharedGuardFusesOneOp) {
  // op(ite(c,x,a), ite(c,y,b)) == ite(c, x op y, a op b) with a, b
  // constant (the masked-multiply shape), or with x, y constant.
  Rng R(0x5a4e);
  TermTable T;
  TermId C = T.mkBVar("c");
  TermId X = T.mkVar("x"), Y = T.mkVar("y");
  std::vector<uint32_t> V = liftValues(R);
  for (TK K : LiftKinds)
    for (uint32_t KA : V)
      for (uint32_t KB : {0u, 0xffffffffu, KA ^ 0x5555u}) {
        TermId CA = T.mkConst(KA), CB = T.mkConst(KB);
        TermId ElseConst = mkOp(T, K, T.mkIte(C, X, CA), T.mkIte(C, Y, CB));
        TermId ThenConst = mkOp(T, K, T.mkIte(C, CA, X), T.mkIte(C, CB, Y));
        ASSERT_EQ(T.get(ElseConst).K, TK::Ite) << T.print(ElseConst);
        ASSERT_EQ(T.get(ThenConst).K, TK::Ite) << T.print(ThenConst);
        for (size_t J = 0; J < V.size(); ++J) {
          uint32_t XV = V[J], YV = V[(J * 7 + 3) % V.size()];
          for (uint32_t CV : {0u, 1u}) {
            std::unordered_map<TermId, uint32_t> Env{
                {C, CV}, {X, XV}, {Y, YV}};
            EXPECT_EQ(T.evalBv(ElseConst, Env),
                      applyOp(K, CV ? XV : KA, CV ? YV : KB))
                << T.print(ElseConst);
            EXPECT_EQ(T.evalBv(ThenConst, Env),
                      applyOp(K, CV ? KA : XV, CV ? KB : YV))
                << T.print(ThenConst);
          }
        }
      }
}

TEST(IteLift, IdentityArmAddLifts) {
  // x + ite(c,y,0) == ite(c, x + y, x), in all four operand orders.
  Rng R(0xadd);
  TermTable T;
  TermId C = T.mkBVar("c");
  TermId X = T.mkVar("x"), Y = T.mkVar("y");
  TermId Zero = T.mkConst(0);
  TermId ThenY = T.mkIte(C, Y, Zero), ElseY = T.mkIte(C, Zero, Y);
  const TermId Lifted[] = {T.mkAdd(X, ThenY), T.mkAdd(ThenY, X),
                           T.mkAdd(X, ElseY), T.mkAdd(ElseY, X)};
  for (TermId L : Lifted)
    ASSERT_EQ(T.get(L).K, TK::Ite) << T.print(L);
  std::vector<uint32_t> V = liftValues(R);
  for (uint32_t XV : V)
    for (uint32_t YV : V)
      for (uint32_t CV : {0u, 1u}) {
        std::unordered_map<TermId, uint32_t> Env{{C, CV}, {X, XV}, {Y, YV}};
        uint32_t Then = XV + (CV ? YV : 0u), Else = XV + (CV ? 0u : YV);
        EXPECT_EQ(T.evalBv(Lifted[0], Env), Then);
        EXPECT_EQ(T.evalBv(Lifted[1], Env), Then);
        EXPECT_EQ(T.evalBv(Lifted[2], Env), Else);
        EXPECT_EQ(T.evalBv(Lifted[3], Env), Else);
      }
}

TEST(IteLift, LiftsOnlyWhereNoTermIsDuplicated) {
  TermTable T;
  TermId C = T.mkBVar("c"), D = T.mkBVar("d");
  TermId X = T.mkVar("x"), Y = T.mkVar("y"), A = T.mkVar("a"),
         B = T.mkVar("b");
  TermId Mask = T.mkIte(C, T.mkConst(0xffffffffu), T.mkConst(0));
  // Shifts are left alone (smt/README.md: the s273 measurement).
  EXPECT_EQ(T.get(T.mkLShr(Mask, T.mkConst(31))).K, TK::LShr);
  // A shared guard with no constant arm pair would copy the op.
  EXPECT_EQ(T.get(T.mkMul(T.mkIte(C, X, A), T.mkIte(C, Y, B))).K, TK::Mul);
  // Different guards are not fused.
  TermId Zero = T.mkConst(0);
  EXPECT_EQ(T.get(T.mkMul(T.mkIte(C, X, Zero), T.mkIte(D, Y, Zero))).K,
            TK::Mul);
  // The identity-arm lift needs a non-ite base: two guarded addends stay.
  EXPECT_EQ(T.get(T.mkAdd(T.mkIte(C, X, Zero), T.mkIte(D, Y, Zero))).K,
            TK::Add);
  // A non-constant arm against a constant folds nothing (Add would take
  // the identity-arm lift).
  EXPECT_EQ(T.get(T.mkMul(T.mkIte(C, X, Zero), T.mkConst(5))).K, TK::Mul);
}

//===----------------------------------------------------------------------===//
// SAT core
//===----------------------------------------------------------------------===//

TEST(Sat, TrivialSat) {
  SatSolver S;
  Var A = S.newVar();
  Var B = S.newVar();
  S.addClause(Lit(A, false), Lit(B, false));
  S.addClause(Lit(A, true));
  EXPECT_EQ(S.solve(), SatResult::Sat);
  EXPECT_FALSE(S.modelValue(A));
  EXPECT_TRUE(S.modelValue(B));
}

TEST(Sat, TrivialUnsat) {
  SatSolver S;
  Var A = S.newVar();
  S.addClause(Lit(A, false));
  S.addClause(Lit(A, true));
  EXPECT_EQ(S.solve(), SatResult::Unsat);
}

TEST(Sat, PigeonHole3Into2IsUnsat) {
  // PHP(3,2): 3 pigeons, 2 holes.
  SatSolver S;
  Var P[3][2];
  for (auto &Row : P)
    for (Var &V : Row)
      V = S.newVar();
  for (int I = 0; I < 3; ++I)
    S.addClause(Lit(P[I][0], false), Lit(P[I][1], false));
  for (int H = 0; H < 2; ++H)
    for (int I = 0; I < 3; ++I)
      for (int J = I + 1; J < 3; ++J)
        S.addClause(Lit(P[I][H], true), Lit(P[J][H], true));
  EXPECT_EQ(S.solve(), SatResult::Unsat);
}

TEST(Sat, BudgetProducesUnknown) {
  // PHP(8,7) is exponentially hard for resolution; a tiny conflict budget
  // must give Unknown rather than hang.
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
  SatBudget B;
  B.MaxConflicts = 50;
  EXPECT_EQ(S.solve(B), SatResult::Unknown);
}

/// Random 3-SAT instances cross-checked against brute force (<= 12 vars).
class SatRandom3SatTest : public ::testing::TestWithParam<int> {};

TEST_P(SatRandom3SatTest, AgreesWithBruteForce) {
  Rng R(static_cast<uint64_t>(GetParam()) * 7919 + 17);
  int NumVars = 4 + static_cast<int>(R.below(9)); // 4..12
  int NumClauses = static_cast<int>(R.below(50)) + 5;
  std::vector<std::vector<int>> Clauses; // +v / -v encoding, 1-based
  for (int C = 0; C < NumClauses; ++C) {
    std::vector<int> Cl;
    for (int K = 0; K < 3; ++K) {
      int V = 1 + static_cast<int>(R.below(static_cast<uint64_t>(NumVars)));
      Cl.push_back(R.chance(0.5) ? V : -V);
    }
    Clauses.push_back(Cl);
  }
  // Brute force.
  bool BruteSat = false;
  for (uint32_t M = 0; M < (1u << NumVars) && !BruteSat; ++M) {
    bool All = true;
    for (const auto &Cl : Clauses) {
      bool Any = false;
      for (int L : Cl) {
        int V = std::abs(L) - 1;
        bool Val = (M >> V) & 1;
        if ((L > 0) == Val) {
          Any = true;
          break;
        }
      }
      if (!Any) {
        All = false;
        break;
      }
    }
    BruteSat = All;
  }
  // Solver.
  SatSolver S;
  std::vector<Var> Vars;
  for (int I = 0; I < NumVars; ++I)
    Vars.push_back(S.newVar());
  bool Ok = true;
  for (const auto &Cl : Clauses) {
    std::vector<Lit> Ls;
    for (int L : Cl)
      Ls.push_back(Lit(Vars[static_cast<size_t>(std::abs(L) - 1)], L < 0));
    Ok = S.addClause(Ls) && Ok;
  }
  SatResult Res = Ok ? S.solve() : SatResult::Unsat;
  ASSERT_NE(Res, SatResult::Unknown);
  EXPECT_EQ(Res == SatResult::Sat, BruteSat);
  if (Res == SatResult::Sat) {
    // Verify the model satisfies every clause.
    for (const auto &Cl : Clauses) {
      bool Any = false;
      for (int L : Cl) {
        bool Val = S.modelValue(Vars[static_cast<size_t>(std::abs(L) - 1)]);
        if ((L > 0) == Val)
          Any = true;
      }
      EXPECT_TRUE(Any) << "model violates a clause";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, SatRandom3SatTest, ::testing::Range(0, 40));

//===----------------------------------------------------------------------===//
// Bit-blaster end-to-end through checkSat
//===----------------------------------------------------------------------===//

TEST(Smt, SimpleArithmeticSat) {
  TermTable T;
  TermId X = T.mkVar("x");
  // x + 1 == 10 is satisfiable with x = 9.
  SmtResult R = checkSat(T, T.mkEq(T.mkAdd(X, T.mkConst(1)), T.mkConst(10)));
  ASSERT_TRUE(R.sat());
  EXPECT_EQ(R.Model.at(X), 9u);
}

TEST(Smt, UnsatArithmetic) {
  TermTable T;
  TermId X = T.mkVar("x");
  // x < 5 && x > 7 (signed) is unsat.
  TermId Q = T.mkAnd(T.mkSlt(X, T.mkConst(5)), T.mkSgt(X, T.mkConst(7)));
  EXPECT_TRUE(checkSat(T, Q).unsat());
}

TEST(Smt, MulCommutesUnsat) {
  TermTable T;
  TermId X = T.mkVar("x");
  TermId Y = T.mkVar("y");
  // x*y != y*x is unsat — rewriter handles it without the SAT core.
  TermId Q = T.mkNe(T.mkMul(X, Y), T.mkMul(Y, X));
  SmtResult R = checkSat(T, Q);
  EXPECT_TRUE(R.unsat());
  EXPECT_EQ(R.ConflictsUsed, 0u) << "should simplify away syntactically";
}

TEST(Smt, MulDistributesOverAddSmallDomain) {
  TermTable T;
  TermId X = T.mkVar("x");
  TermId Y = T.mkVar("y");
  TermId Z = T.mkVar("z");
  // x*(y+z) != x*y + x*z is unsat. Over full 32-bit inputs this is a hard
  // multiplier-equivalence instance (see MulEquivalenceTimesOut below); with
  // the operands constrained to 4 bits unit propagation collapses the
  // partial products and the proof takes a few thousand conflicts.
  TermId Dom = T.mkAnd(
      T.mkAnd(T.mkUlt(X, T.mkConst(16)), T.mkUlt(Y, T.mkConst(16))),
      T.mkUlt(Z, T.mkConst(16)));
  TermId L = T.mkMul(X, T.mkAdd(Y, Z));
  TermId R0 = T.mkAdd(T.mkMul(X, Y), T.mkMul(X, Z));
  SmtResult R = checkSat(T, T.mkAnd(Dom, T.mkNe(L, R0)));
  EXPECT_TRUE(R.unsat());
}

TEST(Smt, MulEquivalenceTimesOut) {
  // The unconstrained distributivity query is exponentially hard for
  // resolution-based SAT — the same effect that makes Alive2 time out on
  // multiplication-heavy unrollings (paper §3.1). A small budget must
  // return Unknown promptly rather than hang.
  TermTable T;
  TermId X = T.mkVar("x");
  TermId Y = T.mkVar("y");
  TermId Z = T.mkVar("z");
  TermId L = T.mkMul(X, T.mkAdd(Y, Z));
  TermId R0 = T.mkAdd(T.mkMul(X, Y), T.mkMul(X, Z));
  SatBudget B;
  B.MaxConflicts = 2'000;
  SmtResult R = checkSat(T, T.mkNe(L, R0), B);
  EXPECT_TRUE(R.unknown());
  // The multiplier refinement rounds share one budget.
  EXPECT_LE(R.ConflictsUsed, B.MaxConflicts);
}

TEST(Smt, AddOverflowPredicateCounterexample) {
  TermTable T;
  TermId X = T.mkVar("x");
  // AddOvf(x, 1) is satisfiable only by x = INT32_MAX.
  SmtResult R = checkSat(T, T.mkAddOvf(X, T.mkConst(1)));
  ASSERT_TRUE(R.sat());
  EXPECT_EQ(R.Model.at(X), 0x7fffffffu);
}

TEST(Smt, SDivSemantics) {
  TermTable T;
  TermId X = T.mkVar("x");
  // x / -2 == 3 && x == -7: -7 / -2 == 3 (truncation toward zero).
  TermId Q = T.mkAnd(
      T.mkEq(T.mkSDiv(X, T.mkConstS(-2)), T.mkConst(3)),
      T.mkEq(X, T.mkConstS(-7)));
  EXPECT_TRUE(checkSat(T, Q).sat());
}

TEST(Smt, ShiftBySymbolicAmount) {
  TermTable T;
  TermId X = T.mkVar("x");
  TermId S = T.mkVar("s");
  // (1 << s) == 16 forces s&31 == 4.
  TermId Q = T.mkAnd(T.mkEq(T.mkShl(T.mkConst(1), S), T.mkConst(16)),
                     T.mkEq(X, X));
  SmtResult R = checkSat(T, Q);
  ASSERT_TRUE(R.sat());
  EXPECT_EQ(R.Model.at(S) & 31u, 4u);
}

/// Random term DAGs: if Sat, the model must evaluate the query to true;
/// cross-validated with the term evaluator.
class SmtRandomTermTest : public ::testing::TestWithParam<int> {};

TEST_P(SmtRandomTermTest, ModelsEvaluateTrue) {
  Rng R(static_cast<uint64_t>(GetParam()) * 104729 + 1);
  TermTable T;
  std::vector<TermId> Vars = {T.mkVar("a"), T.mkVar("b"), T.mkVar("c")};
  std::vector<TermId> Pool = Vars;
  for (int I = 0; I < 4; ++I)
    Pool.push_back(T.mkConst(static_cast<uint32_t>(R.below(16)) - 6));
  // Grow random BV expressions.
  for (int I = 0; I < 12; ++I) {
    TermId A = Pool[R.below(Pool.size())];
    TermId B = Pool[R.below(Pool.size())];
    switch (R.below(6)) {
    case 0: Pool.push_back(T.mkAdd(A, B)); break;
    case 1: Pool.push_back(T.mkSub(A, B)); break;
    case 2: Pool.push_back(T.mkMul(A, B)); break;
    case 3: Pool.push_back(T.mkBvAnd(A, B)); break;
    case 4: Pool.push_back(T.mkBvXor(A, B)); break;
    case 5:
      Pool.push_back(T.mkIte(T.mkSlt(A, B), A, B));
      break;
    }
  }
  // Random boolean query over the pool.
  TermId Q = T.mkFalse();
  for (int I = 0; I < 3; ++I) {
    TermId A = Pool[R.below(Pool.size())];
    TermId B = Pool[R.below(Pool.size())];
    TermId Atom = R.chance(0.5) ? T.mkEq(A, B) : T.mkSlt(A, B);
    if (R.chance(0.3))
      Atom = T.mkNot(Atom);
    Q = R.chance(0.5) ? T.mkOr(Q, Atom) : T.mkAnd(T.mkOr(Q, Atom), Atom);
  }
  SmtResult Res = checkSat(T, Q);
  if (Res.unknown())
    GTEST_SKIP() << "budget exhausted on random instance";
  if (Res.sat() && !T.isTrue(Q)) {
    std::unordered_map<TermId, uint32_t> Env = Res.Model;
    EXPECT_TRUE(T.evalBool(Q, Env))
        << "model does not satisfy query: " << T.print(Q);
  }
  // Also: Q && !Q must always be unsat.
  EXPECT_TRUE(checkSat(T, T.mkAnd(Q, T.mkNot(Q))).unsat());
}

INSTANTIATE_TEST_SUITE_P(Random, SmtRandomTermTest, ::testing::Range(0, 30));

/// Exhaustive small-domain check: for queries over one 4-bit-constrained
/// variable, Unsat answers are verified by enumeration.
class SmtExhaustiveTest : public ::testing::TestWithParam<int> {};

TEST_P(SmtExhaustiveTest, UnsatMeansNoWitness) {
  Rng R(static_cast<uint64_t>(GetParam()) * 31337 + 5);
  TermTable T;
  TermId X = T.mkVar("x");
  // Constrain x to [0, 16).
  TermId Dom = T.mkUlt(X, T.mkConst(16));
  // Random predicate over x.
  TermId A = T.mkAdd(T.mkMul(X, T.mkConst(static_cast<uint32_t>(R.below(7)))),
                     T.mkConst(static_cast<uint32_t>(R.below(30))));
  TermId B = T.mkConst(static_cast<uint32_t>(R.below(90)));
  TermId Pred = R.chance(0.5) ? T.mkEq(A, B) : T.mkUlt(A, B);
  if (R.chance(0.4))
    Pred = T.mkNot(Pred);
  TermId Q = T.mkAnd(Dom, Pred);

  SmtResult Res = checkSat(T, Q);
  ASSERT_FALSE(Res.unknown());
  bool Witness = false;
  std::unordered_map<TermId, uint32_t> Env;
  for (uint32_t V = 0; V < 16; ++V) {
    Env[X] = V;
    if (T.evalBool(Q, Env)) {
      Witness = true;
      break;
    }
  }
  EXPECT_EQ(Res.sat(), Witness);
}

INSTANTIATE_TEST_SUITE_P(Random, SmtExhaustiveTest, ::testing::Range(0, 50));

//===----------------------------------------------------------------------===//
// Multiplier abstraction
//===----------------------------------------------------------------------===//

static bool builtinMulOvf(int32_t A, int32_t B) {
  int32_t P;
  return __builtin_mul_overflow(A, B, &P);
}

TEST(MulAbstraction, ExactMulOvfMatchesBuiltin) {
  // Each query pins the operands and asks for the wrong answer, so Unsat
  // says the exact circuits compute __builtin_mul_overflow and the 32-bit
  // product. A solver serves 64 pairs: its first queries refine the MulOvf
  // and Mul instances and the rest run on their exact circuits (a longer
  // run would re-propagate every earlier pin on each query).
  TermTable T;
  TermId X = T.mkVar("x"), Y = T.mkVar("y");
  TermId Ovf = T.mkMulOvf(X, Y);
  TermId Prod = T.mkMul(X, Y);
  std::unique_ptr<IncrementalSolver> IS;
  int Pairs = 0;
  auto expectExact = [&](int32_t A, int32_t B) {
    if (Pairs++ % 64 == 0)
      IS.reset(new IncrementalSolver(T));
    TermId Pin = T.mkAnd(T.mkEq(X, T.mkConstS(A)), T.mkEq(Y, T.mkConstS(B)));
    TermId WrongOvf = builtinMulOvf(A, B) ? T.mkNot(Ovf) : Ovf;
    uint32_t P = static_cast<uint32_t>(A) * static_cast<uint32_t>(B);
    TermId WrongProd = T.mkNe(Prod, T.mkConst(P));
    EXPECT_TRUE(IS->check(T.mkAnd(Pin, WrongOvf)).unsat()) << A << " * " << B;
    EXPECT_TRUE(IS->check(T.mkAnd(Pin, WrongProd)).unsat()) << A << " * " << B;
  };
  const int32_t Edges[] = {
      0,       1,          -1,      INT32_MIN,  INT32_MAX, 46340, -46340,
      46341,   -46341,     1 << 15, -(1 << 15), 1 << 16,   -(1 << 16)};
  for (int32_t A : Edges)
    for (int32_t B : Edges)
      expectExact(A, B);
  Rng R(0x5eed);
  for (int I = 0; I < 2000; ++I) {
    // Half the pairs near the overflow boundary, half anywhere.
    int32_t A = static_cast<int32_t>(R.next());
    int32_t B = static_cast<int32_t>(R.next());
    if (I % 2) {
      A = static_cast<int32_t>(R.below(1 << 17)) - (1 << 16);
      B = static_cast<int32_t>(R.below(1 << 17)) - (1 << 16);
    }
    expectExact(A, B);
  }
}

/// Abstract solving against brute force: operand ranges that straddle the
/// signed overflow boundary, predicates over the product and the overflow
/// flag. Sat answers must carry a model that evaluates true, Unsat answers
/// must have no witness in the ranges.
class MulAbstractionRangeTest : public ::testing::TestWithParam<int> {};

TEST_P(MulAbstractionRangeTest, AgreesWithBruteForce) {
  Rng R(static_cast<uint64_t>(GetParam()) * 7919 + 11);
  TermTable T;
  TermId X = T.mkVar("x"), Y = T.mkVar("y");
  // 46341^2 > INT32_MAX > 46340^2; 2^16 * 2^15 == 2^31.
  const int32_t Centers[] = {46340, -46341, 1 << 16, -(1 << 15), 3};
  int32_t CX = Centers[R.below(5)], CY = Centers[R.below(5)];
  if (R.chance(0.5))
    CY = -CY;
  const int32_t Half = 6;
  auto inRange = [&](TermId V, int32_t C) {
    return T.mkAnd(T.mkSge(V, T.mkConstS(C - Half)),
                   T.mkSle(V, T.mkConstS(C + Half)));
  };
  TermId Dom = T.mkAnd(inRange(X, CX), inRange(Y, CY));
  int32_t K = static_cast<int32_t>(
      static_cast<uint32_t>(CX + static_cast<int32_t>(R.below(5)) - 2) *
      static_cast<uint32_t>(CY + static_cast<int32_t>(R.below(5)) - 2));
  TermId Pred;
  switch (R.below(4)) {
  case 0: Pred = T.mkMulOvf(X, Y); break;
  case 1: Pred = T.mkNot(T.mkMulOvf(X, Y)); break;
  case 2: Pred = T.mkEq(T.mkMul(X, Y), T.mkConstS(K)); break;
  default:
    Pred = T.mkAnd(T.mkMulOvf(X, Y), T.mkSlt(T.mkMul(X, Y), T.mkConstS(K)));
    break;
  }
  if (R.chance(0.3))
    Pred = T.mkAnd(Pred, T.mkSlt(X, T.mkConstS(CX)));
  TermId Q = T.mkAnd(Dom, Pred);

  SmtResult Res = checkSat(T, Q);
  ASSERT_FALSE(Res.unknown());
  bool Witness = false;
  std::unordered_map<TermId, uint32_t> Env;
  for (int32_t A = CX - Half; A <= CX + Half && !Witness; ++A)
    for (int32_t B = CY - Half; B <= CY + Half && !Witness; ++B) {
      Env[X] = static_cast<uint32_t>(A);
      Env[Y] = static_cast<uint32_t>(B);
      Witness = T.evalBool(Q, Env);
    }
  EXPECT_EQ(Res.sat(), Witness) << T.print(Q);
  if (Res.sat())
    EXPECT_TRUE(T.evalBool(Q, Res.Model)) << T.print(Q);
}

INSTANTIATE_TEST_SUITE_P(Random, MulAbstractionRangeTest,
                         ::testing::Range(0, 40));

TEST(MulAbstraction, SpuriousFirstModelIsRefinedToUnsat) {
  // With x*y abstract the first model can pick x = 2, y = 4 and a product
  // of 6; refinement blasts the exact multiplier and the query is Unsat.
  TermTable T;
  TermId X = T.mkVar("x"), Y = T.mkVar("y");
  TermId Q = T.mkAnd(T.mkEq(T.mkMul(X, Y), T.mkConst(6)),
                     T.mkAnd(T.mkEq(X, T.mkConst(2)), T.mkEq(Y, T.mkConst(4))));
  uint64_t Abstracted = obs::counterValue("smt.mul_abstracted");
  uint64_t Refined = obs::counterValue("smt.mul_refined");
  uint64_t Rounds = obs::counterValue("smt.refine_rounds");
  SmtResult R = checkSat(T, Q);
  EXPECT_TRUE(R.unsat());
  EXPECT_EQ(obs::counterValue("smt.mul_abstracted") - Abstracted, 1u);
  EXPECT_GT(obs::counterValue("smt.mul_refined") - Refined, 0u);
  EXPECT_GT(obs::counterValue("smt.refine_rounds") - Rounds, 0u);
}

//===----------------------------------------------------------------------===//
// CNF identity
//===----------------------------------------------------------------------===//

TEST(GateTable, AdversarialKeysRoundTripAcrossGrowth) {
  // Two families that cluster under slot = key & mask: keys sharing their
  // low 20 bits, and and-gate-shaped keys whose second operand (the low
  // field) runs sequentially, as fresh literals do.
  std::vector<uint64_t> Keys;
  for (uint64_t I = 1; I <= 3000; ++I)
    Keys.push_back((I << 20) | 0xABCDEu);
  for (uint64_t I = 0; I < 3000; ++I)
    Keys.push_back((1ULL << 60) | (7ULL << 30) | (2 * I + 2));
  auto valueOf = [](size_t I) {
    Lit L;
    L.X = static_cast<int>(I * 2 + 1);
    return L;
  };

  GateTable G;
  size_t Slots = G.capacity();
  int Grows = 0;
  for (size_t I = 0; I < Keys.size(); ++I) {
    bool Fresh = false;
    G.findOrInsert(Keys[I], Fresh) = valueOf(I);
    ASSERT_TRUE(Fresh) << "key " << I << " reported as already present";
    if (G.capacity() != Slots) {
      ++Grows;
      Slots = G.capacity();
    }
  }
  EXPECT_GE(Grows, 3);
  EXPECT_EQ(G.size(), Keys.size());
  for (size_t I = 0; I < Keys.size(); ++I) {
    bool Fresh = true;
    Lit Got = G.findOrInsert(Keys[I], Fresh);
    ASSERT_FALSE(Fresh) << "key " << I << " lost across growth";
    EXPECT_EQ(Got, valueOf(I)) << "key " << I;
  }
  EXPECT_EQ(G.size(), Keys.size()) << "lookups must not insert";
}

TEST(GateMemo, WideMuxOperandsNeverShareAGate) {
  // The mux key packs three 21-bit literal fields. Operand literals past
  // 2^21 would overflow into the neighbouring field: here E2's code is
  // E1's plus 2^21, and the then-operand is negated (odd), so a packed key
  // could not tell ite(s, ~t, e1) from ite(s, ~t, e2). The two muxes must
  // stay distinct gates.
  TermTable T;
  SatSolver S;
  BitBlaster B(T, S);
  TermId Sel = T.mkBVar("s"), Th = T.mkBVar("t");
  TermId E1 = T.mkBVar("e1"), E2 = T.mkBVar("e2");
  B.blastBool(Sel);
  B.blastBool(Th);
  Lit L1 = B.blastBool(E1);
  while (S.numVars() < L1.var() + (1 << 20))
    S.newVar();
  Lit L2 = B.blastBool(E2);
  ASSERT_EQ(L2.X - L1.X, 1 << 21);

  Lit M1 = B.blastBool(T.mkBIte(Sel, T.mkNot(Th), E1));
  Lit M2 = B.blastBool(T.mkBIte(Sel, T.mkNot(Th), E2));
  ASSERT_NE(M1, M2);
  // s = 0 and e1 != e2 separate them.
  S.addClause(M1, M2);
  S.addClause(~M1, ~M2);
  EXPECT_EQ(S.solve(), SatResult::Sat);
}

/// FNV-1a over the problem clauses in order: each clause's size, then its
/// literal codes, as little-endian 32-bit words.
uint64_t problemCnfHash(const SatSolver &S) {
  uint64_t H = 0xcbf29ce484222325ULL;
  auto Word = [&H](uint32_t W) {
    for (int B = 0; B < 4; ++B) {
      H ^= (W >> (8 * B)) & 0xFFu;
      H *= 0x100000001b3ULL;
    }
  };
  const std::vector<uint32_t> &Arena = S.arenaWords();
  for (uint32_t C : S.problemClauseRefs()) {
    uint32_t N = Arena[C] >> 2;
    Word(N);
    for (uint32_t I = 0; I < N; ++I)
      Word(Arena[C + 2 + I]);
  }
  return H;
}

vir::VFunctionPtr mustCompile(const char *Src) {
  vir::CompileResult R = vir::compileFunction(Src);
  if (!R.ok())
    throw std::runtime_error("compile failed: " + R.Error);
  return std::move(R.Fn);
}

TEST(CnfGolden, VpvStage2EncodingIsUnchanged) {
  // vpv against a fixed AVX2 candidate under the stage-2 options at the
  // benchmark's Base budgets (ScalarMax 8: unroll 8/1+2 and 8/8+2, memory
  // and compare windows 16, n % 8 == 0, 500 conflicts). The refinement
  // query is built exactly as tv::checkRefinement builds it, so the
  // checkRefinement statistics below must agree with this encoding.
  vir::VFunctionPtr Src = mustCompile(R"(
void vpv(int n, int *a, int *b) {
  for (int i = 0; i < n; i++) {
    a[i] = a[i] + b[i];
  }
})");
  vir::VFunctionPtr Tgt = mustCompile(R"(
void vpv(int n, int *a, int *b) {
  for (int i = 0; i < n; i += 8) {
    __m256i va = _mm256_loadu_si256((__m256i *)&a[i]);
    __m256i vb = _mm256_loadu_si256((__m256i *)&b[i]);
    _mm256_storeu_si256((__m256i *)&a[i], _mm256_add_epi32(va, vb));
  }
})");
  tv::RefineOptions RO;
  RO.ScalarMax = 8;
  RO.SrcExec = tv::ExecOptions{10, 16};
  RO.TgtExec = tv::ExecOptions{3, 16};
  RO.CompareWindow = 16;
  RO.Divs.push_back(tv::DivAssumption{"n", 0, 8});
  RO.Budget.MaxConflicts = 500;
  RO.MaxTerms = 120'000;

  TermTable T;
  tv::SharedInputs In(T);
  tv::SymState SS = tv::executeSymbolic(*Src, T, In, RO.SrcExec);
  tv::SymState ST = tv::executeSymbolic(*Tgt, T, In, RO.TgtExec);
  ASSERT_TRUE(SS.ok() && ST.ok()) << SS.Error << ST.Error;
  TermId A = T.mkAnd(SS.Assum, ST.Assum);
  for (const tv::SymMemory &M : SS.Mems)
    A = T.mkAnd(A, M.sizeDomain());
  for (const tv::SymMemory &M : ST.Mems)
    A = T.mkAnd(A, M.sizeDomain());
  for (const std::string &Name : In.scalarNames()) {
    TermId P = In.scalar(Name);
    A = T.mkAnd(A, T.mkAnd(T.mkSge(P, T.mkConst(0)),
                           T.mkSle(P, T.mkConstS(RO.ScalarMax))));
  }
  TermId N = T.mkAdd(In.scalar("n"), T.mkConstS(0));
  A = T.mkAnd(A, T.mkAnd(T.mkSge(N, T.mkConst(0)),
                         T.mkEq(T.mkSRem(N, T.mkConstS(8)), T.mkConst(0))));
  IncrementalSolver IS(T);
  IS.assertAlways(T.mkAnd(A, T.mkNot(SS.UB)));
  // Both regions are parameters in the same order on both sides.
  TermId Viol = ST.UB;
  ASSERT_EQ(SS.Mems.size(), ST.Mems.size());
  for (size_t M = 0; M < SS.Mems.size(); ++M) {
    int Hi = std::min(RO.CompareWindow, SS.Mems[M].capacity());
    for (int J = 0; J < Hi; ++J) {
      TermId Off = T.mkConst(static_cast<uint32_t>(J));
      tv::SymVal CS = SS.Mems[M].read(Off), CT = ST.Mems[M].read(Off);
      if (CS.Val == CT.Val && CS.Poison == CT.Poison)
        continue;
      Viol = T.mkOr(Viol, T.mkAnd(T.mkNot(CS.Poison),
                                  T.mkOr(CT.Poison, T.mkNe(CS.Val, CT.Val))));
    }
  }
  SmtResult R = IS.check(Viol, RO.Budget);
  const SatSolver &S = IS.solver();

  // Golden values, recorded before the gate memo was rehashed and clause
  // emission made allocation-free; the CNF must not move.
  const int GoldenVars = 25782;
  const size_t GoldenProblemClauses = 91006;
  const uint64_t GoldenCnfHash = 0x34614a1b68681febULL;
  const uint64_t GoldenConflicts = 500;
  const uint64_t GoldenPropagations = 507244;
  EXPECT_EQ(S.numVars(), GoldenVars);
  EXPECT_EQ(S.problemClauseRefs().size(), GoldenProblemClauses);
  EXPECT_EQ(problemCnfHash(S), GoldenCnfHash);
  EXPECT_EQ(R.ConflictsUsed, GoldenConflicts);
  EXPECT_EQ(R.PropagationsUsed, GoldenPropagations);

  tv::TVResult TV = tv::checkRefinement(*Src, *Tgt, RO);
  EXPECT_EQ(TV.SatVars, R.VarCount);
  EXPECT_EQ(TV.Clauses, R.ClauseCount);
  EXPECT_EQ(TV.Conflicts, R.ConflictsUsed);
  EXPECT_EQ(TV.Propagations, R.PropagationsUsed);
}

} // namespace
