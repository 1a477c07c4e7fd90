//===- tests/test_tv.cpp - translation validation tests ----------------------===//
//
// Bounded translation validation on the paper's own kernels: correct
// vectorizations must verify Equivalent, the s453 first-attempt induction
// bug and the s124 speculative-load UB must be refuted, and budget
// exhaustion must map to Inconclusive.
//
//===----------------------------------------------------------------------===//

#include "tv/Refine.h"
#include "vir/Compile.h"

#include <gtest/gtest.h>

using namespace lv;
using namespace lv::tv;
using namespace lv::vir;

namespace {

VFunctionPtr mustCompile(const std::string &Src) {
  CompileResult R = compileFunction(Src);
  if (!R.ok())
    throw std::runtime_error("compile failed: " + R.Error);
  return std::move(R.Fn);
}

RefineOptions withDiv(const std::string &Param, int32_t Offset,
                      int32_t Mod = 8) {
  RefineOptions O;
  O.Divs.push_back(DivAssumption{Param, Offset, Mod});
  return O;
}

TEST(TV, IdenticalFunctionsAreEquivalentSyntactically) {
  const char *Src =
      "void f(int n, int *a, int *b) { for (int i = 0; i < n; i++) "
      "a[i] = b[i] * 3 + 1; }";
  VFunctionPtr A = mustCompile(Src);
  VFunctionPtr B = mustCompile(Src);
  RefineOptions O;
  O.TgtExec = O.SrcExec; // same unroll bound => identical term DAGs
  TVResult R = checkRefinement(*A, *B, O);
  EXPECT_EQ(R.V, TVVerdict::Equivalent) << R.Detail;
  EXPECT_EQ(R.Conflicts, 0u) << "identical sides must fold syntactically";
}

TEST(TV, SimpleWidenEquivalent) {
  VFunctionPtr S = mustCompile(
      "void f(int n, int *a, int *b) { for (int i = 0; i < n; i++) "
      "a[i] = b[i] + 1; }");
  VFunctionPtr V = mustCompile(R"(
    void f(int n, int *a, int *b) {
      __m256i one = _mm256_set1_epi32(1);
      for (int i = 0; i < n; i += 8) {
        __m256i v = _mm256_loadu_si256((__m256i *)&b[i]);
        _mm256_storeu_si256((__m256i *)&a[i], _mm256_add_epi32(v, one));
      }
    })");
  TVResult R = checkRefinement(*S, *V, withDiv("n", 0));
  EXPECT_EQ(R.V, TVVerdict::Equivalent) << R.Detail << "\n"
                                        << R.Counterexample;
}

TEST(TV, WrongConstantRefuted) {
  VFunctionPtr S = mustCompile(
      "void f(int n, int *a, int *b) { for (int i = 0; i < n; i++) "
      "a[i] = b[i] + 1; }");
  VFunctionPtr V = mustCompile(R"(
    void f(int n, int *a, int *b) {
      __m256i one = _mm256_set1_epi32(2);
      for (int i = 0; i < n; i += 8) {
        __m256i v = _mm256_loadu_si256((__m256i *)&b[i]);
        _mm256_storeu_si256((__m256i *)&a[i], _mm256_add_epi32(v, one));
      }
    })");
  TVResult R = checkRefinement(*S, *V, withDiv("n", 0));
  EXPECT_EQ(R.V, TVVerdict::Inequivalent) << R.Detail;
  EXPECT_FALSE(R.Counterexample.empty());
  // The counterexample must exhibit n >= 8 (the bug needs one iteration).
  EXPECT_NE(R.Counterexample.find("n ="), std::string::npos);
}

TEST(TV, S453InductionBugRefutedAndFixVerified) {
  const char *Scalar = R"(
    void s453(int *a, int *b, int n) {
      int s = 0;
      for (int i = 0; i < n; i++) {
        s += 2;
        a[i] = s * b[i];
      }
    })";
  const char *Bad = R"(
    void s453(int *a, int *b, int n) {
      __m256i s_vec = _mm256_set1_epi32(0);
      __m256i two_vec = _mm256_set1_epi32(2);
      __m256i s_increment = _mm256_set1_epi32(16);
      int i = 0;
      for (; i <= n - 8; i += 8) {
        s_vec = _mm256_add_epi32(s_vec, two_vec);
        __m256i b_vec = _mm256_loadu_si256((__m256i*)&b[i]);
        __m256i a_vec = _mm256_mullo_epi32(s_vec, b_vec);
        _mm256_storeu_si256((__m256i*)&a[i], a_vec);
        s_vec = _mm256_add_epi32(s_vec, s_increment);
      }
    })";
  const char *Good = R"(
    void s453(int *a, int *b, int n) {
      __m256i s_vec = _mm256_setr_epi32(2, 4, 6, 8, 10, 12, 14, 16);
      __m256i two_vec = _mm256_set1_epi32(16);
      int i = 0;
      for (; i <= n - 8; i += 8) {
        __m256i b_vec = _mm256_loadu_si256((__m256i*)&b[i]);
        __m256i a_vec = _mm256_mullo_epi32(s_vec, b_vec);
        _mm256_storeu_si256((__m256i*)&a[i], a_vec);
        s_vec = _mm256_add_epi32(s_vec, two_vec);
      }
    })";
  VFunctionPtr S = mustCompile(Scalar);
  VFunctionPtr B = mustCompile(Bad);
  VFunctionPtr G = mustCompile(Good);
  TVResult RB = checkRefinement(*S, *B, withDiv("n", 0));
  EXPECT_EQ(RB.V, TVVerdict::Inequivalent) << RB.Detail;
  RefineOptions OG = withDiv("n", 0);
  OG.Budget.MaxConflicts = 400'000; // lane-ramp arithmetic needs real work
  TVResult RG = checkRefinement(*S, *G, OG);
  EXPECT_EQ(RG.V, TVVerdict::Equivalent)
      << RG.Detail << "\n" << RG.Counterexample;
}

TEST(TV, S124SpeculativeLoadRefuted) {
  // The paper's motivating example for symbolic verification (§3.1,
  // Fig. 4): checksum testing finds the blend-based candidate plausible,
  // but the unconditional load of c[] is UB on inputs where the source
  // never touches c. The counterexample needs alloc-size(c) smaller than
  // the vector footprint.
  const char *Scalar = R"(
    void s124(int *a, int *b, int *c, int *d, int *e, int n) {
      int j;
      j = -1;
      for (int i = 0; i < n; i++) {
        if (b[i] > 0) {
          j++;
          a[j] = b[i] + d[i] * e[i];
        } else {
          j++;
          a[j] = c[i] + d[i] * e[i];
        }
      }
    })";
  const char *Vec = R"(
    void s124(int *a, int *b, int *c, int *d, int *e, int n) {
      int j = 0;
      __m256i zero = _mm256_setzero_si256();
      for (int i = 0; i < n; i += 8) {
        __m256i vbi = _mm256_loadu_si256((__m256i *)&b[i]);
        __m256i vci = _mm256_loadu_si256((__m256i *)&c[i]);
        __m256i vdi = _mm256_loadu_si256((__m256i *)&d[i]);
        __m256i vei = _mm256_loadu_si256((__m256i *)&e[i]);
        __m256i vprod = _mm256_mullo_epi32(vdi, vei);
        __m256i vsum_b = _mm256_add_epi32(vbi, vprod);
        __m256i vsum_c = _mm256_add_epi32(vci, vprod);
        __m256i vmask = _mm256_cmpgt_epi32(vbi, zero);
        __m256i va = _mm256_blendv_epi8(vsum_c, vsum_b, vmask);
        _mm256_storeu_si256((__m256i *)&a[j], va);
        j += 8;
      }
    })";
  VFunctionPtr S = mustCompile(Scalar);
  VFunctionPtr V = mustCompile(Vec);
  TVResult R = checkRefinement(*S, *V, withDiv("n", 0));
  EXPECT_EQ(R.V, TVVerdict::Inequivalent) << R.Detail;
  EXPECT_NE(R.Counterexample.find("alloc-size(c)"), std::string::npos)
      << R.Counterexample;
}

TEST(TV, MaskedLoadVersionOfS124Verifies) {
  // The sound if-conversion uses maskload so only lanes whose branch is
  // taken touch c: this must verify.
  const char *Scalar = R"(
    void f(int *a, int *b, int *c, int n) {
      for (int i = 0; i < n; i++) {
        if (b[i] > 0)
          a[i] = b[i];
        else
          a[i] = c[i];
      }
    })";
  const char *Vec = R"(
    void f(int *a, int *b, int *c, int n) {
      __m256i zero = _mm256_setzero_si256();
      for (int i = 0; i < n; i += 8) {
        __m256i vb = _mm256_loadu_si256((__m256i *)&b[i]);
        __m256i vmask = _mm256_cmpgt_epi32(vb, zero);
        __m256i notmask = _mm256_cmpgt_epi32(zero, vb);
        __m256i le0 = _mm256_or_si256(notmask, _mm256_cmpeq_epi32(vb, zero));
        __m256i vc = _mm256_maskload_epi32(&c[i], le0);
        __m256i va = _mm256_blendv_epi8(vc, vb, vmask);
        _mm256_storeu_si256((__m256i *)&a[i], va);
      }
    })";
  VFunctionPtr S = mustCompile(Scalar);
  VFunctionPtr V = mustCompile(Vec);
  TVResult R = checkRefinement(*S, *V, withDiv("n", 0));
  EXPECT_EQ(R.V, TVVerdict::Equivalent)
      << R.Detail << "\n" << R.Counterexample;
}

TEST(TV, S212AtAlive2StageIsInconclusive) {
  // GPT-4's s212 (Fig. 1): loads a[i+1..i+8] before storing a[i..i+7].
  // With plain guarded unrolling (the checkWithAlive2Unroll stage) the
  // termination-check guard chains make the query too hard — faithfully
  // reproducing why the paper's Table 3 needs the C-level-unrolling stage
  // for kernels like this. The pipeline-level C-unroll test proves it
  // Equivalent (see test_pipeline.cpp); here we assert the honest outcome:
  // not refuted, and Inconclusive under a bounded budget.
  const char *Scalar = R"(
    void s212(int n, int *a, int *b, int *c, int *d) {
      for (int i = 0; i < n - 1; i++) {
        a[i] *= c[i];
        b[i] += a[i + 1] * d[i];
      }
    })";
  const char *Vec = R"(
    void s212(int n, int *a, int *b, int *c, int *d) {
      int i;
      for (i = 0; i < n - 1 - (n - 1) % 8; i += 8) {
        __m256i a_vec = _mm256_loadu_si256((__m256i *)&a[i]);
        __m256i b_vec = _mm256_loadu_si256((__m256i *)&b[i]);
        __m256i c_vec = _mm256_loadu_si256((__m256i *)&c[i]);
        __m256i a_next = _mm256_loadu_si256((__m256i *)&a[i + 1]);
        __m256i d_vec = _mm256_loadu_si256((__m256i *)&d[i]);
        __m256i prod = _mm256_mullo_epi32(a_vec, c_vec);
        _mm256_storeu_si256((__m256i *)&a[i], prod);
        prod = _mm256_mullo_epi32(a_next, d_vec);
        _mm256_storeu_si256((__m256i *)&b[i], _mm256_add_epi32(b_vec, prod));
      }
      for (; i < n - 1; i++) {
        a[i] *= c[i];
        b[i] += a[i + 1] * d[i];
      }
    })";
  VFunctionPtr S = mustCompile(Scalar);
  VFunctionPtr V = mustCompile(Vec);
  RefineOptions O = withDiv("n", -1);
  O.Budget.MaxConflicts = 5'000;
  TVResult R = checkRefinement(*S, *V, O);
  EXPECT_NE(R.V, TVVerdict::Inequivalent) << R.Counterexample;
  EXPECT_EQ(R.V, TVVerdict::Inconclusive) << R.Detail;
}

TEST(TV, ReductionVerifies) {
  VFunctionPtr S = mustCompile(
      "int vsumr(int n, int *a) { int sum = 0; "
      "for (int i = 0; i < n; i++) sum += a[i]; return sum; }");
  // Vectorized reduction with a horizontal extract-based finish.
  VFunctionPtr V = mustCompile(R"(
    int vsumr(int n, int *a) {
      __m256i acc = _mm256_setzero_si256();
      int i = 0;
      for (; i <= n - 8; i += 8) {
        __m256i v = _mm256_loadu_si256((__m256i *)&a[i]);
        acc = _mm256_add_epi32(acc, v);
      }
      int sum = _mm256_extract_epi32(acc, 0) + _mm256_extract_epi32(acc, 1)
              + _mm256_extract_epi32(acc, 2) + _mm256_extract_epi32(acc, 3)
              + _mm256_extract_epi32(acc, 4) + _mm256_extract_epi32(acc, 5)
              + _mm256_extract_epi32(acc, 6) + _mm256_extract_epi32(acc, 7);
      for (; i < n; i++)
        sum += a[i];
      return sum;
    })");
  RefineOptions O = withDiv("n", 0);
  // Integer sums reassociate freely only with wrapping semantics; the
  // scalar source's nsw poison makes the refinement direction hold (poison
  // refines to anything). Keep the domain small so the adder equivalence
  // stays within budget.
  O.ScalarMax = 8;
  O.SrcExec.UnrollBound = 10;
  O.TgtExec.UnrollBound = 3;
  O.Budget.MaxConflicts = 400'000; // reassociated adder chains need real work
  VFunctionPtr SV = mustCompile(
      "int vsumr(int n, int *a) { int sum = 0; "
      "for (int i = 0; i < n; i++) sum += a[i]; return sum; }");
  TVResult R = checkRefinement(*SV, *V, O);
  EXPECT_EQ(R.V, TVVerdict::Equivalent)
      << R.Detail << "\n" << R.Counterexample;
  (void)S;
}

TEST(TV, TinyBudgetInconclusive) {
  // A structurally different but correct rewrite that needs real SAT work:
  // with a one-conflict budget the verdict must be Inconclusive.
  VFunctionPtr S = mustCompile(
      "void f(int n, int *a, int *b) { for (int i = 0; i < n; i++) "
      "a[i] = b[i] * 5; }");
  VFunctionPtr V = mustCompile(R"(
    void f(int n, int *a, int *b) {
      for (int i = 0; i < n; i += 8) {
        __m256i v = _mm256_loadu_si256((__m256i *)&b[i]);
        __m256i x4 = _mm256_slli_epi32(v, 2);
        _mm256_storeu_si256((__m256i *)&a[i], _mm256_add_epi32(x4, v));
      }
    })");
  RefineOptions O = withDiv("n", 0);
  O.Budget.MaxConflicts = 1;
  TVResult R = checkRefinement(*S, *V, O);
  EXPECT_NE(R.V, TVVerdict::Equivalent);
  // With a real budget it verifies (x*5 == (x<<2)+x needs the SAT core,
  // since nsw poison on the source side weakens the obligation).
  RefineOptions O2 = withDiv("n", 0);
  O2.Budget.MaxConflicts = 400'000;
  TVResult R2 = checkRefinement(*S, *V, O2);
  EXPECT_EQ(R2.V, TVVerdict::Equivalent)
      << R2.Detail << "\n" << R2.Counterexample;
}

//===--------------------------------------------------------------------===//
// Portfolio racing and the stage-4 cell loop
//===--------------------------------------------------------------------===//

const char *WidenScalar =
    "void f(int n, int *a, int *b) { for (int i = 0; i < n; i++) "
    "a[i] = b[i] * 5; }";
const char *WidenVec = R"(
    void f(int n, int *a, int *b) {
      for (int i = 0; i < n; i += 8) {
        __m256i v = _mm256_loadu_si256((__m256i *)&b[i]);
        __m256i x4 = _mm256_slli_epi32(v, 2);
        _mm256_storeu_si256((__m256i *)&a[i], _mm256_add_epi32(x4, v));
      }
    })";

TEST(TV, PortfolioForcedFallbackKeepsSoundVerdict) {
  // The test hook pinches the fast racer to a zero-conflict budget, so it
  // exhausts on every query (the forced "disagreement": fast says Unknown
  // where the sound fork decides). The sound fork's verdict must always
  // win, and its share of the work must equal a plain fork session
  // bit-for-bit — the fast racer never touches the sound base.
  VFunctionPtr S1 = mustCompile(WidenScalar), V1 = mustCompile(WidenVec);
  VFunctionPtr S2 = mustCompile(WidenScalar), V2 = mustCompile(WidenVec);
  RefineOptions ForkO = withDiv("n", 0);
  ForkO.Budget.MaxConflicts = 400'000;
  RefineOptions PortO = ForkO;
  PortO.Portfolio = true;
  PortO.PortfolioFastMaxConflicts = 0;
  RefinementSession Fork(*S1, *V1, ForkO);
  RefinementSession Port(*S2, *V2, PortO);

  TVResult FF = Fork.checkFull(ForkO.Budget);
  TVResult PF = Port.checkFull(PortO.Budget);
  EXPECT_EQ(FF.V, TVVerdict::Equivalent) << FF.Detail;
  EXPECT_EQ(PF.V, FF.V) << PF.Detail;
  EXPECT_EQ(PF.Detail, FF.Detail);
  EXPECT_EQ(PF.PortfolioArm, 2) << "pinched fast arm must lose the race";
  // Headline counters total both racers; the sound share is the fork run.
  EXPECT_EQ(PF.Conflicts - PF.FastConflicts, FF.Conflicts);
  EXPECT_EQ(PF.Propagations - PF.FastPropagations, FF.Propagations);

  // The fast arm exhausted this budget class, so the adaptive gate skips
  // the race from now on: same-budget queries are pure sound forks with
  // zero fast-arm work — bit-identical to the fork session.
  TVResult FC = Fork.checkCell(0, ForkO.Budget);
  TVResult PC = Port.checkCell(0, PortO.Budget);
  EXPECT_EQ(PC.PortfolioArm, 2) << "sound arm decided (race skipped)";
  EXPECT_EQ(PC.FastConflicts, 0u) << "adaptive gate must skip the race";
  EXPECT_EQ(PC.FastPropagations, 0u);
  EXPECT_EQ(PC.V, FC.V) << PC.Detail;
  EXPECT_EQ(PC.Conflicts, FC.Conflicts);
  EXPECT_EQ(PC.Propagations, FC.Propagations);
}

TEST(TV, PortfolioFastArmDecides) {
  // An easy decidable query under a generous budget: the shared-learnt
  // cone+reuse probe decides within its slice and the sound fork never
  // runs — a fast win whose headline work is the fast arm's work alone.
  VFunctionPtr S = mustCompile(
      "void f(int n, int *a, int *b) { for (int i = 0; i < n; i++) "
      "a[i] = b[i] + 1; }");
  VFunctionPtr V = mustCompile(R"(
    void f(int n, int *a, int *b) {
      __m256i one = _mm256_set1_epi32(1);
      for (int i = 0; i < n; i += 8) {
        __m256i v = _mm256_loadu_si256((__m256i *)&b[i]);
        _mm256_storeu_si256((__m256i *)&a[i], _mm256_add_epi32(v, one));
      }
    })");
  RefineOptions O = withDiv("n", 0);
  O.Budget.MaxConflicts = 200'000; // probe slice = 25k, plenty for this
  O.Portfolio = true;
  RefinementSession Sess(*S, *V, O);
  TVResult R = Sess.checkFull(O.Budget);
  EXPECT_EQ(R.V, TVVerdict::Equivalent) << R.Detail;
  EXPECT_EQ(R.PortfolioArm, 1) << "fast arm should decide within the probe";
  // A fast win's work IS the fast arm's work.
  EXPECT_EQ(R.Conflicts, R.FastConflicts);
  EXPECT_EQ(R.Propagations, R.FastPropagations);
}

TEST(TV, CheckCellReplaysDuplicateCellFromTheMemo) {
  // The stage-4 shape: one checkCell per cell, in order, on a portfolio
  // session. Asking for cell 3 again builds the identical violation term
  // under the identical budget, so the memo replays the first verdict
  // with no solver work and no portfolio race.
  VFunctionPtr S = mustCompile(WidenScalar), V = mustCompile(WidenVec);
  RefineOptions O = withDiv("n", 0);
  O.Portfolio = true;
  RefinementSession Sess(*S, *V, O);
  smt::SatBudget Budget;
  Budget.MaxConflicts = 400'000;
  std::vector<TVResult> Res;
  for (int C : {0, 1, 2, 3, 4, 5, 6, 7, 3})
    Res.push_back(Sess.checkCell(C, Budget));
  for (const TVResult &R : Res)
    EXPECT_EQ(R.V, TVVerdict::Equivalent) << R.Detail;
  const TVResult &First = Res[3], &Replay = Res.back();
  EXPECT_EQ(Replay.V, First.V);
  EXPECT_EQ(Replay.Detail, First.Detail);
  EXPECT_EQ(Replay.Counterexample, First.Counterexample);
  EXPECT_EQ(Replay.Clauses, First.Clauses);
  EXPECT_EQ(Replay.TermCount, First.TermCount);
  EXPECT_EQ(Replay.Conflicts, 0u) << "duplicate must replay";
  EXPECT_EQ(Replay.Propagations, 0u);
  EXPECT_EQ(Replay.PortfolioArm, 0) << "a replay is not a race";
  EXPECT_EQ(Replay.FastConflicts, 0u);
}

TEST(TV, EpilogueOnlyDifferenceCaughtWithoutDivAssumption) {
  // Without the divisibility assumption the no-epilogue candidate leaves a
  // remainder unprocessed; TV must refute it. (With the assumption it
  // verifies — that is exactly the paper's "modulo" caveat.)
  VFunctionPtr S = mustCompile(
      "void f(int n, int *a, int *b) { for (int i = 0; i < n; i++) "
      "a[i] = b[i] + 1; }");
  VFunctionPtr V = mustCompile(R"(
    void f(int n, int *a, int *b) {
      __m256i one = _mm256_set1_epi32(1);
      int i = 0;
      for (; i <= n - 8; i += 8) {
        __m256i v = _mm256_loadu_si256((__m256i *)&b[i]);
        _mm256_storeu_si256((__m256i *)&a[i], _mm256_add_epi32(v, one));
      }
    })");
  RefineOptions NoDiv;
  TVResult R = checkRefinement(*S, *V, NoDiv);
  EXPECT_EQ(R.V, TVVerdict::Inequivalent) << R.Detail;
  TVResult R2 = checkRefinement(*S, *V, withDiv("n", 0));
  EXPECT_EQ(R2.V, TVVerdict::Equivalent)
      << R2.Detail << "\n" << R2.Counterexample;
}

} // namespace
