//===- tests/test_pipeline.cpp - Algorithm 1 pipeline tests -------------------===//
//
// End-to-end tests of the Algorithm-1 funnel, driven through the
// vectorization service's verifyPair wrapper (the canonical entry point):
// the staged funnel must decide the paper's examples at the stages the
// paper attributes them to, the wrapper must agree with the
// core::checkEquivalence kernel it routes to, and the C-unroll transform
// must behave as §3.2 describes.
//
//===----------------------------------------------------------------------===//

#include "core/CUnroll.h"
#include "core/Equivalence.h"
#include "svc/Service.h"
#include "minic/Parser.h"
#include "minic/Printer.h"
#include "support/Format.h"

#include <gtest/gtest.h>

using namespace lv;
using namespace lv::core;

namespace {

const char *S212Scalar = R"(
void s212(int n, int *a, int *b, int *c, int *d) {
  for (int i = 0; i < n - 1; i++) {
    a[i] *= c[i];
    b[i] += a[i + 1] * d[i];
  }
})";

const char *S212Vector = R"(
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

TEST(CUnrollTransform, ProducesStraightLineCopies) {
  minic::ParseResult P = minic::parseFunction(
      "void f(int n, int *a) { for (int i = 0; i < n; i++) a[i] = i; }");
  ASSERT_TRUE(P.ok());
  UnrollResult R = unrollStraightLine(*P.Fn, 8, false);
  ASSERT_TRUE(R.ok()) << R.Error;
  std::string Text = minic::printFunction(*R.Fn);
  EXPECT_EQ(Text.find("for"), std::string::npos) << Text;
  // Eight body copies, each with the step appended.
  size_t Count = 0;
  for (size_t Pos = Text.find("a[i] = i"); Pos != std::string::npos;
       Pos = Text.find("a[i] = i", Pos + 1))
    ++Count;
  EXPECT_EQ(Count, 8u);
  EXPECT_NE(Text.find("i++"), std::string::npos);
}

TEST(CUnrollTransform, BreakBecomesReturn) {
  minic::ParseResult P = minic::parseFunction(
      "void f(int n, int *a) { for (int i = 0; i < n; i++) { "
      "if (a[i] == 0) break; a[i] = 1; } }");
  ASSERT_TRUE(P.ok());
  UnrollResult R = unrollStraightLine(*P.Fn, 2, false);
  ASSERT_TRUE(R.ok()) << R.Error;
  std::string Text = minic::printFunction(*R.Fn);
  EXPECT_EQ(Text.find("break"), std::string::npos) << Text;
  EXPECT_NE(Text.find("return"), std::string::npos) << Text;
}

TEST(CUnrollTransform, DropsEpilogueLoops) {
  minic::ParseResult P = minic::parseFunction(R"(
    void f(int n, int *a) {
      int i = 0;
      for (; i <= n - 8; i += 8) a[i] = 1;
      for (; i < n; i++) a[i] = 1;
    })");
  ASSERT_TRUE(P.ok());
  UnrollResult R = unrollStraightLine(*P.Fn, 1, /*DropLaterLoops=*/true);
  ASSERT_TRUE(R.ok()) << R.Error;
  std::string Text = minic::printFunction(*R.Fn);
  EXPECT_EQ(Text.find("for"), std::string::npos) << Text;
}

TEST(CUnrollTransform, RejectsContinue) {
  minic::ParseResult P = minic::parseFunction(
      "void f(int n, int *a) { for (int i = 0; i < n; i++) { "
      "if (a[i] < 0) continue; a[i] = 1; } }");
  ASSERT_TRUE(P.ok());
  UnrollResult R = unrollStraightLine(*P.Fn, 4, false);
  EXPECT_FALSE(R.ok());
}

TEST(CUnrollTransform, ElevatesOuterLoop) {
  minic::ParseResult P = minic::parseFunction(R"(
    void f(int n, int *a, int *b) {
      for (int j = 0; j < n; j++) {
        for (int i = 0; i < n; i++) {
          a[i] = b[i] + j;
        }
      }
    })");
  ASSERT_TRUE(P.ok());
  std::string Header;
  UnrollResult R = elevateOuterLoop(*P.Fn, Header);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_NE(Header.find("int j = 0"), std::string::npos) << Header;
  EXPECT_EQ(R.Fn->Params.back().Name, "j");
  std::string Text = minic::printFunction(*R.Fn);
  // Only the inner loop remains.
  EXPECT_EQ(Text.find("j++"), std::string::npos) << Text;
  EXPECT_NE(Text.find("for (int i = 0"), std::string::npos) << Text;
}

TEST(Pipeline, WrapperAgreesWithKernel) {
  // svc::verifyPair must be a pure routing layer over the
  // core::checkEquivalence kernel: identical verdict, stage attribution,
  // and diagnostics on the same pair.
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
  EquivResult Kernel = checkEquivalence(Scalar, Vec);
  EquivResult Wrapped = svc::verifyPair(Scalar, Vec);
  EXPECT_EQ(Kernel.Final, Wrapped.Final);
  EXPECT_EQ(Kernel.DecidedBy, Wrapped.DecidedBy);
  EXPECT_EQ(Kernel.Detail, Wrapped.Detail);
  EXPECT_EQ(Kernel.Counterexample, Wrapped.Counterexample);
  EXPECT_EQ(Kernel.Alive2Res.V, Wrapped.Alive2Res.V);
  EXPECT_EQ(Kernel.Alive2Res.Conflicts, Wrapped.Alive2Res.Conflicts);
}

TEST(Pipeline, SimpleWidenDecidedAtAlive2Stage) {
  EquivResult R = svc::verifyPair(
      "void f(int n, int *a, int *b) { for (int i = 0; i < n; i++) "
      "a[i] = b[i] + 1; }",
      R"(
      void f(int n, int *a, int *b) {
        __m256i one = _mm256_set1_epi32(1);
        for (int i = 0; i < n; i += 8) {
          __m256i v = _mm256_loadu_si256((__m256i *)&b[i]);
          _mm256_storeu_si256((__m256i *)&a[i], _mm256_add_epi32(v, one));
        }
      })");
  EXPECT_EQ(R.Final, EquivResult::Equivalent) << R.Detail;
  EXPECT_EQ(R.DecidedBy, Stage::Alive2Unroll) << stageName(R.DecidedBy);
}

TEST(Pipeline, S212DecidedAtAlive2Stage) {
  // With the trip count pinned per case, every guard and index of s212's
  // unrolled loops folds, so stage 2 proves it outright (one query per
  // admissible n: 0, 8 and 16 at the default ScalarMax).
  EquivConfig Cfg;
  Cfg.Alive2Budget = 4'000;
  EquivResult R = svc::verifyPair(S212Scalar, S212Vector, Cfg);
  EXPECT_EQ(R.Final, EquivResult::Equivalent)
      << R.Detail << "\n" << R.Counterexample;
  EXPECT_EQ(R.DecidedBy, Stage::Alive2Unroll) << stageName(R.DecidedBy);
  EXPECT_EQ(R.Alive2Res.V, tv::TVVerdict::Equivalent);
}

TEST(Pipeline, S212DecidedAtCUnrollStage) {
  // The paper's headline technique: C-level unrolling of one aligned block
  // closes s212 on its own (stage 2 disabled, as in the ablation).
  EquivConfig Cfg;
  Cfg.EnableAlive2 = false;
  EquivResult R = svc::verifyPair(S212Scalar, S212Vector, Cfg);
  EXPECT_EQ(R.Final, EquivResult::Equivalent)
      << R.Detail << "\n" << R.Counterexample;
  EXPECT_EQ(R.DecidedBy, Stage::CUnroll) << stageName(R.DecidedBy);
  EXPECT_EQ(R.Alive2Res.V, tv::TVVerdict::Unsupported); // stage 2 not run
}

const char *S291Scalar = R"(
    void s291(int n, int *a, int *b) {
      int im1 = n - 1;
      for (int i = 0; i < n; i++) {
        a[i] = (b[i] + b[im1]) * 2;
        im1 = i;
      }
    })";

const char *S291PeelVector = R"(
    void s291(int n, int *a, int *b) {
      int im1 = n - 1;
      int i = 0;
      for (; i < 1 && i < n; i++) {
        a[i] = (b[i] + b[im1]) * 2;
        im1 = i;
      }
      for (; i <= n - 8; i += 8) {
        __m256i v0 = _mm256_loadu_si256((__m256i *)&b[i]);
        __m256i v1 = _mm256_loadu_si256((__m256i *)&b[i - 1]);
        _mm256_storeu_si256((__m256i *)&a[i],
                            _mm256_mullo_epi32(_mm256_add_epi32(v0, v1),
                                               _mm256_set1_epi32(2)));
        im1 = i + 7;
      }
      for (; i < n; i++) {
        a[i] = (b[i] + b[im1]) * 2;
        im1 = i;
      }
    })";

TEST(Pipeline, S291PeelLoopDecidedAtAlive2Stage) {
  // A peel-loop candidate: at n = 8 its epilogue loop runs 7 iterations,
  // past a ScalarMax/8 + 2 = 3 target bound (which would leave that case
  // Inconclusive); each case unrolls to ScalarMax + 2.
  EquivConfig Cfg;
  Cfg.ScalarMax = 8;
  Cfg.Alive2Budget = 500;
  EquivResult R = svc::verifyPair(S291Scalar, S291PeelVector, Cfg);
  EXPECT_EQ(R.Final, EquivResult::Equivalent)
      << R.Detail << "\n" << R.Counterexample;
  EXPECT_EQ(R.DecidedBy, Stage::Alive2Unroll) << stageName(R.DecidedBy);
  EXPECT_NE(R.Detail.find("n in {0, 8}"), std::string::npos) << R.Detail;
}

TEST(Pipeline, S291PeelLoopNotRefutedByCUnroll) {
  // Without stage 2 the correct peel-loop candidate reaches C-unroll. Its
  // first loop is the peel loop, whose step is not known, so no aligned
  // block can be straight-lined: stages 3-4 are Unsupported rather than
  // refuting a guessed block.
  EquivConfig Cfg;
  Cfg.ScalarMax = 8;
  Cfg.EnableAlive2 = false;
  EquivResult R = svc::verifyPair(S291Scalar, S291PeelVector, Cfg);
  EXPECT_NE(R.Final, EquivResult::Inequivalent)
      << R.Detail << "\n" << R.Counterexample;
  EXPECT_EQ(R.CUnrollRes.V, tv::TVVerdict::Unsupported) << R.CUnrollRes.Detail;
}

TEST(Pipeline, S271UnmaskedLoadRefutedAtAlive2Stage) {
  // s271 reads a[i] only where b[i] > 0. A candidate that masks its store
  // and the load of c but loads a[i..i+7] unconditionally passes checksum
  // testing (the harness allocates every array in full) yet is UB when a
  // is shorter than the trip count: the stage-2 counterexample needs a
  // small alloc-size(a). The multiplier b * c is abstract in the query.
  const char *Scalar = R"(
    void s271(int n, int *a, int *b, int *c) {
      for (int i = 0; i < n; i++) {
        if (b[i] > 0) {
          a[i] = a[i] + b[i] * c[i];
        }
      }
    })";
  const char *Vec = R"(
    void s271(int n, int *a, int *b, int *c) {
      __m256i zero = _mm256_setzero_si256();
      for (int i = 0; i < n; i += 8) {
        __m256i vb = _mm256_loadu_si256((__m256i *)&b[i]);
        __m256i mask = _mm256_cmpgt_epi32(vb, zero);
        __m256i va = _mm256_loadu_si256((__m256i *)&a[i]);
        __m256i vc = _mm256_maskload_epi32(&c[i], mask);
        __m256i r = _mm256_add_epi32(va, _mm256_mullo_epi32(vb, vc));
        _mm256_maskstore_epi32(&a[i], mask, r);
      }
    })";
  EquivConfig Cfg;
  Cfg.ScalarMax = 8;
  Cfg.Alive2Budget = 500;
  EquivResult R = svc::verifyPair(Scalar, Vec, Cfg);
  EXPECT_EQ(R.Final, EquivResult::Inequivalent) << R.Detail;
  EXPECT_EQ(R.DecidedBy, Stage::Alive2Unroll) << stageName(R.DecidedBy);
  EXPECT_NE(R.Counterexample.find("alloc-size(a)"), std::string::npos)
      << R.Counterexample;
}

/// b[i] + 1, vectorized; \p Tail is appended after the vector loop.
static std::string widenWithTail(const char *Tail) {
  return std::string(R"(
    void f(int n, int *a, int *b) {
      __m256i one = _mm256_set1_epi32(1);
      for (int i = 0; i < n; i += 8) {
        __m256i v = _mm256_loadu_si256((__m256i *)&b[i]);
        _mm256_storeu_si256((__m256i *)&a[i], _mm256_add_epi32(v, one));
      }
)") + Tail + "}";
}

const char *WidenScalar =
    "void f(int n, int *a, int *b) { for (int i = 0; i < n; i++) "
    "a[i] = b[i] + 1; }";

TEST(Pipeline, WrongAtOneTripCountRefutedAtAlive2Stage) {
  // Wrong only at n == 16, which checksum testing (n in {0, 8, 64, 256})
  // never runs: the n = 16 case refutes it, and the counterexample names
  // the pinned value the model no longer carries.
  EquivResult R =
      svc::verifyPair(WidenScalar, widenWithTail("if (n == 16) a[3] = b[3];"));
  EXPECT_EQ(R.Final, EquivResult::Inequivalent) << R.Detail;
  EXPECT_EQ(R.DecidedBy, Stage::Alive2Unroll) << stageName(R.DecidedBy);
  EXPECT_NE(R.Counterexample.find("n = 16\n"), std::string::npos)
      << R.Counterexample;
}

TEST(Pipeline, UnrollBoundBelowTripCountLeavesAlive2Inconclusive) {
  // At n = 16 the trailing loop runs 32 iterations, past the ScalarMax + 2
  // unroll bound: that case's assumptions admit no input, so it is
  // Inconclusive — not a vacuous proof — even though n = 0 and n = 8 hold.
  EquivConfig Cfg;
  Cfg.EnableCUnroll = false;
  Cfg.EnableSplitting = false;
  EquivResult R = svc::verifyPair(
      WidenScalar,
      widenWithTail("int s = 0; for (int j = 0; j < 2 * n; j++) s += 1;"),
      Cfg);
  EXPECT_EQ(R.Alive2Res.V, tv::TVVerdict::Inconclusive) << R.Alive2Res.Detail;
  EXPECT_NE(R.Alive2Res.Detail.find("n = 16: assumptions admit no input"),
            std::string::npos)
      << R.Alive2Res.Detail;
  EXPECT_EQ(R.Final, EquivResult::Inconclusive);
}

TEST(Pipeline, ChecksumRejectsObviouslyWrongCandidate) {
  EquivResult R = svc::verifyPair(
      "void f(int n, int *a, int *b) { for (int i = 0; i < n; i++) "
      "a[i] = b[i] + 1; }",
      R"(
      void f(int n, int *a, int *b) {
        __m256i two = _mm256_set1_epi32(2);
        for (int i = 0; i < n; i += 8) {
          __m256i v = _mm256_loadu_si256((__m256i *)&b[i]);
          _mm256_storeu_si256((__m256i *)&a[i], _mm256_add_epi32(v, two));
        }
      })");
  EXPECT_EQ(R.Final, EquivResult::Inequivalent);
  EXPECT_EQ(R.DecidedBy, Stage::Checksum);
}

TEST(Pipeline, CannotCompileDetected) {
  EquivResult R = svc::verifyPair(
      "void f(int n, int *a) { for (int i = 0; i < n; i++) a[i] = 1; }",
      "void f(int n, int *a) { _mm256x_bogus(a); }");
  EXPECT_EQ(R.Final, EquivResult::CannotCompile);
}

TEST(Pipeline, SplittingDecidesWhenEarlierStagesAreStarved) {
  // Ablation-style: with stages 2-3 disabled, the per-cell splitting stage
  // must carry an eligible kernel on its own.
  EquivConfig Cfg;
  Cfg.EnableAlive2 = false;
  Cfg.EnableCUnroll = false;
  EquivResult R = svc::verifyPair(
      "void f(int n, int *a, int *b, int *c) { for (int i = 0; i < n; i++) "
      "a[i] = b[i] * c[i]; }",
      R"(
      void f(int n, int *a, int *b, int *c) {
        for (int i = 0; i < n; i += 8) {
          __m256i vb = _mm256_loadu_si256((__m256i *)&b[i]);
          __m256i vc = _mm256_loadu_si256((__m256i *)&c[i]);
          _mm256_storeu_si256((__m256i *)&a[i], _mm256_mullo_epi32(vb, vc));
        }
      })",
      Cfg);
  EXPECT_EQ(R.Final, EquivResult::Equivalent) << R.Detail;
  EXPECT_EQ(R.DecidedBy, Stage::Splitting) << stageName(R.DecidedBy);
  EXPECT_TRUE(R.SplittingEligible);
  EXPECT_EQ(R.SplitRes.size(), 8u);
}

TEST(Pipeline, SplittingIneligibleForOffsetReads) {
  // a[i+1] reads fail the conservative syntactic no-carry check (§3.3).
  EquivConfig Cfg;
  Cfg.EnableAlive2 = false;
  Cfg.EnableCUnroll = false;
  EquivResult R = svc::verifyPair(S212Scalar, S212Vector, Cfg);
  EXPECT_EQ(R.Final, EquivResult::Inconclusive);
  EXPECT_FALSE(R.SplittingEligible);
}

TEST(Pipeline, NestedLoopsViaOuterElevation) {
  const char *Scalar = R"(
    void f(int n, int *a, int *b) {
      for (int j = 0; j < n; j++) {
        for (int i = 0; i < n; i++) {
          a[i] = b[i] + j;
        }
      }
    })";
  const char *Vec = R"(
    void f(int n, int *a, int *b) {
      for (int j = 0; j < n; j++) {
        __m256i vj = _mm256_set1_epi32(j);
        for (int i = 0; i < n; i += 8) {
          __m256i vb = _mm256_loadu_si256((__m256i *)&b[i]);
          _mm256_storeu_si256((__m256i *)&a[i], _mm256_add_epi32(vb, vj));
        }
      }
    })";
  EquivResult R = svc::verifyPair(Scalar, Vec);
  EXPECT_EQ(R.Final, EquivResult::Equivalent)
      << R.Detail << "\n" << R.Counterexample;
}

TEST(Pipeline, NestedLoopsWithDifferentOuterHeadersInconclusive) {
  const char *Scalar = R"(
    void f(int n, int *a) {
      for (int j = 0; j < n; j++) {
        for (int i = 0; i < n; i++) {
          a[i] = a[i] + j;
        }
      }
    })";
  const char *Vec = R"(
    void f(int n, int *a) {
      for (int j = 1; j < n; j++) {
        for (int i = 0; i < n; i += 8) {
          __m256i va = _mm256_loadu_si256((__m256i *)&a[i]);
          _mm256_storeu_si256((__m256i *)&a[i],
                              _mm256_add_epi32(va, _mm256_set1_epi32(j)));
        }
      }
    })";
  EquivResult R = svc::verifyPair(Scalar, Vec);
  EXPECT_EQ(R.Final, EquivResult::Inconclusive);
  EXPECT_NE(R.Detail.find("not syntactically identical"), std::string::npos)
      << R.Detail;
}

//===----------------------------------------------------------------------===//
// Mask idioms (smt/README.md "Mask idioms")
//===----------------------------------------------------------------------===//

/// bench_table3's Base budgets.
EquivConfig baseBudgets() {
  EquivConfig Cfg;
  Cfg.ScalarMax = 8;
  Cfg.MaxTerms = 120'000;
  Cfg.Alive2Budget = 500;
  Cfg.CUnrollBudget = 2'000;
  Cfg.SplitBudget = 300;
  return Cfg;
}

/// Base budgets with checksum testing run at n = 0 only, where every
/// candidate agrees with its scalar: the wrong candidates below reach the
/// symbolic stages instead of being rejected by testing.
EquivConfig baseBudgetsPastTesting() {
  EquivConfig Cfg = baseBudgets();
  Cfg.Checksum.NValues = {0};
  return Cfg;
}

const char *S2712Scalar = R"(
void s2712(int n, int t, int *a, int *b, int *c) {
  for (int i = 0; i < n; i++) {
    if (a[i] > t) {
      a[i] = a[i] + b[i] * c[i];
    }
  }
})";

/// The simulated LLM's s2712 candidate: masked loads of b and c, one
/// masked multiply, an unmasked store. \p Mask is the cmpgt that selects
/// the lanes, \p BMask the mask of b's load.
std::string s2712Vector(const char *Mask, const char *BMask = "mask") {
  return format(R"(
void s2712(int n, int t, int *a, int *b, int *c) {
  int i = 0;
  for (; i <= n - 8; i += 8) {
    __m256i va = _mm256_loadu_si256((__m256i *)&a[i]);
    __m256i vt = _mm256_set1_epi32(t);
    __m256i mask = %s;
    __m256i vb = _mm256_maskload_epi32(&b[i], %s);
    __m256i vc = _mm256_maskload_epi32(&c[i], mask);
    __m256i r = _mm256_add_epi32(va, _mm256_mullo_epi32(vb, vc));
    _mm256_storeu_si256((__m256i *)&a[i], r);
  }
  for (; i < n; i++) {
    if (a[i] > t) {
      a[i] = a[i] + b[i] * c[i];
    }
  }
})",
                Mask, BMask);
}

const char *S124Scalar = R"(
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

/// The simulated LLM's s124 candidate: each branch loads its operands under
/// its own mask and stores under it. \p BranchB / \p BranchC name the masks
/// of the two maskstores.
std::string s124Vector(const char *BranchB, const char *BranchC) {
  return format(R"(
void s124(int *a, int *b, int *c, int *d, int *e, int n) {
  int j;
  j = -1;
  int i = 0;
  for (; i <= n - 8; i += 8) {
    __m256i vb = _mm256_loadu_si256((__m256i *)&b[i]);
    __m256i pos = _mm256_cmpgt_epi32(vb, _mm256_set1_epi32(0));
    __m256i neg = _mm256_xor_si256(pos, _mm256_set1_epi32(-1));
    __m256i vd = _mm256_maskload_epi32(&d[i], pos);
    __m256i ve = _mm256_maskload_epi32(&e[i], pos);
    __m256i rb = _mm256_add_epi32(vb, _mm256_mullo_epi32(vd, ve));
    _mm256_maskstore_epi32(&a[j + 1], %s, rb);
    __m256i vc = _mm256_maskload_epi32(&c[i], neg);
    __m256i vd2 = _mm256_maskload_epi32(&d[i], neg);
    __m256i ve2 = _mm256_maskload_epi32(&e[i], neg);
    __m256i rc = _mm256_add_epi32(vc, _mm256_mullo_epi32(vd2, ve2));
    _mm256_maskstore_epi32(&a[j + 1], %s, rc);
    j += 8;
  }
  for (; i < n; i++) {
    if (b[i] > 0) {
      j++;
      a[j] = b[i] + d[i] * e[i];
    } else {
      j++;
      a[j] = c[i] + d[i] * e[i];
    }
  }
})",
                BranchB, BranchC);
}

const char *S2712Gt = "_mm256_cmpgt_epi32(va, vt)";

TEST(MaskIdioms, S2712MaskedMultiplyProvedAtAlive2Stage) {
  // mullo(maskload(b, m), maskload(c, m)) fuses to ite(m, b * c, 0), and
  // a + ite(m, b * c, 0) lifts to the scalar's guarded update.
  EquivResult R =
      svc::verifyPair(S2712Scalar, s2712Vector(S2712Gt), baseBudgets());
  EXPECT_EQ(R.Final, EquivResult::Equivalent) << R.Detail;
  EXPECT_EQ(R.DecidedBy, Stage::Alive2Unroll) << stageName(R.DecidedBy);
}

TEST(MaskIdioms, S124TwoMaskedBranchesProved) {
  EquivResult R =
      svc::verifyPair(S124Scalar, s124Vector("pos", "neg"), baseBudgets());
  EXPECT_EQ(R.Final, EquivResult::Equivalent) << R.Detail;
}

// Wrong mask-idiom candidates: never Equivalent, whatever the budgets.

TEST(MaskIdioms, S2712SwappedCmpgtOperandsNeverEquivalent) {
  EquivResult R = svc::verifyPair(
      S2712Scalar, s2712Vector("_mm256_cmpgt_epi32(vt, va)"),
      baseBudgetsPastTesting());
  EXPECT_NE(R.Final, EquivResult::Equivalent) << R.Detail;
  EXPECT_EQ(R.Final, EquivResult::Inequivalent) << R.Detail;
  EXPECT_NE(R.DecidedBy, Stage::Checksum) << R.Detail;
}

TEST(MaskIdioms, S124ExchangedStoreMasksNeverEquivalent) {
  EquivResult R = svc::verifyPair(S124Scalar, s124Vector("neg", "pos"),
                                  baseBudgetsPastTesting());
  EXPECT_NE(R.Final, EquivResult::Equivalent) << R.Detail;
  EXPECT_EQ(R.Final, EquivResult::Inequivalent) << R.Detail;
  EXPECT_NE(R.DecidedBy, Stage::Checksum) << R.Detail;
}

TEST(MaskIdioms, MaskLoadUnderNegatedMaskNeverEquivalent) {
  EquivResult R = svc::verifyPair(
      S2712Scalar,
      s2712Vector(S2712Gt,
                  "_mm256_xor_si256(mask, _mm256_set1_epi32(-1))"),
      baseBudgetsPastTesting());
  EXPECT_NE(R.Final, EquivResult::Equivalent) << R.Detail;
  EXPECT_EQ(R.Final, EquivResult::Inequivalent) << R.Detail;
  EXPECT_NE(R.DecidedBy, Stage::Checksum) << R.Detail;
}

} // namespace
