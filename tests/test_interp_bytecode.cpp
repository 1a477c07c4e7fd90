//===- tests/test_interp_bytecode.cpp - bytecode VM + checksum harness tests --===//
//
// The bytecode engine's contract is bit-identical execution: over the full
// TSVC corpus, compiled programs must reproduce the tree-walk's outputs,
// return values, modeled cycle counts (bitwise double equality), step
// counts, work histograms, and trap behavior (div-by-zero, out-of-bounds,
// hang budget). On top of that, the checksum harness with a shared
// scalar-reference memo must be verdict-identical to memo-free calls and
// to the sequential seed path — including through
// svc::VectorizerService at 1/2/8 workers.
//
//===----------------------------------------------------------------------===//

#include "interp/Bytecode.h"
#include "interp/Checksum.h"
#include "llm/Client.h"
#include "support/Rng.h"
#include "svc/Service.h"
#include "tsvc/Suite.h"
#include "vir/Compile.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>

using namespace lv;
using namespace lv::interp;
using namespace lv::vir;

namespace {

/// Bitwise double comparison: modeled cycles must not drift by even one
/// ULP between engines (accumulation order is part of the contract).
static bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

/// Random inputs for every param region of \p F plus a value for every
/// scalar parameter ("n" gets \p N).
struct RunSetup {
  MemoryImage Mem;
  std::vector<int32_t> Args;
};

static RunSetup makeSetup(const VFunction &F, int N, uint64_t Seed,
                          int BufferLen) {
  RunSetup S;
  Rng R(Seed);
  for (size_t I = 0; I < F.Memories.size(); ++I) {
    S.Mem.Regions.emplace_back();
    if (!F.Memories[I].IsParam)
      continue;
    std::vector<int32_t> Buf(static_cast<size_t>(BufferLen));
    for (int32_t &V : Buf)
      V = R.rangeInt(-100, 100);
    S.Mem.Regions.back() = std::move(Buf);
  }
  for (const VParam &P : F.Params) {
    if (P.IsPointer)
      continue;
    S.Args.push_back(P.Name == "n" ? N : R.rangeInt(0, 8));
  }
  return S;
}

/// Runs \p F on both engines from identical state and asserts every
/// observable field of ExecResult matches.
static void expectEngineParity(const VFunction &F, int N, uint64_t Seed,
                               const ExecConfig &Cfg,
                               const std::string &Label) {
  RunSetup Tree = makeSetup(F, N, Seed, 64);
  RunSetup Bc = Tree; // identical images
  ExecResult RT = execute(F, Tree.Args, Tree.Mem, Cfg);
  ExecResult RB = execBytecode(compileBytecode(F), Bc.Args, Bc.Mem, Cfg);

  ASSERT_EQ(RT.St, RB.St) << Label;
  EXPECT_EQ(RT.TrapMsg, RB.TrapMsg) << Label;
  EXPECT_EQ(RT.Cause, RB.Cause) << Label;
  EXPECT_EQ(RT.Steps, RB.Steps) << Label;
  EXPECT_TRUE(sameBits(RT.Cycles, RB.Cycles))
      << Label << ": cycles " << RT.Cycles << " vs " << RB.Cycles;
  EXPECT_EQ(RT.Returned, RB.Returned) << Label;
  EXPECT_EQ(RT.RetVal, RB.RetVal) << Label;
  EXPECT_TRUE(RT.Work == RB.Work) << Label << ": work histogram differs";
  ASSERT_EQ(Tree.Mem.Regions.size(), Bc.Mem.Regions.size()) << Label;
  for (size_t I = 0; I < Tree.Mem.Regions.size(); ++I)
    EXPECT_EQ(Tree.Mem.Regions[I], Bc.Mem.Regions[I])
        << Label << ": region " << I;
}

TEST(Bytecode, ParityOverFullTsvcCorpus) {
  // Every TSVC scalar, with and without the cost model, at several loop
  // bounds (including 0: no iterations).
  CostModel CM;
  for (const tsvc::TsvcTest &T : tsvc::suite()) {
    CompileResult C = compileFunction(T.Source);
    ASSERT_TRUE(C.ok()) << T.Name << ": " << C.Error;
    for (int N : {0, 8, 32}) {
      ExecConfig Plain;
      expectEngineParity(*C.Fn, N, hashString(T.Name.c_str()), Plain,
                         T.Name + "/plain");
      ExecConfig Costed;
      Costed.Costs = &CM;
      expectEngineParity(*C.Fn, N, hashString(T.Name.c_str()) ^ 1, Costed,
                         T.Name + "/costed");
    }
  }
}

TEST(Bytecode, ParityOnVectorizedCandidates) {
  // Vector opcodes: run the simulated LLM's rule-based vectorizations of a
  // slice of the corpus through both engines.
  llm::ClientFactory Factory = llm::simulatedClientFactory();
  std::unique_ptr<llm::LLMClient> Client = Factory(0xC60);
  CostModel CM;
  int Checked = 0;
  for (const tsvc::TsvcTest *T : tsvc::suiteSample(5, 40)) {
    llm::Prompt P;
    P.ScalarSource = T->Source;
    for (int K = 0; K < 3; ++K) {
      llm::Completion C = Client->complete(P, static_cast<uint64_t>(K));
      CompileResult VC = compileFunction(C.Source);
      if (!VC.ok())
        continue;
      ExecConfig Costed;
      Costed.Costs = &CM;
      expectEngineParity(*VC.Fn, 16, hashString(T->Name.c_str()) + K,
                         Costed, T->Name + "/cand");
      ++Checked;
    }
  }
  EXPECT_GT(Checked, 30) << "corpus slice produced too few candidates";
}

TEST(Bytecode, TrapParityDivByZero) {
  CompileResult C = compileFunction("int f(int n) { return 10 / n; }");
  ASSERT_TRUE(C.ok());
  MemoryImage M1, M2;
  ExecResult RT = execute(*C.Fn, {0}, M1);
  ExecResult RB = execBytecode(compileBytecode(*C.Fn), {0}, M2);
  EXPECT_EQ(RT.St, ExecResult::Trap);
  EXPECT_EQ(RB.St, ExecResult::Trap);
  EXPECT_EQ(RB.Cause, TrapKind::DivByZero);
  EXPECT_EQ(RT.TrapMsg, RB.TrapMsg);
}

TEST(Bytecode, TrapParityOutOfBounds) {
  CompileResult C = compileFunction("void f(int n, int *a) { a[n] = 1; }");
  ASSERT_TRUE(C.ok());
  MemoryImage M1, M2;
  M1.Regions = {std::vector<int32_t>(4, 0)};
  M2 = M1;
  ExecResult RT = execute(*C.Fn, {100}, M1);
  ExecResult RB = execBytecode(compileBytecode(*C.Fn), {100}, M2);
  EXPECT_EQ(RT.St, ExecResult::Trap);
  EXPECT_EQ(RB.St, ExecResult::Trap);
  EXPECT_EQ(RB.Cause, TrapKind::OutOfBounds);
  EXPECT_EQ(RT.TrapMsg, RB.TrapMsg);
}

TEST(Bytecode, HangBudgetParity) {
  CompileResult C = compileFunction("void f(int n) { for (;;) { n = n; } }");
  ASSERT_TRUE(C.ok()) << C.Error;
  ExecConfig Cfg;
  Cfg.MaxSteps = 10'000;
  MemoryImage M1, M2;
  ExecResult RT = execute(*C.Fn, {1}, M1, Cfg);
  ExecResult RB = execBytecode(compileBytecode(*C.Fn), {1}, M2, Cfg);
  EXPECT_EQ(RT.St, ExecResult::OutOfFuel);
  EXPECT_EQ(RB.St, ExecResult::OutOfFuel);
  EXPECT_EQ(RT.Steps, RB.Steps);
  EXPECT_TRUE(RT.Work == RB.Work);
}

TEST(Bytecode, BreakContinueReturnParity) {
  CompileResult C = compileFunction(R"(
    int f(int n, int *a) {
      int cnt = 0;
      for (int i = 0; i < n; i++) {
        if (a[i] < 0)
          continue;
        if (a[i] == 99)
          break;
        if (a[i] == 77)
          return -7;
        cnt++;
      }
      return cnt;
    })");
  ASSERT_TRUE(C.ok());
  for (int32_t Marker : {99, 77, 5}) {
    MemoryImage M1;
    M1.Regions = {{5, -1, 7, Marker, 4, 4, 4, 4, 4, 4}};
    MemoryImage M2 = M1;
    ExecResult RT = execute(*C.Fn, {10}, M1);
    ExecResult RB = execBytecode(compileBytecode(*C.Fn), {10}, M2);
    EXPECT_EQ(RT.RetVal, RB.RetVal) << Marker;
    EXPECT_EQ(RT.Steps, RB.Steps) << Marker;
  }
}

TEST(Bytecode, BreakContinueInStepRegionBindToEnclosingLoop) {
  // Hand-built IR (the C frontend never emits this shape): an inner loop
  // whose *step region* ends in Continue or Break. In the tree-walk the
  // signal propagates out of the inner For to the enclosing loop; the
  // flattener must bind these to the enclosing frame, not the inner one.
  auto build = [](Node::Kind Terminator) {
    auto F = std::make_unique<VFunction>();
    F->Name = "steps";
    F->ReturnsValue = true;
    int RI = F->newReg(VType::I32, "i");
    int RJ = F->newReg(VType::I32, "j");
    int RCnt = F->newReg(VType::I32, "cnt");
    int RC = F->newReg(VType::I32, "c");
    int ROne = F->newReg(VType::I32, "one");
    int RLim = F->newReg(VType::I32, "lim");

    auto constI = [&](int Rd, int64_t V) {
      Instr I;
      I.Opcode = Op::ConstI32;
      I.Rd = Rd;
      I.Imm = V;
      return Node::mkInst(I);
    };
    auto binI = [&](Op O, int Rd, int A, int B) {
      Instr I;
      I.Opcode = O;
      I.Rd = Rd;
      I.Args = {A, B};
      return Node::mkInst(I);
    };
    auto cmpLt = [&](int Rd, int A, int B) {
      Instr I;
      I.Opcode = Op::ICmp;
      I.P = Pred::SLT;
      I.Rd = Rd;
      I.Args = {A, B};
      return Node::mkInst(I);
    };

    F->Body.Nodes.push_back(constI(RCnt, 0));
    F->Body.Nodes.push_back(constI(ROne, 1));
    F->Body.Nodes.push_back(constI(RLim, 3));

    auto Outer = std::make_unique<Node>(Node::For);
    Outer->CondReg = RC;
    Outer->Init.Nodes.push_back(constI(RI, 0));
    Outer->CondCalc.Nodes.push_back(cmpLt(RC, RI, RLim));
    Outer->StepR.Nodes.push_back(binI(Op::Add, RI, RI, ROne));

    auto Inner = std::make_unique<Node>(Node::For);
    Inner->CondReg = RC;
    Inner->Init.Nodes.push_back(constI(RJ, 0));
    Inner->CondCalc.Nodes.push_back(cmpLt(RC, RJ, RLim));
    Inner->BodyR.Nodes.push_back(binI(Op::Add, RCnt, RCnt, ROne));
    Inner->StepR.Nodes.push_back(binI(Op::Add, RJ, RJ, ROne));
    Inner->StepR.Nodes.push_back(std::make_unique<Node>(Terminator));

    Outer->BodyR.Nodes.push_back(std::move(Inner));
    F->Body.Nodes.push_back(std::move(Outer));

    auto Ret = std::make_unique<Node>(Node::Ret);
    Ret->CondReg = RCnt;
    F->Body.Nodes.push_back(std::move(Ret));
    return F;
  };

  for (Node::Kind K : {Node::Continue, Node::Break}) {
    VFunctionPtr F = build(K);
    MemoryImage M1, M2;
    ExecResult RT = execute(*F, {}, M1);
    ExecResult RB = execBytecode(compileBytecode(*F), {}, M2);
    ASSERT_EQ(RT.St, RB.St) << static_cast<int>(K);
    EXPECT_EQ(RT.RetVal, RB.RetVal) << static_cast<int>(K);
    EXPECT_EQ(RT.Steps, RB.Steps) << static_cast<int>(K);
    EXPECT_TRUE(RT.Work == RB.Work) << static_cast<int>(K);
  }
  // And the expected tree-walk semantics themselves: Continue in the
  // inner step continues the *outer* loop (one inner body run per outer
  // iteration -> 3); Break there breaks the outer loop (-> 1).
  MemoryImage M;
  EXPECT_EQ(execute(*build(Node::Continue), {}, M).RetVal, 3);
  MemoryImage M2;
  EXPECT_EQ(execute(*build(Node::Break), {}, M2).RetVal, 1);
}

TEST(Bytecode, KeyIsStructuralAndExact) {
  // bytecodeKey is the ScalarRefMemo identity: equal for independent
  // lowerings of one source, different after any one-token edit.
  auto key = [](const char *Src) {
    CompileResult C = compileFunction(Src);
    EXPECT_TRUE(C.ok()) << C.Error;
    return C.ok() ? bytecodeKey(*C.Fn) : std::string();
  };
  const char *Base = "void f(int n, int *a) { for (int i = 0; i < n; i++) "
                     "a[i] = i * 3; }";
  std::string K = key(Base);
  ASSERT_FALSE(K.empty());
  EXPECT_EQ(key(Base), K);
  // Constant.
  EXPECT_NE(key("void f(int n, int *a) { for (int i = 0; i < n; i++) "
                "a[i] = i * 4; }"),
            K);
  // Parameter name.
  EXPECT_NE(key("void f(int m, int *a) { for (int i = 0; i < m; i++) "
                "a[i] = i * 3; }"),
            K);
  // Body opcode.
  EXPECT_NE(key("void f(int n, int *a) { for (int i = 0; i < n; i++) "
                "a[i] = i + 3; }"),
            K);
}

TEST(Bytecode, WorkCountersAreExact) {
  // n=8 copy loop: 8 scalar loads, 8 scalar stores, 9 loop-iter charges
  // (8 taken + 1 failing check), no branches.
  CompileResult C = compileFunction(
      "void f(int n, int *a, int *b) { for (int i = 0; i < n; i++) "
      "a[i] = b[i]; }");
  ASSERT_TRUE(C.ok());
  MemoryImage M;
  M.Regions = {std::vector<int32_t>(16, 0), std::vector<int32_t>(16, 7)};
  ExecResult R = execBytecode(compileBytecode(*C.Fn), {8}, M);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Work.loads(), 8u);
  EXPECT_EQ(R.Work.stores(), 8u);
  EXPECT_EQ(R.Work.Hist[static_cast<size_t>(OpClass::LoopIter)], 9u);
  EXPECT_EQ(R.Work.Hist[static_cast<size_t>(OpClass::Branch)], 0u);
  EXPECT_GT(R.Work.Instrs, 0u);
}

//===----------------------------------------------------------------------===//
// Checksum harness: memo / engine parity
//===----------------------------------------------------------------------===//

/// Everything a checksum verdict consists of, serialized for equality.
static std::string verdictString(const ChecksumOutcome &O) {
  return std::to_string(static_cast<int>(O.Verdict)) + "|" + O.Detail +
         "|" + O.FirstMismatch.Where + "|" +
         std::to_string(O.FirstMismatch.N) + "|" +
         std::to_string(O.FirstMismatch.Expected) + "|" +
         std::to_string(O.FirstMismatch.Actual) + "|" +
         O.FirstMismatch.TrapMsg;
}

ChecksumConfig fastChecksum(bool Bytecode) {
  ChecksumConfig C;
  C.RunsPerN = 1;
  C.NValues = {0, 8, 32};
  C.BufferLen = 128;
  C.UseBytecode = Bytecode;
  return C;
}

/// The s453 pair from the paper plus a trapping and a mis-signed
/// candidate: one scalar, four candidates covering all verdict shapes.
struct FixtureSet {
  VFunctionPtr Scalar;
  std::vector<VFunctionPtr> Cands;
};

static FixtureSet buildFixtures() {
  FixtureSet F;
  auto mk = [](const char *Src) {
    CompileResult C = compileFunction(Src);
    if (!C.ok())
      throw std::runtime_error("fixture compile failed: " + C.Error);
    return std::move(C.Fn);
  };
  F.Scalar = mk(R"(
    void s453(int *a, int *b, int n) {
      int s = 0;
      for (int i = 0; i < n; i++) {
        s += 2;
        a[i] = s * b[i];
      }
    })");
  // Good vectorization (plausible).
  F.Cands.push_back(mk(R"(
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
    })"));
  // Wrong induction (output mismatch).
  F.Cands.push_back(mk(R"(
    void s453(int *a, int *b, int n) {
      __m256i s_vec = _mm256_set1_epi32(2);
      int i = 0;
      for (; i <= n - 8; i += 8) {
        __m256i b_vec = _mm256_loadu_si256((__m256i*)&b[i]);
        _mm256_storeu_si256((__m256i*)&a[i],
                            _mm256_mullo_epi32(s_vec, b_vec));
      }
    })"));
  // Out-of-bounds (traps at the largest bound).
  F.Cands.push_back(mk(R"(
    void s453(int *a, int *b, int n) {
      for (int i = 0; i < n; i++) {
        int s = 2 * (i + 1);
        a[i + 1000] = s * b[i];
      }
    })"));
  // Signature mismatch.
  F.Cands.push_back(mk(R"(
    void s453(int *a, int *b, int m) {
      for (int i = 0; i < m; i++) a[i] = b[i];
    })"));
  return F;
}

TEST(ChecksumMemo, MatchesMemoFreeOnBothEngines) {
  FixtureSet F = buildFixtures();
  for (bool Bytecode : {false, true}) {
    ChecksumConfig Cfg = fastChecksum(Bytecode);
    ScalarRefMemo Memo; // shared by all four fixtures
    uint64_t ScalarRuns = 0;
    for (size_t I = 0; I < F.Cands.size(); ++I) {
      ChecksumOutcome Memoized =
          runChecksumTest(*F.Scalar, *F.Cands[I], Cfg, &Memo);
      ChecksumOutcome Fresh = runChecksumTest(*F.Scalar, *F.Cands[I], Cfg);
      EXPECT_EQ(verdictString(Memoized), verdictString(Fresh))
          << "engine=" << Bytecode << " cand=" << I;
      // Candidate-side work is a pure function of the pair.
      EXPECT_TRUE(Memoized.Work.Cand == Fresh.Work.Cand);
      EXPECT_EQ(Memoized.Work.CandRuns, Fresh.Work.CandRuns);
      ScalarRuns += Memoized.Work.ScalarRuns;
    }
    // Across the four calls the memo ran the scalar once per input set —
    // not once per candidate per input set.
    EXPECT_EQ(ScalarRuns, Memo.ScalarRuns);
    EXPECT_GT(Memo.ScalarRuns, 0u);
    EXPECT_LE(Memo.ScalarRuns,
              Cfg.NValues.size() * static_cast<size_t>(Cfg.RunsPerN));
  }
}

TEST(ChecksumHarness, VerdictShapesCovered) {
  FixtureSet F = buildFixtures();
  std::vector<ChecksumOutcome> B;
  for (const VFunctionPtr &C : F.Cands)
    B.push_back(runChecksumTest(*F.Scalar, *C, fastChecksum(true)));
  EXPECT_EQ(B[0].Verdict, TestVerdict::Plausible);
  EXPECT_EQ(B[1].Verdict, TestVerdict::NotEquivalent);
  EXPECT_EQ(B[2].Verdict, TestVerdict::NotEquivalent);
  EXPECT_NE(B[2].FirstMismatch.TrapMsg.find("out-of-bounds"),
            std::string::npos);
  EXPECT_EQ(B[2].Work.CandTrap, TrapKind::OutOfBounds);
  EXPECT_EQ(B[3].Verdict, TestVerdict::NotEquivalent);
  EXPECT_NE(B[3].Detail.find("signature mismatch"), std::string::npos);
}

TEST(ChecksumMemo, ScalarReferenceReused) {
  FixtureSet F = buildFixtures();
  ChecksumConfig Cfg = fastChecksum(true);
  ScalarRefMemo Memo;
  ChecksumOutcome First =
      runChecksumTest(*F.Scalar, *F.Cands[0], Cfg, &Memo);
  EXPECT_GT(First.Work.ScalarRuns, 0u);
  EXPECT_EQ(First.Work.ScalarRunsSaved, 0u);
  ChecksumOutcome Second =
      runChecksumTest(*F.Scalar, *F.Cands[1], Cfg, &Memo);
  // Every reference for the second candidate came from the memo.
  EXPECT_EQ(Second.Work.ScalarRuns, 0u);
  EXPECT_GT(Second.Work.ScalarRunsSaved, 0u);
  // And the verdicts equal the memo-free runs.
  EXPECT_EQ(verdictString(Second),
            verdictString(runChecksumTest(*F.Scalar, *F.Cands[1], Cfg)));
  // Config change invalidates the memo instead of replaying stale runs.
  ChecksumConfig Cfg2 = Cfg;
  Cfg2.Seed ^= 0x77;
  ChecksumOutcome Third =
      runChecksumTest(*F.Scalar, *F.Cands[0], Cfg2, &Memo);
  EXPECT_GT(Third.Work.ScalarRuns, 0u);
  EXPECT_EQ(Third.Verdict, TestVerdict::Plausible);
  // So does a different scalar with the same signature: its references
  // are recomputed, not replayed from the old scalar's runs. Against this
  // scalar the s453 candidate is wrong, which a stale replay would hide.
  CompileResult Other = compileFunction(R"(
    void s453(int *a, int *b, int n) {
      int s = 0;
      for (int i = 0; i < n; i++) {
        s += 3;
        a[i] = s * b[i];
      }
    })");
  ASSERT_TRUE(Other.ok()) << Other.Error;
  ChecksumOutcome Fourth =
      runChecksumTest(*Other.Fn, *F.Cands[0], Cfg2, &Memo);
  EXPECT_GT(Fourth.Work.ScalarRuns, 0u);
  EXPECT_EQ(Memo.ScalarRuns, Fourth.Work.ScalarRuns); // reset, then refilled
  EXPECT_EQ(Fourth.Verdict, TestVerdict::NotEquivalent);
  EXPECT_EQ(verdictString(Fourth),
            verdictString(runChecksumTest(*Other.Fn, *F.Cands[0], Cfg2)));
}

TEST(ChecksumEngines, VerdictParityOverTsvcSamples) {
  // Sampled candidates over a corpus slice: the tree-walk and bytecode
  // engines must agree on every verdict, detail, and mismatch.
  llm::ClientFactory Factory = llm::simulatedClientFactory();
  int Compared = 0;
  for (const tsvc::TsvcTest *T : tsvc::suiteSample(7, 25)) {
    CompileResult SC = compileFunction(T->Source);
    ASSERT_TRUE(SC.ok()) << T->Name;
    std::unique_ptr<llm::LLMClient> Client = Factory(0xC60);
    llm::Prompt P;
    P.ScalarSource = T->Source;
    for (int K = 0; K < 4; ++K) {
      llm::Completion C = Client->complete(P, static_cast<uint64_t>(K));
      CompileResult VC = compileFunction(C.Source);
      if (!VC.ok() || C.Source.find("_mm256_") == std::string::npos)
        continue;
      ChecksumOutcome Tree =
          runChecksumTest(*SC.Fn, *VC.Fn, fastChecksum(false));
      ChecksumOutcome Bc =
          runChecksumTest(*SC.Fn, *VC.Fn, fastChecksum(true));
      EXPECT_EQ(verdictString(Tree), verdictString(Bc))
          << T->Name << " sample " << K;
      EXPECT_TRUE(Tree.Work.Cand == Bc.Work.Cand) << T->Name;
      ++Compared;
    }
  }
  EXPECT_GT(Compared, 25) << "corpus slice produced too few candidates";
}

//===----------------------------------------------------------------------===//
// Service routing: Sample-mode-vs-sequential parity at 1/2/8 workers
//===----------------------------------------------------------------------===//

TEST(ChecksumHarness, SvcSampleModeMatchesSequentialAtWorkerCounts) {
  // Classify K completions per test through the service (one memo per
  // task, each distinct completion tested once) at 1, 2, and 8 workers, and against the direct sequential tree-walk
  // path; all four must agree on every (test, sample) verdict.
  const int K = 3;
  ChecksumConfig SeqCfg = fastChecksum(false);
  ChecksumConfig SvcCfg = fastChecksum(true);

  auto classifyViaSvc = [&](int Workers) {
    svc::ServiceConfig SC;
    SC.Workers = Workers;
    svc::VectorizerService S(SC);
    std::vector<svc::Request> Batch;
    for (const tsvc::TsvcTest &T : tsvc::suite()) {
      svc::Request R;
      R.Mode = svc::RunMode::Sample;
      R.Name = T.Name;
      R.ScalarSource = T.Source;
      R.SampleCount = K;
      R.Fsm.Checksum = SvcCfg;
      Batch.push_back(std::move(R));
    }
    std::vector<svc::Ticket> Tickets = S.submitBatch(std::move(Batch));
    std::vector<std::vector<std::pair<std::string, bool>>> Out;
    for (svc::Ticket T : Tickets) {
      const svc::Outcome &O = S.wait(T);
      std::vector<std::pair<std::string, bool>> Rows;
      for (const svc::SampleVerdict &V : O.Samples)
        Rows.emplace_back(V.Source, V.Plausible);
      Out.push_back(std::move(Rows));
    }
    return Out;
  };

  auto One = classifyViaSvc(1);
  auto Two = classifyViaSvc(2);
  auto Eight = classifyViaSvc(8);
  ASSERT_EQ(One.size(), tsvc::suite().size());
  EXPECT_EQ(One, Two);
  EXPECT_EQ(One, Eight);

  // Direct sequential classification (seed engine, one candidate at a
  // time, no memo, no cache) must agree sample by sample.
  llm::ClientFactory Factory = llm::simulatedClientFactory();
  for (size_t TI = 0; TI < tsvc::suite().size(); ++TI) {
    const tsvc::TsvcTest &T = tsvc::suite()[TI];
    CompileResult SC = compileFunction(T.Source);
    std::unique_ptr<llm::LLMClient> Client = Factory(0xC60);
    llm::Prompt P;
    P.ScalarSource = T.Source;
    ASSERT_EQ(One[TI].size(), static_cast<size_t>(K)) << T.Name;
    for (int I = 0; I < K; ++I) {
      llm::Completion C = Client->complete(P, static_cast<uint64_t>(I));
      ASSERT_EQ(One[TI][static_cast<size_t>(I)].first, C.Source)
          << T.Name << " sample " << I;
      bool Plausible = false;
      CompileResult VC = compileFunction(C.Source);
      if (VC.ok() && SC.ok() &&
          C.Source.find("_mm256_") != std::string::npos)
        Plausible = runChecksumTest(*SC.Fn, *VC.Fn, SeqCfg).Verdict ==
                    TestVerdict::Plausible;
      EXPECT_EQ(One[TI][static_cast<size_t>(I)].second, Plausible)
          << T.Name << " sample " << I;
    }
  }
}

} // namespace
