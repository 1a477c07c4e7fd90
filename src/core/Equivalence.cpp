//===- core/Equivalence.cpp - Algorithm 1: checkEquivalence -------------------===//

#include "core/Equivalence.h"

#include "core/CUnroll.h"
#include "deps/Analysis.h"
#include "obs/Trace.h"
#include "support/Cancel.h"
#include "support/Format.h"
#include "support/Rng.h"
#include "vir/Compile.h"
#include "vir/Lower.h"

#include <algorithm>
#include <memory>
#include <numeric>

using namespace lv;
using namespace lv::core;
using tv::TVResult;
using tv::TVVerdict;

const char *lv::core::stageName(Stage S) {
  switch (S) {
  case Stage::None: return "none";
  case Stage::Checksum: return "checksum";
  case Stage::Alive2Unroll: return "alive2-unroll";
  case Stage::CUnroll: return "c-unroll";
  case Stage::Splitting: return "spatial-splitting";
  }
  return "?";
}

uint64_t EquivConfig::configHash() const {
  uint64_t H = 0xE901ULL;
  H = hashField(H, 1, Checksum.configHash());
  H = hashField(H, 2, static_cast<uint64_t>(static_cast<uint32_t>(ScalarMax)));
  H = hashField(H, 3, Alive2Budget);
  H = hashField(H, 4, CUnrollBudget);
  H = hashField(H, 5, SplitBudget);
  H = hashField(H, 6, MaxTerms);
  H = hashField(H, 7, EnableAlive2 ? 1 : 0);
  H = hashField(H, 8, EnableCUnroll ? 1 : 0);
  H = hashField(H, 9, EnableSplitting ? 1 : 0);
  // Tags 10, 12-14 (removed solver-mode knobs), 15 (the removed
  // portfolio racer) and 16 (the removed stage-4 cell fan-out width) are
  // retired; never reuse them.
  H = hashField(H, 11, SplitCellOverride ? 1 : 0);
  return H;
}

const char *lv::core::outcomeName(EquivResult::Outcome O) {
  switch (O) {
  case EquivResult::CannotCompile: return "cannot-compile";
  case EquivResult::Inequivalent: return "inequivalent";
  case EquivResult::Equivalent: return "equivalent";
  case EquivResult::Inconclusive: return "inconclusive";
  }
  return "?";
}

namespace {

/// Alignment facts extracted from both sides (paper §3.1).
struct Alignment {
  bool Valid = false;
  int64_t Step1 = 1;       ///< Scalar loop step.
  int64_t Step2 = 8;       ///< Vector loop step (8 when not known).
  bool Step2Known = false; ///< Stages 3-4 straight-line only a known step.
  int64_t V = 8;           ///< lcm(Step1, Step2): elements per block.
  int SrcCopies = 8;       ///< V / Step1.
  int TgtCopies = 1;       ///< V / Step2.
  int64_t Start = 0;
  tv::DivAssumption Div;   ///< (end - start) % V == 0.
  bool HasDiv = false;
};

} // namespace

static Alignment computeAlignment(const minic::Function &S,
                                  const minic::Function &V) {
  Alignment A;
  deps::LoopAnalysis LS = deps::analyzeFunction(S);
  deps::LoopAnalysis LV = deps::analyzeFunction(V);
  if (!LS.HasLoop || !LV.HasLoop)
    return A;
  const deps::LoopShape &IS = LS.inner();
  const deps::LoopShape &IV = LV.inner();
  if (!IS.Canonical || !IS.End.Valid || IS.Step <= 0)
    return A;
  A.Step1 = IS.Step;
  A.Step2Known = IV.StepKnown && IV.Step > 0;
  A.Step2 = A.Step2Known ? IV.Step : 8;
  A.V = std::lcm(A.Step1, A.Step2);
  if (A.V <= 0 || A.V > 64)
    return A;
  A.SrcCopies = static_cast<int>(A.V / A.Step1);
  A.TgtCopies = static_cast<int>(A.V / A.Step2);
  A.Start = IS.Start;
  if (!IS.End.Param.empty()) {
    A.Div.Param = IS.End.Param;
    A.Div.Offset = static_cast<int32_t>(
        IS.End.Offset + (IS.InclusiveEnd ? 1 : 0) - IS.Start);
    A.Div.Mod = static_cast<int32_t>(A.V);
    A.HasDiv = true;
  }
  A.Valid = true;
  return A;
}

/// Elevates outer loops until both sides are single-loop functions with
/// syntactically identical removed headers. Returns false when the nest
/// shapes disagree (stage becomes inconclusive, as the paper's filter does).
static bool elevateNests(minic::FunctionPtr &S, minic::FunctionPtr &V,
                         std::string &Why) {
  for (int Guard = 0; Guard < 3; ++Guard) {
    deps::LoopAnalysis LS = deps::analyzeFunction(*S);
    deps::LoopAnalysis LV = deps::analyzeFunction(*V);
    if (!LS.HasLoop || !LV.HasLoop) {
      Why = "loop nest missing on one side";
      return false;
    }
    if (!LS.isNested() && !LV.isNested())
      return true;
    if (!LS.isNested() || !LV.isNested()) {
      Why = "loop nest depth differs between source and candidate";
      return false;
    }
    std::string HS, HV;
    UnrollResult RS = elevateOuterLoop(*S, HS);
    UnrollResult RV = elevateOuterLoop(*V, HV);
    if (!RS.ok() || !RV.ok()) {
      Why = RS.ok() ? RV.Error : RS.Error;
      return false;
    }
    if (HS != HV) {
      Why = format("outer loops are not syntactically identical:\n  "
                   "source: %s\n  target: %s",
                   HS.c_str(), HV.c_str());
      return false;
    }
    S = std::move(RS.Fn);
    V = std::move(RV.Fn);
  }
  Why = "loop nest deeper than supported";
  return false;
}

/// Compiles an AST to VIR, reporting failures.
static vir::VFunctionPtr lowerAst(const minic::Function &F,
                                  std::string &Err) {
  vir::LowerResult R = vir::lowerToVIR(F);
  if (!R.ok()) {
    Err = R.Error;
    return nullptr;
  }
  return std::move(R.Fn);
}

/// Stage 2: guarded symbolic unrolling of both loops (paper §3.1). When the
/// alignment names a trip-count parameter, the stage is one query per
/// admissible value of it, in ascending order, with the parameter pinned
/// and both sides unrolled to ScalarMax + 2; see core/Equivalence.h.
static TVResult checkWithAlive2Unroll(const vir::VFunction &SV,
                                      const vir::VFunction &VV,
                                      const Alignment &Align,
                                      const EquivConfig &Cfg) {
  tv::RefineOptions RO;
  RO.ScalarMax = Cfg.ScalarMax;
  RO.SrcExec.MemWindow = Cfg.ScalarMax + 8;
  RO.TgtExec.MemWindow = Cfg.ScalarMax + 8;
  RO.CompareWindow = Cfg.ScalarMax + 8;
  RO.Budget.MaxConflicts = Cfg.Alive2Budget;
  RO.MaxTerms = Cfg.MaxTerms;
  if (!Align.HasDiv) {
    RO.SrcExec.UnrollBound = static_cast<int>(Cfg.ScalarMax / Align.Step1) + 2;
    RO.TgtExec.UnrollBound = static_cast<int>(Cfg.ScalarMax / Align.Step2) + 2;
    return tv::checkRefinement(SV, VV, RO);
  }

  const tv::DivAssumption &D = Align.Div;
  RO.SrcExec.UnrollBound = Cfg.ScalarMax + 2;
  RO.TgtExec.UnrollBound = Cfg.ScalarMax + 2;
  TVResult Sum;
  Sum.V = TVVerdict::Equivalent;
  std::string Cases;
  for (int32_t N = 0; N <= Cfg.ScalarMax; ++N) {
    int64_t E = static_cast<int64_t>(N) + D.Offset;
    if (E < 0 || E % D.Mod != 0)
      continue;
    RO.Pins = {tv::ScalarPin{D.Param, N}};
    RO.Budget.MaxConflicts =
        Cfg.Alive2Budget - std::min(Sum.Conflicts, Cfg.Alive2Budget);
    TVResult R = tv::checkRefinement(SV, VV, RO);
    Sum.Conflicts += R.Conflicts;
    Sum.Propagations += R.Propagations;
    Sum.Restarts += R.Restarts;
    Sum.Clauses += R.Clauses;
    Sum.SatVars += R.SatVars;
    Sum.SolveNanos += R.SolveNanos;
    Sum.TermCount = std::max(Sum.TermCount, R.TermCount);
    Sum.LearntLive = R.LearntLive;
    Sum.AvgLBD = R.AvgLBD;
    appendf(Cases, "%s%d", Cases.empty() ? "" : ", ", N);
    if (R.V != TVVerdict::Equivalent) {
      Sum.V = R.V;
      Sum.Detail = format("%s = %d: %s", D.Param.c_str(), N, R.Detail.c_str());
      Sum.Counterexample = std::move(R.Counterexample);
      return Sum;
    }
  }
  if (Cases.empty()) {
    Sum.V = TVVerdict::Inconclusive;
    Sum.Detail = format("no admissible value of %s", D.Param.c_str());
  } else {
    Sum.Detail = format("refinement holds on the bounded domain (%s in {%s})",
                        D.Param.c_str(), Cases.c_str());
  }
  return Sum;
}

/// The staged funnel body, writing into \p Out so a cancellation unwind
/// keeps the per-stage evidence gathered before the deadline landed.
static void checkEquivalenceImpl(const std::string &ScalarSrc,
                                 const std::string &VecSrc,
                                 const EquivConfig &Cfg, EquivResult &Out) {

  vir::CompileResult SC = vir::compileFunction(ScalarSrc);
  if (!SC.ok()) {
    Out.Final = EquivResult::CannotCompile;
    Out.DecidedBy = Stage::Checksum;
    Out.Detail = "scalar source failed to compile: " + SC.Error;
    return;
  }
  vir::CompileResult VC = vir::compileFunction(VecSrc);
  if (!VC.ok()) {
    Out.Final = EquivResult::CannotCompile;
    Out.DecidedBy = Stage::Checksum;
    Out.Detail = "candidate failed to compile: " + VC.Error;
    return;
  }

  // Stage 1: checksum testing (paper §2.1). Engine selection (bytecode VM
  // vs tree-walk) rides on Cfg.Checksum.UseBytecode. The span both feeds
  // the trace and accumulates the stage wall into Out.ChecksumNanos —
  // scoped so the write lands before the enclosing function returns (the
  // destructor must not race a `return Out;` that may or may not be
  // NRVO'd into the same object). Same pattern for every stage below.
  {
    obs::Span Timer("equiv", "stage.checksum", &Out.ChecksumNanos);
    Out.ChecksumRes = interp::runChecksumTest(*SC.Fn, *VC.Fn, Cfg.Checksum);
    const interp::ChecksumWork &W = Out.ChecksumRes.Work;
    Timer.arg("instrs", W.Cand.Instrs + W.Scalar.Instrs);
    Timer.arg("cand_runs", W.CandRuns);
    Timer.arg("scalar_runs", W.ScalarRuns);
  }
  if (Out.ChecksumRes.Verdict == interp::TestVerdict::NotEquivalent) {
    Out.Final = EquivResult::Inequivalent;
    Out.DecidedBy = Stage::Checksum;
    Out.Detail = Out.ChecksumRes.Detail;
    return;
  }
  if (Out.ChecksumRes.Verdict == interp::TestVerdict::Error) {
    Out.Final = EquivResult::Inequivalent;
    Out.DecidedBy = Stage::Checksum;
    Out.Detail = "checksum harness: " + Out.ChecksumRes.Detail;
    return;
  }

  // Prepare TV-side ASTs: elevate nested loops (paper §3.1 "Nested loops").
  minic::FunctionPtr STv = SC.Ast->clone();
  minic::FunctionPtr VTv = VC.Ast->clone();
  std::string NestWhy;
  bool NestOk = elevateNests(STv, VTv, NestWhy);
  if (!NestOk) {
    Out.Final = EquivResult::Inconclusive;
    Out.Detail = "nested-loop handling: " + NestWhy;
    return;
  }

  Alignment Align = computeAlignment(*STv, *VTv);
  if (!Align.Valid) {
    Out.Final = EquivResult::Inconclusive;
    Out.Detail = "loop alignment failed (non-canonical loop shapes)";
    return;
  }

  std::string LowerErr;
  vir::VFunctionPtr SV = lowerAst(*STv, LowerErr);
  vir::VFunctionPtr VV = SV ? lowerAst(*VTv, LowerErr) : nullptr;
  if (!SV || !VV) {
    Out.Final = EquivResult::Inconclusive;
    Out.Detail = "TV lowering failed: " + LowerErr;
    return;
  }

  // Stage 2: checkWithAlive2Unroll — guarded symbolic unrolling.
  support::throwIfCancelled("equiv.stage2");
  if (Cfg.EnableAlive2) {
    bool Decided = false;
    {
      obs::Span Timer("equiv", "stage.alive2", &Out.Alive2Nanos);
      Out.Alive2Res = checkWithAlive2Unroll(*SV, *VV, Align, Cfg);
      if (Out.Alive2Res.V == TVVerdict::Equivalent ||
          Out.Alive2Res.V == TVVerdict::Inequivalent) {
        Out.Final = Out.Alive2Res.V == TVVerdict::Equivalent
                        ? EquivResult::Equivalent
                        : EquivResult::Inequivalent;
        Out.DecidedBy = Stage::Alive2Unroll;
        Out.Detail = Out.Alive2Res.Detail;
        Out.Counterexample = Out.Alive2Res.Counterexample;
        Decided = true;
      }
      Timer.arg("conflicts", Out.Alive2Res.Conflicts);
      Timer.arg("propagations", Out.Alive2Res.Propagations);
      Timer.arg("restarts", Out.Alive2Res.Restarts);
    }
    if (Decided)
      return;
  }

  // Stages 3-4 share one straight-lined encoding: both verify the same
  // aligned block, stage 3 over the full compare window and stage 4
  // cell-by-cell. One RefinementSession blasts that encoding once and every
  // query (the stage-3 attempt and each stage-4 cell) solves in its own
  // fork of that pristine base.
  UnrollResult SU, VU;
  vir::VFunctionPtr SUV, VUV;
  std::string UnrollErr;
  if (!Align.Step2Known) {
    // The candidate's first loop (say, a peel loop) has no known step, so
    // the copy count of an aligned block is a guess: a wrong one
    // straight-lines a different block than the source's and refutes a
    // correct candidate. Stages 3-4 are then Unsupported.
    UnrollErr = "candidate loop step not known: the aligned block cannot "
                "be straight-lined";
  } else if (Cfg.EnableCUnroll || Cfg.EnableSplitting) {
    SU = unrollStraightLine(*STv, Align.SrcCopies, /*DropLaterLoops=*/true);
    VU = unrollStraightLine(*VTv, Align.TgtCopies, /*DropLaterLoops=*/true);
    if (SU.ok() && VU.ok()) {
      SUV = lowerAst(*SU.Fn, UnrollErr);
      VUV = SUV ? lowerAst(*VU.Fn, UnrollErr) : nullptr;
    } else {
      UnrollErr = SU.ok() ? VU.Error : SU.Error;
    }
  }

  tv::RefineOptions StraightRO;
  StraightRO.ScalarMax = Cfg.ScalarMax;
  StraightRO.SrcExec.MemWindow = static_cast<int>(Align.Start + Align.V) + 10;
  StraightRO.TgtExec.MemWindow = StraightRO.SrcExec.MemWindow;
  StraightRO.CompareWindow = StraightRO.SrcExec.MemWindow;
  if (Align.HasDiv)
    StraightRO.Divs.push_back(Align.Div);
  StraightRO.MaxTerms = Cfg.MaxTerms;

  std::unique_ptr<tv::RefinementSession> Shared;
  auto sharedSession = [&]() -> tv::RefinementSession & {
    if (!Shared)
      Shared.reset(new tv::RefinementSession(*SUV, *VUV, StraightRO));
    return *Shared;
  };

  // Stage 3: checkWithCUnroll — straight-line one aligned block.
  support::throwIfCancelled("equiv.stage3");
  if (Cfg.EnableCUnroll) {
    bool Decided = false;
    {
      obs::Span Timer("equiv", "stage.cunroll", &Out.CUnrollNanos);
      if (SUV && VUV) {
        smt::SatBudget Budget = StraightRO.Budget;
        Budget.MaxConflicts = Cfg.CUnrollBudget;
        Out.CUnrollRes = sharedSession().checkFull(Budget);
        if (Out.CUnrollRes.V == TVVerdict::Equivalent ||
            Out.CUnrollRes.V == TVVerdict::Inequivalent) {
          Out.Final = Out.CUnrollRes.V == TVVerdict::Equivalent
                          ? EquivResult::Equivalent
                          : EquivResult::Inequivalent;
          Out.DecidedBy = Stage::CUnroll;
          Out.Detail = Out.CUnrollRes.Detail;
          Out.Counterexample = Out.CUnrollRes.Counterexample;
          Decided = true;
        }
      } else {
        Out.CUnrollRes.V = TVVerdict::Unsupported;
        Out.CUnrollRes.Detail = UnrollErr;
      }
      Timer.arg("conflicts", Out.CUnrollRes.Conflicts);
      Timer.arg("propagations", Out.CUnrollRes.Propagations);
      Timer.arg("restarts", Out.CUnrollRes.Restarts);
    }
    if (Decided)
      return;
  }

  // Stage 4: checkWithSpatialSplitting — per-cell queries under the
  // conservative no-loop-carried-dependence precondition.
  support::throwIfCancelled("equiv.stage4");
  if (Cfg.EnableSplitting) {
    bool Decided = false;
    {
      obs::Span Timer("equiv", "stage.split", &Out.SplitNanos);
      deps::LoopAnalysis LS = deps::analyzeFunction(*STv);
      deps::LoopAnalysis LV2 = deps::analyzeFunction(*VTv);
      bool TargetAligned = true;
      for (const deps::ArrayAccess &A : LV2.Accesses)
        if (!A.Sub.Valid || A.Sub.Coef != 1 || A.Sub.Offset != 0)
          TargetAligned = false;
      Out.SplittingEligible = LS.spatialSplittingEligible() &&
                              TargetAligned && SU.ok() && VU.ok();
      if (Out.SplittingEligible && SUV && VUV) {
        smt::SatBudget Budget = StraightRO.Budget;
        Budget.MaxConflicts = Cfg.SplitBudget;
        bool AllEq = true;
        // One query per cell, in cell order, stopping at the first
        // Inequivalent cell.
        for (int J = 0; J < static_cast<int>(Align.V) && !Decided; ++J) {
          support::throwIfCancelled("equiv.cell");
          int Cell = static_cast<int>(Align.Start) + J;
          TVResult RJ;
          if (Cfg.SplitCellOverride) {
            tv::RefineOptions RO = StraightRO;
            RO.CellFilter = Cell;
            RO.Budget = Budget;
            RJ = Cfg.SplitCellOverride(*SUV, *VUV, RO);
          } else {
            RJ = sharedSession().checkCell(Cell, Budget);
          }
          if (RJ.V == TVVerdict::Inequivalent) {
            Out.Final = EquivResult::Inequivalent;
            Out.DecidedBy = Stage::Splitting;
            Out.Detail = format("cell %d: %s", Cell, RJ.Detail.c_str());
            Out.Counterexample = RJ.Counterexample;
            Decided = true;
          }
          if (RJ.V != TVVerdict::Equivalent)
            AllEq = false;
          Out.SplitRes.push_back(std::move(RJ));
        }
        if (!Decided && AllEq) {
          Out.Final = EquivResult::Equivalent;
          Out.DecidedBy = Stage::Splitting;
          Out.Detail = format("all %d per-cell queries verified",
                              static_cast<int>(Align.V));
          Decided = true;
        }
      }
      uint64_t Conflicts = 0, Props = 0, Restarts = 0;
      for (const TVResult &RJ : Out.SplitRes) {
        Conflicts += RJ.Conflicts;
        Props += RJ.Propagations;
        Restarts += RJ.Restarts;
      }
      Timer.arg("cells", Out.SplitRes.size());
      Timer.arg("conflicts", Conflicts);
      Timer.arg("propagations", Props);
      Timer.arg("restarts", Restarts);
    }
    if (Decided)
      return;
  }

  Out.Final = EquivResult::Inconclusive;
  Out.Detail = "all stages inconclusive";
}

EquivResult lv::core::checkEquivalence(const std::string &ScalarSrc,
                                       const std::string &VecSrc,
                                       const EquivConfig &Cfg) {
  EquivResult Out;
  try {
    checkEquivalenceImpl(ScalarSrc, VecSrc, Cfg, Out);
  } catch (const support::CancelledError &E) {
    // The task deadline expired mid-stage. Every stage span is scoped, so
    // the unwind already flushed the per-stage nanos; the evidence up to
    // the cancel point stays on the result, the verdict degrades to
    // Inconclusive, and Cancelled marks the result as reflecting the
    // deadline rather than the pair (the caller must not cache it).
    Out.Final = EquivResult::Inconclusive;
    Out.DecidedBy = Stage::None;
    Out.Detail = std::string("cancelled: ") + E.what();
    Out.Cancelled = true;
  }
  return Out;
}
