//===- interp/Checksum.cpp - checksum-based testing --------------------------===//
//
// One core drives both entry points: runChecksumBatch iterates (N, run)
// input sets in the outer loop and candidates in the inner loop, computing
// each scalar reference at most once (into a ScalarRefMemo — caller-owned
// or call-local) and restoring each candidate's memory image from the
// input snapshot instead of reallocating it. runChecksumTest is the
// single-candidate wrapper. Because every random draw is forked per
// (N, run) from a base RNG whose state never advances, the reference for a
// given input set is byte-identical no matter which candidate (or call)
// triggered its computation — which is what makes memoization and batching
// verdict-preserving.
//
//===----------------------------------------------------------------------===//

#include "interp/Checksum.h"

#include "interp/Bytecode.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Cancel.h"
#include "support/Format.h"
#include "support/Rng.h"

#include <algorithm>
#include <cstring>
#include <optional>

using namespace lv;
using namespace lv::interp;
using namespace lv::vir;

uint64_t ChecksumConfig::configHash() const {
  uint64_t H = 0xC5C5ULL;
  H = hashField(H, 1, Seed);
  H = hashField(H, 2, static_cast<uint64_t>(RunsPerN));
  H = hashField(H, 3, NValues.size());
  for (int N : NValues)
    H = hashField(H, 4, static_cast<uint64_t>(static_cast<uint32_t>(N)));
  H = hashField(H, 5, static_cast<uint64_t>(BufferLen));
  H = hashField(H, 6, static_cast<uint64_t>(static_cast<uint32_t>(ValueMin)));
  H = hashField(H, 7, static_cast<uint64_t>(static_cast<uint32_t>(ValueMax)));
  H = hashField(H, 8, UseBytecode ? 1 : 0);
  return H;
}

namespace {

/// Scalar argument values for one run, matched by parameter name.
static std::vector<int32_t>
argsFor(const VFunction &F,
        const std::vector<std::pair<std::string, int32_t>> &Named) {
  std::vector<int32_t> Out;
  for (const VParam &P : F.Params) {
    if (P.IsPointer)
      continue;
    auto It = std::find_if(Named.begin(), Named.end(),
                           [&](const auto &KV) { return KV.first == P.Name; });
    Out.push_back(It == Named.end() ? 0 : It->second);
  }
  return Out;
}

/// One function bound to an execution engine per ChecksumConfig::
/// UseBytecode. The bytecode engine compiles its function once, when the
/// batch starts, and owns the program; nothing is shared across batches
/// (a compile costs less than a content-keyed cache lookup would). The
/// scratch register file is reused across this engine's runs.
struct Engine {
  const VFunction *Fn = nullptr;
  std::optional<BytecodeProgram> Prog; ///< Empty => tree-walk.
  BytecodeScratch Scratch;

  static Engine make(const VFunction &F, bool Bytecode) {
    Engine E;
    E.Fn = &F;
    if (Bytecode)
      E.Prog = compileBytecode(F);
    return E;
  }
  ExecResult run(const std::vector<int32_t> &Args, MemoryImage &Mem) {
    return Prog ? execBytecode(*Prog, Args, Mem, ExecConfig(), &Scratch)
                : execute(*Fn, Args, Mem);
  }
  /// Content key of the bound function (memo identity).
  std::string key() const { return bytecodeKey(*Fn); }
};

} // namespace

/// Checks that both functions agree on the parameter list (names + kinds).
static bool signaturesMatch(const VFunction &A, const VFunction &B,
                            std::string &Why) {
  if (A.Params.size() != B.Params.size()) {
    Why = "parameter count differs";
    return false;
  }
  for (size_t I = 0; I < A.Params.size(); ++I) {
    if (A.Params[I].Name != B.Params[I].Name ||
        A.Params[I].IsPointer != B.Params[I].IsPointer) {
      Why = format("parameter %zu differs ('%s' vs '%s')", I,
                   A.Params[I].Name.c_str(), B.Params[I].Name.c_str());
      return false;
    }
  }
  if (A.ReturnsValue != B.ReturnsValue) {
    Why = "return type differs";
    return false;
  }
  return true;
}

/// Builds the per-parameter-region input image (param regions only).
static MemoryImage makeInputs(const VFunction &F, int BufferLen, Rng &R,
                              int32_t Lo, int32_t Hi) {
  MemoryImage M;
  for (size_t I = 0; I < F.Memories.size(); ++I) {
    M.Regions.emplace_back();
    if (!F.Memories[I].IsParam)
      continue; // allocated by the interpreter
    std::vector<int32_t> Buf(static_cast<size_t>(BufferLen));
    for (int32_t &V : Buf)
      V = R.rangeInt(Lo, Hi);
    M.Regions.back() = std::move(Buf);
  }
  return M;
}

/// Computes the memoized reference for input set \p RunIdx if it is not
/// already present: forks the per-(N, run) RNG stream, draws the input
/// image and argument plan, and executes the scalar once.
static void ensureRef(const VFunction &Scalar, Engine &SEng,
                      const ChecksumConfig &Cfg, const Rng &Base, int N,
                      int Run, ScalarRefMemo::RefRun &E,
                      ChecksumBatchResult &Agg, ScalarRefMemo &Memo) {
  if (E.Computed)
    return;
  E.Computed = true;
  Rng StreamR = Base.fork(hashCombine(static_cast<uint64_t>(N),
                                      static_cast<uint64_t>(Run)));
  E.Input = makeInputs(Scalar, Cfg.BufferLen, StreamR, Cfg.ValueMin,
                       Cfg.ValueMax);
  std::vector<std::pair<std::string, int32_t>> Named;
  for (const VParam &P : Scalar.Params) {
    if (P.IsPointer)
      continue;
    int32_t V = P.Name == "n" ? N : StreamR.rangeInt(0, 16);
    Named.emplace_back(P.Name, V);
  }
  E.Args = argsFor(Scalar, Named);
  E.RefOut = E.Input; // snapshot; the reference mutates the copy
  ExecResult RefRes = SEng.run(E.Args, E.RefOut);
  E.RefOk = RefRes.ok();
  E.RetVal = RefRes.RetVal;
  E.ScalarWork = RefRes.Work;
  ++Memo.ScalarRuns;
  ++Agg.ScalarRuns;
  Agg.ScalarWork.add(RefRes.Work);
}

static ChecksumBatchResult runChecksumBatchCore(
    const VFunction &Scalar, const std::vector<const VFunction *> &Candidates,
    const ChecksumConfig &Cfg, ScalarRefMemo *Memo) {
  ChecksumBatchResult Res;
  Res.Outcomes.resize(Candidates.size());

  Engine SEng = Engine::make(Scalar, Cfg.UseBytecode);

  // Validate (or initialize) the reference memo against this scalar and
  // config; a mismatch resets it rather than replaying stale outputs.
  ScalarRefMemo Local;
  if (!Memo)
    Memo = &Local;
  uint64_t CfgHash = Cfg.configHash();
  size_t NumRuns = Cfg.NValues.size() * static_cast<size_t>(Cfg.RunsPerN);
  std::string SKey = SEng.key();
  if (Memo->ConfigHash != CfgHash || Memo->ScalarKey != SKey ||
      Memo->Runs.size() != NumRuns) {
    Memo->ConfigHash = CfgHash;
    Memo->ScalarKey = SKey;
    Memo->Runs.assign(NumRuns, ScalarRefMemo::RefRun());
    Memo->ScalarRuns = 0;
  }

  // Per-candidate state: engine, region maps, a persistent memory image
  // restored (not reallocated) per run, and the running verdict.
  struct CandState {
    const VFunction *Fn = nullptr;
    Engine Eng;
    std::vector<int> InMap;  ///< Cand region -> scalar region (-1 none).
    std::vector<int> OutMap; ///< Scalar region -> cand region (-1 skip).
    MemoryImage Mem;
    bool Decided = false;
  };
  std::vector<CandState> Cands(Candidates.size());
  size_t Undecided = 0;
  for (size_t C = 0; C < Candidates.size(); ++C) {
    const VFunction &Vec = *Candidates[C];
    CandState &St = Cands[C];
    St.Fn = &Vec;
    ChecksumOutcome &Out = Res.Outcomes[C];
    std::string Why;
    if (!signaturesMatch(Scalar, Vec, Why)) {
      Out.Verdict = TestVerdict::NotEquivalent;
      Out.Detail = "signature mismatch: " + Why;
      St.Decided = true;
      continue;
    }
    St.Eng = Engine::make(Vec, Cfg.UseBytecode);
    St.InMap.assign(Vec.Memories.size(), -1);
    for (size_t J = 0; J < Vec.Memories.size(); ++J) {
      if (!Vec.Memories[J].IsParam)
        continue;
      for (size_t I = 0; I < Scalar.Memories.size(); ++I)
        if (Scalar.Memories[I].IsParam &&
            Scalar.Memories[I].Name == Vec.Memories[J].Name) {
          St.InMap[J] = static_cast<int>(I);
          break;
        }
    }
    St.OutMap.assign(Scalar.Memories.size(), -1);
    for (size_t I = 0; I < Scalar.Memories.size(); ++I) {
      if (!Scalar.Memories[I].IsParam)
        continue;
      for (size_t J = 0; J < Vec.Memories.size(); ++J)
        if (Vec.Memories[J].IsParam &&
            Vec.Memories[J].Name == Scalar.Memories[I].Name) {
          St.OutMap[I] = static_cast<int>(J);
          break;
        }
    }
    St.Mem.Regions.resize(Vec.Memories.size());
    ++Undecided;
  }

  Rng R(Cfg.Seed);
  size_t RunIdx = 0;
  for (size_t NI = 0; NI < Cfg.NValues.size() && Undecided; ++NI) {
    int N = Cfg.NValues[NI];
    for (int Run = 0; Run < Cfg.RunsPerN && Undecided; ++Run, ++RunIdx) {
      // Cooperative deadline checkpoint, once per input set (the
      // in-run granularity is the VM/tree-walk periodic check).
      support::throwIfCancelled("interp.checksum");
      ScalarRefMemo::RefRun &E = Memo->Runs[RunIdx];
      ensureRef(Scalar, SEng, Cfg, R, N, Run, E, Res, *Memo);
      ++Res.InputSets;

      for (size_t C = 0; C < Cands.size(); ++C) {
        CandState &St = Cands[C];
        if (St.Decided)
          continue;
        ChecksumOutcome &Out = Res.Outcomes[C];
        ++Out.Work.InputSets;
        if (!E.RefOk) {
          // The reference itself misbehaves on this input: not usable as
          // an oracle; skip the run (the harness stays Plausible).
          continue;
        }
        // Restore the candidate image from the input snapshot. Local
        // regions keep stale contents — the interpreter's prologue
        // reinitializes them to zero exactly as on a fresh image.
        for (size_t J = 0; J < St.Mem.Regions.size(); ++J) {
          if (St.InMap[J] >= 0)
            St.Mem.Regions[J] =
                E.Input.Regions[static_cast<size_t>(St.InMap[J])];
          else if (St.Fn->Memories[J].IsParam)
            St.Mem.Regions[J].clear();
        }
        ExecResult CandRes = St.Eng.run(E.Args, St.Mem);
        ++Out.Work.CandRuns;
        Out.Work.Cand.add(CandRes.Work);
        if (!CandRes.ok()) {
          Out.Verdict = TestVerdict::NotEquivalent;
          Out.FirstMismatch.N = N;
          Out.FirstMismatch.TrapMsg = CandRes.St == ExecResult::OutOfFuel
                                          ? "candidate did not terminate"
                                          : CandRes.TrapMsg;
          Out.Detail = format("candidate failed at n=%d: %s", N,
                              Out.FirstMismatch.TrapMsg.c_str());
          Out.Work.CandTrap = CandRes.Cause;
          Out.Work.CandHang = CandRes.St == ExecResult::OutOfFuel;
          St.Decided = true;
          --Undecided;
          continue;
        }
        if (Scalar.ReturnsValue && E.RetVal != CandRes.RetVal) {
          Out.Verdict = TestVerdict::NotEquivalent;
          Out.FirstMismatch = {"return value", N, E.RetVal, CandRes.RetVal,
                               ""};
          Out.Detail = format("return value differs at n=%d: expected %d, "
                              "got %d",
                              N, E.RetVal, CandRes.RetVal);
          St.Decided = true;
          --Undecided;
          continue;
        }
        // Compare every parameter region (by name): a memcmp fast path
        // over the whole buffer, dropping into the elementwise scan only
        // to locate and report the first differing index.
        for (size_t I = 0; I < Scalar.Memories.size() && !St.Decided; ++I) {
          if (St.OutMap[I] < 0)
            continue;
          const std::vector<int32_t> &RefBuf = E.RefOut.Regions[I];
          const std::vector<int32_t> &CandBuf =
              St.Mem.Regions[static_cast<size_t>(St.OutMap[I])];
          if (RefBuf.size() == CandBuf.size() &&
              std::memcmp(RefBuf.data(), CandBuf.data(),
                          RefBuf.size() * sizeof(int32_t)) == 0)
            continue;
          for (size_t K = 0; K < RefBuf.size(); ++K) {
            if (RefBuf[K] == CandBuf[K])
              continue;
            Out.Verdict = TestVerdict::NotEquivalent;
            Out.FirstMismatch = {
                format("array '%s' index %zu",
                       Scalar.Memories[I].Name.c_str(), K),
                N, RefBuf[K], CandBuf[K], ""};
            Out.Detail = format(
                "output mismatch at n=%d, %s: expected %d, got %d", N,
                Out.FirstMismatch.Where.c_str(), RefBuf[K], CandBuf[K]);
            St.Decided = true;
            --Undecided;
            break;
          }
        }
      }
    }
  }

  for (size_t C = 0; C < Cands.size(); ++C) {
    if (Cands[C].Decided)
      continue;
    Res.Outcomes[C].Verdict = TestVerdict::Plausible;
    Res.Outcomes[C].Detail = "all runs matched";
  }
  return Res;
}

ChecksumBatchResult lv::interp::runChecksumBatch(
    const VFunction &Scalar, const std::vector<const VFunction *> &Candidates,
    const ChecksumConfig &Cfg, ScalarRefMemo *Memo) {
  // The span args below are invariant under the runChecksumTest wrapper's
  // later move of batch-level scalar work into the single outcome:
  // outcome Scalar/ScalarRuns fields are still zero here, so summing
  // outcomes *plus* the batch-level Res fields counts each unit of work
  // exactly once under both call shapes. That makes Σ(span args) equal the
  // StageInterpWork tallies svc aggregates — the bench parity gates check
  // this equality.
  uint64_t BatchNanos = 0;
  ChecksumBatchResult Res;
  {
    obs::Span S("interp", "checksum.batch", &BatchNanos);
    Res = runChecksumBatchCore(Scalar, Candidates, Cfg, Memo);
    uint64_t Instrs = Res.ScalarWork.Instrs;
    uint64_t CandRuns = 0, Sets = 0, Traps = 0, Hangs = 0;
    for (const ChecksumOutcome &O : Res.Outcomes) {
      Instrs += O.Work.Cand.Instrs + O.Work.Scalar.Instrs;
      CandRuns += O.Work.CandRuns;
      Sets += O.Work.InputSets;
      Traps += O.Work.CandTrap != TrapKind::None ? 1 : 0;
      Hangs += O.Work.CandHang ? 1 : 0;
    }
    uint64_t Saved = Sets > Res.ScalarRuns ? Sets - Res.ScalarRuns : 0;
    S.arg("candidates", Res.Outcomes.size());
    S.arg("instrs", Instrs);
    S.arg("cand_runs", CandRuns);
    S.arg("scalar_runs", Res.ScalarRuns);
    S.arg("input_sets", Sets);
    S.arg("scalar_runs_saved", Saved);
    static obs::Counter &Batches = obs::counter("interp.checksum_batches");
    static obs::Counter &CInstrs = obs::counter("interp.instrs");
    static obs::Counter &CCand = obs::counter("interp.cand_runs");
    static obs::Counter &CScalar = obs::counter("interp.scalar_runs");
    static obs::Counter &CSets = obs::counter("interp.input_sets");
    static obs::Counter &CSaved = obs::counter("interp.scalar_runs_saved");
    static obs::Counter &CTraps = obs::counter("interp.traps");
    static obs::Counter &CHangs = obs::counter("interp.hangs");
    Batches.inc();
    CInstrs.inc(Instrs);
    CCand.inc(CandRuns);
    CScalar.inc(Res.ScalarRuns);
    CSets.inc(Sets);
    CSaved.inc(Saved);
    CTraps.inc(Traps);
    CHangs.inc(Hangs);
  }
  obs::histogram("interp.checksum_ns").observe(BatchNanos);
  return Res;
}

ChecksumOutcome lv::interp::runChecksumTest(const VFunction &Scalar,
                                            const VFunction &Vec,
                                            const ChecksumConfig &Cfg,
                                            ScalarRefMemo *Memo) {
  std::vector<const VFunction *> One{&Vec};
  ChecksumBatchResult R = runChecksumBatch(Scalar, One, Cfg, Memo);
  ChecksumOutcome Out = std::move(R.Outcomes[0]);
  // Single-candidate call: the reference-side work belongs to this
  // outcome. Sets whose reference came from the memo are the savings.
  Out.Work.ScalarRuns = R.ScalarRuns;
  Out.Work.ScalarRunsSaved =
      R.InputSets > R.ScalarRuns ? R.InputSets - R.ScalarRuns : 0;
  Out.Work.Scalar = R.ScalarWork;
  return Out;
}
