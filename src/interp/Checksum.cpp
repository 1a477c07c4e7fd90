//===- interp/Checksum.cpp - checksum-based testing --------------------------===//
//
// runChecksumTest iterates the (N, run) input sets of one candidate,
// computing each scalar reference at most once (into a ScalarRefMemo —
// caller-owned or call-local) and restoring the candidate's memory image
// from the input snapshot instead of reallocating it. Because every random
// draw is forked per (N, run) from a base RNG whose state never advances,
// the reference for a given input set is byte-identical no matter which
// candidate (or call) triggered its computation — which is what makes
// memoization verdict-preserving.
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
/// UseBytecode. The bytecode engine compiles its function once per
/// runChecksumTest call and owns the program; nothing is shared across
/// calls (a compile costs less than a content-keyed cache lookup would).
/// The scratch register file is reused across this engine's runs.
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

/// Computes the memoized reference \p E for input set (\p N, \p Run) if it
/// is not already present: forks the per-(N, run) RNG stream, draws the
/// input image and argument plan, and executes the scalar once. The
/// execution is charged to \p W, the work of the call that computed it.
static void ensureRef(const VFunction &Scalar, Engine &SEng,
                      const ChecksumConfig &Cfg, const Rng &Base, int N,
                      int Run, ScalarRefMemo::RefRun &E, ChecksumWork &W,
                      ScalarRefMemo &Memo) {
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
  ++W.ScalarRuns;
  W.Scalar.add(RefRes.Work);
}

/// Index of the param region of \p To named like param region \p I of
/// \p From, or -1.
static int paramRegionByName(const VFunction &From, size_t I,
                             const VFunction &To) {
  if (!From.Memories[I].IsParam)
    return -1;
  for (size_t J = 0; J < To.Memories.size(); ++J)
    if (To.Memories[J].IsParam && To.Memories[J].Name == From.Memories[I].Name)
      return static_cast<int>(J);
  return -1;
}

static ChecksumOutcome runChecksumCore(const VFunction &Scalar,
                                       const VFunction &Vec,
                                       const ChecksumConfig &Cfg,
                                       ScalarRefMemo *Memo) {
  ChecksumOutcome Out;
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

  std::string Why;
  if (!signaturesMatch(Scalar, Vec, Why)) {
    Out.Verdict = TestVerdict::NotEquivalent;
    Out.Detail = "signature mismatch: " + Why;
    return Out;
  }
  // The candidate's engine, its region maps, and a memory image restored
  // (not reallocated) per run.
  Engine CEng = Engine::make(Vec, Cfg.UseBytecode);
  std::vector<int> InMap(Vec.Memories.size()); ///< Cand -> scalar region.
  for (size_t J = 0; J < Vec.Memories.size(); ++J)
    InMap[J] = paramRegionByName(Vec, J, Scalar);
  std::vector<int> OutMap(Scalar.Memories.size()); ///< Scalar -> cand.
  for (size_t I = 0; I < Scalar.Memories.size(); ++I)
    OutMap[I] = paramRegionByName(Scalar, I, Vec);
  MemoryImage Mem;
  Mem.Regions.resize(Vec.Memories.size());

  Rng R(Cfg.Seed);
  size_t RunIdx = 0;
  for (int N : Cfg.NValues) {
    for (int Run = 0; Run < Cfg.RunsPerN; ++Run, ++RunIdx) {
      // Cooperative deadline checkpoint, once per input set (the
      // in-run granularity is the VM/tree-walk periodic check).
      support::throwIfCancelled("interp.checksum");
      ScalarRefMemo::RefRun &E = Memo->Runs[RunIdx];
      ensureRef(Scalar, SEng, Cfg, R, N, Run, E, Out.Work, *Memo);
      ++Out.Work.InputSets;
      if (!E.RefOk) {
        // The reference itself misbehaves on this input: not usable as
        // an oracle; skip the run (the harness stays Plausible).
        continue;
      }
      // Restore the candidate image from the input snapshot. Local
      // regions keep stale contents — the interpreter's prologue
      // reinitializes them to zero exactly as on a fresh image.
      for (size_t J = 0; J < Mem.Regions.size(); ++J) {
        if (InMap[J] >= 0)
          Mem.Regions[J] = E.Input.Regions[static_cast<size_t>(InMap[J])];
        else if (Vec.Memories[J].IsParam)
          Mem.Regions[J].clear();
      }
      ExecResult CandRes = CEng.run(E.Args, Mem);
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
        return Out;
      }
      if (Scalar.ReturnsValue && E.RetVal != CandRes.RetVal) {
        Out.Verdict = TestVerdict::NotEquivalent;
        Out.FirstMismatch = {"return value", N, E.RetVal, CandRes.RetVal, ""};
        Out.Detail = format("return value differs at n=%d: expected %d, "
                            "got %d",
                            N, E.RetVal, CandRes.RetVal);
        return Out;
      }
      // Compare every parameter region (by name): a memcmp fast path
      // over the whole buffer, dropping into the elementwise scan only
      // to locate and report the first differing index.
      for (size_t I = 0; I < Scalar.Memories.size(); ++I) {
        if (OutMap[I] < 0)
          continue;
        const std::vector<int32_t> &RefBuf = E.RefOut.Regions[I];
        const std::vector<int32_t> &CandBuf =
            Mem.Regions[static_cast<size_t>(OutMap[I])];
        if (RefBuf.size() == CandBuf.size() &&
            std::memcmp(RefBuf.data(), CandBuf.data(),
                        RefBuf.size() * sizeof(int32_t)) == 0)
          continue;
        for (size_t K = 0; K < RefBuf.size(); ++K) {
          if (RefBuf[K] == CandBuf[K])
            continue;
          Out.Verdict = TestVerdict::NotEquivalent;
          Out.FirstMismatch = {format("array '%s' index %zu",
                                      Scalar.Memories[I].Name.c_str(), K),
                               N, RefBuf[K], CandBuf[K], ""};
          Out.Detail =
              format("output mismatch at n=%d, %s: expected %d, got %d", N,
                     Out.FirstMismatch.Where.c_str(), RefBuf[K], CandBuf[K]);
          return Out;
        }
      }
    }
  }
  Out.Verdict = TestVerdict::Plausible;
  Out.Detail = "all runs matched";
  return Out;
}

ChecksumOutcome lv::interp::runChecksumTest(const VFunction &Scalar,
                                            const VFunction &Vec,
                                            const ChecksumConfig &Cfg,
                                            ScalarRefMemo *Memo) {
  uint64_t Nanos = 0;
  ChecksumOutcome Out;
  {
    // The span and counter names predate the single-candidate harness;
    // each span and each interp.checksum_batches tick is one call.
    obs::Span S("interp", "checksum.batch", &Nanos);
    Out = runChecksumCore(Scalar, Vec, Cfg, Memo);
    ChecksumWork &W = Out.Work;
    // Every input set whose reference came from the memo is a saved
    // scalar run.
    W.ScalarRunsSaved = W.InputSets - W.ScalarRuns;
    uint64_t Instrs = W.Cand.Instrs + W.Scalar.Instrs;
    S.arg("candidates", 1);
    S.arg("instrs", Instrs);
    S.arg("cand_runs", W.CandRuns);
    S.arg("scalar_runs", W.ScalarRuns);
    S.arg("input_sets", W.InputSets);
    S.arg("scalar_runs_saved", W.ScalarRunsSaved);
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
    CCand.inc(W.CandRuns);
    CScalar.inc(W.ScalarRuns);
    CSets.inc(W.InputSets);
    CSaved.inc(W.ScalarRunsSaved);
    CTraps.inc(W.CandTrap != TrapKind::None ? 1 : 0);
    CHangs.inc(W.CandHang ? 1 : 0);
  }
  obs::histogram("interp.checksum_ns").observe(Nanos);
  return Out;
}
