//===- store/Store.cpp - persistent content-addressed result store -----------===//

#include "store/Store.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Rng.h"

#include <cstring>

using namespace lv;
using namespace lv::store;

namespace {

using framing::Rd;
using framing::Wr;

constexpr uint32_t FileMagic = 0x4C565354; // "LVST"

enum RecordKind : uint8_t {
  KindEquiv = 1,
  KindChecksum = 2,
  KindProgram = 3,
};

//===----------------------------------------------------------------------===//
// Value serialization
//===----------------------------------------------------------------------===//

void putInterpWork(Wr &W, const interp::InterpWork &V) {
  W.u64(V.Instrs);
  W.u32(static_cast<uint32_t>(interp::kNumOpClasses));
  for (size_t I = 0; I < interp::kNumOpClasses; ++I)
    W.u64(V.Hist[I]);
}

bool getInterpWork(Rd &R, interp::InterpWork &V) {
  V.Instrs = R.u64();
  if (R.u32() != interp::kNumOpClasses)
    R.Fail = true;
  for (size_t I = 0; I < interp::kNumOpClasses && !R.Fail; ++I)
    V.Hist[I] = R.u64();
  return !R.Fail;
}

void putChecksum(Wr &W, const interp::ChecksumOutcome &O) {
  W.u8(static_cast<uint8_t>(O.Verdict));
  W.str(O.FirstMismatch.Where);
  W.i32(O.FirstMismatch.N);
  W.i32(O.FirstMismatch.Expected);
  W.i32(O.FirstMismatch.Actual);
  W.str(O.FirstMismatch.TrapMsg);
  W.str(O.Detail);
  W.u64(O.Work.InputSets);
  W.u64(O.Work.CandRuns);
  W.u64(O.Work.ScalarRuns);
  W.u64(O.Work.ScalarRunsSaved);
  putInterpWork(W, O.Work.Cand);
  putInterpWork(W, O.Work.Scalar);
  W.u8(static_cast<uint8_t>(O.Work.CandTrap));
  W.u8(O.Work.CandHang ? 1 : 0);
}

bool getChecksum(Rd &R, interp::ChecksumOutcome &O) {
  uint8_t Verdict = R.u8();
  if (Verdict > static_cast<uint8_t>(interp::TestVerdict::Error))
    R.Fail = true;
  O.Verdict = static_cast<interp::TestVerdict>(Verdict);
  O.FirstMismatch.Where = R.str();
  O.FirstMismatch.N = R.i32();
  O.FirstMismatch.Expected = R.i32();
  O.FirstMismatch.Actual = R.i32();
  O.FirstMismatch.TrapMsg = R.str();
  O.Detail = R.str();
  O.Work.InputSets = R.u64();
  O.Work.CandRuns = R.u64();
  O.Work.ScalarRuns = R.u64();
  O.Work.ScalarRunsSaved = R.u64();
  getInterpWork(R, O.Work.Cand);
  getInterpWork(R, O.Work.Scalar);
  uint8_t Trap = R.u8();
  if (Trap > static_cast<uint8_t>(interp::TrapKind::Unknown))
    R.Fail = true;
  O.Work.CandTrap = static_cast<interp::TrapKind>(Trap);
  O.Work.CandHang = R.u8() != 0;
  return !R.Fail;
}

void putTV(Wr &W, const tv::TVResult &V) {
  W.u8(static_cast<uint8_t>(V.V));
  W.str(V.Counterexample);
  W.str(V.Detail);
  W.u64(V.Conflicts);
  W.u64(V.Propagations);
  W.u64(V.Restarts);
  W.u64(V.TrailReused);
  W.u64(V.ConeVars);
  W.u64(V.ConeClauses);
  W.u64(V.Clauses);
  W.u64(V.SatVars);
  W.u64(V.LearntLive);
  W.d(V.AvgLBD);
  W.u64(V.SolveNanos);
  W.u64(static_cast<uint64_t>(V.TermCount));
  W.u8(V.PortfolioArm);
  W.u64(V.FastConflicts);
  W.u64(V.FastPropagations);
  W.u64(V.FastRestarts);
  W.u64(V.FastTrailReused);
  W.u64(V.FastConeVars);
  W.u64(V.FastConeClauses);
}

bool getTV(Rd &R, tv::TVResult &V) {
  uint8_t Verdict = R.u8();
  if (Verdict > static_cast<uint8_t>(tv::TVVerdict::Unsupported))
    R.Fail = true;
  V.V = static_cast<tv::TVVerdict>(Verdict);
  V.Counterexample = R.str();
  V.Detail = R.str();
  V.Conflicts = R.u64();
  V.Propagations = R.u64();
  V.Restarts = R.u64();
  V.TrailReused = R.u64();
  V.ConeVars = R.u64();
  V.ConeClauses = R.u64();
  V.Clauses = R.u64();
  V.SatVars = R.u64();
  V.LearntLive = R.u64();
  V.AvgLBD = R.d();
  V.SolveNanos = R.u64();
  V.TermCount = static_cast<size_t>(R.u64());
  uint8_t Arm = R.u8();
  if (Arm > 2)
    R.Fail = true;
  V.PortfolioArm = Arm;
  V.FastConflicts = R.u64();
  V.FastPropagations = R.u64();
  V.FastRestarts = R.u64();
  V.FastTrailReused = R.u64();
  V.FastConeVars = R.u64();
  V.FastConeClauses = R.u64();
  return !R.Fail;
}

void putEquiv(Wr &W, const core::EquivResult &E) {
  W.u8(static_cast<uint8_t>(E.Final));
  W.u8(static_cast<uint8_t>(E.DecidedBy));
  W.str(E.Detail);
  W.str(E.Counterexample);
  putChecksum(W, E.ChecksumRes);
  putTV(W, E.Alive2Res);
  putTV(W, E.CUnrollRes);
  W.u32(static_cast<uint32_t>(E.SplitRes.size()));
  for (const tv::TVResult &S : E.SplitRes)
    putTV(W, S);
  W.u8(E.SplittingEligible ? 1 : 0);
  W.u64(E.ChecksumNanos);
  W.u64(E.Alive2Nanos);
  W.u64(E.CUnrollNanos);
  W.u64(E.SplitNanos);
}

bool getEquiv(Rd &R, core::EquivResult &E) {
  uint8_t Final = R.u8();
  if (Final > static_cast<uint8_t>(core::EquivResult::Inconclusive))
    R.Fail = true;
  E.Final = static_cast<core::EquivResult::Outcome>(Final);
  uint8_t Stage = R.u8();
  if (Stage > static_cast<uint8_t>(core::Stage::Splitting))
    R.Fail = true;
  E.DecidedBy = static_cast<core::Stage>(Stage);
  E.Detail = R.str();
  E.Counterexample = R.str();
  getChecksum(R, E.ChecksumRes);
  getTV(R, E.Alive2Res);
  getTV(R, E.CUnrollRes);
  uint32_t NSplit = R.u32();
  // A corrupt length must not allocate unbounded memory before the CRC
  // framing already vetted the payload; still, cap defensively.
  if (NSplit > 1u << 20)
    R.Fail = true;
  E.SplitRes.clear();
  for (uint32_t I = 0; I < NSplit && !R.Fail; ++I) {
    tv::TVResult S;
    getTV(R, S);
    E.SplitRes.push_back(std::move(S));
  }
  E.SplittingEligible = R.u8() != 0;
  E.ChecksumNanos = R.u64();
  E.Alive2Nanos = R.u64();
  E.CUnrollNanos = R.u64();
  E.SplitNanos = R.u64();
  return !R.Fail;
}

void putProgram(Wr &W, const interp::BytecodeProgram &P) {
  W.str(P.Key);
  W.u32(static_cast<uint32_t>(P.Code.size()));
  for (const interp::BInst &I : P.Code) {
    W.u8(static_cast<uint8_t>(I.Op));
    W.u8(I.Cls);
    W.i32(I.Rd);
    W.i32(I.A);
    W.i32(I.B);
    W.i32(I.C);
    W.i64(I.Imm);
  }
  W.u32(static_cast<uint32_t>(P.Extra.size()));
  for (int32_t V : P.Extra)
    W.i32(V);
  W.i32(P.NumRegs);
  W.u8(P.ReturnsValue ? 1 : 0);
  W.u32(static_cast<uint32_t>(P.Params.size()));
  for (const interp::BytecodeProgram::ParamBind &B : P.Params) {
    W.u8(B.IsPointer ? 1 : 0);
    W.i32(B.Reg);
  }
  W.u32(static_cast<uint32_t>(P.Mems.size()));
  for (const interp::BytecodeProgram::MemBind &B : P.Mems) {
    W.str(B.Name);
    W.u8(B.IsParam ? 1 : 0);
    W.i64(B.LocalSize);
  }
}

bool getProgram(Rd &R, interp::BytecodeProgram &P) {
  P.Key = R.str();
  uint32_t NCode = R.u32();
  if (NCode > 1u << 24)
    R.Fail = true;
  P.Code.clear();
  for (uint32_t I = 0; I < NCode && !R.Fail; ++I) {
    interp::BInst Inst;
    uint8_t Op = R.u8();
    if (Op >= interp::kNumBC)
      R.Fail = true;
    Inst.Op = static_cast<interp::BC>(Op);
    Inst.Cls = R.u8();
    if (Inst.Cls >= interp::kNumOpClasses)
      R.Fail = true;
    Inst.Rd = R.i32();
    Inst.A = R.i32();
    Inst.B = R.i32();
    Inst.C = R.i32();
    Inst.Imm = R.i64();
    P.Code.push_back(Inst);
  }
  uint32_t NExtra = R.u32();
  if (NExtra > 1u << 24)
    R.Fail = true;
  P.Extra.clear();
  for (uint32_t I = 0; I < NExtra && !R.Fail; ++I)
    P.Extra.push_back(R.i32());
  P.NumRegs = R.i32();
  P.ReturnsValue = R.u8() != 0;
  uint32_t NParams = R.u32();
  if (NParams > 1u << 16)
    R.Fail = true;
  P.Params.clear();
  for (uint32_t I = 0; I < NParams && !R.Fail; ++I) {
    interp::BytecodeProgram::ParamBind B;
    B.IsPointer = R.u8() != 0;
    B.Reg = R.i32();
    P.Params.push_back(B);
  }
  uint32_t NMems = R.u32();
  if (NMems > 1u << 16)
    R.Fail = true;
  P.Mems.clear();
  for (uint32_t I = 0; I < NMems && !R.Fail; ++I) {
    interp::BytecodeProgram::MemBind B;
    B.Name = R.str();
    B.IsParam = R.u8() != 0;
    B.LocalSize = R.i64();
    P.Mems.push_back(std::move(B));
  }
  return !R.Fail && !P.Key.empty();
}

//===----------------------------------------------------------------------===//
// Bytecode persistence hook (process-global, one owner)
//===----------------------------------------------------------------------===//

std::mutex HookM;
ResultStore *HookOwner = nullptr;

// Chaos file-fault hooks (see ChaosFileHooks in Store.h).
std::mutex ChaosM;
lv::store::ChaosFileHooks ChaosHooks;

bool chaosFailAppend() {
  std::function<bool()> F;
  {
    std::lock_guard<std::mutex> L(ChaosM);
    F = ChaosHooks.FailAppend;
  }
  return F && F();
}

bool chaosFailLoad() {
  std::function<bool()> F;
  {
    std::lock_guard<std::mutex> L(ChaosM);
    F = ChaosHooks.FailLoad;
  }
  return F && F();
}

} // namespace

void lv::store::setChaosFileHooks(ChaosFileHooks H) {
  std::lock_guard<std::mutex> L(ChaosM);
  ChaosHooks = std::move(H);
}

std::string lv::store::serializeEquivResult(const core::EquivResult &R) {
  std::string Out;
  Wr W{Out};
  putEquiv(W, R);
  return Out;
}

bool lv::store::deserializeEquivResult(const std::string &Bytes,
                                       core::EquivResult &Out) {
  Rd R(Bytes);
  return getEquiv(R, Out) && R.done();
}

std::string
lv::store::serializeChecksumOutcome(const interp::ChecksumOutcome &O) {
  std::string Out;
  Wr W{Out};
  putChecksum(W, O);
  return Out;
}

bool lv::store::deserializeChecksumOutcome(const std::string &Bytes,
                                           interp::ChecksumOutcome &Out) {
  Rd R(Bytes);
  return getChecksum(R, Out) && R.done();
}

std::string lv::store::serializeProgram(const interp::BytecodeProgram &P) {
  std::string Out;
  Wr W{Out};
  putProgram(W, P);
  return Out;
}

bool lv::store::deserializeProgram(const std::string &Bytes,
                                   interp::BytecodeProgram &Out) {
  Rd R(Bytes);
  return getProgram(R, Out) && R.done();
}

//===----------------------------------------------------------------------===//
// ResultStore
//===----------------------------------------------------------------------===//

size_t ResultStore::Key3Hash::operator()(const Key3 &K) const {
  return static_cast<size_t>(
      hashCombine(hashCombine(K.Scalar, K.Candidate), K.Config));
}

ResultStore::ResultStore(const std::string &D)
    : Dir(D), Log(D, "records.log", FileMagic, SchemaVersion, "store",
                  LogFaults{chaosFailLoad, chaosFailAppend}) {
  obs::Span LoadSpan("store", "store.load");
  LoadSpan.argStr("dir", Dir);
  Log.open([this](Rd &R) { return decodeRecord(R); });
  const LogStats &LS = Log.stats();
  LoadSpan.arg("equiv", Stats.LoadedEquiv);
  LoadSpan.arg("checksum", Stats.LoadedChecksum);
  LoadSpan.arg("programs", Stats.LoadedPrograms);
  LoadSpan.arg("corrupt_skipped", LS.CorruptSkipped);
  LoadSpan.arg("version_skipped", LS.VersionSkipped);
}

ResultStore::~ResultStore() { disableBytecodePersistence(); }

bool ResultStore::decodeRecord(Rd &R) {
  switch (R.u8()) {
  case KindEquiv: {
    Key3 K{R.u64(), R.u64(), R.u64()};
    Entry<core::EquivResult> E;
    E.ScalarSrc = R.str();
    E.CandSrc = R.str();
    if (!getEquiv(R, E.Value) || !R.done())
      return false;
    Equiv.emplace(K, std::move(E));
    Stats.LoadedEquiv++;
    return true;
  }
  case KindChecksum: {
    Key3 K{R.u64(), R.u64(), R.u64()};
    Entry<interp::ChecksumOutcome> E;
    E.ScalarSrc = R.str();
    E.CandSrc = R.str();
    if (!getChecksum(R, E.Value) || !R.done())
      return false;
    Checksum.emplace(K, std::move(E));
    Stats.LoadedChecksum++;
    return true;
  }
  case KindProgram: {
    auto P = std::make_shared<interp::BytecodeProgram>();
    if (!getProgram(R, *P) || !R.done())
      return false;
    std::string Key = P->Key;
    Programs.emplace(std::move(Key), std::move(P));
    Stats.LoadedPrograms++;
    return true;
  }
  default:
    return false;
  }
}

bool ResultStore::lookupEquiv(uint64_t ScalarH, uint64_t CandH, uint64_t CfgH,
                              const std::string &ScalarSrc,
                              const std::string &CandSrc,
                              core::EquivResult &Out) {
  std::lock_guard<std::mutex> L(M);
  auto It = Equiv.find(Key3{ScalarH, CandH, CfgH});
  if (It == Equiv.end() || It->second.ScalarSrc != ScalarSrc ||
      It->second.CandSrc != CandSrc) {
    Stats.Misses++;
    obs::counter("store.misses").inc();
    return false;
  }
  Stats.Hits++;
  obs::counter("store.hits").inc();
  Out = It->second.Value;
  return true;
}

void ResultStore::storeEquiv(uint64_t ScalarH, uint64_t CandH, uint64_t CfgH,
                             const std::string &ScalarSrc,
                             const std::string &CandSrc,
                             const core::EquivResult &R) {
  std::lock_guard<std::mutex> L(M);
  auto Ins = Equiv.emplace(Key3{ScalarH, CandH, CfgH},
                           Entry<core::EquivResult>{ScalarSrc, CandSrc, R});
  if (!Ins.second)
    return; // already persisted (or a colliding key owns the slot)
  std::string Payload;
  Wr W{Payload};
  W.u8(KindEquiv);
  W.u64(ScalarH);
  W.u64(CandH);
  W.u64(CfgH);
  W.str(ScalarSrc);
  W.str(CandSrc);
  putEquiv(W, R);
  Log.append(Payload);
}

bool ResultStore::lookupChecksum(uint64_t ScalarH, uint64_t CandH,
                                 uint64_t CfgH, const std::string &ScalarSrc,
                                 const std::string &CandSrc,
                                 interp::ChecksumOutcome &Out) {
  std::lock_guard<std::mutex> L(M);
  auto It = Checksum.find(Key3{ScalarH, CandH, CfgH});
  if (It == Checksum.end() || It->second.ScalarSrc != ScalarSrc ||
      It->second.CandSrc != CandSrc) {
    Stats.Misses++;
    obs::counter("store.misses").inc();
    return false;
  }
  Stats.Hits++;
  obs::counter("store.hits").inc();
  Out = It->second.Value;
  return true;
}

void ResultStore::storeChecksum(uint64_t ScalarH, uint64_t CandH,
                                uint64_t CfgH, const std::string &ScalarSrc,
                                const std::string &CandSrc,
                                const interp::ChecksumOutcome &O) {
  std::lock_guard<std::mutex> L(M);
  auto Ins =
      Checksum.emplace(Key3{ScalarH, CandH, CfgH},
                       Entry<interp::ChecksumOutcome>{ScalarSrc, CandSrc, O});
  if (!Ins.second)
    return;
  std::string Payload;
  Wr W{Payload};
  W.u8(KindChecksum);
  W.u64(ScalarH);
  W.u64(CandH);
  W.u64(CfgH);
  W.str(ScalarSrc);
  W.str(CandSrc);
  putChecksum(W, O);
  Log.append(Payload);
}

std::shared_ptr<const interp::BytecodeProgram>
ResultStore::lookupProgram(const std::string &Key) {
  std::lock_guard<std::mutex> L(M);
  auto It = Programs.find(Key);
  if (It == Programs.end()) {
    Stats.Misses++;
    obs::counter("store.misses").inc();
    return nullptr;
  }
  Stats.Hits++;
  obs::counter("store.hits").inc();
  return It->second;
}

void ResultStore::storeProgram(const interp::BytecodeProgram &P) {
  if (P.Key.empty())
    return; // only content-keyed programs are addressable
  std::lock_guard<std::mutex> L(M);
  auto Ins =
      Programs.emplace(P.Key, std::make_shared<interp::BytecodeProgram>(P));
  if (!Ins.second)
    return;
  std::string Payload;
  Wr W{Payload};
  W.u8(KindProgram);
  putProgram(W, P);
  Log.append(Payload);
}

void ResultStore::enableBytecodePersistence() {
  std::lock_guard<std::mutex> L(HookM);
  HookOwner = this;
  interp::setBytecodeStoreHooks(interp::BytecodeStoreHooks{
      [this](const std::string &Key) { return lookupProgram(Key); },
      [this](const interp::BytecodeProgram &P) { storeProgram(P); }});
  {
    std::lock_guard<std::mutex> L2(M);
    OwnsBytecodeHook = true;
  }
}

void ResultStore::disableBytecodePersistence() {
  std::lock_guard<std::mutex> L(HookM);
  {
    std::lock_guard<std::mutex> L2(M);
    if (!OwnsBytecodeHook)
      return;
    OwnsBytecodeHook = false;
  }
  if (HookOwner == this) {
    HookOwner = nullptr;
    interp::setBytecodeStoreHooks(interp::BytecodeStoreHooks{});
  }
}

void ResultStore::flush() {
  std::lock_guard<std::mutex> L(M);
  Log.flush();
}

StoreStats ResultStore::stats() const {
  std::lock_guard<std::mutex> L(M);
  StoreStats S = Stats;
  const LogStats &LS = Log.stats();
  S.Writes = LS.Writes;
  S.CorruptSkipped = LS.CorruptSkipped;
  S.VersionSkipped = LS.VersionSkipped;
  S.AppendFailed = LS.AppendFailed;
  S.ReadFailed = LS.ReadFailed;
  return S;
}
