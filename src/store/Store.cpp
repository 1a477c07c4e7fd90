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
  W.u64(V.Clauses);
  W.u64(V.SatVars);
  W.u64(V.LearntLive);
  W.d(V.AvgLBD);
  W.u64(V.SolveNanos);
  W.u64(static_cast<uint64_t>(V.TermCount));
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
  V.Clauses = R.u64();
  V.SatVars = R.u64();
  V.LearntLive = R.u64();
  V.AvgLBD = R.d();
  V.SolveNanos = R.u64();
  V.TermCount = static_cast<size_t>(R.u64());
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

//===----------------------------------------------------------------------===//
// ResultStore
//===----------------------------------------------------------------------===//

ResultStore::Key ResultStore::makeKey(const std::string &ScalarSrc,
                                      const std::string &CandSrc,
                                      uint64_t ConfigHash) {
  return Key{hashString(ScalarSrc.c_str()), hashString(CandSrc.c_str()),
             ConfigHash};
}

size_t ResultStore::KeyHash::operator()(const Key &K) const {
  return static_cast<size_t>(
      hashCombine(hashCombine(K.Scalar, K.Candidate), K.Config));
}

ResultStore::ResultStore(const std::string &D)
    : Dir(D), Log(D, "records.log", FileMagic, SchemaVersion, "store",
                  LogFaults{chaosFailLoad, chaosFailAppend}) {
  if (Dir.empty())
    return; // memory-only: no file, nothing to load
  obs::Span LoadSpan("store", "store.load");
  LoadSpan.argStr("dir", Dir);
  Log.open([this](Rd &R) { return decodeRecord(R); });
  const LogStats &LS = Log.stats();
  LoadSpan.arg("equiv", Stats.LoadedEquiv);
  LoadSpan.arg("checksum", Stats.LoadedChecksum);
  LoadSpan.arg("corrupt_skipped", LS.CorruptSkipped);
  LoadSpan.arg("version_skipped", LS.VersionSkipped);
}

bool ResultStore::decodeRecord(Rd &R) {
  switch (R.u8()) {
  case KindEquiv: {
    Key K{R.u64(), R.u64(), R.u64()};
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
    Key K{R.u64(), R.u64(), R.u64()};
    Entry<interp::ChecksumOutcome> E;
    E.ScalarSrc = R.str();
    E.CandSrc = R.str();
    if (!getChecksum(R, E.Value) || !R.done())
      return false;
    Checksum.emplace(K, std::move(E));
    Stats.LoadedChecksum++;
    return true;
  }
  default:
    return false;
  }
}

template <class V>
bool ResultStore::lookup(const Index<V> &Map, const Key &K,
                         const std::string &ScalarSrc,
                         const std::string &CandSrc, V &Out) {
  static obs::Counter &Hits = obs::counter("store.hits");
  static obs::Counter &Misses = obs::counter("store.misses");
  std::lock_guard<std::mutex> L(M);
  auto It = Map.find(K);
  if (It == Map.end() || It->second.ScalarSrc != ScalarSrc ||
      It->second.CandSrc != CandSrc) {
    Stats.Misses++;
    Misses.inc();
    return false;
  }
  Stats.Hits++;
  Hits.inc();
  Out = It->second.Value;
  return true;
}

template <class V>
void ResultStore::insert(Index<V> &Map, uint8_t Kind,
                         void (*Put)(Wr &, const V &), const Key &K,
                         const std::string &ScalarSrc,
                         const std::string &CandSrc, const V &Value) {
  std::lock_guard<std::mutex> L(M);
  // The first store of a key wins (or a colliding key owns the slot); a
  // memory-only store appends nothing.
  if (!Map.emplace(K, Entry<V>{ScalarSrc, CandSrc, Value}).second ||
      !Log.ok())
    return;
  std::string Payload;
  Wr W{Payload};
  W.u8(Kind);
  W.u64(K.Scalar);
  W.u64(K.Candidate);
  W.u64(K.Config);
  W.str(ScalarSrc);
  W.str(CandSrc);
  Put(W, Value);
  Log.append(Payload);
}

bool ResultStore::lookupEquiv(const Key &K, const std::string &ScalarSrc,
                              const std::string &CandSrc,
                              core::EquivResult &Out) {
  return lookup(Equiv, K, ScalarSrc, CandSrc, Out);
}

void ResultStore::storeEquiv(const Key &K, const std::string &ScalarSrc,
                             const std::string &CandSrc,
                             const core::EquivResult &R) {
  insert(Equiv, KindEquiv, putEquiv, K, ScalarSrc, CandSrc, R);
}

bool ResultStore::lookupChecksum(const Key &K, const std::string &ScalarSrc,
                                 const std::string &CandSrc,
                                 interp::ChecksumOutcome &Out) {
  return lookup(Checksum, K, ScalarSrc, CandSrc, Out);
}

void ResultStore::storeChecksum(const Key &K, const std::string &ScalarSrc,
                                const std::string &CandSrc,
                                const interp::ChecksumOutcome &O) {
  insert(Checksum, KindChecksum, putChecksum, K, ScalarSrc, CandSrc, O);
}

void ResultStore::flush() {
  std::lock_guard<std::mutex> L(M);
  Log.flush();
}

StoreStats ResultStore::stats() const {
  std::lock_guard<std::mutex> L(M);
  StoreStats S = Stats;
  S.Entries = Equiv.size() + Checksum.size();
  const LogStats &LS = Log.stats();
  S.Writes = LS.Writes;
  S.CorruptSkipped = LS.CorruptSkipped;
  S.VersionSkipped = LS.VersionSkipped;
  S.AppendFailed = LS.AppendFailed;
  S.ReadFailed = LS.ReadFailed;
  return S;
}
