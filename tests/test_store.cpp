//===- tests/test_store.cpp - persistent result-store tests -------------------===//
//
// The store contract: (1) round-trips are bit-exact — a reopened store
// replays the serialized EquivResult / ChecksumOutcome byte for byte; (2) it never returns a wrong verdict — key collisions and
// damaged bytes (torn tail, flipped bits, incompatible header) all degrade
// to misses, with the damaged suffix dropped and the log repaired in
// place; (3) warm starts are invisible — a fresh VectorizerService over a
// populated store produces debugString output byte-identical to a cold
// run, at any worker count.
//
//===----------------------------------------------------------------------===//

#include "store/Store.h"
#include "support/Rng.h"
#include "svc/Service.h"
#include "tsvc/Suite.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

using namespace lv;
using namespace lv::store;
namespace fs = std::filesystem;

namespace {

/// Fresh scratch directory per test (removed up front so reruns and
/// crashed prior runs never leak state in).
std::string scratchDir(const char *Name) {
  fs::path P = fs::temp_directory_path() / "lv_store_test" / Name;
  std::error_code EC;
  fs::remove_all(P, EC);
  return P.string();
}

std::string logPath(const std::string &Dir) { return Dir + "/records.log"; }

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

void writeFile(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

/// A synthetic EquivResult exercising every serialized field, varied by
/// \p I so distinct entries are distinguishable.
core::EquivResult mkEquiv(int I) {
  core::EquivResult R;
  R.Final = core::EquivResult::Equivalent;
  R.DecidedBy = core::Stage::CUnroll;
  R.Detail = "cunroll decided #" + std::to_string(I);
  R.Counterexample = I % 2 ? "a[3] = 7 vs 9" : "";
  R.ChecksumRes.Verdict = interp::TestVerdict::Plausible;
  R.ChecksumRes.Detail = "plausible";
  R.ChecksumRes.Work.InputSets = 6;
  R.ChecksumRes.Work.CandRuns = 6;
  R.ChecksumRes.Work.Cand.Instrs = 100 + static_cast<uint64_t>(I);
  R.ChecksumRes.Work.Cand.Hist[0] = 17;
  R.Alive2Res.V = tv::TVVerdict::Inconclusive;
  R.Alive2Res.Conflicts = 100;
  R.Alive2Res.Propagations = 2000;
  R.Alive2Res.AvgLBD = 3.25;
  R.Alive2Res.Detail = "budget";
  R.CUnrollRes.V = tv::TVVerdict::Equivalent;
  R.CUnrollRes.Conflicts = 40 + static_cast<uint64_t>(I);
  R.SplitRes.resize(2);
  R.SplitRes[0].V = tv::TVVerdict::Equivalent;
  R.SplitRes[0].Restarts = 9;
  R.SplitRes[1].V = tv::TVVerdict::Inconclusive;
  R.SplittingEligible = true;
  R.ChecksumNanos = 111;
  R.Alive2Nanos = 222;
  R.CUnrollNanos = 333;
  R.SplitNanos = 444;
  return R;
}

interp::ChecksumOutcome mkChecksum(int I) {
  interp::ChecksumOutcome O;
  O.Verdict = interp::TestVerdict::NotEquivalent;
  O.FirstMismatch.Where = "region a index " + std::to_string(I);
  O.FirstMismatch.N = 8;
  O.FirstMismatch.Expected = 5;
  O.FirstMismatch.Actual = -5;
  O.Detail = "mismatch";
  O.Work.InputSets = 3;
  O.Work.CandRuns = 3;
  O.Work.ScalarRuns = 3;
  O.Work.Cand.Instrs = 64;
  O.Work.CandTrap = interp::TrapKind::None;
  return O;
}

/// Seeds \p S with \p N equiv + checksum records (distinct keys and
/// sources).
void seed(ResultStore &S, int N) {
  for (int I = 0; I < N; ++I) {
    std::string Scalar = "scalar-" + std::to_string(I);
    std::string Cand = "cand-" + std::to_string(I);
    uint64_t SH = hashString(Scalar.c_str());
    uint64_t CH = hashString(Cand.c_str());
    S.storeEquiv(SH, CH, 7, Scalar, Cand, mkEquiv(I));
    S.storeChecksum(SH, CH, 9, Scalar, Cand, mkChecksum(I));
  }
}

/// Counts how many of the first \p N seeded equiv entries replay
/// bit-identically from \p S.
int equivReplays(ResultStore &S, int N) {
  int Ok = 0;
  for (int I = 0; I < N; ++I) {
    std::string Scalar = "scalar-" + std::to_string(I);
    std::string Cand = "cand-" + std::to_string(I);
    core::EquivResult Out;
    if (S.lookupEquiv(hashString(Scalar.c_str()), hashString(Cand.c_str()),
                      7, Scalar, Cand, Out) &&
        serializeEquivResult(Out) == serializeEquivResult(mkEquiv(I)))
      ++Ok;
  }
  return Ok;
}

/// True when seeded checksum entry \p I replays bit-identically from \p S.
bool lookupSeededChecksum(ResultStore &S, int I) {
  std::string Scalar = "scalar-" + std::to_string(I);
  std::string Cand = "cand-" + std::to_string(I);
  interp::ChecksumOutcome Out;
  return S.lookupChecksum(hashString(Scalar.c_str()),
                          hashString(Cand.c_str()), 9, Scalar, Cand, Out) &&
         serializeChecksumOutcome(Out) ==
             serializeChecksumOutcome(mkChecksum(I));
}

TEST(Store, RoundTripBitExactAcrossReopen) {
  std::string Dir = scratchDir("roundtrip");
  {
    ResultStore S(Dir);
    ASSERT_TRUE(S.ok());
    seed(S, 4);
    EXPECT_EQ(S.stats().Writes, 8u);
  }
  ResultStore S(Dir);
  EXPECT_EQ(S.stats().LoadedEquiv, 4u);
  EXPECT_EQ(S.stats().LoadedChecksum, 4u);
  EXPECT_EQ(equivReplays(S, 4), 4);
  for (int I = 0; I < 4; ++I)
    EXPECT_TRUE(lookupSeededChecksum(S, I)) << I;
  EXPECT_FALSE(lookupSeededChecksum(S, 99));
}

TEST(Store, KeyCollisionDegradesToMiss) {
  std::string Dir = scratchDir("collision");
  ResultStore S(Dir);
  S.storeEquiv(1, 2, 3, "the-scalar", "the-cand", mkEquiv(0));
  core::EquivResult Out;
  // Same 64-bit key triple, different source text: must miss, never
  // replay the other pair's verdict.
  EXPECT_FALSE(S.lookupEquiv(1, 2, 3, "другой-scalar", "the-cand", Out));
  EXPECT_FALSE(S.lookupEquiv(1, 2, 3, "the-scalar", "another-cand", Out));
  EXPECT_TRUE(S.lookupEquiv(1, 2, 3, "the-scalar", "the-cand", Out));
  StoreStats St = S.stats();
  EXPECT_EQ(St.Hits, 1u);
  EXPECT_EQ(St.Misses, 2u);
}

TEST(Store, DuplicateKeyWritesOnce) {
  std::string Dir = scratchDir("dedup");
  {
    ResultStore S(Dir);
    S.storeEquiv(1, 2, 3, "s", "c", mkEquiv(0));
    S.storeEquiv(1, 2, 3, "s", "c", mkEquiv(0));
    S.storeChecksum(1, 2, 3, "s", "c", mkChecksum(0));
    S.storeChecksum(1, 2, 3, "s", "c", mkChecksum(0));
    EXPECT_EQ(S.stats().Writes, 2u);
  }
  ResultStore S(Dir);
  EXPECT_EQ(S.stats().LoadedEquiv, 1u);
  EXPECT_EQ(S.stats().LoadedChecksum, 1u);
}

TEST(Store, TruncatedTailDropsOnlyTornRecord) {
  std::string Dir = scratchDir("truncate");
  {
    ResultStore S(Dir);
    seed(S, 3);
  }
  // Chop into the last record, simulating a process killed mid-append.
  uintmax_t Full = fs::file_size(logPath(Dir));
  fs::resize_file(logPath(Dir), Full - 5);
  {
    ResultStore S(Dir);
    StoreStats St = S.stats();
    EXPECT_EQ(St.CorruptSkipped, 1u);
    // 5 of 6 records survive: the torn one (the third checksum) is gone.
    EXPECT_EQ(St.LoadedEquiv, 3u);
    EXPECT_EQ(St.LoadedChecksum, 2u);
    EXPECT_EQ(equivReplays(S, 3), 3);
    EXPECT_FALSE(lookupSeededChecksum(S, 2));
  }
  // The load truncated the log back to the last good record, so a
  // re-open is clean and appends resume from there.
  {
    ResultStore S(Dir);
    EXPECT_EQ(S.stats().CorruptSkipped, 0u);
    S.storeChecksum(hashString("scalar-2"), hashString("cand-2"), 9,
                    "scalar-2", "cand-2", mkChecksum(2));
  }
  ResultStore S(Dir);
  EXPECT_EQ(S.stats().CorruptSkipped, 0u);
  EXPECT_TRUE(lookupSeededChecksum(S, 2));
}

TEST(Store, FlippedByteDropsDamagedSuffix) {
  std::string Dir = scratchDir("biflip");
  {
    ResultStore S(Dir);
    seed(S, 3);
  }
  // Flip one byte a little past the first record: everything from the
  // damaged record on is suspect and must be dropped; the intact prefix
  // replays bit-identically.
  std::string Bytes = readFile(logPath(Dir));
  ASSERT_GT(Bytes.size(), 120u);
  Bytes[120] = static_cast<char>(Bytes[120] ^ 0x40);
  writeFile(logPath(Dir), Bytes);
  ResultStore S(Dir);
  StoreStats St = S.stats();
  EXPECT_EQ(St.CorruptSkipped, 1u);
  uint64_t Loaded = St.LoadedEquiv + St.LoadedChecksum;
  EXPECT_LT(Loaded, 6u);
  // Whatever survived replays exactly; entry 0 precedes byte 120 only if
  // the first record is shorter than that, so just assert per-entry
  // consistency: a hit must be bit-identical.
  for (int I = 0; I < 3; ++I) {
    std::string Scalar = "scalar-" + std::to_string(I);
    std::string Cand = "cand-" + std::to_string(I);
    core::EquivResult Out;
    if (S.lookupEquiv(hashString(Scalar.c_str()), hashString(Cand.c_str()),
                      7, Scalar, Cand, Out))
      EXPECT_EQ(serializeEquivResult(Out),
                serializeEquivResult(mkEquiv(I)));
  }
}

TEST(Store, VersionMismatchSetsStoreAsideCleanly) {
  std::string Dir = scratchDir("version");
  {
    ResultStore S(Dir);
    seed(S, 2);
  }
  // Corrupt a golden configHash inside the header: the store must be set
  // aside (not deleted, not fatal) and a usable fresh one put in place.
  std::string Bytes = readFile(logPath(Dir));
  ASSERT_GT(Bytes.size(), 32u);
  Bytes[9] = static_cast<char>(Bytes[9] ^ 0x01);
  writeFile(logPath(Dir), Bytes);
  {
    ResultStore S(Dir);
    StoreStats St = S.stats();
    EXPECT_EQ(St.VersionSkipped, 1u);
    EXPECT_EQ(St.LoadedEquiv + St.LoadedChecksum, 0u);
    EXPECT_TRUE(S.ok());
    EXPECT_TRUE(fs::exists(logPath(Dir) + ".skipped"));
    // The fresh store is fully usable.
    seed(S, 1);
  }
  ResultStore S(Dir);
  EXPECT_EQ(S.stats().VersionSkipped, 0u);
  EXPECT_EQ(equivReplays(S, 1), 1);
}

//===----------------------------------------------------------------------===//
// Warm-start serving through the service layer.
//===----------------------------------------------------------------------===//

interp::ChecksumConfig fastChecksum() {
  interp::ChecksumConfig C;
  C.RunsPerN = 1;
  C.NValues = {0, 8, 32};
  C.BufferLen = 128;
  return C;
}

core::EquivConfig fastEquiv() {
  core::EquivConfig Cfg;
  Cfg.Checksum = fastChecksum();
  Cfg.ScalarMax = 4;
  Cfg.MaxTerms = 30'000;
  Cfg.Alive2Budget = 100;
  Cfg.CUnrollBudget = 200;
  Cfg.SplitBudget = 50;
  return Cfg;
}

/// Pipeline batch over a slice of the TSVC suite (every 7th test keeps
/// the three worker-count replays fast while still crossing checksum,
/// alive2, c-unroll, and splitting verdicts).
std::vector<svc::Request> sliceBatch() {
  std::vector<svc::Request> Out;
  const std::vector<tsvc::TsvcTest> &Suite = tsvc::suite();
  for (size_t I = 0; I < Suite.size(); I += 7) {
    svc::Request R;
    R.Mode = svc::RunMode::Pipeline;
    R.Name = Suite[I].Name;
    R.ScalarSource = Suite[I].Source;
    R.Fsm.MaxAttempts = 2;
    R.Fsm.Checksum = fastChecksum();
    R.Equiv = fastEquiv();
    Out.push_back(std::move(R));
  }
  return Out;
}

std::vector<std::string> runSliceAt(int Workers, const std::string &Store,
                                    svc::CacheStats *CS = nullptr,
                                    StoreStats *SS = nullptr) {
  svc::ServiceConfig SC;
  SC.Workers = Workers;
  SC.StorePath = Store;
  svc::VectorizerService S(SC);
  std::vector<svc::Ticket> Tickets = S.submitBatch(sliceBatch());
  std::vector<std::string> Out;
  Out.reserve(Tickets.size());
  for (svc::Ticket T : Tickets)
    Out.push_back(debugString(S.wait(T)));
  if (CS)
    *CS = S.cacheStats();
  if (SS && S.resultStore())
    *SS = S.resultStore()->stats();
  return Out;
}

TEST(Store, CrossProcessWarmStartIsByteIdentical) {
  std::string Dir = scratchDir("warmstart");
  // Cold reference: no store at all.
  std::vector<std::string> Cold = runSliceAt(1, "");
  ASSERT_FALSE(Cold.empty());
  // Populate the store (stands in for the writing process).
  StoreStats WriteStats;
  std::vector<std::string> Populate = runSliceAt(1, Dir, nullptr,
                                                 &WriteStats);
  EXPECT_EQ(Populate, Cold);
  EXPECT_GT(WriteStats.Writes, 0u);
  // Fresh services over the populated directory (the reading process):
  // byte-identical outcomes at every worker count, served from the store.
  for (int Workers : {1, 2, 8}) {
    svc::CacheStats CS;
    StoreStats SS;
    std::vector<std::string> Warm = runSliceAt(Workers, Dir, &CS, &SS);
    EXPECT_EQ(Warm, Cold) << "warm divergence at " << Workers
                          << " workers";
    EXPECT_GT(SS.Hits, 0u) << "warm run at " << Workers
                           << " workers never hit the store";
    EXPECT_EQ(SS.Writes, 0u);
  }
}

// A failed append mid-run (simulated disk death via the chaos file hook)
// degrades the store to memory-only: the failure is counted, later
// lookups still hit the in-memory index, and the on-disk log keeps only
// the records appended before the failure — intact and replayable.
TEST(Store, AppendFailureMidRunDegradesToMemoryOnly) {
  std::string Dir = scratchDir("chaos_append");
  int Appends = 0;
  ChaosFileHooks H;
  H.FailAppend = [&Appends] { return ++Appends > 1; };
  setChaosFileHooks(H);
  {
    ResultStore S(Dir);
    seed(S, 3); // 6 appends attempted; only the first lands on disk
    setChaosFileHooks(ChaosFileHooks());
    EXPECT_FALSE(S.ok()) << "the log must close on the first failed append";
    EXPECT_EQ(S.stats().AppendFailed, 1u)
        << "only the first failure counts; the closed log rejects the rest";
    // Memory-only service continues: every seeded entry still replays.
    core::EquivResult R;
    for (int I = 0; I < 3; ++I) {
      std::string Scalar = "scalar-" + std::to_string(I);
      std::string Cand = "cand-" + std::to_string(I);
      EXPECT_TRUE(S.lookupEquiv(hashString(Scalar.c_str()),
                                hashString(Cand.c_str()), 7, Scalar, Cand,
                                R))
          << "in-memory entry " << I << " lost after append failure";
    }
  }
  // The surviving log holds exactly the pre-failure record and reopens
  // cleanly (no torn tail, no corruption salvage).
  ResultStore Reopened(Dir);
  EXPECT_TRUE(Reopened.ok());
  EXPECT_EQ(Reopened.stats().CorruptSkipped, 0u);
  EXPECT_EQ(Reopened.stats().LoadedEquiv, 1u);
  EXPECT_EQ(Reopened.stats().LoadedChecksum, 0u);
  core::EquivResult R;
  EXPECT_TRUE(Reopened.lookupEquiv(hashString("scalar-0"),
                                   hashString("cand-0"), 7, "scalar-0",
                                   "cand-0", R));
  EXPECT_EQ(serializeEquivResult(R), serializeEquivResult(mkEquiv(0)));
}

// A read failure on open must start the store memory-only and empty
// WITHOUT touching the existing log: a transient read error clobbering a
// good log would turn a hiccup into permanent cache loss.
TEST(Store, LoadFailureLeavesLogUntouched) {
  std::string Dir = scratchDir("chaos_load");
  {
    ResultStore S(Dir);
    seed(S, 2);
  }
  std::string Before = readFile(logPath(Dir));
  ASSERT_FALSE(Before.empty());

  bool Once = true;
  ChaosFileHooks H;
  H.FailLoad = [&Once] {
    bool Fire = Once;
    Once = false;
    return Fire;
  };
  setChaosFileHooks(H);
  {
    ResultStore S(Dir);
    setChaosFileHooks(ChaosFileHooks());
    EXPECT_FALSE(S.ok());
    EXPECT_EQ(S.stats().ReadFailed, 1u);
    EXPECT_EQ(S.stats().LoadedEquiv, 0u) << "a failed load serves empty";
  }
  EXPECT_EQ(readFile(logPath(Dir)), Before)
      << "a failed load must not rewrite or set aside the log";
  // Next open (hook cleared) replays everything.
  ResultStore S2(Dir);
  EXPECT_TRUE(S2.ok());
  EXPECT_EQ(S2.stats().LoadedEquiv, 2u);
  EXPECT_EQ(S2.stats().ReadFailed, 0u);
}

// A real read error takes the same path as the FailLoad hook: an existing
// log that cannot be read (here: records.log is a directory) leaves the
// store memory-only and the path untouched — no fresh header renamed over
// it, nothing set aside.
TEST(Store, UnreadableLogIsNotClobbered) {
  std::string Dir = scratchDir("unreadable");
  fs::create_directories(logPath(Dir));
  writeFile(logPath(Dir) + "/keep", "payload");
  {
    ResultStore S(Dir);
    EXPECT_FALSE(S.ok());
    EXPECT_EQ(S.stats().ReadFailed, 1u);
    EXPECT_EQ(S.stats().VersionSkipped, 0u);
    seed(S, 1); // memory-only: nothing is appended
    EXPECT_EQ(S.stats().Writes, 0u);
  }
  EXPECT_TRUE(fs::is_directory(logPath(Dir)));
  EXPECT_EQ(readFile(logPath(Dir) + "/keep"), "payload");
  EXPECT_FALSE(fs::exists(logPath(Dir) + ".skipped"));
  EXPECT_FALSE(fs::exists(logPath(Dir) + ".tmp"));
}

} // namespace
