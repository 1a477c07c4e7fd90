//===- perfbench/perfbench.cpp - the repository benchmark program ---------===//
//
// One process runs one workload through the public svc::VectorizerService
// API as a closed loop: every client submits its next request only after
// its previous one settled. The timed phase runs for --seconds; set-up
// (input generation, service construction, warm-up) happens before it and
// the reference check after it, both outside the timed window.
//
//   perfbench --workload sample|pipeline --seed N --seconds S
//             --trace 0|1 [--workers N] [--requests N] [--work-dir DIR]
//             [--setup-only]
//
// With --trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics; with --trace 1 the run is split into an untraced and
// a traced half and the JSON carries the per-layer metrics instead. The
// per-layer numbers are measured from outside the program: a timing
// LLMClient decorator installed through ServiceConfig::MakeClient, the
// existing obs spans and registry counters, the Outcome/EquivResult
// fields, and bench-side replays of the frontend calls over the run's own
// sources. See perfbench/README.md for the workload definitions.
//
//===----------------------------------------------------------------------===//

#include "core/Equivalence.h"
#include "deps/Analysis.h"
#include "interp/Bytecode.h"
#include "interp/Checksum.h"
#include "llm/Client.h"
#include "minic/Lexer.h"
#include "minic/Parser.h"
#include "minic/Sema.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "store/Store.h"
#include "svc/Service.h"
#include "tsvc/Suite.h"
#include "vir/Compile.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace fs = std::filesystem;
using namespace lv;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point ProcessStart = Clock::now();

uint64_t nanosBetween(Clock::time_point A, Clock::time_point B) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(B - A).count());
}

double ms(uint64_t Nanos) { return static_cast<double>(Nanos) / 1e6; }

//===----------------------------------------------------------------------===//
// Seeded input generation
//===----------------------------------------------------------------------===//

/// splitmix64 finalizer over (A, B): the benchmark's only source of
/// randomness, so a seed fixes every input.
uint64_t mix(uint64_t A, uint64_t B) {
  uint64_t Z = A + 0x9E3779B97F4A7C15ULL * (B + 1);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

std::vector<size_t> permutation(size_t N, uint64_t Seed) {
  std::vector<size_t> P(N);
  for (size_t I = 0; I < N; ++I)
    P[I] = I;
  for (size_t I = N; I > 1; --I)
    std::swap(P[I - 1], P[mix(Seed, I) % I]);
  return P;
}

// Stream tags, so timed passes, warm-up, draws and the reference check
// never share a derived seed.
enum : uint64_t { TagTimed = 1, TagWarm = 2, TagDraw = 3, TagRef = 4 };

/// Closed-loop clients of every workload, and the service's worker count
/// unless --workers overrides it. Two workers average out part of the
/// per-core speed noise of a shared host (see README.md).
constexpr int InFlight = 2;

/// bench_table3's `Base` budgets.
core::EquivConfig baseBudgets() {
  core::EquivConfig C;
  C.ScalarMax = 8;
  C.MaxTerms = 120'000;
  C.Alive2Budget = 500;
  C.CUnrollBudget = 2'000;
  C.SplitBudget = 300;
  return C;
}

/// The TSVC tests whose Pipeline-mode run (FSM generation and repair,
/// then Algorithm 1 on the FSM's candidate) ends plausible and costs at
/// most ~4 s at the Base budgets, sorted by that cost and cut into bins of
/// four adjacent costs. A pass draws one test per bin and cycles each bin
/// without replacement, so any four consecutive passes cover the whole
/// pool exactly once and every pass has the same cost profile. Costs were
/// measured once (1 worker, 4-core Xeon host): bin 0 holds 34-107 ms
/// requests, bin 13 holds 2.8-4.1 s requests. The budget-exhausting
/// (Inconclusive) tests s3111, vsum_gt, vsum_if2, s2712, s274 and s124 are
/// in the pool.
const std::vector<std::vector<const char *>> PipelineBins = {
    {"vcnt", "s311", "vsumr", "s3111"},
    {"vsum_gt", "vpv", "s431", "s453"},
    {"viota", "s452", "s113", "vind2"},
    {"vif", "vcf_guard_dep", "s421", "s131"},
    {"s151", "va", "s291", "vsum_if2"},
    {"vshift", "s000", "vpvpv", "vif_chain3"},
    {"vneg", "vsel3", "s2244", "vflag_local"},
    {"vgoto_guard", "s1112", "s125", "s422"},
    {"vabs", "s451", "s319", "vpvtv"},
    {"vpreload", "s4121", "vpvts", "s292"},
    {"s1251", "s152", "s313", "vdotr"},
    {"vtv", "s1244", "s251", "s1279"},
    {"s471", "vtvtv", "s2712", "s271"},
    {"s253", "s124", "s274", "s2711"},
};

/// Plausible pairs left out of the pool: each verifies for 3.8-20 s, so a
/// single one would take most of a run and make every figure depend on
/// whether it was drawn.
const std::set<std::string> HeavyTests = {
    "s272", "s1161", "s276", "s443",  "vbor", "s273", "s241",  "s442",
    "s278", "s2275", "s212", "s441", "s243", "s279", "s2710", "s1281"};

const tsvc::TsvcTest &testNamed(const std::string &Name) {
  const tsvc::TsvcTest *T = tsvc::findTest(Name);
  if (!T) {
    std::fprintf(stderr, "perfbench: TSVC test '%s' not in the suite\n",
                 Name.c_str());
    std::exit(2);
  }
  return *T;
}

/// The order a pass visits its bins: the costliest and cheapest of the
/// cost-sorted bins [0, CostBins) alternate, with one of the remaining
/// bins after every two of them. Any prefix of a pass (a run's last,
/// partial pass) then has the same cost profile whatever the seed.
std::vector<size_t> passOrder(size_t CostBins, size_t OtherBins) {
  std::vector<size_t> Order;
  size_t Lo = 0, Hi = CostBins, Other = CostBins;
  while (Lo < Hi) {
    Order.push_back(--Hi);
    if (Lo < Hi)
      Order.push_back(Lo++);
    if (Other < CostBins + OtherBins)
      Order.push_back(Other++);
  }
  while (Other < CostBins + OtherBins)
    Order.push_back(Other++);
  return Order;
}

/// Pass \p Pass takes one member of every bin, in \p Order. Each bin walks
/// its own seeded permutation, so members repeat only after the bin is
/// exhausted and any |bin| consecutive passes cover it exactly once.
std::vector<std::string>
drawPass(const std::vector<std::vector<std::string>> &Bins,
         const std::vector<size_t> &Order, uint64_t Seed, uint64_t Pass) {
  std::vector<std::string> Out;
  for (size_t B : Order) {
    const std::vector<std::string> &Bin = Bins[B];
    std::vector<size_t> P = permutation(Bin.size(), mix(Seed, TagDraw + B));
    Out.push_back(Bin[P[Pass % Bin.size()]]);
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Bench-side LLM timing decorator (installed only in the traced half)
//===----------------------------------------------------------------------===//

struct LlmTally {
  std::atomic<uint64_t> Calls{0};
  std::atomic<uint64_t> Nanos{0};
};

class TimedClient final : public llm::LLMClient {
public:
  TimedClient(std::unique_ptr<llm::LLMClient> Inner, LlmTally &Tally)
      : Inner(std::move(Inner)), Tally(Tally) {}

  llm::Completion complete(const llm::Prompt &P,
                           uint64_t SampleIndex) override {
    Clock::time_point T0 = Clock::now();
    llm::Completion C = Inner->complete(P, SampleIndex);
    Tally.Nanos.fetch_add(nanosBetween(T0, Clock::now()),
                          std::memory_order_relaxed);
    Tally.Calls.fetch_add(1, std::memory_order_relaxed);
    return C;
  }

private:
  std::unique_ptr<llm::LLMClient> Inner;
  LlmTally &Tally;
};

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  int Workers = 0;       ///< 0: the workload's own concurrency.
  uint64_t Requests = 0; ///< >0: a fixed request count instead of a timer.
  std::string WorkDir = ".bench_build/perfbench-work";
  bool SetupOnly = false; ///< Set up, print setup_s and exit.
};

struct Workload {
  std::string Name;
  svc::RunMode Mode = svc::RunMode::Sample;
  /// Requests per pass. Every pass runs on a fresh service, so each starts
  /// with cold content caches and outcomes do not pile up in one service
  /// for the whole run.
  uint64_t PassSize = 0;
  bool Persist = false; ///< StorePath + JournalPath on a fresh directory.
  /// The tail percentile, fixed per workload: a high one that keeps well
  /// over ten samples beyond it at the workload's request count and, for
  /// the binned workloads, falls mid-bin rather than on a bin boundary.
  double TailPct = 99;
  /// Pipeline: per pass position, how many suite tests the request there
  /// stands for (its bin's size). yield_frac weighs each request by it.
  std::vector<double> Weight;
  std::function<svc::Request(uint64_t Index)> Timed;
  std::vector<svc::Request> Warm;
  std::string Describe;
};

svc::Request sampleRequest(const tsvc::TsvcTest &T, uint64_t LlmSeed) {
  svc::Request R;
  R.Mode = svc::RunMode::Sample;
  R.Name = T.Name;
  R.ScalarSource = T.Source;
  R.Seed = LlmSeed;
  R.SampleCount = 100;
  R.Equiv = baseBudgets();
  return R;
}

Workload makeSample(uint64_t Seed) {
  Workload W;
  W.Name = "sample";
  W.Mode = svc::RunMode::Sample;
  W.PassSize = tsvc::suite().size();
  W.TailPct = 99.5;
  W.Timed = [Seed, N = W.PassSize](uint64_t I) {
    uint64_t Pass = I / N;
    std::vector<size_t> Order = permutation(N, mix(Seed, Pass));
    return sampleRequest(tsvc::suite()[Order[I % N]],
                         mix(mix(Seed, TagTimed), Pass));
  };
  // Warm-up: every third test of the suite on a stream no timed pass
  // uses. The set is fixed, so set-up costs the same for every seed.
  for (size_t I = 0; I < W.PassSize; I += 3)
    W.Warm.push_back(sampleRequest(tsvc::suite()[I], mix(Seed, TagWarm)));
  W.Describe = "Sample mode, all 149 TSVC tests per pass in seeded order, "
               "K=100 completions, 2 in flight on 2 workers, a fresh "
               "service (and verdict cache) per pass";
  return W;
}

std::vector<std::vector<std::string>>
toBins(const std::vector<std::vector<const char *>> &Table) {
  std::vector<std::vector<std::string>> Bins;
  for (const auto &Bin : Table)
    Bins.emplace_back(Bin.begin(), Bin.end());
  return Bins;
}

Workload makePipeline(uint64_t Seed) {
  Workload W;
  W.Name = "pipeline";
  W.Mode = svc::RunMode::Pipeline;
  W.Persist = true;
  W.TailPct = 91;
  // Bins: the pipeline cost bins (tests whose FSM run ends plausible)
  // plus three bins over the 77 tests whose FSM run never ends plausible.
  // With three failing requests in a pass of 17 the median falls mid-way
  // into plausible bin 5 (338-365 ms), not on the millisecond/second
  // boundary between failing and verified requests. A pass thus draws
  // failing tests at 3/17, not at their suite share; yield_frac undoes
  // that by weighing each request by its bin's size (4 for a plausible
  // bin, 25-26 for a failing one).
  auto Bins = toBins(PipelineBins);
  std::set<std::string> Plausible(HeavyTests);
  for (const auto &Bin : PipelineBins)
    Plausible.insert(Bin.begin(), Bin.end());
  std::vector<std::string> Fails;
  for (const tsvc::TsvcTest &T : tsvc::suite())
    if (!Plausible.count(T.Name))
      Fails.push_back(T.Name);
  const size_t FailBins = 3;
  for (size_t B = 0; B < FailBins; ++B) {
    std::vector<std::string> Bin;
    for (size_t I = B; I < Fails.size(); I += FailBins)
      Bin.push_back(Fails[I]);
    Bins.push_back(Bin);
  }
  W.PassSize = Bins.size();
  auto Make = [](const std::string &Name, uint64_t LlmSeed) {
    const tsvc::TsvcTest &T = testNamed(Name);
    svc::Request R;
    R.Mode = svc::RunMode::Pipeline;
    R.Name = T.Name;
    R.ScalarSource = T.Source;
    R.Seed = LlmSeed;
    R.Equiv = baseBudgets();
    return R;
  };
  std::vector<size_t> Order = passOrder(PipelineBins.size(), FailBins);
  for (size_t B : Order)
    W.Weight.push_back(static_cast<double>(Bins[B].size()));
  W.Timed = [Seed, Bins, Order, Make, N = W.PassSize](uint64_t I) {
    // A fresh LLM stream per pass keeps every request distinct, so none is
    // replayed from the journal.
    return Make(drawPass(Bins, Order, Seed, I / N)[I % N],
                mix(mix(Seed, TagTimed), I / N));
  };
  // Warm-up: the two cheapest plausible bins and one failing bin, whole,
  // on an LLM stream no timed request uses, so set-up costs the same for
  // every seed.
  for (size_t B : {0, 1, 14})
    for (const std::string &Name : Bins[B])
      W.Warm.push_back(Make(Name, mix(Seed, TagWarm)));
  W.Describe = "Pipeline mode (FSM generate+repair, then Algorithm 1) on a "
               "seeded draw of 17 tests per pass (14 plausible cost bins, "
               "3 failing bins), LLM stream per pass, 2 in flight on 2 "
               "workers, a fresh service with store+journal per pass";
  return W;
}

Workload makeWorkload(const std::string &Name, uint64_t Seed) {
  if (Name == "sample")
    return makeSample(Seed);
  if (Name == "pipeline")
    return makePipeline(Seed);
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n", Name.c_str());
  std::exit(2);
}

//===----------------------------------------------------------------------===//
// Running a phase
//===----------------------------------------------------------------------===//

/// What the benchmark keeps of one settled request.
struct Record {
  uint64_t Index = 0;
  std::string Name;
  uint64_t SubmitNs = 0; ///< Since the phase started.
  uint64_t LatencyNs = 0;
  uint64_t WallNs = 0;
  uint64_t Digest = 0;
  bool Failed = false;
  std::string Scalar;

  // Sample mode.
  int Completions = 0;
  int Plausible = 0;
  /// (source, compiles, plausible) of the completion picked for the
  /// reference check; empty when this request was not picked.
  std::string CheckSource;
  bool CheckCompiles = false, CheckPlausible = false;
  bool Checked = false;

  // FSM (Pipeline).
  bool GenerateRan = false;
  int Attempts = 0;
  bool FsmPlausible = false;

  // Algorithm 1 (Pipeline).
  bool VerifyRan = false;
  bool CacheHit = false;
  core::EquivResult::Outcome Final = core::EquivResult::Inconclusive;
  core::Stage DecidedBy = core::Stage::None;
  std::string Candidate;
  uint64_t StageNs[4] = {0, 0, 0, 0}; ///< checksum, alive2, cunroll, split
  uint64_t QueryNs = 0, Terms = 0, Clauses = 0;
  svc::StageSatWork Sat;

  uint64_t Instrs = 0;
  std::vector<std::string> ReplaySources; ///< Traced half, replay subset.

  bool RefOk = true; ///< Reference check verdict (set after the phase).
};

uint64_t fnv1a(const std::string &S, uint64_t H = 0xcbf29ce484222325ULL) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

Record extract(const svc::Request &R, const svc::Outcome &O, uint64_t Index,
               bool KeepReplay, uint64_t Seed) {
  Record Rec;
  Rec.Index = Index;
  Rec.Name = O.Name;
  Rec.WallNs = O.WallNanos;
  Rec.Digest = fnv1a(svc::debugString(O));
  Rec.Failed = O.Failed;
  Rec.Scalar = R.ScalarSource;
  Rec.Instrs = O.ChecksumWork.Instrs;
  Rec.Completions = static_cast<int>(O.Samples.size());
  for (const svc::SampleVerdict &V : O.Samples)
    Rec.Plausible += V.Plausible;
  // Every fourth sample request gets one seeded completion re-checked.
  if (!O.Samples.empty() && mix(Seed ^ TagRef, Index) % 4 == 0) {
    const svc::SampleVerdict &V =
        O.Samples[mix(Seed, Index) % O.Samples.size()];
    Rec.Checked = true;
    Rec.CheckSource = V.Source;
    Rec.CheckCompiles = V.Compiles;
    Rec.CheckPlausible = V.Plausible;
  }
  Rec.GenerateRan = O.GenerateRan;
  Rec.Attempts = O.Fsm.Attempts;
  Rec.FsmPlausible = O.Fsm.Plausible;
  Rec.VerifyRan = O.VerifyRan;
  Rec.CacheHit = O.VerdictCacheHit;
  if (O.VerifyRan) {
    const core::EquivResult &E = O.Equiv;
    Rec.Final = E.Final;
    Rec.DecidedBy = E.DecidedBy;
    Rec.Candidate = O.Fsm.FinalCandidate;
    Rec.StageNs[0] = E.ChecksumNanos;
    Rec.StageNs[1] = E.Alive2Nanos;
    Rec.StageNs[2] = E.CUnrollNanos;
    Rec.StageNs[3] = E.SplitNanos;
    auto AddQ = [&](const tv::TVResult &T) {
      Rec.QueryNs += T.SolveNanos;
      Rec.Terms += T.TermCount;
      Rec.Clauses += T.Clauses;
    };
    AddQ(E.Alive2Res);
    AddQ(E.CUnrollRes);
    for (const tv::TVResult &T : E.SplitRes)
      AddQ(T);
    Rec.Sat.add(O.Alive2Work);
    Rec.Sat.add(O.CUnrollWork);
    Rec.Sat.add(O.SplitWork);
  }
  if (KeepReplay) {
    Rec.ReplaySources.push_back(R.ScalarSource);
    for (const svc::SampleVerdict &V : O.Samples)
      Rec.ReplaySources.push_back(V.Source);
    if (!Rec.Candidate.empty())
      Rec.ReplaySources.push_back(Rec.Candidate);
  }
  return Rec;
}

/// Builds the services one phase runs on, and totals the cache and store
/// counters of every service it built as each one is torn down.
class ServiceSource {
public:
  ServiceSource(const Workload &W, const Options &Opt, std::string Dir,
                LlmTally *Tally)
      : W(W), Opt(Opt), Dir(std::move(Dir)), Tally(Tally) {}

  std::shared_ptr<svc::VectorizerService> make() {
    svc::ServiceConfig SC;
    SC.Workers = Opt.Workers > 0 ? Opt.Workers : InFlight;
    if (Tally) {
      LlmTally *T = Tally;
      llm::ClientFactory Inner = llm::simulatedClientFactory();
      SC.MakeClient = [Inner, T](uint64_t Seed) {
        return std::unique_ptr<llm::LLMClient>(
            new TimedClient(Inner(Seed), *T));
      };
    }
    if (W.Persist) {
      std::string D = Dir + "/svc" + std::to_string(StoreDirs.size());
      fs::create_directories(D);
      SC.StorePath = D + "/store";
      SC.JournalPath = D + "/journal";
      StoreDirs.push_back(SC.StorePath);
    }
    return std::shared_ptr<svc::VectorizerService>(
        new svc::VectorizerService(SC), [this](svc::VectorizerService *S) {
          svc::CacheStats C = S->cacheStats();
          uint64_t Writes =
              S->resultStore() ? S->resultStore()->stats().Writes : 0;
          delete S;
          std::lock_guard<std::mutex> L(M);
          CacheHits += C.Hits;
          CacheMisses += C.Misses;
          StoreWrites += Writes;
        });
  }

  const std::vector<std::string> &storeDirs() const { return StoreDirs; }

  /// Totals over the services already torn down.
  uint64_t CacheHits = 0, CacheMisses = 0, StoreWrites = 0;

private:
  const Workload &W;
  const Options &Opt;
  std::string Dir;
  LlmTally *Tally;
  std::mutex M;
  std::vector<std::string> StoreDirs;
};

struct PhaseResult {
  std::vector<Record> Records; ///< Index order.
  uint64_t WallNs = 0;         ///< Phase start to last settle.
};

/// Closed loop: InFlight client threads each submit, wait, record, repeat
/// until the deadline (or the request budget) is spent. \p First is the
/// service set-up built for this phase; the first client to cross into a
/// new pass builds a fresh one.
PhaseResult runPhase(const Workload &W, const Options &Opt,
                     ServiceSource &Src,
                     std::shared_ptr<svc::VectorizerService> First,
                     uint64_t StartIndex, double Seconds, uint64_t Budget,
                     bool KeepReplay, uint64_t ReplayStride) {
  PhaseResult PR;
  std::mutex M;
  std::atomic<uint64_t> Next{StartIndex};
  std::shared_ptr<svc::VectorizerService> Current = std::move(First);
  uint64_t CurrentPass = StartIndex / W.PassSize;
  Clock::time_point T0 = Clock::now();
  Clock::time_point Deadline =
      T0 + std::chrono::nanoseconds(static_cast<uint64_t>(Seconds * 1e9));
  Clock::time_point LastSettle = T0;

  auto Client = [&] {
    for (;;) {
      if (Budget ? Next.load() >= StartIndex + Budget
                 : Clock::now() >= Deadline)
        return;
      uint64_t I = Next.fetch_add(1);
      if (Budget && I >= StartIndex + Budget)
        return;
      svc::Request R = W.Timed(I);
      std::shared_ptr<svc::VectorizerService> S;
      {
        std::lock_guard<std::mutex> L(M);
        if (I / W.PassSize > CurrentPass) {
          CurrentPass = I / W.PassSize;
          Current = Src.make();
        }
        S = Current;
      }
      Clock::time_point A = Clock::now();
      const svc::Outcome &O = S->wait(S->submit(R));
      Clock::time_point B = Clock::now();
      Record Rec = extract(R, O, I,
                           KeepReplay && (I - StartIndex) % ReplayStride == 0,
                           Opt.Seed);
      Rec.SubmitNs = nanosBetween(T0, A);
      Rec.LatencyNs = nanosBetween(A, B);
      std::lock_guard<std::mutex> L(M);
      PR.Records.push_back(std::move(Rec));
      if (B > LastSettle)
        LastSettle = B;
    }
  };
  int Clients = std::max(InFlight, Opt.Workers);
  std::vector<std::thread> Threads;
  for (int C = 0; C < Clients; ++C)
    Threads.emplace_back(Client);
  for (std::thread &T : Threads)
    T.join();
  PR.WallNs = nanosBetween(T0, LastSettle);
  std::sort(PR.Records.begin(), PR.Records.end(),
            [](const Record &A, const Record &B) { return A.Index < B.Index; });
  return PR;
}

//===----------------------------------------------------------------------===//
// Reference check
//===----------------------------------------------------------------------===//

/// Tree-walk interpreter on a checksum seed the service never uses.
interp::ChecksumConfig referenceConfig(uint64_t Seed) {
  interp::ChecksumConfig C;
  C.UseBytecode = false;
  C.Seed = mix(Seed, TagRef) | 1;
  if (C.Seed == interp::ChecksumConfig().Seed)
    C.Seed ^= 0x100;
  return C;
}

bool referencePlausible(const std::string &Scalar, const std::string &Cand,
                        const interp::ChecksumConfig &Cfg) {
  vir::CompileResult S = vir::compileFunction(Scalar);
  vir::CompileResult C = vir::compileFunction(Cand);
  if (!S.ok() || !C.ok())
    return false;
  return interp::runChecksumTest(*S.Fn, *C.Fn, Cfg).plausible();
}

struct CheckTally {
  uint64_t Checked = 0;
  uint64_t Disagree = 0;
};

/// Re-checks the picked sample classifications and every Equivalent
/// verdict; marks disagreeing records.
CheckTally referenceCheck(std::vector<Record> &Recs, uint64_t Seed) {
  CheckTally T;
  interp::ChecksumConfig Cfg = referenceConfig(Seed);
  for (Record &R : Recs) {
    if (R.Failed)
      continue;
    if (R.Checked) {
      ++T.Checked;
      bool Compiles = vir::compileFunction(R.CheckSource).ok();
      bool Plausible = Compiles &&
                       R.CheckSource.find("_mm256_") != std::string::npos &&
                       referencePlausible(R.Scalar, R.CheckSource, Cfg);
      if (Compiles != R.CheckCompiles || Plausible != R.CheckPlausible) {
        R.RefOk = false;
        ++T.Disagree;
        std::printf("reference disagrees on a %s completion: service "
                    "compiles=%d plausible=%d, reference compiles=%d "
                    "plausible=%d\n",
                    R.Name.c_str(), R.CheckCompiles, R.CheckPlausible,
                    Compiles, Plausible);
      }
    }
    if (R.VerifyRan && R.Final == core::EquivResult::Equivalent) {
      ++T.Checked;
      if (!referencePlausible(R.Scalar, R.Candidate, Cfg)) {
        R.RefOk = false;
        ++T.Disagree;
        std::printf("reference disagrees: %s verified Equivalent but the "
                    "tree-walk checksum distinguishes it\n",
                    R.Name.c_str());
      }
    }
  }
  return T;
}

//===----------------------------------------------------------------------===//
// Statistics and output
//===----------------------------------------------------------------------===//

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Nearest-rank percentile; \p Beyond receives the samples above it.
double percentile(std::vector<double> V, double Pct, size_t &Beyond) {
  Beyond = 0;
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(
      std::ceil(Pct / 100.0 * static_cast<double>(V.size())));
  Rank = std::min(std::max<size_t>(Rank, 1), V.size());
  Beyond = V.size() - Rank;
  return V[Rank - 1];
}

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
  bool Skipped = false;
};

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

void printTable(const char *Title, const std::vector<Metric> &Ms) {
  std::printf("%s\n", Title);
  for (const Metric &M : Ms) {
    if (M.Skipped)
      std::printf("  %-30s %16s %s\n", M.Name.c_str(), "SKIPPED",
                  M.Unit.c_str());
    else
      std::printf("  %-30s %16.6g %s\n", M.Name.c_str(), M.Value,
                  M.Unit.c_str());
  }
}

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Ms) {
  std::string J = std::string("{\"correct\": ") +
                  (Correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(Attempted) +
                  ", \"failed\": " + std::to_string(Failed) +
                  ", \"metrics\": {";
  for (size_t I = 0; I < Ms.size(); ++I) {
    if (I)
      J += ", ";
    // A layer whose arm did not run reports 0 here and SKIPPED in the
    // table above; the JSON schema carries numbers only.
    J += "\"" + Ms[I].Name + "\": {\"value\": " +
         jsonNumber(Ms[I].Skipped ? 0 : Ms[I].Value) + ", \"unit\": \"" +
         Ms[I].Unit + "\"}";
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
  std::fflush(stdout);
}

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned Regs[12];
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned I = 0; I < 3; ++I)
      __get_cpuid(0x80000002 + I, &Regs[4 * I], &Regs[4 * I + 1],
                  &Regs[4 * I + 2], &Regs[4 * I + 3]);
    std::string S(reinterpret_cast<const char *>(Regs), sizeof Regs);
    S = S.c_str();
    size_t B = S.find_first_not_of(' ');
    return B == std::string::npos ? "unknown" : S.substr(B);
  }
#endif
  return "unknown";
}

double peakRssMb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

//===----------------------------------------------------------------------===//
// Per-layer breakdown (traced half)
//===----------------------------------------------------------------------===//

struct FrontendReplay {
  uint64_t Sources = 0, Tokens = 0;
  uint64_t LexNs = 0, ParseNs = 0, CompileNs = 0, DepsNs = 0;
};

/// Times the frontend entry points over \p Sources, the way the service
/// calls them. \p Deps additionally times dependence analysis on each
/// source that parses (pipeline scalars).
void replayFrontend(const std::vector<std::string> &Sources, bool Deps,
                    FrontendReplay &R) {
  for (const std::string &Src : Sources) {
    ++R.Sources;
    std::string Err;
    Clock::time_point T0 = Clock::now();
    std::vector<minic::Token> Toks = minic::lex(Src, Err);
    Clock::time_point T1 = Clock::now();
    minic::ParseResult P = minic::parseFunction(Src);
    if (P.ok())
      minic::checkFunction(*P.Fn);
    Clock::time_point T2 = Clock::now();
    vir::CompileResult C = vir::compileFunction(Src);
    Clock::time_point T3 = Clock::now();
    R.Tokens += Toks.size();
    R.LexNs += nanosBetween(T0, T1);
    R.ParseNs += nanosBetween(T1, T2);
    R.CompileNs += nanosBetween(T2, T3);
    if (Deps && P.ok()) {
      minic::ParseResult Fresh = minic::parseFunction(Src);
      Clock::time_point T4 = Clock::now();
      deps::analyzeFunction(*Fresh.Fn);
      R.DepsNs += nanosBetween(T4, Clock::now());
    }
  }
}

uint64_t spanSum(const std::vector<obs::TraceEvent> &Events,
                 const char *Name) {
  uint64_t Sum = 0;
  for (const obs::TraceEvent &E : Events)
    if (std::strcmp(E.Name, Name) == 0)
      Sum += E.DurNs;
  return Sum;
}

} // namespace

//===----------------------------------------------------------------------===//
// main
//===----------------------------------------------------------------------===//

int main(int argc, char **argv) {
  Options Opt;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Val = [&]() -> std::string {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", A.c_str());
        std::exit(2);
      }
      return argv[++I];
    };
    if (A == "--workload")
      Opt.Workload = Val();
    else if (A == "--seed")
      Opt.Seed = std::strtoull(Val().c_str(), nullptr, 0);
    else if (A == "--seconds")
      Opt.Seconds = std::atof(Val().c_str());
    else if (A == "--trace")
      Opt.Trace = Val() != "0";
    else if (A == "--workers")
      Opt.Workers = std::atoi(Val().c_str());
    else if (A == "--requests")
      Opt.Requests = std::strtoull(Val().c_str(), nullptr, 0);
    else if (A == "--work-dir")
      Opt.WorkDir = Val();
    else if (A == "--setup-only")
      Opt.SetupOnly = true;
    else {
      std::fprintf(stderr, "perfbench: unknown argument '%s'\n", A.c_str());
      return 2;
    }
  }
  if (Opt.Workload.empty() || Opt.Seconds <= 0) {
    std::fprintf(stderr, "usage: perfbench --workload sample|pipeline "
                         "--seed N --seconds S --trace 0|1\n");
    return 2;
  }

  std::string RunDir = Opt.WorkDir + "/" + Opt.Workload + "-" +
                       std::to_string(static_cast<long>(getpid()));
  fs::remove_all(RunDir);
  fs::create_directories(RunDir);

  // Set-up, timed from process start to the first timed request: inputs,
  // warm-up, and the service the timed phase starts on. run.py repeats it
  // in --setup-only processes, so every set-up it reports starts cold.
  Workload W = makeWorkload(Opt.Workload, Opt.Seed);
  ServiceSource Src(W, Opt, RunDir + "/setup", nullptr);
  // Warm-up on a throwaway service, so the timed one starts with cold
  // content caches (the simulated LLM returns the same plausible text for
  // most tests on any stream).
  {
    std::shared_ptr<svc::VectorizerService> WarmSvc = Src.make();
    WarmSvc->waitBatch(WarmSvc->submitBatch(W.Warm));
  }
  std::shared_ptr<svc::VectorizerService> Svc = Src.make();
  double SetupS =
      static_cast<double>(nanosBetween(ProcessStart, Clock::now())) / 1e9;
  if (Opt.SetupOnly) {
    Svc.reset();
    fs::remove_all(RunDir);
    std::printf("setup_s=%.9f\n", SetupS);
    return 0;
  }

  int Workers = Opt.Workers > 0 ? Opt.Workers : InFlight;
  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              W.Name.c_str(), Opt.Seed, Opt.Seconds, Opt.Trace ? 1 : 0);
  std::printf("  %s\n", W.Describe.c_str());
  core::EquivConfig B = baseBudgets();
  std::printf("  workers=%d in_flight=%d budgets: ScalarMax=%d MaxTerms=%zu "
              "conflicts alive2/cunroll/split=%" PRIu64 "/%" PRIu64
              "/%" PRIu64 "\n",
              Workers, std::max(InFlight, Opt.Workers), B.ScalarMax,
              B.MaxTerms, B.Alive2Budget, B.CUnrollBudget, B.SplitBudget);
  std::printf("  host: nproc=%u cpu=\"%s\"\n",
              std::thread::hardware_concurrency(), cpuModel().c_str());
  std::printf("  setup (s): %.4f\n", SetupS);

  // Timed phase. With --trace 1 the run is cut in two halves: the first
  // runs traced, on services with the timing LLM client; the second
  // replays exactly the same requests untraced on fresh services, so the
  // wall ratio of the two is the tracing overhead. The replay finds the
  // process-wide bytecode cache warm, so the ratio errs high.
  PhaseResult A, Tr;
  LlmTally Llm;
  uint64_t CacheHits = 0, CacheMisses = 0, StoreWrites = 0;
  uint64_t BcCompiles = 0, JournalWrites = 0, StoreOpenNs = 0;
  bool StoreRan = false;
  std::vector<obs::TraceEvent> Events;
  if (!Opt.Trace) {
    A = runPhase(W, Opt, Src, Svc, 0, Opt.Seconds, Opt.Requests, false, 1);
  } else {
    Svc.reset();
    ServiceSource TSrc(W, Opt, RunDir + "/traced", &Llm);
    uint64_t BcBefore = interp::bytecodeCacheStats().Misses;
    uint64_t JournalBefore = obs::counterValue("journal.writes");
    obs::resetTrace();
    obs::setTracingEnabled(true);
    Tr = runPhase(W, Opt, TSrc, TSrc.make(), 0, Opt.Seconds / 2,
                  (Opt.Requests + 1) / 2, true,
                  W.Mode == svc::RunMode::Sample ? 8 : 1);
    obs::setTracingEnabled(false);
    Events = obs::snapshotTrace();
    BcCompiles = interp::bytecodeCacheStats().Misses - BcBefore;
    JournalWrites = obs::counterValue("journal.writes") - JournalBefore;
    CacheHits = TSrc.CacheHits;
    CacheMisses = TSrc.CacheMisses;
    StoreWrites = TSrc.StoreWrites;
    StoreRan = !TSrc.storeDirs().empty();
    if (StoreRan) {
      Clock::time_point T0 = Clock::now();
      store::ResultStore Reopen(TSrc.storeDirs().front());
      StoreOpenNs = nanosBetween(T0, Clock::now());
    }
    A = runPhase(W, Opt, Src, Src.make(), 0, 0, Tr.Records.size(), false,
                 1);
  }
  Svc.reset();

  // Reference check and digest, outside the timed window.
  std::vector<Record> All = A.Records;
  All.insert(All.end(), Tr.Records.begin(), Tr.Records.end());
  CheckTally Check = referenceCheck(All, Opt.Seed);
  uint64_t Digest = 0xcbf29ce484222325ULL;
  for (const Record &R : All)
    Digest = fnv1a(std::to_string(R.Digest), Digest);
  uint64_t Failed = 0;
  for (const Record &R : All)
    Failed += R.Failed || !R.RefOk;
  std::printf("verdict_digest=%016" PRIx64 " over %zu outcomes\n", Digest,
              All.size());
  std::printf("reference check: %" PRIu64 " checked, %" PRIu64
              " disagreements (tree-walk interpreter, checksum seed "
              "%016" PRIx64 ")\n",
              Check.Checked, Check.Disagree, referenceConfig(Opt.Seed).Seed);
  bool Correct = Failed == 0 && Check.Disagree == 0 && !All.empty();

  fs::remove_all(RunDir);

  std::vector<Metric> Ms;
  if (!Opt.Trace) {
    const std::vector<Record> &Rs = A.Records;
    std::vector<double> Lat;
    uint64_t Ok = 0, Completions = 0, Plausible = 0;
    double WeightSum = 0, EquivWeight = 0;
    for (const Record &R : Rs) {
      Lat.push_back(ms(R.LatencyNs));
      Ok += !R.Failed && R.RefOk;
      Completions += R.Completions;
      Plausible += R.Plausible;
      double Wt = W.Weight.empty() ? 1 : W.Weight[R.Index % W.PassSize];
      WeightSum += Wt;
      if (R.VerifyRan && R.Final == core::EquivResult::Equivalent)
        EquivWeight += Wt;
    }
    double N = static_cast<double>(Rs.size());
    double Yield = 0;
    if (W.Mode == svc::RunMode::Sample)
      Yield = Completions ? static_cast<double>(Plausible) / Completions : 0;
    else
      Yield = WeightSum ? EquivWeight / WeightSum : 0;
    size_t Beyond = 0;
    double Tail = percentile(Lat, W.TailPct, Beyond);
    std::map<uint64_t, std::pair<uint64_t, uint64_t>> PassSpan;
    std::map<uint64_t, uint64_t> PassCount;
    for (const Record &R : Rs) {
      uint64_t P = R.Index / W.PassSize;
      auto It = PassSpan.emplace(P, std::make_pair(R.SubmitNs, 0)).first;
      It->second.first = std::min(It->second.first, R.SubmitNs);
      It->second.second =
          std::max(It->second.second, R.SubmitNs + R.LatencyNs);
      ++PassCount[P];
    }
    std::printf("pass rates (1/s):");
    for (auto &[P, Span] : PassSpan)
      if (PassCount[P] == W.PassSize)
        std::printf(" %.3f", static_cast<double>(W.PassSize) /
                                 (ms(Span.second - Span.first) / 1e3));
    std::printf("\n");
    Ms = {
        {"tasks_per_s", N / (static_cast<double>(A.WallNs) / 1e9), "1/s"},
        {"latency_ms_p50", median(Lat), "ms"},
        {"latency_ms_tail", Tail, "ms"},
        {"ok_frac", N ? Ok / N : 0, "frac"},
        {"yield_frac", Yield, "frac"},
        {"setup_s", SetupS, "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    std::printf("latency_ms_tail is p%g over %zu requests (%zu beyond it)\n",
                W.TailPct, Rs.size(), Beyond);
    printTable("end-to-end:", Ms);
  } else {
    const std::vector<Record> &Rs = Tr.Records;
    std::vector<double> Queue;
    uint64_t Attempts = 0, FsmPlausible = 0, Instrs = 0, WallNs = 0;
    uint64_t StageNs[4] = {0, 0, 0, 0}, QueryNs = 0, Terms = 0, Clauses = 0;
    uint64_t DecidedBy[5] = {0, 0, 0, 0, 0};
    svc::StageSatWork Sat;
    bool GenerateRan = false, VerifyRan = false;
    std::vector<std::string> Replay, Scalars;
    uint64_t TotalSources = 0;
    for (const Record &R : Rs) {
      Queue.push_back(ms(R.LatencyNs > R.WallNs ? R.LatencyNs - R.WallNs : 0));
      WallNs += R.WallNs;
      Instrs += R.Instrs;
      GenerateRan |= R.GenerateRan;
      Attempts += R.Attempts;
      FsmPlausible += R.FsmPlausible;
      TotalSources += 1 + R.Completions + !R.Candidate.empty();
      Replay.insert(Replay.end(), R.ReplaySources.begin(),
                    R.ReplaySources.end());
      if (R.GenerateRan)
        Scalars.push_back(R.Scalar);
      if (!R.VerifyRan || R.CacheHit)
        continue; // a cache hit replays a stored verdict's stage times
      VerifyRan = true;
      for (int S = 0; S < 4; ++S)
        StageNs[S] += R.StageNs[S];
      QueryNs += R.QueryNs;
      Terms += R.Terms;
      Clauses += R.Clauses;
      Sat.add(R.Sat);
      ++DecidedBy[static_cast<int>(R.DecidedBy)];
    }
    FrontendReplay FR, DepsR;
    replayFrontend(Replay, false, FR);
    replayFrontend(Scalars, true, DepsR);
    // The replay covers every ReplayStride-th request; scale to the run.
    double Scale = FR.Sources ? static_cast<double>(TotalSources) /
                                    static_cast<double>(FR.Sources)
                              : 0;
    double LlmNs = static_cast<double>(Llm.Nanos.load());
    double ChecksumSpanNs =
        static_cast<double>(spanSum(Events, "checksum.batch"));
    double StageSum = static_cast<double>(StageNs[0] + StageNs[1] +
                                          StageNs[2] + StageNs[3]);
    // Algorithm 1's stage 1 runs inside a checksum.batch span too; count
    // only the checksum time outside it (sample classification, FSM
    // plausibility checks) next to the stage times.
    double OutsideStageNs = std::max(0.0, ChecksumSpanNs - StageNs[0]);
    double Covered = LlmNs + OutsideStageNs + StageSum +
                     Scale * static_cast<double>(FR.CompileNs) +
                     static_cast<double>(DepsR.DepsNs);
    bool HasSamples = W.Mode == svc::RunMode::Sample;
    uint64_t FormalNs = StageNs[1] + StageNs[2] + StageNs[3];
    Ms = {
        {"trace_overhead_frac",
         static_cast<double>(Tr.WallNs) / static_cast<double>(A.WallNs) - 1,
         "frac"},
        {"layer_coverage_frac", WallNs ? Covered / WallNs : 0, "frac"},
        {"svc.queue_ms_p50", median(Queue), "ms"},
        {"svc.cache_hits", static_cast<double>(CacheHits), "count"},
        {"svc.cache_misses", static_cast<double>(CacheMisses), "count"},
        {"llm.calls", static_cast<double>(Llm.Calls.load()), "count",
         Llm.Calls.load() == 0},
        {"llm.complete_ms_sum", ms(Llm.Nanos.load()), "ms",
         Llm.Calls.load() == 0},
        {"agents.attempts", static_cast<double>(Attempts), "count",
         !GenerateRan},
        {"agents.plausible", static_cast<double>(FsmPlausible), "count",
         !GenerateRan},
        {"minic.parse_ms_sum", Scale * ms(FR.ParseNs), "ms", !FR.Sources},
        {"minic.tokens_per_s",
         FR.LexNs ? static_cast<double>(FR.Tokens) /
                        (static_cast<double>(FR.LexNs) / 1e9)
                  : 0,
         "1/s", !FR.Sources},
        {"vir.compile_ms_sum", Scale * ms(FR.CompileNs), "ms", !FR.Sources},
        {"deps.analyze_ms_sum", ms(DepsR.DepsNs), "ms", !DepsR.Sources},
        {"interp.checksum_ms_sum", ChecksumSpanNs / 1e6, "ms", !HasSamples},
        {"interp.instrs", static_cast<double>(Instrs), "count"},
        {"interp.bc_compiles", static_cast<double>(BcCompiles), "count"},
        {"core.checksum_ms_sum", ms(StageNs[0]), "ms", !VerifyRan},
        {"core.alive2_ms_sum", ms(StageNs[1]), "ms", !VerifyRan},
        {"core.cunroll_ms_sum", ms(StageNs[2]), "ms", !VerifyRan},
        {"core.split_ms_sum", ms(StageNs[3]), "ms", !VerifyRan},
        {"core.decided_by.checksum", static_cast<double>(DecidedBy[1]),
         "count", !VerifyRan},
        {"core.decided_by.alive2", static_cast<double>(DecidedBy[2]),
         "count", !VerifyRan},
        {"core.decided_by.cunroll", static_cast<double>(DecidedBy[3]),
         "count", !VerifyRan},
        {"core.decided_by.split", static_cast<double>(DecidedBy[4]), "count",
         !VerifyRan},
        {"core.decided_by.none", static_cast<double>(DecidedBy[0]), "count",
         !VerifyRan},
        {"tv.query_ms_sum", ms(QueryNs), "ms", !VerifyRan},
        {"tv.outside_query_ms_sum",
         ms(FormalNs > QueryNs ? FormalNs - QueryNs : 0), "ms", !VerifyRan},
        {"tv.terms", static_cast<double>(Terms), "count", !VerifyRan},
        {"smt.conflicts", static_cast<double>(Sat.Conflicts), "count",
         !VerifyRan},
        {"smt.propagations", static_cast<double>(Sat.Propagations), "count",
         !VerifyRan},
        {"smt.clauses", static_cast<double>(Clauses), "count", !VerifyRan},
        {"smt.fast_wins", static_cast<double>(Sat.PortfolioFastWins),
         "count", !VerifyRan},
        {"smt.fallbacks", static_cast<double>(Sat.PortfolioFallbacks),
         "count", !VerifyRan},
        {"store.writes", static_cast<double>(StoreWrites), "count",
         !StoreRan},
        {"store.open_ms", ms(StoreOpenNs), "ms", !StoreRan},
        {"journal.writes", static_cast<double>(JournalWrites), "count",
         !StoreRan},
    };
    std::printf("traced half: %zu requests, task wall %.1f ms; untraced "
                "replay: %zu requests\n",
                Rs.size(), ms(WallNs), A.Records.size());
    std::printf("frontend replay: %" PRIu64 " of %" PRIu64
                " sources (scaled x%.2f)\n",
                FR.Sources, TotalSources, Scale);
    printTable("per-layer (traced half):", Ms);
  }
  printResult(Correct, All.size(), Failed, Ms);
  return 0;
}
