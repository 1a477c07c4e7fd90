//===- bench/Harness.cpp - shared experiment harness ---------------------------===//

#include "bench/Harness.h"

#include "interp/Checksum.h"
#include "obs/Flight.h"
#include "obs/Metrics.h"
#include "support/Format.h"
#include "vir/Compile.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <unistd.h>

using namespace lv;
using namespace lv::bench;

int TestCorpus::firstPlausible(int K) const {
  int N = std::min<int>(K, static_cast<int>(Samples.size()));
  for (int I = 0; I < N; ++I)
    if (Samples[static_cast<size_t>(I)].Plausible)
      return I;
  return -1;
}

bool TestCorpus::allFailCompile(int K) const {
  int N = std::min<int>(K, static_cast<int>(Samples.size()));
  for (int I = 0; I < N; ++I)
    if (Samples[static_cast<size_t>(I)].Compiles)
      return false;
  return true;
}

BenchOptions lv::bench::parseBenchArgs(int argc, char **argv) {
  BenchOptions Opt;
  // Matches `--flag value` and `--flag=value`; returns nullptr otherwise.
  auto match = [&](int &I, const char *Flag) -> const char * {
    size_t Len = std::strlen(Flag);
    if (std::strcmp(argv[I], Flag) == 0 && I + 1 < argc)
      return argv[++I];
    if (std::strncmp(argv[I], Flag, Len) == 0 && argv[I][Len] == '=')
      return argv[I] + Len + 1;
    return nullptr;
  };
  for (int I = 1; I < argc; ++I) {
    if (const char *Value = match(I, "--jobs")) {
      Opt.Jobs = std::atoi(Value);
      Opt.JobsSet = true;
      if (Opt.Jobs < 1) {
        // A recognized flag with a bad value must fail loudly, not quietly
        // neuter a parallel-speedup gate.
        std::fprintf(stderr,
                     "invalid --jobs value '%s' (want integer >= 1)\n",
                     Value);
        std::exit(2);
      }
    } else if (const char *Value = match(I, "--trace")) {
      Opt.TracePath = Value;
    } else if (const char *Value = match(I, "--metrics")) {
      Opt.MetricsPath = Value;
    } else if (const char *Value = match(I, "--store")) {
      Opt.StorePath = Value;
      if (Opt.StorePath.empty()) {
        std::fprintf(stderr, "invalid --store value (want a directory)\n");
        std::exit(2);
      }
    }
    // Other args are ignored (gtest/benchmark flags etc.)
  }
  if (!Opt.TracePath.empty()) {
    obs::setTracingEnabled(true);
    obs::setFlightEnabled(true);
  }
  return Opt;
}

bool lv::bench::writeObsArtifacts(const BenchOptions &Opt) {
  bool Ok = true;
  if (!Opt.TracePath.empty()) {
    if (obs::writeTraceChromeJson(Opt.TracePath))
      std::printf("trace written to %s\n", Opt.TracePath.c_str());
    else {
      std::fprintf(stderr, "failed to write trace to %s\n",
                   Opt.TracePath.c_str());
      Ok = false;
    }
  }
  if (!Opt.MetricsPath.empty()) {
    if (obs::writeMetricsJson(Opt.MetricsPath))
      std::printf("metrics written to %s\n", Opt.MetricsPath.c_str());
    else {
      std::fprintf(stderr, "failed to write metrics to %s\n",
                   Opt.MetricsPath.c_str());
      Ok = false;
    }
  }
  return Ok;
}

namespace {

/// Process-wide tally of every service's cache/store counters (fed by
/// noteServiceStats, drained into the writeBenchJson envelope).
struct ServiceStatTally {
  std::mutex M;
  svc::CacheStats Cache;
  store::StoreStats Store;
  svc::VectorizerService::ResilienceStats Resilience;
};

ServiceStatTally &statTally() {
  static ServiceStatTally T;
  return T;
}

} // namespace

void lv::bench::noteServiceStats(const svc::VectorizerService &Service) {
  svc::CacheStats C = Service.cacheStats();
  ServiceStatTally &T = statTally();
  std::lock_guard<std::mutex> L(T.M);
  T.Cache.Hits += C.Hits;
  T.Cache.Misses += C.Misses;
  T.Cache.Entries += C.Entries;
  if (const store::ResultStore *S = Service.resultStore())
    T.Store.add(S->stats());
  svc::VectorizerService::ResilienceStats R = Service.resilienceStats();
  T.Resilience.Timeouts += R.Timeouts;
  T.Resilience.Degraded += R.Degraded;
  T.Resilience.Internal += R.Internal;
  T.Resilience.Shed += R.Shed;
  T.Resilience.JournalReplayed += R.JournalReplayed;
}

bool lv::bench::writeBenchJson(const std::string &BenchName,
                               const BenchOptions &Opt,
                               const std::string &PayloadMembers,
                               const std::string &Path) {
  char Host[256] = "unknown";
  gethostname(Host, sizeof(Host) - 1);
  std::string J = "{\n";
  appendf(J, "  \"schema_version\": 2,\n");
  appendf(J, "  \"bench\": \"%s\",\n", BenchName.c_str());
  appendf(J, "  \"host\": {\"hostname\": \"%s\", \"hardware_threads\": %u},\n",
          Host, std::thread::hardware_concurrency());
  appendf(J, "  \"jobs\": %d,\n", Opt.Jobs);
  {
    ServiceStatTally &T = statTally();
    std::lock_guard<std::mutex> L(T.M);
    appendf(J,
            "  \"verdict_cache\": {\"hits\": %llu, \"misses\": %llu},\n",
            static_cast<unsigned long long>(T.Cache.Hits),
            static_cast<unsigned long long>(T.Cache.Misses));
    appendf(J,
            "  \"store\": {\"hits\": %llu, \"misses\": %llu, "
            "\"writes\": %llu, \"corrupt_skipped\": %llu, "
            "\"version_skipped\": %llu, \"append_failed\": %llu, "
            "\"read_failed\": %llu},\n",
            static_cast<unsigned long long>(T.Store.Hits),
            static_cast<unsigned long long>(T.Store.Misses),
            static_cast<unsigned long long>(T.Store.Writes),
            static_cast<unsigned long long>(T.Store.CorruptSkipped),
            static_cast<unsigned long long>(T.Store.VersionSkipped),
            static_cast<unsigned long long>(T.Store.AppendFailed),
            static_cast<unsigned long long>(T.Store.ReadFailed));
    appendf(J,
            "  \"resilience\": {\"timeouts\": %llu, \"degraded\": %llu, "
            "\"internal\": %llu, \"shed\": %llu, "
            "\"journal_replayed\": %llu},\n",
            static_cast<unsigned long long>(T.Resilience.Timeouts),
            static_cast<unsigned long long>(T.Resilience.Degraded),
            static_cast<unsigned long long>(T.Resilience.Internal),
            static_cast<unsigned long long>(T.Resilience.Shed),
            static_cast<unsigned long long>(T.Resilience.JournalReplayed));
  }
  J += PayloadMembers;
  J += "\n}\n";
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "failed to open %s\n", Path.c_str());
    return false;
  }
  size_t Written = std::fwrite(J.data(), 1, J.size(), F);
  std::fclose(F);
  if (Written != J.size())
    return false;
  std::printf("json mirror written to %s\n", Path.c_str());
  return true;
}

uint64_t lv::bench::sumSpanArg(const std::vector<obs::TraceEvent> &Events,
                               const char *Name, const char *Key) {
  uint64_t Sum = 0;
  for (const obs::TraceEvent &Ev : Events) {
    if (std::strcmp(Ev.Name, Name) != 0)
      continue;
    for (const obs::TraceArg &A : Ev.Args)
      if (std::strcmp(A.Key, Key) == 0)
        Sum += A.Val;
  }
  return Sum;
}

size_t lv::bench::countSpans(const std::vector<obs::TraceEvent> &Events,
                             const char *Name) {
  size_t N = 0;
  for (const obs::TraceEvent &Ev : Events)
    N += std::strcmp(Ev.Name, Name) == 0 ? 1 : 0;
  return N;
}

std::vector<TestCorpus>
lv::bench::buildCorpusFor(const std::vector<const tsvc::TsvcTest *> &Tests,
                          int K, uint64_t Seed, int Jobs,
                          const std::string &StorePath) {
  svc::ServiceConfig SC;
  SC.Workers = Jobs;
  SC.StorePath = StorePath;
  svc::VectorizerService Service(SC);
  std::vector<svc::Request> Batch;
  Batch.reserve(Tests.size());
  for (const tsvc::TsvcTest *T : Tests) {
    svc::Request R;
    R.Mode = svc::RunMode::Sample;
    R.Name = T->Name;
    R.ScalarSource = T->Source;
    R.Seed = Seed;
    R.SampleCount = K;
    Batch.push_back(std::move(R));
  }
  std::vector<svc::Ticket> Tickets = Service.submitBatch(std::move(Batch));
  std::vector<TestCorpus> Out;
  Out.reserve(Tests.size());
  for (size_t I = 0; I < Tickets.size(); ++I) {
    // Poll via the timed wait: a wedged task surfaces as a liveness note
    // instead of a silent hang (nothing here ever abandons the task —
    // waitFor's null return just means "still running, ask again").
    const svc::Outcome *OP;
    while (!(OP = Service.waitFor(Tickets[I], 60'000'000'000ULL)))
      std::fprintf(stderr, "buildCorpus: still waiting on '%s'\n",
                   Tests[I]->Name.c_str());
    const svc::Outcome &O = *OP;
    if (O.Failed) {
      std::fprintf(stderr, "buildCorpus: task '%s' failed (%s): %s\n",
                   O.Name.c_str(), svc::failureKindName(O.Failure),
                   O.Error.c_str());
      std::exit(1);
    }
    TestCorpus TC;
    TC.Test = Tests[I];
    TC.Samples.reserve(O.Samples.size());
    for (const svc::SampleVerdict &V : O.Samples) {
      CandidateRecord R;
      R.Source = V.Source;
      R.Compiles = V.Compiles;
      R.Plausible = V.Plausible;
      TC.Samples.push_back(std::move(R));
    }
    Out.push_back(std::move(TC));
  }
  noteServiceStats(Service);
  return Out;
}

std::vector<TestCorpus> lv::bench::buildCorpus(int K, uint64_t Seed, int Jobs,
                                               const std::string &StorePath) {
  std::vector<const tsvc::TsvcTest *> Tests;
  Tests.reserve(tsvc::suite().size());
  for (const tsvc::TsvcTest &T : tsvc::suite())
    Tests.push_back(&T);
  return buildCorpusFor(Tests, K, Seed, Jobs, StorePath);
}

ChecksumTally lv::bench::tallyAt(const std::vector<TestCorpus> &Corpus,
                                 int K) {
  ChecksumTally T;
  for (const TestCorpus &TC : Corpus) {
    if (TC.firstPlausible(K) >= 0)
      ++T.Plausible;
    else if (TC.allFailCompile(K))
      ++T.CannotCompile;
    else
      ++T.NotEquivalent;
  }
  return T;
}

std::vector<FunnelRecord>
lv::bench::runFunnel(const std::vector<TestCorpus> &Corpus,
                     const core::EquivConfig &Cfg, int Jobs,
                     const std::string &StorePath,
                     ServiceRunStats *StatsOut) {
  svc::ServiceConfig SC;
  SC.Workers = Jobs;
  // A/B funnel runs re-verify the same pairs under different backends;
  // cached replays would report the first backend's work as the second's.
  // With a store attached the cache stays on — replaying persisted
  // verdicts is exactly what a warm-start measurement measures.
  SC.EnableVerdictCache = !StorePath.empty();
  SC.StorePath = StorePath;
  svc::VectorizerService Service(SC);

  std::vector<FunnelRecord> Out(Corpus.size());
  std::vector<svc::Ticket> Tickets;
  std::vector<size_t> TicketSlot;
  for (size_t I = 0; I < Corpus.size(); ++I) {
    const TestCorpus &TC = Corpus[I];
    FunnelRecord &R = Out[I];
    R.Name = TC.Test->Name;
    int Idx = TC.firstPlausible(static_cast<int>(TC.Samples.size()));
    R.HadPlausible = Idx >= 0;
    if (!R.HadPlausible)
      continue;
    svc::Request Req;
    Req.Mode = svc::RunMode::Verify;
    Req.Name = TC.Test->Name;
    Req.ScalarSource = TC.Test->Source;
    Req.CandidateSource = TC.Samples[static_cast<size_t>(Idx)].Source;
    Req.Equiv = Cfg;
    Tickets.push_back(Service.submit(std::move(Req)));
    TicketSlot.push_back(I);
  }
  for (size_t I = 0; I < Tickets.size(); ++I) {
    const svc::Outcome *OP;
    while (!(OP = Service.waitFor(Tickets[I], 60'000'000'000ULL)))
      std::fprintf(stderr, "runFunnel: still waiting on '%s'\n",
                   Out[TicketSlot[I]].Name.c_str());
    const svc::Outcome &O = *OP;
    if (O.Failed) {
      std::fprintf(stderr, "runFunnel: task '%s' failed (%s): %s\n",
                   O.Name.c_str(), svc::failureKindName(O.Failure),
                   O.Error.c_str());
      std::exit(1);
    }
    Out[TicketSlot[I]].Result = O.Equiv;
    Out[TicketSlot[I]].Alive2Work = O.Alive2Work;
    Out[TicketSlot[I]].CUnrollWork = O.CUnrollWork;
    Out[TicketSlot[I]].SplitWork = O.SplitWork;
    Out[TicketSlot[I]].ChecksumWork = O.ChecksumWork;
  }
  if (StatsOut) {
    StatsOut->Cache = Service.cacheStats();
    if (const store::ResultStore *S = Service.resultStore())
      StatsOut->Store = S->stats();
    else
      StatsOut->Store = store::StoreStats();
  }
  noteServiceStats(Service);
  return Out;
}

void lv::bench::printHeader(const std::string &Title) {
  std::printf("\n==== %s ====\n", Title.c_str());
}

void lv::bench::printRow3(const char *Label, const std::string &Paper,
                          const std::string &Measured) {
  std::printf("  %-34s %14s %14s\n", Label, Paper.c_str(), Measured.c_str());
}
