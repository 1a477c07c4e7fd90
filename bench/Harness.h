//===- bench/Harness.h - shared experiment harness --------------*- C++ -*-===//
///
/// \file
/// Shared machinery for the paper-reproduction benchmarks: completion
/// corpus generation (the simulated GPT-4 sampled k times per TSVC test),
/// checksum classification, the Algorithm-1 funnel, and table printing.
/// Every experiment binary reports "paper" vs "measured" columns so
/// EXPERIMENTS.md can be regenerated from the bench output.
///
//===----------------------------------------------------------------------===//

#ifndef LV_BENCH_HARNESS_H
#define LV_BENCH_HARNESS_H

#include "core/Equivalence.h"
#include "llm/Client.h"
#include "obs/Trace.h"
#include "store/Store.h"
#include "svc/Service.h"
#include "tsvc/Suite.h"

#include <cstdint>
#include <string>
#include <vector>

namespace lv {
namespace bench {

/// Global experiment seed (fixed for reproducibility).
inline constexpr uint64_t ExperimentSeed = 0xC60;

/// Shared bench flags. Every experiment binary accepts `--jobs N`
/// (service worker count); results are verdict-identical at any N — see
/// the svc determinism contract — so N only moves wall time. Worker
/// count is recorded next to wall times in the BENCH_*.json mirrors.
/// `--trace <file>` enables span tracing plus the flight recorder and
/// writes Chrome trace-event JSON at exit; `--metrics <file>` scrapes the
/// obs metrics registry to a file (both via writeObsArtifacts).
/// `--store DIR` points the service layer at a persistent result store
/// (store/Store.h): verdicts persist across processes, so a second run
/// of the same bench starts warm. Verdicts are replay-identical by the
/// store's exactness contract, so --store only moves wall time, never a
/// verdict.
struct BenchOptions {
  int Jobs = 1;
  bool JobsSet = false; ///< --jobs appeared explicitly on the command line.
  std::string TracePath;   ///< --trace: Chrome trace-event JSON output.
  std::string MetricsPath; ///< --metrics: metrics registry JSON output.
  std::string StorePath;   ///< --store: persistent result-store directory.
};

/// Parses shared flags; unknown arguments are ignored. A `--trace` flag
/// switches tracing and the flight recorder on for the whole run.
BenchOptions parseBenchArgs(int argc, char **argv);

/// Writes the trace and/or metrics artifacts requested by \p Opt (no-op
/// for unset paths). Returns false when any requested write failed.
bool writeObsArtifacts(const BenchOptions &Opt);

/// The one shared BENCH_*.json writer: every bench emits
///   {"schema_version": 2, "bench": <name>,
///    "host": {"hostname", "hardware_threads"}, "jobs": N,
///    "verdict_cache": {...}, "store": {...}, <payload>}
/// where \p PayloadMembers is the bench-specific body — pre-rendered JSON
/// object members without the surrounding braces (the caller owns its
/// schema; this writer owns the envelope). The verdict_cache/store members
/// aggregate every service instance reported via noteServiceStats, so
/// cold/warm runs are auditable from the JSON alone. Returns false on I/O
/// failure. (bench_smt_core is the one exception: google-benchmark emits
/// its JSON directly via --benchmark_out.)
bool writeBenchJson(const std::string &BenchName, const BenchOptions &Opt,
                    const std::string &PayloadMembers,
                    const std::string &Path);

/// Folds one service's verdict-cache counters (and, when a store is
/// attached, its store counters) into the process-wide tally exported in
/// the writeBenchJson envelope. buildCorpus/runFunnel call this for the
/// services they own; drivers with hand-built services call it before
/// destroying them.
void noteServiceStats(const svc::VectorizerService &Service);

/// Per-run service statistics (for bench gates that need one specific
/// run's counters rather than the process-wide envelope tally).
struct ServiceRunStats {
  svc::CacheStats Cache;
  store::StoreStats Store; ///< Zero when no store was attached.
};

/// Sums integer argument \p Key over every snapshot event named \p Name
/// (all categories). The bench parity gates use this to compare per-stage
/// span sums against the StageSatWork/StageInterpWork tallies.
uint64_t sumSpanArg(const std::vector<obs::TraceEvent> &Events,
                    const char *Name, const char *Key);

/// Number of snapshot events named \p Name.
size_t countSpans(const std::vector<obs::TraceEvent> &Events,
                  const char *Name);

/// One sampled completion with its checksum classification.
struct CandidateRecord {
  std::string Source;
  bool Compiles = false;
  bool Plausible = false;
};

/// All samples for one TSVC test.
struct TestCorpus {
  const tsvc::TsvcTest *Test = nullptr;
  std::vector<CandidateRecord> Samples;

  /// Index of the first plausible sample in the first \p K, or -1.
  int firstPlausible(int K) const;
  /// True if every one of the first \p K samples failed to compile.
  bool allFailCompile(int K) const;
};

/// Samples \p K completions for every TSVC test (single LLM invocation per
/// sample, no feedback — the paper's "code completions" setting of §4.1.1)
/// and classifies each with checksum testing. Dispatches one Sample-mode
/// service request per test across \p Jobs workers; the corpus is
/// bit-identical at any job count.
std::vector<TestCorpus> buildCorpus(int K, uint64_t Seed = ExperimentSeed,
                                    int Jobs = 1,
                                    const std::string &StorePath = "");

/// buildCorpus restricted to an explicit test list (ablation slices).
/// \p StorePath (optional) attaches a persistent result store to the
/// sampling service, so classification outcomes persist across runs.
std::vector<TestCorpus>
buildCorpusFor(const std::vector<const tsvc::TsvcTest *> &Tests, int K,
               uint64_t Seed = ExperimentSeed, int Jobs = 1,
               const std::string &StorePath = "");

/// Table-2 style classification for a given k.
struct ChecksumTally {
  int Plausible = 0;
  int NotEquivalent = 0;
  int CannotCompile = 0;
};
ChecksumTally tallyAt(const std::vector<TestCorpus> &Corpus, int K);

/// Per-test funnel record for Table 3.
struct FunnelRecord {
  std::string Name;
  bool HadPlausible = false;
  core::EquivResult Result;
  /// Per-stage SAT-work aggregates from the service Outcome.
  svc::StageSatWork Alive2Work, CUnrollWork, SplitWork;
  /// Testing-stage interpreter work from the service Outcome.
  svc::StageInterpWork ChecksumWork;
};

/// Runs Algorithm 1 on the first plausible candidate of each test, one
/// Verify-mode service request per plausible test across \p Jobs workers.
/// Verdict-identical at any job count. Without a store the verdict cache
/// is disabled so A/B reruns with different backends measure real work;
/// with \p StorePath set the cache (and its persistent backing) is enabled
/// — that is the point of a warm-start measurement. \p StatsOut (optional)
/// receives this run's cache/store counters.
std::vector<FunnelRecord> runFunnel(const std::vector<TestCorpus> &Corpus,
                                    const core::EquivConfig &Cfg,
                                    int Jobs = 1,
                                    const std::string &StorePath = "",
                                    ServiceRunStats *StatsOut = nullptr);

/// Pretty-printing helpers (stdout).
void printHeader(const std::string &Title);
void printRow3(const char *Label, const std::string &Paper,
               const std::string &Measured);

} // namespace bench
} // namespace lv

#endif // LV_BENCH_HARNESS_H
