//===- svc/Service.h - batched, parallel vectorization service -*- C++ -*-===//
///
/// \file
/// `VectorizerService` — the canonical API for running the paper's funnel
/// (generate via the multi-agent FSM, checksum-test, formally verify) over
/// many functions. It replaces the hand-wired per-function call chain
/// (`agents::MultiAgentFsm::run` + `core::checkEquivalence`) every driver
/// used to repeat:
///
///   * **Batching.** submit()/submitBatch() enqueue work; wait() collects
///     an Outcome per ticket, in any order.
///   * **Parallelism.** A fixed-size worker pool runs independent
///     functions concurrently. Each task owns its entire state — LLM
///     client, interpreter images, TermTable, solvers — so nothing below
///     the service needs to be thread-safe.
///   * **Determinism.** A task's result is a pure function of its Request:
///     the client factory receives Request.Seed verbatim and the default
///     client derives per-task RNG streams from (seed, function source,
///     sample index) internally (see llm/Client.h), and checksum inputs
///     come from the config seed. No task reads another task's state, so
///     verdicts, stage attribution, and FSM transcripts are bit-identical
///     at any worker count (tests/test_svc.cpp pins 1/2/8 workers).
///   * **Caching.** A content-addressed verdict cache (store::ResultStore)
///     keyed by (scalar hash, candidate hash, configHash) lets repeated
///     candidates — across FSM repair attempts, across tests, across
///     bench arms sharing a service — skip re-execution of checksum
///     testing and Algorithm 1. Hits replay the identical stored result,
///     so caching never perturbs verdicts.
///
/// See src/svc/README.md for the threading/ownership model and the
/// cache-key scheme.
///
//===----------------------------------------------------------------------===//

#ifndef LV_SVC_SERVICE_H
#define LV_SVC_SERVICE_H

#include "agents/Fsm.h"
#include "core/Equivalence.h"
#include "llm/Chaos.h"
#include "llm/Client.h"
#include "support/Cancel.h"

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace lv {

namespace store {
class BatchJournal;
class ResultStore;
}

namespace svc {

/// What the service runs for one request.
enum class RunMode : uint8_t {
  Pipeline, ///< FSM generation, then Algorithm-1 verification (Fig. 2).
  Generate, ///< FSM generation only.
  Verify,   ///< Algorithm 1 on a supplied candidate.
  Sample,   ///< K feedback-free completions, checksum-classified (§4.1.1).
};

const char *runModeName(RunMode M);

/// Failure taxonomy: how a task failed, when it did. Every Failed outcome
/// carries exactly one kind; see src/svc/README.md "Failure model" for
/// the full semantics, counters, and retry policy per kind.
enum class FailureKind : uint8_t {
  None,            ///< Not failed.
  ClientTransient, ///< Retryable client error; retries were exhausted.
  ClientPermanent, ///< Non-retryable client error.
  TimedOut,        ///< Request.DeadlineNanos expired (cooperative cancel).
  StageDegraded,   ///< A stage threw but earlier stages produced usable
                   ///< partial results (kept on the Outcome).
  Internal,        ///< Unexpected failure before any stage produced output.
  Shed,            ///< Never ran because of drain(): submitted while the
                   ///< service was draining ("draining"), or still queued
                   ///< when the drain deadline fired ("drain deadline").
                   ///< Nothing is cached or journaled.
};

const char *failureKindName(FailureKind K);

/// Derives a per-task RNG stream from the experiment seed and the task's
/// stable name. Order- and thread-count-independent by construction.
uint64_t taskSeed(uint64_t Seed, const std::string &Name);

/// One unit of work: a scalar function plus everything needed to run the
/// funnel on it. Subsumes the (source, FsmConfig, EquivConfig, seed)
/// tuples the drivers used to thread by hand.
struct Request {
  std::string Name;         ///< Stable identity (test name); metadata + RNG.
  std::string ScalarSource; ///< The C function to vectorize.
  std::string CandidateSource; ///< Verify mode: the candidate to check.
  RunMode Mode = RunMode::Pipeline;
  agents::FsmConfig Fsm;    ///< FSM knobs; Fsm.Checksum also classifies
                            ///< Sample-mode completions.
  core::EquivConfig Equiv;
  uint64_t Seed = 0xC60;    ///< LLM stream seed (Generate/Pipeline/Sample).
  int SampleCount = 1;      ///< Sample mode: completions to draw.
  /// Per-task deadline (0 = none). Enforced cooperatively: the worker
  /// arms a support::CancelToken that the FSM attempt loop, interpreter
  /// fuel checks, and SAT budget loops poll; an expired task unwinds into
  /// a classified TimedOut outcome with its partial progress intact.
  uint64_t DeadlineNanos = 0;
};

/// One classified completion (Sample mode).
struct SampleVerdict {
  std::string Source;
  bool Compiles = false;
  bool Plausible = false;
};

/// SAT work one formal stage performed, summed over its queries (per-query
/// deltas from tv::TVResult). Aggregated per task into Outcome; the bench
/// drivers sum tasks into the BENCH_*.json perf trajectory.
struct StageSatWork {
  uint64_t Conflicts = 0;
  uint64_t Propagations = 0;
  uint64_t Restarts = 0;

  /// Always 0: stages 3-4 no longer race a fast arm. Kept only because
  /// perfbench reports them as smt.fast_wins / smt.fallbacks; delete them
  /// together with those metrics in the next benchmark change.
  uint64_t PortfolioFastWins = 0;
  uint64_t PortfolioFallbacks = 0;

  void add(const tv::TVResult &R) {
    Conflicts += R.Conflicts;
    Propagations += R.Propagations;
    Restarts += R.Restarts;
  }
  void add(const StageSatWork &O) {
    Conflicts += O.Conflicts;
    Propagations += O.Propagations;
    Restarts += O.Restarts;
  }
};

/// Interpreter work one task's checksum testing performed, aggregated
/// over every checksum invocation the task made (FSM tester runs, the
/// Algorithm-1 stage-1 run, Sample-mode classification of each distinct
/// completion). The counters come from interp::ChecksumWork — replayed
/// verbatim on cache hits, so they always describe what the stored verdict
/// originally cost.
/// Mirrors StageSatWork for the testing stage; bench_table2_checksum sums
/// tasks into BENCH_table2.json.
struct StageInterpWork {
  uint64_t ChecksumCalls = 0; ///< Checksum invocations aggregated.
  uint64_t InputSets = 0;     ///< (N, run) input sets consumed.
  uint64_t CandRuns = 0;      ///< Candidate executions.
  uint64_t ScalarRuns = 0;    ///< Scalar reference executions performed.
  uint64_t ScalarRunsSaved = 0; ///< References reused via the memo.
  uint64_t Instrs = 0;        ///< Charged interpreter events, both sides.
  uint64_t Loads = 0;
  uint64_t Stores = 0;
  uint64_t Branches = 0;
  uint64_t Traps = 0;         ///< Candidate runs that trapped.
  uint64_t Hangs = 0;         ///< Candidate runs that exhausted fuel.

  void add(const interp::ChecksumOutcome &O) {
    ++ChecksumCalls;
    InputSets += O.Work.InputSets;
    CandRuns += O.Work.CandRuns;
    ScalarRuns += O.Work.ScalarRuns;
    ScalarRunsSaved += O.Work.ScalarRunsSaved;
    for (const interp::InterpWork *W : {&O.Work.Cand, &O.Work.Scalar}) {
      Instrs += W->Instrs;
      Loads += W->loads();
      Stores += W->stores();
      Branches += W->branches();
    }
    if (O.Work.CandTrap != interp::TrapKind::None)
      ++Traps;
    if (O.Work.CandHang)
      ++Hangs;
  }
  void add(const StageInterpWork &O) {
    ChecksumCalls += O.ChecksumCalls;
    InputSets += O.InputSets;
    CandRuns += O.CandRuns;
    ScalarRuns += O.ScalarRuns;
    ScalarRunsSaved += O.ScalarRunsSaved;
    Instrs += O.Instrs;
    Loads += O.Loads;
    Stores += O.Stores;
    Branches += O.Branches;
    Traps += O.Traps;
    Hangs += O.Hangs;
  }
};

/// Everything one request produced: the FSM transcript, the per-stage
/// equivalence verdicts, and wall time. Subsumes the ad-hoc
/// FsmResult/EquivResult pairs of the per-function call chain.
struct Outcome {
  std::string Name;
  RunMode Mode = RunMode::Pipeline;

  bool GenerateRan = false;
  agents::FsmResult Fsm; ///< Transcript + transitions (Generate/Pipeline).

  bool VerifyRan = false;
  core::EquivResult Equiv; ///< Per-stage verdicts (Verify/Pipeline).

  /// Per-stage SAT-work aggregates derived from Equiv (valid when
  /// VerifyRan; recomputed on cache replays, so they always describe the
  /// work the stored verdict originally cost).
  StageSatWork Alive2Work, CUnrollWork, SplitWork;

  /// Testing-stage interpreter work, aggregated over every checksum run
  /// the task made (FSM tester, Algorithm-1 stage 1, Sample mode).
  StageInterpWork ChecksumWork;

  std::vector<SampleVerdict> Samples; ///< Sample mode.

  uint64_t WallNanos = 0;      ///< Task wall time on its worker.
  bool VerdictCacheHit = false; ///< Equivalence verdict served from cache.
  /// Served from the crash-recovery batch journal instead of running
  /// (run-variant metadata like WallNanos — excluded from debugString, so
  /// resumed batches stay byte-identical to uninterrupted ones).
  bool JournalReplayed = false;

  /// Set when the task threw instead of completing (e.g. encoding memout
  /// escalated to bad_alloc); the failure stays on this task instead of
  /// tearing down the worker. Other fields reflect progress made before
  /// the throw.
  bool Failed = false;
  std::string Error;

  /// Failure taxonomy + resilience tallies. Failure is None unless Failed;
  /// Retries counts transient-error retries consumed (a retried task that
  /// eventually succeeded has Failed=false, Retries>0, and — by the retry
  /// determinism contract — results bit-identical to a fault-free run).
  FailureKind Failure = FailureKind::None;
  int Retries = 0;
  uint64_t DeadlineNanos = 0; ///< Echo of Request.DeadlineNanos.

  /// Convenience: the funnel's final word on this function.
  bool verified() const {
    return VerifyRan && Equiv.Final == core::EquivResult::Equivalent;
  }
};

/// Deterministic serialization of everything semantically meaningful in an
/// Outcome — verdicts, stage attribution, transcripts, sample
/// classifications — excluding wall times and cache metadata (the only
/// fields that may legitimately vary run to run). The determinism-parity
/// tests compare these byte-for-byte across worker counts.
std::string debugString(const Outcome &O);

/// Verdict-cache counters. Hits/Misses cover every lookup of both cached
/// artifact kinds (equivalence verdicts and checksum outcomes).
struct CacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  size_t Entries = 0;
};

/// Service configuration.
struct ServiceConfig {
  int Workers = 1;                ///< Worker threads (clamped to >= 1).
  /// Content-addressed result reuse through a store::ResultStore —
  /// memory-only unless StorePath names a directory.
  bool EnableVerdictCache = true;
  llm::ClientFactory MakeClient;  ///< Null: SimulatedLLM(seed below).
  /// Directory of the verdict cache's record log (see store/Store.h). When
  /// set (and the verdict cache is enabled), the service opens the store
  /// there at construction and appends every fresh verdict — so a new
  /// process replays bit-identical results instead of recomputing them.
  /// Empty: the cache is memory-only.
  std::string StorePath;
  /// Retry budget for transient client errors (llm::ClientError with
  /// Transient set), per task. The whole failed stage re-runs on the SAME
  /// client instance, so a deterministic chaos schedule advances past the
  /// consumed fault and a successful retry is bit-identical to a
  /// fault-free run (see llm/Chaos.h).
  int ClientRetries = 2;
  /// Base backoff before retry k: RetryBackoffNanos << k (cancellable
  /// sleep, so backoff never outlives the task deadline). 0 disables.
  uint64_t RetryBackoffNanos = 1'000'000;
  /// Transport-fault injection (llm/Chaos.h). When enabled, every task's
  /// client is wrapped in the chaos decorator keyed by
  /// taskSeed(Request.Seed, Request.Name) — per-task deterministic
  /// schedules.
  llm::ChaosConfig Chaos;

  /// Directory of the crash-recovery batch journal (store/Journal.h).
  /// When set, completed (non-failed) task outcomes are journaled as they
  /// finish, and submissions whose task key is already journaled replay
  /// the stored outcome instead of running — so a process killed
  /// mid-batch re-runs only the remainder after restart (see
  /// svc/README.md "Drain & recovery"). Empty: off.
  std::string JournalPath;
};

/// Handle for one submitted request.
using Ticket = size_t;

/// The batched, parallel, cache-aware funnel runner.
class VectorizerService {
public:
  explicit VectorizerService(ServiceConfig Cfg = ServiceConfig());

  /// Joins the pool. Tasks already running finish; tasks still queued are
  /// abandoned unrun (their tickets must not be waited on afterwards —
  /// destruction is the caller declaring it no longer wants the results).
  ~VectorizerService();

  VectorizerService(const VectorizerService &) = delete;
  VectorizerService &operator=(const VectorizerService &) = delete;

  /// Enqueues one request at the back of the FIFO queue; workers pick it
  /// up in submission order. The ticket is always valid: after drain()
  /// the request is shed instead (immediately Done with
  /// FailureKind::Shed).
  Ticket submit(Request R);

  /// Enqueues a batch; tickets are in input order. With a journal
  /// attached, tasks whose completion is already journaled replay their
  /// stored outcomes instead of running.
  std::vector<Ticket> submitBatch(std::vector<Request> Batch);

  /// Blocks until the ticket's task finished. The reference stays valid
  /// for the service's lifetime.
  const Outcome &wait(Ticket T);

  /// Blocks until every listed task finished; outcomes in ticket order.
  std::vector<Outcome> waitBatch(const std::vector<Ticket> &Tickets);

  /// wait() with a timeout: returns the outcome, or null when the task
  /// has not finished within \p TimeoutNanos (the timed-out sentinel —
  /// the task keeps running; poll again, wait(), or walk away).
  const Outcome *waitFor(Ticket T, uint64_t TimeoutNanos);

  /// Per-task disposition of a timed batch wait: a slow task and a shed
  /// one are different answers, and callers should not have to parse
  /// debugString to tell them apart.
  enum class TaskState : uint8_t {
    Done,    ///< Finished (successfully or with any non-shed failure).
    Pending, ///< Still queued or running when the wait deadline fired.
    Shed,    ///< Never ran because of drain(); the Outcome carries
             ///< FailureKind::Shed.
  };
  struct TaskStatus {
    TaskState State = TaskState::Pending;
    const Outcome *Out = nullptr; ///< Null exactly when State == Pending.
  };

  /// waitFor over a batch against ONE shared deadline \p TimeoutNanos
  /// from now: entry i reports ticket i's state at (or before) that
  /// deadline, in ticket order. Pending tasks keep running — poll again,
  /// wait(), or walk away.
  std::vector<TaskStatus> waitBatchFor(const std::vector<Ticket> &Tickets,
                                       uint64_t TimeoutNanos);

  CacheStats cacheStats() const;
  int workers() const { return NumWorkers; }

  /// The persistent store opened from StorePath; null when the service
  /// runs without persistence (the verdict cache may still be on,
  /// memory-only).
  store::ResultStore *resultStore() const {
    return Cfg.StorePath.empty() ? nullptr : Store.get();
  }

  /// Resilience tallies aggregated over every finished task.
  struct ResilienceStats {
    uint64_t Retries = 0;  ///< Transient retries consumed (incl. absorbed).
    uint64_t Timeouts = 0; ///< Tasks failed TimedOut.
    uint64_t Degraded = 0; ///< Tasks failed StageDegraded.
    uint64_t ClientTransient = 0; ///< Tasks failed ClientTransient.
    uint64_t ClientPermanent = 0; ///< Tasks failed ClientPermanent.
    uint64_t Internal = 0;        ///< Tasks failed Internal.
    uint64_t Shed = 0;            ///< Tasks shed by drain().
    uint64_t JournalReplayed = 0; ///< Tasks served from the batch journal.
  };
  ResilienceStats resilienceStats() const;

  /// The attached batch journal; null when JournalPath was empty.
  store::BatchJournal *journal() const { return Journal.get(); }

  /// What drain() did with the work it found.
  struct DrainResult {
    size_t Completed = 0; ///< Tasks that finished inside the deadline.
    size_t Cancelled = 0; ///< In-flight tasks cancelled at the deadline.
    size_t Shed = 0;      ///< Queued tasks shed at the deadline.
  };

  /// Graceful teardown: stops admission (later submits are shed), gives
  /// queued + in-flight work \p DeadlineNanos to finish, then sheds what
  /// never started and cancels what is still running via the per-task
  /// CancelTokens (cancelled tasks classify TimedOut, with partial
  /// evidence intact, exactly like a per-task deadline). Flushes the
  /// journal and the result store before returning, so a process exit
  /// right after drain() loses nothing. Idempotent; the destructor may
  /// still be used alone (drain is opt-in politeness, not a prerequisite).
  DrainResult drain(uint64_t DeadlineNanos);

private:
  struct Task {
    Request Req;
    Outcome Out;
    bool Done = false;
    bool Started = false;          ///< Dequeued by a worker (under M).
    support::CancelToken Token;    ///< Cancellation seam; drain() + the
                                   ///< per-task deadline both use it.
    uint64_t JournalKey = 0;       ///< taskKey(Req); 0 when journaling off.
  };

  void workerLoop();
  void runTask(Task &T);
  void runStages(Task &T, support::CancelToken &Token);
  /// Builds a task's LLM client: the factory client, wrapped in the chaos
  /// decorator when chaos is configured.
  std::unique_ptr<llm::LLMClient> makeTaskClient(const Request &R);
  void backoffSleep(int Attempt);
  core::EquivResult checkCached(const std::string &ScalarSrc,
                                const std::string &CandidateSrc,
                                const core::EquivConfig &Cfg, bool &Hit);
  interp::ChecksumOutcome testCached(const std::string &ScalarSrc,
                                     const std::string &CandidateSrc,
                                     const vir::VFunction &Scalar,
                                     const vir::VFunction &Vec,
                                     const interp::ChecksumConfig &Cfg,
                                     interp::ScalarRefMemo *Memo = nullptr);

  /// Admits \p R with M held: sheds it when draining, replays it from
  /// the journal, or queues it. Appends a shed ticket to \p ShedOut so
  /// the caller can publish it outside the lock.
  Ticket admitLocked(Request R, std::vector<Ticket> &ShedOut);
  /// Marks an un-run task shed (under M) — outcome, stats, wakeups.
  void shedLocked(Task &T, const char *Why);
  /// Publishes counters/flight records for tasks shed while M was held.
  void publishShed(const std::vector<Ticket> &Shed);
  /// The journal identity of a request under this service's config.
  uint64_t taskKey(const Request &R) const;

  ServiceConfig Cfg;
  int NumWorkers = 1;
  /// The verdict cache; null when EnableVerdictCache is off.
  std::unique_ptr<store::ResultStore> Store;
  std::unique_ptr<store::BatchJournal> Journal; ///< From JournalPath.
  uint64_t JournalSalt = 0; ///< Serving-config hash mixed into task keys.

  mutable std::mutex M;
  std::condition_variable WorkCv;  ///< Signals workers: queue or shutdown.
  std::condition_variable DoneCv;  ///< Signals waiters: a task finished.
  std::deque<std::unique_ptr<Task>> Tasks; ///< Stable storage per ticket.
  std::deque<size_t> Pending;
  size_t Inflight = 0;    ///< Started-but-unfinished tasks (guarded by M).
  ResilienceStats RStats; ///< Guarded by M.
  bool Stopping = false;
  bool Draining = false;  ///< drain() ran: all new admissions shed.
  std::vector<std::thread> Pool;
};

//===----------------------------------------------------------------------===//
// Outcome wire format (crash-recovery batch journal)
//===----------------------------------------------------------------------===//

/// Content hash of a request's *task identity* — everything that
/// determines its outcome (name, mode, sources, seed, sample count,
/// config hashes) and nothing that doesn't (the deadline: only completed
/// outcomes are journaled, and completed outcomes are pure functions of
/// the identity fields). Serving-policy knobs that can alter outcomes
/// (retry budget, chaos schedule) are mixed in by the service on top of
/// this (see ServiceConfig::JournalPath).
uint64_t requestKey(const Request &R);

/// Exactness string compared on journal hits, so a 64-bit key collision
/// degrades to a re-run instead of replaying a wrong outcome — the same
/// discipline as the verdict cache (store::ResultStore).
std::string requestIdentity(const Request &R);

/// Full binary serialization of an Outcome (store/Framing.h wire format):
/// everything debugString covers plus the work aggregates — so a journal
/// replay is byte-identical to the original run in every semantically
/// meaningful field. WallNanos/VerdictCacheHit/JournalReplayed are
/// run-variant and are not round-tripped.
std::string serializeOutcome(const Outcome &O);
bool deserializeOutcome(const std::string &Bytes, Outcome &Out);

//===----------------------------------------------------------------------===//
// Thin single-task wrappers (the old per-function call chain, routed
// through a one-worker service so every entry point shares one code path).
//===----------------------------------------------------------------------===//

/// Runs one request to completion on a throwaway single-worker service.
Outcome runOne(Request R);

/// runOne on a throwaway service built from \p SC (Workers forced to 1) —
/// lets the example drivers thread --store and other service knobs through
/// the single-task convenience path.
Outcome runOne(Request R, const ServiceConfig &SC);

/// Algorithm 1 on one (scalar, candidate) pair — drop-in for direct
/// core::checkEquivalence call sites.
core::EquivResult verifyPair(const std::string &ScalarSrc,
                             const std::string &CandidateSrc,
                             const core::EquivConfig &Cfg =
                                 core::EquivConfig());

} // namespace svc
} // namespace lv

#endif // LV_SVC_SERVICE_H
