//===- svc/Service.cpp - batched, parallel vectorization service -------------===//

#include "svc/Service.h"

#include "obs/Flight.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "store/Framing.h"
#include "store/Journal.h"
#include "store/Store.h"
#include "support/Format.h"
#include "support/Rng.h"
#include "vir/Compile.h"

#include <chrono>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

using namespace lv;
using namespace lv::svc;

const char *lv::svc::runModeName(RunMode M) {
  switch (M) {
  case RunMode::Pipeline: return "pipeline";
  case RunMode::Generate: return "generate";
  case RunMode::Verify: return "verify";
  case RunMode::Sample: return "sample";
  }
  return "?";
}

const char *lv::svc::failureKindName(FailureKind K) {
  switch (K) {
  case FailureKind::None: return "none";
  case FailureKind::ClientTransient: return "client-transient";
  case FailureKind::ClientPermanent: return "client-permanent";
  case FailureKind::TimedOut: return "timed-out";
  case FailureKind::StageDegraded: return "stage-degraded";
  case FailureKind::Internal: return "internal";
  case FailureKind::Shed: return "shed";
  }
  return "?";
}

uint64_t lv::svc::taskSeed(uint64_t Seed, const std::string &Name) {
  return hashCombine(Seed, hashString(Name.c_str()));
}

//===----------------------------------------------------------------------===//
// VectorizerService
//===----------------------------------------------------------------------===//

namespace {
void publishOutcome(const Outcome &O); // defined with the worker loop below
} // namespace

/// Hashes the serving-policy knobs that can alter a *completed* outcome's
/// bytes (retry budget, chaos schedule) so journal task keys never
/// collide across configs whose outcomes could differ — a journal shared
/// between a chaos run and a clean run must not replay one into the
/// other. Retired tags, never to be reused: 1 (per-task seed derivation),
/// 10-12 (circuit breaker), 13 (hedging).
static uint64_t servingSalt(const ServiceConfig &C) {
  uint64_t H = 0x5A17;
  H = hashField(H, 2, static_cast<uint64_t>(C.ClientRetries));
  H = hashField(H, 3, C.Chaos.ChaosSeed);
  H = hashField(H, 4, bitsOfDouble(C.Chaos.TransientRate));
  H = hashField(H, 5, bitsOfDouble(C.Chaos.PermanentRate));
  H = hashField(H, 6, bitsOfDouble(C.Chaos.TruncateRate));
  H = hashField(H, 7, bitsOfDouble(C.Chaos.GarbageRate));
  H = hashField(H, 8, bitsOfDouble(C.Chaos.LatencyRate));
  H = hashField(H, 9, C.Chaos.TransientCallScript.size());
  for (uint64_t I : C.Chaos.TransientCallScript)
    H = hashCombine(H, I);
  return H;
}

VectorizerService::VectorizerService(ServiceConfig C)
    : Cfg(std::move(C)) {
  NumWorkers = Cfg.Workers < 1 ? 1 : Cfg.Workers;
  // The verdict cache is the store, persistent when StorePath is set (A/B
  // benches that disable the cache must not silently replay persisted
  // work either).
  if (Cfg.EnableVerdictCache)
    Store.reset(new store::ResultStore(Cfg.StorePath));
  if (!Cfg.JournalPath.empty()) {
    Journal.reset(new store::BatchJournal(Cfg.JournalPath));
    JournalSalt = servingSalt(Cfg);
  }
  if (!Cfg.MakeClient)
    Cfg.MakeClient = llm::simulatedClientFactory();
  Pool.reserve(static_cast<size_t>(NumWorkers));
  for (int I = 0; I < NumWorkers; ++I)
    Pool.emplace_back([this] { workerLoop(); });
}

VectorizerService::~VectorizerService() {
  {
    std::lock_guard<std::mutex> L(M);
    Stopping = true;
  }
  WorkCv.notify_all();
  for (std::thread &T : Pool)
    T.join();
}

uint64_t VectorizerService::taskKey(const Request &R) const {
  return hashCombine(requestKey(R), JournalSalt);
}

/// Marks \p T shed (M held). The outcome is complete immediately — a shed
/// task is an answered task whose answer is "the service refused it".
void VectorizerService::shedLocked(Task &T, const char *Why) {
  T.Out.Name = T.Req.Name;
  T.Out.Mode = T.Req.Mode;
  T.Out.DeadlineNanos = T.Req.DeadlineNanos;
  T.Out.Failed = true;
  T.Out.Failure = FailureKind::Shed;
  T.Out.Error = std::string("shed: ") + Why;
  T.Done = true;
  ++RStats.Shed;
}

/// Post-lock publication of shed tasks: counters + flight recorder (the
/// shed decision itself must stay inside the admission critical section,
/// but obs sinks have their own locks and don't belong under M).
void VectorizerService::publishShed(const std::vector<Ticket> &Shed) {
  if (Shed.empty())
    return;
  for (Ticket T : Shed) {
    obs::counter("svc.shed").inc();
    publishOutcome(Tasks[T]->Out); // Tasks entries are append-only: safe
                                   // to read Out after Done without M.
  }
  DoneCv.notify_all();
}

/// The admission decision for one request, M held. Returns the ticket
/// (always valid; a shed request's task is Done immediately).
Ticket VectorizerService::admitLocked(Request R, std::vector<Ticket> &ShedOut) {
  Ticket T = Tasks.size();
  Tasks.push_back(std::unique_ptr<Task>(new Task()));
  Task &Tk = *Tasks.back();
  Tk.Req = std::move(R);

  // A draining service sheds everything new.
  if (Draining || Stopping) {
    shedLocked(Tk, "service draining");
    ShedOut.push_back(T);
    return T;
  }

  // Crash recovery: a task whose identity is already journaled replays
  // the stored outcome instead of running. Replay is exact (identity
  // string verified) and complete (the serialized form covers every
  // semantically meaningful field), so the batch converges on the same
  // bytes an uninterrupted run would produce.
  if (Journal) {
    Tk.JournalKey = taskKey(Tk.Req);
    std::string Payload;
    if (Journal->lookupDone(Tk.JournalKey, requestIdentity(Tk.Req),
                            Payload) &&
        deserializeOutcome(Payload, Tk.Out)) {
      Tk.Out.JournalReplayed = true;
      Tk.Done = true;
      ++RStats.JournalReplayed;
      obs::counter("svc.journal_replayed").inc();
      DoneCv.notify_all();
      return T;
    }
  }

  Pending.push_back(T);
  return T;
}

Ticket VectorizerService::submit(Request R) {
  std::vector<Ticket> Shed;
  Ticket T;
  {
    std::lock_guard<std::mutex> L(M);
    T = admitLocked(std::move(R), Shed);
  }
  publishShed(Shed);
  WorkCv.notify_one();
  return T;
}

std::vector<Ticket> VectorizerService::submitBatch(std::vector<Request> B) {
  std::vector<Ticket> Out;
  std::vector<Ticket> Shed;
  Out.reserve(B.size());

  {
    std::lock_guard<std::mutex> L(M);
    for (Request &R : B)
      Out.push_back(admitLocked(std::move(R), Shed));
  }
  publishShed(Shed);
  WorkCv.notify_all();
  return Out;
}

const Outcome &VectorizerService::wait(Ticket T) {
  std::unique_lock<std::mutex> L(M);
  Task &Tk = *Tasks.at(T);
  DoneCv.wait(L, [&] { return Tk.Done; });
  return Tk.Out;
}

std::vector<Outcome>
VectorizerService::waitBatch(const std::vector<Ticket> &Tickets) {
  std::vector<Outcome> Out;
  Out.reserve(Tickets.size());
  for (Ticket T : Tickets)
    Out.push_back(wait(T));
  return Out;
}

const Outcome *VectorizerService::waitFor(Ticket T, uint64_t TimeoutNanos) {
  std::unique_lock<std::mutex> L(M);
  Task &Tk = *Tasks.at(T);
  if (!DoneCv.wait_for(L, std::chrono::nanoseconds(TimeoutNanos),
                       [&] { return Tk.Done; }))
    return nullptr; // timed-out sentinel: the task keeps running
  return &Tk.Out;
}

std::vector<VectorizerService::TaskStatus>
VectorizerService::waitBatchFor(const std::vector<Ticket> &Tickets,
                                uint64_t TimeoutNanos) {
  // One absolute deadline shared by the whole batch: ticket i gets
  // whatever budget the first i-1 waits left over.
  uint64_t Deadline = support::steadyNowNanos() + TimeoutNanos;
  std::vector<TaskStatus> Out;
  Out.reserve(Tickets.size());
  for (Ticket T : Tickets) {
    uint64_t Now = support::steadyNowNanos();
    TaskStatus S;
    S.Out = waitFor(T, Now < Deadline ? Deadline - Now : 0);
    if (S.Out)
      S.State = S.Out->Failure == FailureKind::Shed ? TaskState::Shed
                                                    : TaskState::Done;
    Out.push_back(S);
  }
  return Out;
}

VectorizerService::DrainResult
VectorizerService::drain(uint64_t DeadlineNanos) {
  DrainResult DR;
  std::vector<Ticket> Shed;
  {
    std::unique_lock<std::mutex> L(M);
    Draining = true;

    size_t DoneBefore = 0;
    for (const std::unique_ptr<Task> &T : Tasks)
      if (T->Done)
        ++DoneBefore;

    // Grace period: queued + in-flight work may still finish.
    if (DeadlineNanos > 0)
      DoneCv.wait_for(L, std::chrono::nanoseconds(DeadlineNanos),
                      [&] { return Pending.empty() && Inflight == 0; });

    size_t DoneInGrace = 0;
    for (const std::unique_ptr<Task> &T : Tasks)
      if (T->Done)
        ++DoneInGrace;
    DR.Completed = DoneInGrace - DoneBefore;

    // Past the deadline: work that never started is shed ...
    while (!Pending.empty()) {
      size_t Idx = Pending.front();
      Pending.pop_front();
      shedLocked(*Tasks[Idx], "drain deadline");
      Shed.push_back(Idx);
      ++DR.Shed;
    }
    // ... and work in flight is cancelled through its token; the workers
    // unwind at the next cooperative checkpoint into TimedOut outcomes
    // with their partial evidence intact.
    for (const std::unique_ptr<Task> &T : Tasks)
      if (T->Started && !T->Done) {
        T->Token.requestCancel();
        ++DR.Cancelled;
      }
    DoneCv.wait(L, [&] { return Inflight == 0; });
  }
  publishShed(Shed);

  // Durability before teardown: everything the batch produced is on disk
  // when drain returns.
  if (Journal)
    Journal->flush();
  if (Store)
    Store->flush();
  return DR;
}

CacheStats VectorizerService::cacheStats() const {
  CacheStats CS;
  if (Store) {
    store::StoreStats St = Store->stats();
    CS.Hits = St.Hits;
    CS.Misses = St.Misses;
    CS.Entries = static_cast<size_t>(St.Entries);
  }
  return CS;
}

VectorizerService::ResilienceStats VectorizerService::resilienceStats() const {
  std::lock_guard<std::mutex> L(M);
  return RStats;
}

namespace {

std::string outcomeSummary(const Outcome &O) {
  if (O.Failed)
    return std::string(failureKindName(O.Failure)) + ": " +
           (O.Error.empty() ? "failed" : O.Error);
  if (O.VerifyRan)
    return core::outcomeName(O.Equiv.Final);
  if (O.Mode == RunMode::Sample)
    return format("%zu samples", O.Samples.size());
  if (O.GenerateRan)
    return "generated";
  return "done";
}

/// Post-task observability: registry counters/histograms plus the flight
/// recorder. Runs after the worker's try/catch, so failed tasks (their
/// wall filled in by the unwinding task span) are covered too.
void publishOutcome(const Outcome &O) {
  static obs::Counter &Tasks = obs::counter("svc.tasks");
  static obs::Counter &TasksFailed = obs::counter("svc.tasks_failed");
  static obs::Counter &Timeouts = obs::counter("svc.timeouts");
  static obs::Counter &Degraded = obs::counter("svc.degraded");
  Tasks.inc();
  if (O.Failed)
    TasksFailed.inc();
  if (O.Failure == FailureKind::TimedOut)
    Timeouts.inc();
  if (O.Failure == FailureKind::StageDegraded)
    Degraded.inc();
  obs::histogram("svc.task_ns").observe(O.WallNanos);
  if (O.VerifyRan) {
    // Per-stage wall nanos, sourced from the equiv stage spans.
    obs::histogram("equiv.checksum_ns").observe(O.Equiv.ChecksumNanos);
    obs::histogram("equiv.alive2_ns").observe(O.Equiv.Alive2Nanos);
    obs::histogram("equiv.cunroll_ns").observe(O.Equiv.CUnrollNanos);
    obs::histogram("equiv.split_ns").observe(O.Equiv.SplitNanos);
  }
  if (!obs::flightEnabled())
    return;
  obs::TaskRecord R;
  R.Name = O.Name;
  R.Mode = runModeName(O.Mode);
  R.Summary = outcomeSummary(O);
  R.WallNanos = O.WallNanos;
  R.EndNanos = obs::traceClockNanos();
  R.Failed = O.Failed;
  if (O.Failed)
    obs::noteTrap(R);
  else
    obs::recordTask(R);
}

} // namespace

void VectorizerService::workerLoop() {
  // RAII in-flight slot: released exactly once per dequeued task, on every
  // exit path (normal completion, classified failure, a throw from the
  // publication code below). Losing a slot would leave drain() waiting on
  // Inflight forever.
  struct SlotGuard {
    VectorizerService *S;
    ~SlotGuard() {
      {
        std::lock_guard<std::mutex> L(S->M);
        --S->Inflight;
      }
      S->DoneCv.notify_all(); // drain() waits on Inflight == 0
    }
  };
  for (;;) {
    Task *T;
    {
      std::unique_lock<std::mutex> L(M);
      WorkCv.wait(L, [&] { return Stopping || !Pending.empty(); });
      if (Stopping)
        return; // queued-but-unstarted tasks are abandoned on shutdown
      T = Tasks[Pending.front()].get(); // stable: deque of owning pointers
      Pending.pop_front();
      T->Started = true;
      ++Inflight;
    }
    SlotGuard Slot{this};
    try {
      runTask(*T);
    } catch (const std::exception &E) {
      // Keep the failure on the task; a throw escaping a worker thread
      // would std::terminate the whole service. runTask classifies its
      // own failures — anything reaching here escaped that net.
      T->Out.Failed = true;
      T->Out.Error = E.what();
      if (T->Out.Failure == FailureKind::None)
        T->Out.Failure = FailureKind::Internal;
    } catch (...) {
      T->Out.Failed = true;
      T->Out.Error = "unknown exception";
      if (T->Out.Failure == FailureKind::None)
        T->Out.Failure = FailureKind::Internal;
    }
    publishOutcome(T->Out);
    // Journal the completion before announcing it: a crash after the
    // notify but before the append would let a caller observe a result
    // that a restart then recomputes — harmless, but the reverse order
    // keeps "observed => durable" simple. Only settled work is recorded;
    // failures re-run on resume.
    if (Journal && !T->Out.Failed)
      Journal->recordDone(T->JournalKey, requestIdentity(T->Req),
                          serializeOutcome(T->Out));
    {
      std::lock_guard<std::mutex> L(M);
      const Outcome &O = T->Out;
      RStats.Retries += static_cast<uint64_t>(O.Retries);
      switch (O.Failure) {
      case FailureKind::None: break;
      case FailureKind::ClientTransient: ++RStats.ClientTransient; break;
      case FailureKind::ClientPermanent: ++RStats.ClientPermanent; break;
      case FailureKind::TimedOut: ++RStats.Timeouts; break;
      case FailureKind::StageDegraded: ++RStats.Degraded; break;
      case FailureKind::Internal: ++RStats.Internal; break;
      case FailureKind::Shed: ++RStats.Shed; break; // defensive: drain() sheds
      }
      T->Done = true;
    }
    DoneCv.notify_all();
  }
}

core::EquivResult
VectorizerService::checkCached(const std::string &ScalarSrc,
                               const std::string &CandidateSrc,
                               const core::EquivConfig &Cfg2, bool &Hit) {
  Hit = false;
  // Callbacks have no content identity: never cache around an override.
  if (!Store || Cfg2.SplitCellOverride)
    return core::checkEquivalence(ScalarSrc, CandidateSrc, Cfg2);
  store::ResultStore::Key K = store::ResultStore::makeKey(
      ScalarSrc, CandidateSrc, Cfg2.configHash());
  core::EquivResult R;
  if (Store->lookupEquiv(K, ScalarSrc, CandidateSrc, R)) {
    Hit = true;
    return R;
  }
  R = core::checkEquivalence(ScalarSrc, CandidateSrc, Cfg2);
  // A cancelled result reflects this task's deadline, not the pair: caching
  // it would poison every later lookup with a spurious Inconclusive.
  if (!R.Cancelled)
    Store->storeEquiv(K, ScalarSrc, CandidateSrc, R);
  return R;
}

interp::ChecksumOutcome VectorizerService::testCached(
    const std::string &ScalarSrc, const std::string &CandidateSrc,
    const vir::VFunction &Scalar, const vir::VFunction &Vec,
    const interp::ChecksumConfig &CCfg, interp::ScalarRefMemo *Memo) {
  if (!Store)
    return interp::runChecksumTest(Scalar, Vec, CCfg, Memo);
  store::ResultStore::Key K =
      store::ResultStore::makeKey(ScalarSrc, CandidateSrc, CCfg.configHash());
  interp::ChecksumOutcome O;
  if (Store->lookupChecksum(K, ScalarSrc, CandidateSrc, O))
    return O;
  O = interp::runChecksumTest(Scalar, Vec, CCfg, Memo);
  Store->storeChecksum(K, ScalarSrc, CandidateSrc, O);
  return O;
}

/// Bookkeeping once Algorithm 1 filled O.Equiv: the per-stage SAT-work
/// aggregates, the stage-1 checksum work, and the TimedOut classification
/// of a check the deadline cut short (its partial evidence stays on the
/// outcome; the verdict is classified instead of trusted).
static void noteVerified(Outcome &O) {
  O.VerifyRan = true;
  O.Alive2Work.add(O.Equiv.Alive2Res);
  O.CUnrollWork.add(O.Equiv.CUnrollRes);
  for (const tv::TVResult &S : O.Equiv.SplitRes)
    O.SplitWork.add(S);
  if (O.Equiv.Final != core::EquivResult::CannotCompile)
    O.ChecksumWork.add(O.Equiv.ChecksumRes);
  if (O.Equiv.Cancelled) {
    O.Failed = true;
    O.Failure = FailureKind::TimedOut;
    O.Error = "timed out: " + O.Equiv.Detail;
  }
}

static const char *taskSpanName(RunMode M) {
  switch (M) {
  case RunMode::Pipeline: return "task.pipeline";
  case RunMode::Generate: return "task.generate";
  case RunMode::Verify: return "task.verify";
  case RunMode::Sample: return "task.sample";
  }
  return "task";
}

void VectorizerService::backoffSleep(int Attempt) {
  if (!Cfg.RetryBackoffNanos)
    return;
  // Deterministic exponential backoff: attempt k sleeps Base << k. The
  // sleep is cancellable, so backoff never outlives the task deadline
  // (expiry unwinds into the TimedOut classification like any stage).
  int Shift = Attempt < 20 ? Attempt : 20;
  support::cancellableSleepNanos(Cfg.RetryBackoffNanos << Shift,
                                 "svc.retry_backoff");
}

void VectorizerService::runTask(Task &T) {
  const Request &R = T.Req;
  Outcome &O = T.Out;
  O.Name = R.Name;
  O.Mode = R.Mode;
  O.DeadlineNanos = R.DeadlineNanos;
  // The span owns the task wall clock: its destructor accumulates into
  // O.WallNanos even when a stage throws (workerLoop records the failed
  // task afterwards, wall included).
  obs::Span TaskSpan("svc", taskSpanName(R.Mode), &O.WallNanos);
  TaskSpan.argStr("task", R.Name);

  // Arm the cooperative per-task deadline. The scope installs the token
  // thread-locally so every checkpoint below this frame — FSM attempt
  // loop, interpreter fuel checks, SAT budget loops, chaos latency
  // sleeps — polls it without any config plumbing (and therefore without
  // perturbing the configHash-keyed caches). The token lives on the Task
  // (not this stack frame) so drain() can cancel in-flight work.
  support::CancelToken &Token = T.Token;
  if (R.DeadlineNanos)
    Token.setDeadlineAfter(R.DeadlineNanos);
  support::CancelScope Scope(&Token);

  try {
    runStages(T, Token);
  } catch (const support::CancelledError &E) {
    // Deadline expiry in a stage without its own partial-result recovery.
    O.Failed = true;
    O.Failure = FailureKind::TimedOut;
    O.Error = std::string("timed out: ") + E.what();
  } catch (const llm::ClientError &E) {
    // Client error that escaped the retry loops (permanent, or thrown
    // outside a retryable stage).
    O.Failed = true;
    O.Failure = E.Transient ? FailureKind::ClientTransient
                            : FailureKind::ClientPermanent;
    O.Error = E.what();
  } catch (const std::exception &E) {
    // Graceful degradation: if any stage already produced usable output,
    // the outcome keeps it and the failure is classified as degraded
    // rather than opaque-internal.
    O.Failed = true;
    O.Failure = (O.GenerateRan || O.VerifyRan || !O.Samples.empty())
                    ? FailureKind::StageDegraded
                    : FailureKind::Internal;
    O.Error = E.what();
  }
}

std::unique_ptr<llm::LLMClient>
VectorizerService::makeTaskClient(const Request &R) {
  std::unique_ptr<llm::LLMClient> C = Cfg.MakeClient(R.Seed);
  if (Cfg.Chaos.enabled())
    C = llm::wrapChaos(std::move(C), Cfg.Chaos, taskSeed(R.Seed, R.Name));
  return C;
}

void VectorizerService::runStages(Task &T, support::CancelToken &Token) {
  const Request &R = T.Req;
  Outcome &O = T.Out;

  switch (R.Mode) {
  case RunMode::Generate:
  case RunMode::Pipeline: {
    std::unique_ptr<llm::LLMClient> Client = makeTaskClient(R);
    agents::FsmConfig FC = R.Fsm;
    // The task-scoped reference memo: the scalar runs once per input set
    // across every repair attempt the FSM makes.
    interp::ScalarRefMemo Memo;
    if (!FC.Tester) {
      // Route the tester agent's checksum runs through the outcome cache:
      // the FSM's repair loop re-tests recurring candidates, and sampled
      // corpora re-generate the same completion text constantly.
      const std::string &ScalarSrc = R.ScalarSource;
      FC.Tester = [this, &ScalarSrc, &O,
                   &Memo](const std::string &CandidateSrc,
                          const vir::VFunction &Scalar,
                          const vir::VFunction &Vec,
                          const interp::ChecksumConfig &CCfg) {
        interp::ChecksumOutcome CO =
            testCached(ScalarSrc, CandidateSrc, Scalar, Vec, CCfg, &Memo);
        O.ChecksumWork.add(CO);
        return CO;
      };
    }
    agents::MultiAgentFsm Fsm(*Client, FC);
    // Bounded retries for transient client aborts. The SAME client runs
    // every attempt: the chaos decorator's call index has advanced past
    // the consumed fault and the inner completion stream is index-pure,
    // so a successful retry replays the fault-free dialogue exactly —
    // per-attempt state (FSM result, checksum tallies) resets so the
    // surviving outcome is bit-identical to a run that never faulted.
    for (int Attempt = 0;; ++Attempt) {
      O.Fsm = agents::FsmResult();
      O.ChecksumWork = StageInterpWork();
      O.Fsm = Fsm.run(R.ScalarSource);
      if (O.Fsm.Abort != agents::FsmAbort::ClientTransient ||
          Attempt >= Cfg.ClientRetries || Token.expired())
        break;
      ++O.Retries;
      obs::counter("svc.retries").inc();
      backoffSleep(Attempt);
    }
    O.GenerateRan = true;
    switch (O.Fsm.Abort) {
    case agents::FsmAbort::None:
      break;
    case agents::FsmAbort::ClientTransient:
      O.Failed = true;
      O.Failure = FailureKind::ClientTransient;
      O.Error = "client error (retries exhausted): " + O.Fsm.AbortMsg;
      break;
    case agents::FsmAbort::ClientPermanent:
      O.Failed = true;
      O.Failure = FailureKind::ClientPermanent;
      O.Error = "client error: " + O.Fsm.AbortMsg;
      break;
    case agents::FsmAbort::Cancelled:
      O.Failed = true;
      O.Failure = FailureKind::TimedOut;
      O.Error = "timed out: " + O.Fsm.AbortMsg;
      break;
    }
    if (!O.Failed && R.Mode == RunMode::Pipeline && O.Fsm.Plausible) {
      O.Equiv = checkCached(R.ScalarSource, O.Fsm.FinalCandidate, R.Equiv,
                            O.VerdictCacheHit);
      noteVerified(O);
    }
    break;
  }

  case RunMode::Verify:
    O.Equiv = checkCached(R.ScalarSource, R.CandidateSource, R.Equiv,
                          O.VerdictCacheHit);
    noteVerified(O);
    break;

  case RunMode::Sample: {
    // The §4.1.1 "code completions" setting: K independent samples, no
    // feedback, each classified by checksum testing. The completions
    // repeat, so each distinct source is compiled and classified once —
    // through testCached with one reference memo, as the FSM tester does —
    // and its repeats copy that verdict.
    std::unique_ptr<llm::LLMClient> Client = makeTaskClient(R);
    vir::CompileResult SC = vir::compileFunction(R.ScalarSource);
    // One attempt of the whole sampling pass; completions are drawn by
    // explicit index, so a retry on the same client replays the exact
    // fault-free sample stream (see the Generate-mode retry note). All
    // completions are drawn before any is tested, so a client fault lands
    // before the attempt has stored anything and a retry counts exactly
    // the work of a fault-free run.
    auto SampleAttempt = [&] {
      llm::Prompt P;
      P.ScalarSource = R.ScalarSource;
      O.Samples.reserve(static_cast<size_t>(R.SampleCount));
      for (int I = 0; I < R.SampleCount; ++I) {
        llm::Completion C = Client->complete(P, static_cast<uint64_t>(I));
        SampleVerdict V;
        // Copied, not moved: the completion's buffer carries growth slack,
        // and every outcome keeps all K sources.
        V.Source = C.Source;
        O.Samples.push_back(std::move(V));
      }
      interp::ScalarRefMemo Memo;
      std::unordered_map<std::string_view, const SampleVerdict *> First;
      for (SampleVerdict &V : O.Samples) {
        auto [It, New] = First.emplace(V.Source, &V);
        if (!New) {
          V.Compiles = It->second->Compiles;
          V.Plausible = It->second->Plausible;
          continue;
        }
        vir::CompileResult VC = vir::compileFunction(V.Source);
        V.Compiles = VC.ok();
        if (V.Compiles && SC.ok() &&
            V.Source.find("_mm256_") != std::string::npos) {
          interp::ChecksumOutcome CO =
              testCached(R.ScalarSource, V.Source, *SC.Fn, *VC.Fn,
                         R.Fsm.Checksum, &Memo);
          V.Plausible = CO.plausible();
          O.ChecksumWork.add(CO);
        }
      }
    };
    for (int Attempt = 0;; ++Attempt) {
      try {
        SampleAttempt();
        break;
      } catch (const llm::ClientError &E) {
        if (!E.Transient || Attempt >= Cfg.ClientRetries || Token.expired())
          throw; // runTask classifies it
        // Drop the attempt's partial progress so the retry rebuilds the
        // sample list from index 0.
        O.Samples.clear();
        O.ChecksumWork = StageInterpWork();
        ++O.Retries;
        obs::counter("svc.retries").inc();
        backoffSleep(Attempt);
      }
    }
    break;
  }
  }
}

//===----------------------------------------------------------------------===//
// Outcome wire format (crash-recovery batch journal)
//===----------------------------------------------------------------------===//

uint64_t lv::svc::requestKey(const Request &R) {
  uint64_t H = 0x52454B59; // "REKY"
  H = hashField(H, 1, hashString(R.Name.c_str()));
  H = hashField(H, 2, static_cast<uint64_t>(R.Mode));
  H = hashField(H, 3, hashString(R.ScalarSource.c_str()));
  H = hashField(H, 4, hashString(R.CandidateSource.c_str()));
  H = hashField(H, 5, R.Seed);
  H = hashField(H, 6, static_cast<uint64_t>(R.SampleCount));
  H = hashField(H, 7, R.Fsm.configHash());
  H = hashField(H, 8, R.Equiv.configHash());
  return H;
}

std::string lv::svc::requestIdentity(const Request &R) {
  std::string S;
  store::framing::Wr W{S};
  W.str(R.Name);
  W.u8(static_cast<uint8_t>(R.Mode));
  W.str(R.ScalarSource);
  W.str(R.CandidateSource);
  W.u64(R.Seed);
  W.i32(R.SampleCount);
  W.u64(R.Fsm.configHash());
  W.u64(R.Equiv.configHash());
  return S;
}

namespace {

void putSatWork(store::framing::Wr &W, const StageSatWork &SW) {
  W.u64(SW.Conflicts);
  W.u64(SW.Propagations);
  W.u64(SW.Restarts);
}

void getSatWork(store::framing::Rd &R, StageSatWork &SW) {
  SW.Conflicts = R.u64();
  SW.Propagations = R.u64();
  SW.Restarts = R.u64();
}

} // namespace

std::string lv::svc::serializeOutcome(const Outcome &O) {
  std::string S;
  store::framing::Wr W{S};
  W.str(O.Name);
  W.u8(static_cast<uint8_t>(O.Mode));

  W.u8(O.GenerateRan ? 1 : 0);
  W.u8(O.Fsm.Plausible ? 1 : 0);
  W.i32(O.Fsm.Attempts);
  W.str(O.Fsm.FinalCandidate);
  W.str(store::serializeChecksumOutcome(O.Fsm.LastChecksum));
  W.u32(static_cast<uint32_t>(O.Fsm.Transcript.size()));
  for (const agents::Message &Msg : O.Fsm.Transcript) {
    W.str(Msg.From);
    W.str(Msg.To);
    W.str(Msg.Content);
  }
  W.u32(static_cast<uint32_t>(O.Fsm.Transitions.size()));
  for (agents::State St : O.Fsm.Transitions)
    W.u8(static_cast<uint8_t>(St));
  W.u8(static_cast<uint8_t>(O.Fsm.Abort));
  W.str(O.Fsm.AbortMsg);

  W.u8(O.VerifyRan ? 1 : 0);
  W.str(store::serializeEquivResult(O.Equiv));
  // Work aggregates are serialized, not recomputed on replay: cache-replay
  // aggregates describe what the stored verdict originally cost, and the
  // journal keeps that contract so resumed bench tallies match.
  putSatWork(W, O.Alive2Work);
  putSatWork(W, O.CUnrollWork);
  putSatWork(W, O.SplitWork);
  W.u64(O.ChecksumWork.ChecksumCalls);
  W.u64(O.ChecksumWork.InputSets);
  W.u64(O.ChecksumWork.CandRuns);
  W.u64(O.ChecksumWork.ScalarRuns);
  W.u64(O.ChecksumWork.ScalarRunsSaved);
  W.u64(O.ChecksumWork.Instrs);
  W.u64(O.ChecksumWork.Loads);
  W.u64(O.ChecksumWork.Stores);
  W.u64(O.ChecksumWork.Branches);
  W.u64(O.ChecksumWork.Traps);
  W.u64(O.ChecksumWork.Hangs);

  W.u32(static_cast<uint32_t>(O.Samples.size()));
  for (const SampleVerdict &V : O.Samples) {
    W.str(V.Source);
    W.u8(V.Compiles ? 1 : 0);
    W.u8(V.Plausible ? 1 : 0);
  }

  W.u8(O.Failed ? 1 : 0);
  W.str(O.Error);
  W.u8(static_cast<uint8_t>(O.Failure));
  W.i32(O.Retries);
  W.u64(O.DeadlineNanos);
  return S;
}

bool lv::svc::deserializeOutcome(const std::string &Bytes, Outcome &Out) {
  store::framing::Rd R(Bytes);
  Outcome O;
  O.Name = R.str();
  uint8_t Mode = R.u8();
  if (Mode > static_cast<uint8_t>(RunMode::Sample))
    return false;
  O.Mode = static_cast<RunMode>(Mode);

  O.GenerateRan = R.u8() != 0;
  O.Fsm.Plausible = R.u8() != 0;
  O.Fsm.Attempts = R.i32();
  O.Fsm.FinalCandidate = R.str();
  if (!store::deserializeChecksumOutcome(R.str(), O.Fsm.LastChecksum))
    return false;
  uint32_t NMsg = R.u32();
  if (R.Fail)
    return false;
  for (uint32_t I = 0; I < NMsg && !R.Fail; ++I) {
    agents::Message Msg;
    Msg.From = R.str();
    Msg.To = R.str();
    Msg.Content = R.str();
    O.Fsm.Transcript.push_back(std::move(Msg));
  }
  uint32_t NTrans = R.u32();
  if (R.Fail)
    return false;
  for (uint32_t I = 0; I < NTrans && !R.Fail; ++I) {
    uint8_t St = R.u8();
    if (St > static_cast<uint8_t>(agents::State::Failed))
      return false;
    O.Fsm.Transitions.push_back(static_cast<agents::State>(St));
  }
  uint8_t Abort = R.u8();
  if (Abort > static_cast<uint8_t>(agents::FsmAbort::Cancelled))
    return false;
  O.Fsm.Abort = static_cast<agents::FsmAbort>(Abort);
  O.Fsm.AbortMsg = R.str();

  O.VerifyRan = R.u8() != 0;
  if (!store::deserializeEquivResult(R.str(), O.Equiv))
    return false;
  getSatWork(R, O.Alive2Work);
  getSatWork(R, O.CUnrollWork);
  getSatWork(R, O.SplitWork);
  O.ChecksumWork.ChecksumCalls = R.u64();
  O.ChecksumWork.InputSets = R.u64();
  O.ChecksumWork.CandRuns = R.u64();
  O.ChecksumWork.ScalarRuns = R.u64();
  O.ChecksumWork.ScalarRunsSaved = R.u64();
  O.ChecksumWork.Instrs = R.u64();
  O.ChecksumWork.Loads = R.u64();
  O.ChecksumWork.Stores = R.u64();
  O.ChecksumWork.Branches = R.u64();
  O.ChecksumWork.Traps = R.u64();
  O.ChecksumWork.Hangs = R.u64();

  uint32_t NSamples = R.u32();
  if (R.Fail)
    return false;
  for (uint32_t I = 0; I < NSamples && !R.Fail; ++I) {
    SampleVerdict V;
    V.Source = R.str();
    V.Compiles = R.u8() != 0;
    V.Plausible = R.u8() != 0;
    O.Samples.push_back(std::move(V));
  }

  O.Failed = R.u8() != 0;
  O.Error = R.str();
  uint8_t FK = R.u8();
  if (FK > static_cast<uint8_t>(FailureKind::Shed))
    return false;
  O.Failure = static_cast<FailureKind>(FK);
  O.Retries = R.i32();
  O.DeadlineNanos = R.u64();
  if (R.Fail || !R.done())
    return false;
  Out = std::move(O);
  return true;
}

//===----------------------------------------------------------------------===//
// Serialization (determinism-parity comparisons)
//===----------------------------------------------------------------------===//

static void appendTV(std::string &S, const char *Label,
                     const tv::TVResult &R) {
  appendf(S, "  %s: verdict=%d conflicts=%llu clauses=%llu detail=%s\n",
          Label, static_cast<int>(R.V),
          static_cast<unsigned long long>(R.Conflicts),
          static_cast<unsigned long long>(R.Clauses), R.Detail.c_str());
}

std::string lv::svc::debugString(const Outcome &O) {
  std::string S;
  appendf(S, "outcome %s mode=%s\n", O.Name.c_str(), runModeName(O.Mode));
  if (O.Failed)
    appendf(S, " failed: %s\n", O.Error.c_str());
  // Always printed: parity comparisons that expect retry tallies to
  // differ (absorbed-fault vs fault-free runs) strip exactly this line.
  appendf(S, " resilience: failure=%s retries=%d\n",
          failureKindName(O.Failure), O.Retries);
  if (O.GenerateRan) {
    appendf(S, " fsm: plausible=%d attempts=%d\n", O.Fsm.Plausible ? 1 : 0,
            O.Fsm.Attempts);
    S += " transitions:";
    for (agents::State St : O.Fsm.Transitions)
      S += std::string(" ") + agents::stateName(St);
    S += "\n";
    for (const agents::Message &Msg : O.Fsm.Transcript)
      appendf(S, " msg %s->%s: %s\n", Msg.From.c_str(), Msg.To.c_str(),
              Msg.Content.c_str());
    appendf(S, " final-candidate:\n%s\n", O.Fsm.FinalCandidate.c_str());
  }
  if (O.VerifyRan) {
    appendf(S, " equiv: %s decided-by=%s detail=%s\n",
            core::outcomeName(O.Equiv.Final),
            core::stageName(O.Equiv.DecidedBy), O.Equiv.Detail.c_str());
    if (!O.Equiv.Counterexample.empty())
      appendf(S, " cex: %s\n", O.Equiv.Counterexample.c_str());
    appendTV(S, "alive2", O.Equiv.Alive2Res);
    appendTV(S, "c-unroll", O.Equiv.CUnrollRes);
    appendf(S, "  splitting-eligible=%d cells=%zu\n",
            O.Equiv.SplittingEligible ? 1 : 0, O.Equiv.SplitRes.size());
    for (size_t I = 0; I < O.Equiv.SplitRes.size(); ++I)
      appendTV(S, format("cell%zu", I).c_str(), O.Equiv.SplitRes[I]);
  }
  for (const SampleVerdict &V : O.Samples) {
    appendf(S, " sample compiles=%d plausible=%d:\n%s\n", V.Compiles ? 1 : 0,
            V.Plausible ? 1 : 0, V.Source.c_str());
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Single-task wrappers
//===----------------------------------------------------------------------===//

Outcome lv::svc::runOne(Request R) {
  return runOne(std::move(R), ServiceConfig());
}

Outcome lv::svc::runOne(Request R, const ServiceConfig &SC) {
  ServiceConfig C = SC;
  C.Workers = 1;
  VectorizerService S(std::move(C));
  Ticket T = S.submit(std::move(R));
  Outcome O = S.wait(T);
  // The wrappers replace direct calls that let exceptions propagate;
  // restore that contract instead of returning a default-looking Outcome.
  if (O.Failed)
    throw std::runtime_error("svc task '" + O.Name + "' failed: " + O.Error);
  return O;
}

core::EquivResult lv::svc::verifyPair(const std::string &ScalarSrc,
                                      const std::string &CandidateSrc,
                                      const core::EquivConfig &Cfg) {
  Request R;
  R.Mode = RunMode::Verify;
  R.ScalarSource = ScalarSrc;
  R.CandidateSource = CandidateSrc;
  R.Equiv = Cfg;
  return runOne(std::move(R)).Equiv;
}
