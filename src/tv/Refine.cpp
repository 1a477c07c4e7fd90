//===- tv/Refine.cpp - bounded translation validation -------------------------===//

#include "tv/Refine.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "smt/Solve.h"
#include "support/Cancel.h"
#include "support/Format.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

using namespace lv;
using namespace lv::tv;
using namespace lv::vir;
using smt::TermId;
using smt::TermTable;

/// Portfolio fast-arm probe divisor: the fast racer runs under
/// MaxConflicts / PortfolioProbeDiv (floor 1) of the query's conflict
/// budget. On a multi-core wall-clock race the sound arm's latency is
/// unaffected by the fast arm; this sequential emulation bounds the added
/// latency of a losing fast probe to ~1/Div of the query budget instead.
/// Verdict-neutral: a capped fast arm can only fall back more, and the
/// sound fork's verdict is the parity reference. Corpus data shows
/// fast-arm wins land well under 1/8 of the budget while losses always
/// exhaust it, so the probe keeps the wins and caps the double-pay.
static constexpr uint64_t PortfolioProbeDiv = 8;

const char *lv::tv::verdictName(TVVerdict V) {
  switch (V) {
  case TVVerdict::Equivalent: return "Equivalent";
  case TVVerdict::Inequivalent: return "Inequivalent";
  case TVVerdict::Inconclusive: return "Inconclusive";
  case TVVerdict::Unsupported: return "Unsupported";
  }
  return "?";
}

/// `t refines s`: violated when s is defined but t is poison or different.
static TermId refineViolation(TermTable &T, const SymVal &S, const SymVal &V) {
  return T.mkAnd(T.mkNot(S.Poison),
                 T.mkOr(V.Poison, T.mkNe(S.Val, V.Val)));
}

/// Finds the memory for region \p Name in a state ('s param regions).
static const SymMemory *findMem(const SymState &St, const VFunction &F,
                                const std::string &Name) {
  for (size_t I = 0; I < F.Memories.size(); ++I)
    if (F.Memories[I].IsParam && F.Memories[I].Name == Name)
      return &St.Mems[I];
  return nullptr;
}

//===----------------------------------------------------------------------===//
// RefinementSession
//===----------------------------------------------------------------------===//

struct RefinementSession::Impl {
  RefineOptions Opts;
  TermTable T;
  SharedInputs In;
  SymState SS, ST;
  /// Param-region pairs compared cell-by-cell (source side / target side).
  std::vector<std::pair<const SymMemory *, const SymMemory *>> MemPairs;
  /// UB_tgt plus the return-value obligations — common to every query.
  TermId BaseViol = smt::NoTerm;
  smt::IncrementalSolver IS;
  /// Reusable fork target for isolated queries (capacity persists across
  /// queries, so re-forking is allocation-free).
  std::unique_ptr<smt::IncrementalSolver> Fork;
  /// Portfolio sessions: the fast racer's base — a copy of the pristine
  /// sound base running shared-learnt with cone projection and trail
  /// reuse. Queries search it directly (learnt clauses accumulate across
  /// queries, heuristics rewound per query). The sound base IS above is
  /// never searched, so fallback forks reproduce plain fork-per-query
  /// verdicts bit-exactly.
  std::unique_ptr<smt::IncrementalSolver> FastIS;
  /// Adaptive fast-arm gate: the largest conflict budget at which the
  /// fast racer has already exhausted itself without deciding. Queries at
  /// that budget or below skip the race and go straight to the sound
  /// fork — the portfolio stops paying double on budget classes where the
  /// fast arm is known to be inconclusive (e.g. spatial splitting, whose
  /// per-cell budget is far below the cunroll budget the fast arm already
  /// failed at). Skipping is sound: the sound fork's verdict is the
  /// parity reference either way. Monotone and deterministic: one probe
  /// per budget class, never reset within a session.
  uint64_t FastFailedBudgetHi = 0;
  /// Verdicts of completed isolated queries, keyed by the violation
  /// TermId (hash-consing makes syntactic equality an id compare) and
  /// guarded by exact budget equality. An identical query against a
  /// pristine fork is deterministic, so replaying the verdict is exact —
  /// common in spatial splitting when several cells compare syntactically
  /// equal and collapse to the same base violation.
  struct MemoEntry {
    smt::SatBudget Budget;
    TVResult Result;
  };
  std::unordered_map<TermId, MemoEntry> QueryMemo;
  /// Verdict fixed at construction (compile/shape failures); every query
  /// returns it unchanged.
  bool HasImmediate = false;
  TVResult Immediate;
  /// T.size() right after construction — the term count a scratch session
  /// would start from. Per-query term accounting is BaseTerms plus the
  /// terms that query itself built, so the MaxTerms memout check stays
  /// order-independent instead of charging each query for every earlier
  /// query's terms.
  size_t BaseTerms = 0;

  Impl(const VFunction &Src, const VFunction &Tgt, const RefineOptions &O)
      : Opts(O), In(T), IS(T) {
    T.reserve(Opts.MaxTerms);
    {
      obs::Span Exec("tv", "tv.symexec");
      SS = executeSymbolic(Src, T, In, Opts.SrcExec);
      ST = executeSymbolic(Tgt, T, In, Opts.TgtExec);
    }
    if (!SS.ok() || !ST.ok()) {
      Immediate.V = TVVerdict::Unsupported;
      Immediate.Detail = !SS.ok() ? SS.Error : ST.Error;
      HasImmediate = true;
      return;
    }

    // Assumptions: unroll exhaustion on both sides, size domains, scalar
    // parameter domain, and the alignment divisibility constraints.
    TermId A = T.mkAnd(SS.Assum, ST.Assum);
    for (const SymMemory &M : SS.Mems)
      A = T.mkAnd(A, M.sizeDomain());
    for (const SymMemory &M : ST.Mems)
      A = T.mkAnd(A, M.sizeDomain());
    for (const std::string &Name : In.scalarNames()) {
      TermId P = In.scalar(Name);
      A = T.mkAnd(A, T.mkAnd(T.mkSge(P, T.mkConst(0)),
                             T.mkSle(P, T.mkConstS(Opts.ScalarMax))));
    }
    for (const DivAssumption &D : Opts.Divs) {
      TermId P = In.scalar(D.Param);
      TermId E = T.mkAdd(P, T.mkConstS(D.Offset));
      A = T.mkAnd(A, T.mkAnd(T.mkSge(E, T.mkConst(0)),
                             T.mkEq(T.mkSRem(E, T.mkConstS(D.Mod)),
                                    T.mkConst(0))));
    }

    // Violations shared by every query: target UB and return obligations.
    BaseViol = ST.UB;
    if (Src.ReturnsValue && Tgt.ReturnsValue) {
      TermId RetMismatch =
          T.mkOr(T.mkAnd(SS.RetCond, T.mkNot(ST.RetCond)),
                 T.mkAnd(ST.RetCond, T.mkNot(SS.RetCond)));
      TermId RetDiff =
          T.mkAnd(T.mkAnd(SS.RetCond, ST.RetCond),
                  refineViolation(T, SS.RetVal, ST.RetVal));
      BaseViol = T.mkOr(BaseViol, T.mkOr(RetMismatch, RetDiff));
    } else if (Src.ReturnsValue != Tgt.ReturnsValue) {
      Immediate.V = TVVerdict::Inequivalent;
      Immediate.Detail = "return type mismatch";
      HasImmediate = true;
      return;
    }

    for (size_t I = 0; I < Src.Memories.size(); ++I) {
      if (!Src.Memories[I].IsParam)
        continue;
      const SymMemory *MT = findMem(ST, Tgt, Src.Memories[I].Name);
      if (!MT) {
        Immediate.V = TVVerdict::Inequivalent;
        Immediate.Detail =
            format("target lacks array parameter '%s'",
                   Src.Memories[I].Name.c_str());
        HasImmediate = true;
        return;
      }
      MemPairs.emplace_back(&SS.Mems[I], MT);
    }

    // The common prefix A && !UB_src is asserted once; per-query
    // violations then run under an assumption literal against it.
    IS.assertAlways(T.mkAnd(A, T.mkNot(SS.UB)));
    if (Opts.Portfolio) {
      // Portfolio racing: the fast arm gets its own shared-learnt base
      // (cone projection + trail reuse), copied from the still-pristine
      // sound base so both racers start from the identical encoding. Its
      // branching heuristics rewind to this point before every query:
      // sharing covers the clause DB (learnt lemmas), not VSIDS/phase
      // warmth — warm heuristics are the main way one query's search
      // distorts the next one's budget-bound verdict.
      FastIS.reset(new smt::IncrementalSolver(IS));
      smt::SatOptions FastOpts;
      FastOpts.ConeProjection = true;
      FastOpts.TrailReuse = true;
      FastIS->setOptions(FastOpts);
      FastIS->snapshotHeuristics();
    }
    BaseTerms = T.size();
  }

  TVResult query(int CellLo, int CellHi, const smt::SatBudget &Budget,
                 bool Isolate);
  TVResult queryBody(int CellLo, int CellHi, const smt::SatBudget &Budget,
                     bool Isolate);

  /// Builds the violation term for cells [CellLo, CellHi) — BaseViol plus
  /// a refinement obligation per non-syntactically-identical cell.
  TermId buildViolation(int CellLo, int CellHi);
  /// Memo probe under exact budget equality; fills \p Out with the zeroed
  /// replay copy on a hit.
  bool memoProbe(TermId Viol, const smt::SatBudget &Budget, TVResult &Out);
  /// Copies solver statistics and renders the verdict/counterexample.
  void finishResult(TVResult &Out, const smt::SmtResult &R);
  /// Re-forks the pristine base into the reusable Fork slot.
  smt::IncrementalSolver &forkBase();
  /// The isolated solve kernel: plain fork-per-query, or the portfolio
  /// race when the session has a fast base and \p RaceFast is set.
  /// \p RaceFast false in a portfolio session means the adaptive gate
  /// skipped the fast arm: the sound fork decides alone and the result is
  /// marked PortfolioArm=2 with zero fast-arm work.
  TVResult solveIsolated(TermId Viol, const smt::SatBudget &Budget,
                         bool RaceFast);
};

/// Registry-counter emission for one completed query result. The counter
/// deltas are exactly the fields StageSatWork::add(TVResult) aggregates —
/// the bench parity gates rely on that equality — including the portfolio
/// win/fallback tallies.
static void emitQueryCounters(const TVResult &Out) {
  static obs::Counter &Queries = obs::counter("tv.queries");
  static obs::Counter &Conflicts = obs::counter("tv.conflicts");
  static obs::Counter &Props = obs::counter("tv.propagations");
  static obs::Counter &Restarts = obs::counter("tv.restarts");
  static obs::Counter &Reused = obs::counter("tv.trail_reused");
  static obs::Counter &FastWins = obs::counter("tv.portfolio_fast_wins");
  static obs::Counter &SoundWins = obs::counter("tv.portfolio_sound_wins");
  static obs::Counter &Fallbacks = obs::counter("tv.portfolio_fallbacks");
  static obs::Histogram &QueryNs = obs::histogram("tv.query_ns");
  Queries.inc();
  Conflicts.inc(Out.Conflicts);
  Props.inc(Out.Propagations);
  Restarts.inc(Out.Restarts);
  Reused.inc(Out.TrailReused);
  if (Out.PortfolioArm == 1) {
    FastWins.inc();
  } else if (Out.PortfolioArm == 2) {
    Fallbacks.inc();
    if (Out.decided())
      SoundWins.inc();
  }
  QueryNs.observe(Out.SolveNanos);
}

static void emitQuerySpanArgs(obs::Span &S, const TVResult &Out, int CellLo,
                              int Cells) {
  S.arg("cell_lo", static_cast<uint64_t>(std::max(CellLo, 0)));
  S.arg("cells", static_cast<uint64_t>(std::max(Cells, 0)));
  S.arg("conflicts", Out.Conflicts);
  S.arg("propagations", Out.Propagations);
  S.arg("restarts", Out.Restarts);
  S.arg("trail_reused", Out.TrailReused);
}

/// Every session query funnels through here (checkFull, checkCell, and
/// the one-shot wrapper alike): one "tv.query" span plus the registry
/// counters.
TVResult RefinementSession::Impl::query(int CellLo, int CellHi,
                                        const smt::SatBudget &Budget,
                                        bool Isolate) {
  // Per-query deadline checkpoint: a cancelled task stops before the next
  // solve, bounding deadline overshoot to one query's budget.
  support::throwIfCancelled("tv.query");
  obs::Span S("tv", "tv.query");
  TVResult Out = queryBody(CellLo, CellHi, Budget, Isolate);
  emitQuerySpanArgs(S, Out, CellLo, CellHi - CellLo);
  emitQueryCounters(Out);
  return Out;
}

/// \p Isolate runs the query in a throwaway fork of the session's base
/// solver. The base stays pristine (the common encoding is asserted but
/// never searched), so every isolated query starts from exactly the state
/// a scratch solver would have built — same verdicts as one-shot solving,
/// minus the per-query symbolic execution and common-encoding blast.
TermId RefinementSession::Impl::buildViolation(int CellLo, int CellHi) {
  TermId Viol = BaseViol;
  for (const auto &Pair : MemPairs) {
    const SymMemory &MS = *Pair.first;
    const SymMemory &MT = *Pair.second;
    int Lo = std::max(CellLo, 0);
    int Hi = std::min(CellHi, MS.capacity());
    for (int J = Lo; J < Hi; ++J) {
      TermId Off = T.mkConst(static_cast<uint32_t>(J));
      SymVal CS = MS.read(Off);
      SymVal CT = MT.read(Off);
      if (CS.Val == CT.Val && CS.Poison == CT.Poison)
        continue; // syntactically identical
      Viol = T.mkOr(Viol, refineViolation(T, CS, CT));
    }
  }
  return Viol;
}

bool RefinementSession::Impl::memoProbe(TermId Viol,
                                        const smt::SatBudget &Budget,
                                        TVResult &Out) {
  auto It = QueryMemo.find(Viol);
  if (It == QueryMemo.end() ||
      It->second.Budget.MaxConflicts != Budget.MaxConflicts ||
      It->second.Budget.MaxPropagations != Budget.MaxPropagations ||
      It->second.Budget.MaxClauses != Budget.MaxClauses)
    return false;
  Out = It->second.Result;
  // Report only work actually done by this replay — and no portfolio
  // race ran, so the replay does not count as a win or a fallback.
  Out.Conflicts = Out.Propagations = Out.Restarts = 0;
  Out.TrailReused = 0;
  Out.ConeVars = Out.ConeClauses = 0;
  Out.PortfolioArm = 0;
  Out.FastConflicts = Out.FastPropagations = Out.FastRestarts = 0;
  Out.FastTrailReused = Out.FastConeVars = Out.FastConeClauses = 0;
  return true;
}

void RefinementSession::Impl::finishResult(TVResult &Out,
                                           const smt::SmtResult &R) {
  Out.Conflicts = R.ConflictsUsed;
  Out.Propagations = R.PropagationsUsed;
  Out.Restarts = R.RestartsUsed;
  Out.TrailReused = R.TrailReused;
  Out.ConeVars = R.ConeVars;
  Out.ConeClauses = R.ConeClauses;
  Out.Clauses = R.ClauseCount;
  Out.SatVars = R.VarCount;
  Out.LearntLive = R.LearntLive;
  Out.AvgLBD = R.AvgLBD;
  switch (R.R) {
  case smt::SatResult::Unsat:
    Out.V = TVVerdict::Equivalent;
    Out.Detail = "refinement holds on the bounded domain";
    break;
  case smt::SatResult::Unknown:
    Out.V = TVVerdict::Inconclusive;
    Out.Detail = format("solver budget exhausted (%llu conflicts)",
                        static_cast<unsigned long long>(R.ConflictsUsed));
    break;
  case smt::SatResult::Sat: {
    Out.V = TVVerdict::Inequivalent;
    // Render the counterexample: scalar params, array sizes, initial
    // cells.
    std::string CE;
    for (const std::string &Name : In.scalarNames()) {
      TermId P = In.scalar(Name);
      auto It = R.Model.find(P);
      if (It != R.Model.end())
        appendf(CE, "%s = %d\n", Name.c_str(),
                static_cast<int32_t>(It->second));
    }
    for (const std::string &Name : In.arrayNames()) {
      TermId SZ = In.arraySize(Name);
      auto It = R.Model.find(SZ);
      if (It != R.Model.end())
        appendf(CE, "alloc-size(%s) = %d\n", Name.c_str(),
                static_cast<int32_t>(It->second));
      const std::vector<SymVal> &Base =
          In.arrayBase(Name, /*Cap=*/0); // existing entries only
      std::string Cells;
      for (size_t K = 0; K < Base.size() && K < 8; ++K) {
        auto CIt = R.Model.find(Base[K].Val);
        appendf(Cells, "%s%d", K ? ", " : "",
                CIt == R.Model.end() ? 0
                                     : static_cast<int32_t>(CIt->second));
      }
      if (!Cells.empty())
        appendf(CE, "%s[0..] = {%s}\n", Name.c_str(), Cells.c_str());
    }
    Out.Counterexample = CE;
    Out.Detail = "refinement violated; counterexample found";
    break;
  }
  }
}

smt::IncrementalSolver &RefinementSession::Impl::forkBase() {
  if (!Fork)
    Fork.reset(new smt::IncrementalSolver(IS));
  else
    Fork->assignFrom(IS);
  return *Fork;
}

TVResult RefinementSession::Impl::solveIsolated(TermId Viol,
                                                const smt::SatBudget &Budget,
                                                bool RaceFast) {
  TVResult Out;
  if (FastIS && RaceFast) {
    // Portfolio race, fast racer first: shared-learnt + cone projection +
    // trail reuse, under a probe slice of the query budget (the test
    // hook can pinch it further to force the fallback path).
    smt::SatBudget FastB = Budget;
    FastB.MaxConflicts =
        std::max<uint64_t>(FastB.MaxConflicts / PortfolioProbeDiv, 1);
    if (Opts.PortfolioFastMaxConflicts < FastB.MaxConflicts)
      FastB.MaxConflicts = Opts.PortfolioFastMaxConflicts;
    // Search the fast base itself so learnt clauses accumulate across
    // queries (heuristics rewound per query).
    FastIS->restoreHeuristics();
    smt::SmtResult RF = FastIS->check(Viol, FastB);
    Out.PortfolioArm = 1;
    Out.FastConflicts = RF.ConflictsUsed;
    Out.FastPropagations = RF.PropagationsUsed;
    Out.FastRestarts = RF.RestartsUsed;
    Out.FastTrailReused = RF.TrailReused;
    Out.FastConeVars = RF.ConeVars;
    Out.FastConeClauses = RF.ConeClauses;
    if (RF.R != smt::SatResult::Unknown) {
      // Both racers run complete searches, so a decided fast verdict is
      // sound; accept it without paying for the sound racer at all.
      finishResult(Out, RF);
      return Out;
    }
    // Indeterminate fast racer (budget exhaustion — the only way the
    // racers can "disagree"): fall back to the sound fork, whose verdict
    // always stands and is bit-identical to plain fork-per-query solving
    // because the sound base was never searched.
    Out.PortfolioArm = 2;
    smt::SmtResult RS = forkBase().check(Viol, Budget);
    // Headline counters total the work of both racers, keeping the
    // StageSatWork/span/counter parity invariant honest about cost.
    RS.ConflictsUsed += RF.ConflictsUsed;
    RS.PropagationsUsed += RF.PropagationsUsed;
    RS.RestartsUsed += RF.RestartsUsed;
    RS.TrailReused += RF.TrailReused;
    finishResult(Out, RS);
    return Out;
  }
  // Adaptive skip (portfolio session, RaceFast false): the fast arm has
  // already proven inconclusive at this budget class, so only the sound
  // fork runs. Marked as a fallback with zero fast-arm work — FastConflicts
  // distinguishes "raced and lost" from "skipped".
  if (FastIS)
    Out.PortfolioArm = 2;
  smt::SmtResult R = forkBase().check(Viol, Budget);
  finishResult(Out, R);
  return Out;
}

TVResult RefinementSession::Impl::queryBody(int CellLo, int CellHi,
                                            const smt::SatBudget &Budget,
                                            bool Isolate) {
  if (HasImmediate)
    return Immediate;
  auto Start = std::chrono::steady_clock::now();
  auto elapsed = [&Start]() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Start)
            .count());
  };
  TVResult Out;

  size_t TermsBefore = T.size();
  TermId Viol = buildViolation(CellLo, CellHi);

  // Memo hit: an isolated query is deterministic from the pristine base,
  // so a syntactically identical violation (same TermId, thanks to
  // hash-consing) under the exact same budget replays its verdict — with
  // none of the SAT work. Budget equality covers every field: a retry
  // with a loosened propagation/clause budget must re-solve.
  if (memoProbe(Viol, Budget, Out)) {
    obs::counter("tv.memo_hits").inc();
    Out.SolveNanos = elapsed();
    return Out;
  }

  // Memout check on this query's own footprint: the base encoding plus
  // whatever this query built. The shared table holds earlier queries'
  // terms too, but charging them here would make verdicts depend on query
  // order (a scratch session never sees them).
  size_t QueryTerms = BaseTerms + (T.size() - TermsBefore);
  Out.TermCount = QueryTerms;
  if (QueryTerms > Opts.MaxTerms) {
    Out.V = TVVerdict::Inconclusive;
    Out.Detail = format("term limit exceeded (%zu terms): encoding too "
                        "large (out-of-memory analogue)",
                        QueryTerms);
    return Out;
  }
  if (Isolate) {
    size_t TC = Out.TermCount;
    bool RaceFast = FastIS && Budget.MaxConflicts > FastFailedBudgetHi;
    Out = solveIsolated(Viol, Budget, RaceFast);
    Out.TermCount = TC;
    // Fast racer exhausted its budget without deciding: stop racing this
    // budget class (and anything smaller) for the rest of the session.
    if (RaceFast && Out.PortfolioArm == 2)
      FastFailedBudgetHi = std::max(FastFailedBudgetHi, Budget.MaxConflicts);
  } else {
    smt::SmtResult R = IS.check(Viol, Budget);
    finishResult(Out, R);
  }
  Out.SolveNanos = elapsed();
  QueryMemo[Viol] = MemoEntry{Budget, Out};
  return Out;
}

RefinementSession::RefinementSession(const VFunction &Src,
                                     const VFunction &Tgt,
                                     const RefineOptions &Opts)
    : I(new Impl(Src, Tgt, Opts)) {}

RefinementSession::~RefinementSession() = default;
RefinementSession::RefinementSession(RefinementSession &&) noexcept = default;

TVResult RefinementSession::checkFull(const smt::SatBudget &Budget) {
  int Lo = 0, Hi = I->Opts.CompareWindow;
  if (I->Opts.CellFilter >= 0) {
    Lo = I->Opts.CellFilter;
    Hi = I->Opts.CellFilter + 1;
  }
  return I->query(Lo, Hi, Budget, /*Isolate=*/true);
}

TVResult RefinementSession::checkCell(int Cell, const smt::SatBudget &Budget) {
  return I->query(Cell, Cell + 1, Budget, /*Isolate=*/true);
}

//===----------------------------------------------------------------------===//
// One-shot wrapper
//===----------------------------------------------------------------------===//

TVResult lv::tv::checkRefinement(const VFunction &Src, const VFunction &Tgt,
                                 const RefineOptions &Opts) {
  // Single-use session: solve directly in the base, no fork needed — and
  // no fast racer, whose base copy would never be searched.
  RefineOptions O = Opts;
  O.Portfolio = false;
  RefinementSession S(Src, Tgt, O);
  int Lo = 0, Hi = Opts.CompareWindow;
  if (Opts.CellFilter >= 0) {
    Lo = Opts.CellFilter;
    Hi = Opts.CellFilter + 1;
  }
  return S.I->query(Lo, Hi, Opts.Budget, /*Isolate=*/false);
}
