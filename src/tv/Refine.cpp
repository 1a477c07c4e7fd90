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
    for (const ScalarPin &P : Opts.Pins)
      In.pin(P.Param, P.Value);
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

    // Unsat under an assumption prefix that admits no input proves
    // nothing: with pinned scalars this is a loop that needs more
    // iterations than the unroll bound, so the bound decides nothing.
    if (T.isFalse(A)) {
      Immediate.V = TVVerdict::Inconclusive;
      Immediate.Detail = "assumptions admit no input (a loop needs more "
                         "iterations than the unroll bound)";
      HasImmediate = true;
      return;
    }

    // The common prefix A && !UB_src is asserted once; per-query
    // violations then run under an assumption literal against it.
    IS.assertAlways(T.mkAnd(A, T.mkNot(SS.UB)));
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
};

/// Registry-counter emission for one completed query result. The counter
/// deltas are exactly the fields StageSatWork::add(TVResult) aggregates —
/// the bench parity gates rely on that equality.
static void emitQueryCounters(const TVResult &Out) {
  static obs::Counter &Queries = obs::counter("tv.queries");
  static obs::Counter &Conflicts = obs::counter("tv.conflicts");
  static obs::Counter &Props = obs::counter("tv.propagations");
  static obs::Counter &Restarts = obs::counter("tv.restarts");
  static obs::Histogram &QueryNs = obs::histogram("tv.query_ns");
  Queries.inc();
  Conflicts.inc(Out.Conflicts);
  Props.inc(Out.Propagations);
  Restarts.inc(Out.Restarts);
  QueryNs.observe(Out.SolveNanos);
}

static void emitQuerySpanArgs(obs::Span &S, const TVResult &Out, int CellLo,
                              int Cells) {
  S.arg("cell_lo", static_cast<uint64_t>(std::max(CellLo, 0)));
  S.arg("cells", static_cast<uint64_t>(std::max(Cells, 0)));
  S.arg("conflicts", Out.Conflicts);
  S.arg("propagations", Out.Propagations);
  S.arg("restarts", Out.Restarts);
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
  // Report only work actually done by this replay.
  Out.Conflicts = Out.Propagations = Out.Restarts = 0;
  return true;
}

void RefinementSession::Impl::finishResult(TVResult &Out,
                                           const smt::SmtResult &R) {
  Out.Conflicts = R.ConflictsUsed;
  Out.Propagations = R.PropagationsUsed;
  Out.Restarts = R.RestartsUsed;
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
      uint32_t V;
      if (!T.isConst(P, V)) { // a pinned scalar is a constant, not a model var
        auto It = R.Model.find(P);
        if (It == R.Model.end())
          continue;
        V = It->second;
      }
      appendf(CE, "%s = %d\n", Name.c_str(), static_cast<int32_t>(V));
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
  finishResult(Out, (Isolate ? forkBase() : IS).check(Viol, Budget));
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
  // Single-use session: solve directly in the base, no fork needed.
  RefinementSession S(Src, Tgt, Opts);
  int Lo = 0, Hi = Opts.CompareWindow;
  if (Opts.CellFilter >= 0) {
    Lo = Opts.CellFilter;
    Hi = Opts.CellFilter + 1;
  }
  return S.I->query(Lo, Hi, Opts.Budget, /*Isolate=*/false);
}
