//===- smt/Term.h - hash-consed bit-vector/bool terms ----------*- C++ -*-===//
///
/// \file
/// The SMT term layer: immutable, hash-consed DAG of boolean and 32-bit
/// bit-vector terms with aggressive construction-time rewriting. This plays
/// Z3's role for the bounded translation validator. The rewriter matters as
/// much as the SAT core: after guarded unrolling, most refinement
/// obligations between structurally similar scalar/vector programs collapse
/// to `false` (no violation) syntactically, and array indices normalize to
/// constants so the memory model can resolve read-over-write without case
/// splits.
///
//===----------------------------------------------------------------------===//

#ifndef LV_SMT_TERM_H
#define LV_SMT_TERM_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace lv {
namespace smt {

/// Index of a term in its TermTable.
using TermId = int32_t;
inline constexpr TermId NoTerm = -1;

/// Term kinds. Bool-sorted and BV32-sorted kinds share one table.
enum class TK : uint8_t {
  // Bool sort.
  True, False,
  BVar,      ///< Named boolean variable.
  Not, And, Or,
  BIte,      ///< (bool, bool, bool)
  Eq,        ///< (bv, bv) -> bool
  Ult, Slt,  ///< (bv, bv) -> bool
  AddOvf, SubOvf, MulOvf, ///< signed-overflow predicates (bv, bv) -> bool
  // BV32 sort.
  Const,
  Var,       ///< Named 32-bit variable.
  Add, Sub, Mul,
  SDiv, SRem,///< truncated signed division; callers guard division by zero
  BvAnd, BvOr, BvXor, BvNot,
  Shl, LShr, AShr, ///< shift amounts masked to [0,31] by construction
  Ite,       ///< (bool, bv, bv) -> bv
};

/// One hash-consed term.
struct Term {
  TK K;
  TermId A = NoTerm, B = NoTerm, C = NoTerm;
  uint32_t CVal = 0;  ///< Const payload / variable ordinal.

  bool operator==(const Term &O) const {
    return K == O.K && A == O.A && B == O.B && C == O.C && CVal == O.CVal;
  }
};

/// Returns true for BV32-sorted kinds.
bool isBvKind(TK K);

/// Signed 32-bit multiplication overflow: the meaning of TK::MulOvf.
bool mulOverflows(int32_t A, int32_t B);

/// The term manager: hash-consing plus construction-time simplification.
class TermTable {
public:
  TermTable();

  /// Pre-reserves the term vector and hash-cons buckets for \p Expected
  /// terms (clamped to 2^20) so symbolic execution does not pay rehash
  /// churn while growing the DAG. Call with EquivConfig::MaxTerms.
  void reserve(size_t Expected);

  //===--------------------------------------------------------------------===
  // Constructors (simplifying)
  //===--------------------------------------------------------------------===

  TermId mkTrue() const { return TrueId; }
  TermId mkFalse() const { return FalseId; }
  TermId mkBool(bool B) const { return B ? TrueId : FalseId; }
  TermId mkBVar(const std::string &Name);
  TermId mkNot(TermId X);
  TermId mkAnd(TermId X, TermId Y);
  TermId mkOr(TermId X, TermId Y);
  TermId mkImplies(TermId X, TermId Y) { return mkOr(mkNot(X), Y); }
  TermId mkBIte(TermId C, TermId T, TermId E);
  TermId mkEq(TermId X, TermId Y);
  TermId mkNe(TermId X, TermId Y) { return mkNot(mkEq(X, Y)); }
  TermId mkUlt(TermId X, TermId Y);
  TermId mkSlt(TermId X, TermId Y);
  TermId mkSle(TermId X, TermId Y) { return mkNot(mkSlt(Y, X)); }
  TermId mkSgt(TermId X, TermId Y) { return mkSlt(Y, X); }
  TermId mkSge(TermId X, TermId Y) { return mkNot(mkSlt(X, Y)); }
  TermId mkAddOvf(TermId X, TermId Y);
  TermId mkSubOvf(TermId X, TermId Y);
  TermId mkMulOvf(TermId X, TermId Y);

  TermId mkConst(uint32_t V);
  TermId mkConstS(int32_t V) { return mkConst(static_cast<uint32_t>(V)); }
  TermId mkVar(const std::string &Name);
  TermId mkAdd(TermId X, TermId Y);
  TermId mkSub(TermId X, TermId Y);
  TermId mkNeg(TermId X) { return mkSub(mkConst(0), X); }
  TermId mkMul(TermId X, TermId Y);
  TermId mkSDiv(TermId X, TermId Y);
  TermId mkSRem(TermId X, TermId Y);
  TermId mkBvAnd(TermId X, TermId Y);
  TermId mkBvOr(TermId X, TermId Y);
  TermId mkBvXor(TermId X, TermId Y);
  TermId mkBvNot(TermId X);
  TermId mkShl(TermId X, TermId Y);
  TermId mkLShr(TermId X, TermId Y);
  TermId mkAShr(TermId X, TermId Y);
  TermId mkIte(TermId C, TermId T, TermId E);

  /// Converts a bool term to a 0/1 bit-vector.
  TermId boolToBv(TermId B) { return mkIte(B, mkConst(1), mkConst(0)); }
  /// Converts a bv to bool (!= 0).
  TermId bvToBool(TermId X) { return mkNe(X, mkConst(0)); }

  //===--------------------------------------------------------------------===
  // Inspection
  //===--------------------------------------------------------------------===

  const Term &get(TermId Id) const { return Terms[static_cast<size_t>(Id)]; }
  size_t size() const { return Terms.size(); }
  bool isBv(TermId Id) const { return isBvKind(get(Id).K); }

  bool isConst(TermId Id) const { return get(Id).K == TK::Const; }
  bool isConst(TermId Id, uint32_t &V) const {
    if (!isConst(Id))
      return false;
    V = get(Id).CVal;
    return true;
  }
  bool isTrue(TermId Id) const { return Id == TrueId; }
  bool isFalse(TermId Id) const { return Id == FalseId; }

  /// Variable names for model/diagnostic printing.
  const std::string &varName(TermId Id) const;

  /// Rewrite-memo statistics (hits short-circuit the simplification chain
  /// of a constructor; misses ran it). Exposed for tests and benchmarks.
  uint64_t rewriteMemoHits() const { return MemoHits; }
  uint64_t rewriteMemoMisses() const { return MemoMisses; }

  /// Pretty-prints (s-expression style, for debugging and tests).
  std::string print(TermId Id) const;

  /// Evaluates a term under an assignment of variables (keyed by their
  /// TermId). Missing variables default to zero. Used to check models
  /// (IncrementalSolver's multiplier refinement) and by property tests
  /// against the bit-blaster. Each call evaluates every term of the cone
  /// once, without recursion (final TV states are deep shared DAGs).
  uint32_t evalBv(TermId Id,
                  const std::unordered_map<TermId, uint32_t> &Env) const;
  bool evalBool(TermId Id,
                const std::unordered_map<TermId, uint32_t> &Env) const;

private:
  uint32_t evalCone(TermId Root,
                    const std::unordered_map<TermId, uint32_t> &Env) const;

  struct TermHash {
    size_t operator()(const Term &T) const {
      uint64_t H = static_cast<uint64_t>(T.K);
      H = H * 0x9e3779b97f4a7c15ULL + static_cast<uint32_t>(T.A);
      H = H * 0x9e3779b97f4a7c15ULL + static_cast<uint32_t>(T.B);
      H = H * 0x9e3779b97f4a7c15ULL + static_cast<uint32_t>(T.C);
      H = H * 0x9e3779b97f4a7c15ULL + T.CVal;
      return static_cast<size_t>(H ^ (H >> 32));
    }
  };

  std::vector<Term> Terms;
  std::unordered_map<Term, TermId, TermHash> Unique;
  std::vector<std::string> VarNames; ///< Sparse: indexed by term id.
  TermId TrueId = NoTerm, FalseId = NoTerm;
  uint32_t NextVarOrdinal = 0;

  TermId intern(Term T);

  // Simplifying constructor bodies; the public mk* wrappers route through
  // the rewrite memo before running these.
  TermId rwNot(TermId X);
  TermId rwAnd(TermId X, TermId Y);
  TermId rwOr(TermId X, TermId Y);
  TermId rwBIte(TermId C, TermId T, TermId E);
  TermId rwEq(TermId X, TermId Y);
  TermId rwUlt(TermId X, TermId Y);
  TermId rwSlt(TermId X, TermId Y);
  TermId rwAddOvf(TermId X, TermId Y);
  TermId rwSubOvf(TermId X, TermId Y);
  TermId rwMulOvf(TermId X, TermId Y);
  TermId rwAdd(TermId X, TermId Y);
  TermId rwSub(TermId X, TermId Y);
  TermId rwMul(TermId X, TermId Y);
  TermId rwSDiv(TermId X, TermId Y);
  TermId rwSRem(TermId X, TermId Y);
  TermId rwBvAnd(TermId X, TermId Y);
  TermId rwBvOr(TermId X, TermId Y);
  TermId rwBvXor(TermId X, TermId Y);
  TermId rwBvNot(TermId X);
  TermId rwShl(TermId X, TermId Y);
  TermId rwLShr(TermId X, TermId Y);
  TermId rwAShr(TermId X, TermId Y);
  TermId rwIte(TermId C, TermId T, TermId E);

  /// Mask-idiom ite lifting for Add/Sub/Mul/BvAnd/BvOr/BvXor (smt/README.md
  /// "Mask idioms"): pushes the op into the arms of an ite operand when that
  /// adds no term, else runs the kind's rewrite body \p Rewrite.
  using RewriteFn = TermId (TermTable::*)(TermId, TermId);
  TermId liftIte(TK K, TermId X, TermId Y, RewriteFn Rewrite);
  /// The public constructor of binary bit-vector kind \p K.
  TermId mkBin(TK K, TermId X, TermId Y);

  //===--------------------------------------------------------------------===
  // Rewrite memo
  //===--------------------------------------------------------------------===
  //
  // (kind, operands) -> constructor result. Distinct from hash-consing
  // (`Unique`), which only dedups the *post-rewrite* term: the memo
  // short-circuits the simplification chain itself when the same
  // pre-rewrite application recurs — symbolic execution rebuilds the same
  // guarded updates and index arithmetic constantly. Sound because every
  // rewrite is a pure function of operand identities, and the table only
  // grows. Open-addressing flat table so probes stay one cache line.

  struct MemoEntry {
    TK K;
    TermId A = NoTerm, B = NoTerm, C = NoTerm;
    TermId R = NoTerm; ///< NoTerm marks an empty slot.
  };
  std::vector<MemoEntry> Memo;
  size_t MemoLive = 0;
  uint64_t MemoHits = 0, MemoMisses = 0;

  static size_t memoIndex(TK K, TermId A, TermId B, TermId C, size_t Mask) {
    uint64_t H = static_cast<uint64_t>(K) * 0x9e3779b97f4a7c15ULL;
    H = (H + static_cast<uint32_t>(A)) * 0x9e3779b97f4a7c15ULL;
    H = (H + static_cast<uint32_t>(B)) * 0x9e3779b97f4a7c15ULL;
    H = (H + static_cast<uint32_t>(C)) * 0x9e3779b97f4a7c15ULL;
    return static_cast<size_t>(H ^ (H >> 32)) & Mask;
  }

  TermId memoGet(TK K, TermId A, TermId B, TermId C) const;
  void memoPut(TK K, TermId A, TermId B, TermId C, TermId R);
  void memoGrow(size_t NewCap);

  /// Wraps one simplifying constructor body: replay a memoized result or
  /// run \p Rewrite and record it.
  template <class F>
  TermId memoized(TK K, TermId A, TermId B, TermId C, F Rewrite) {
    TermId Hit = memoGet(K, A, B, C);
    if (Hit != NoTerm) {
      ++MemoHits;
      return Hit;
    }
    ++MemoMisses;
    TermId R = Rewrite();
    memoPut(K, A, B, C, R);
    return R;
  }
};

} // namespace smt
} // namespace lv

#endif // LV_SMT_TERM_H
