//===- smt/Blast.h - term -> CNF bit-blasting -------------------*- C++ -*-===//
///
/// \file
/// Tseitin bit-blasting of bool/BV32 terms into a SatSolver: ripple-carry
/// adders, shift-add multipliers (with 64-bit products for the signed
/// multiplication-overflow predicate), barrel shifters for symbolic shift
/// amounts, and a restoring divider for symbolic divisors. Gates are
/// structurally hashed so shared subterms blast once.
///
//===----------------------------------------------------------------------===//

#ifndef LV_SMT_BLAST_H
#define LV_SMT_BLAST_H

#include "smt/Sat.h"
#include "support/Cancel.h"
#include "smt/Term.h"

#include <array>
#include <cstring>
#include <deque>
#include <vector>

namespace lv {
namespace smt {

/// Structural-hash gate memo: open-addressing so a fork is two flat vector
/// copies instead of a node-based hash-map rebuild. Keys are gate
/// signatures (never 0), values the defined output literal. The slot is a
/// mixed hash of the key: the key's low bits are an operand literal, and
/// fresh literals are sequential, so slotting by the raw low bits builds
/// long linear-probe clusters. Where a key lands never changes the value
/// it maps to, so the hash is invisible in the emitted CNF.
class GateTable {
public:
  GateTable() : Keys(1024, 0), Vals(1024) {}

  /// Probes once for \p Key. On a hit returns its value's slot and clears
  /// \p Fresh. On a miss inserts \p Key, sets \p Fresh, and returns the
  /// new value slot, which the caller must fill before the next call.
  Lit &findOrInsert(uint64_t Key, bool &Fresh) {
    size_t Mask = Keys.size() - 1;
    size_t I = slot(Key, Mask);
    for (; Keys[I] != 0; I = (I + 1) & Mask) {
      if (Keys[I] == Key) {
        Fresh = false;
        return Vals[I];
      }
    }
    Fresh = true;
    if (Count * 10 >= Keys.size() * 7) {
      grow();
      Mask = Keys.size() - 1;
      I = slot(Key, Mask);
      while (Keys[I] != 0)
        I = (I + 1) & Mask;
    }
    Keys[I] = Key;
    ++Count;
    return Vals[I];
  }

  size_t size() const { return Count; }
  size_t capacity() const { return Keys.size(); } ///< Slots (power of 2).

private:
  /// murmur3's 64-bit finalizer: every key bit reaches the masked slot.
  static size_t slot(uint64_t Key, size_t Mask) {
    Key ^= Key >> 33;
    Key *= 0xff51afd7ed558ccdULL;
    Key ^= Key >> 33;
    Key *= 0xc4ceb9fe1a85ec53ULL;
    Key ^= Key >> 33;
    return static_cast<size_t>(Key) & Mask;
  }

  void grow() {
    std::vector<uint64_t> OldK = std::move(Keys);
    std::vector<Lit> OldV = std::move(Vals);
    Keys.assign(OldK.size() * 2, 0);
    Vals.assign(OldK.size() * 2, Lit());
    size_t Mask = Keys.size() - 1;
    for (size_t I = 0; I < OldK.size(); ++I) {
      if (OldK[I] == 0)
        continue;
      size_t J = slot(OldK[I], Mask);
      while (Keys[J] != 0)
        J = (J + 1) & Mask;
      Keys[J] = OldK[I];
      Vals[J] = OldV[I];
    }
  }

  std::vector<uint64_t> Keys; ///< 0 = empty slot.
  std::vector<Lit> Vals;
  size_t Count = 0;
};

/// Blasts terms into CNF over a SatSolver. The blaster is persistent: it
/// memoizes per TermId against a long-lived TermTable, so a single instance
/// shared across many queries (see IncrementalSolver) blasts each shared
/// subterm exactly once.
class BitBlaster {
public:
  using Word = std::vector<Lit>;          ///< Working word, LSB first.
  using PackedWord = std::array<Lit, 32>; ///< Interned 32-bit result.

  BitBlaster(const TermTable &TT, SatSolver &S);

  /// Fork: copies every memo (bool/BV/gate caches, pool, seen vars) but
  /// binds the copy to \p NewS — which must be a copy of the original's
  /// solver, so all cached literals stay valid. Together with SatSolver's
  /// copy constructor this clones a blasted context in O(state) flat
  /// copies, without re-blasting anything.
  BitBlaster(const BitBlaster &O, SatSolver &NewS)
      : TT(O.TT), S(NewS), TrueLit(O.TrueLit), BoolCache(O.BoolCache),
        BvPool(O.BvPool), BvCache(O.BvCache), GateCache(O.GateCache),
        VarsSeen(O.VarsSeen), VarOwner(O.VarOwner), CurOwner(O.CurOwner),
        CT(O.CT) {}

  /// Re-forks in place: like the fork constructor, but reuses this
  /// instance's existing buffer capacity (repeated forking stays pure
  /// memcpy, no allocation churn). The bound solver is unchanged — assign
  /// it from the source's solver alongside this call.
  void assignFrom(const BitBlaster &O) {
    TrueLit = O.TrueLit;
    BoolCache = O.BoolCache;
    BvPool = O.BvPool;
    BvCache = O.BvCache;
    GateCache = O.GateCache;
    VarsSeen = O.VarsSeen;
    VarOwner = O.VarOwner;
    CurOwner = O.CurOwner;
    CT = O.CT;
  }

  /// Blasts a bool term; the returned literal is equivalent to the term.
  Lit blastBool(TermId Id);

  /// Blasts a BV term into 32 literals (LSB first). The reference points
  /// into a stable-address pool (deque): it stays valid across later
  /// blasts, so cache hits cost nothing instead of a 32-entry copy.
  const PackedWord &blastBv(TermId Id);

  /// After a Sat result, reads back the model value of a Var term that was
  /// reachable from the blasted query.
  bool modelOfVar(TermId Id, uint32_t &Out) const;
  bool modelOfBVar(TermId Id, bool &Out) const;

  /// Terms of kind Var/BVar encountered during blasting (for model dumps).
  const std::vector<TermId> &seenVars() const { return VarsSeen; }

  /// Owner term of solver variable \p V: the term whose blast created it
  /// (input bits belong to their Var/BVar term, internal gate variables
  /// to the term being blasted when they were introduced). NoTerm for
  /// vars not created by this blaster (the constant-true var). A gate
  /// reused across terms via the GateTable keeps its first owner, so a
  /// later query whose encoding shares it may see the gate as
  /// out-of-cone — that only narrows the projection (the lift phase
  /// keeps verdicts sound); in practice shared gates almost always come
  /// from shared (hash-consed) subterms, which are reachable from every
  /// query that uses them.
  TermId varOwner(Var V) const {
    return static_cast<size_t>(V) < VarOwner.size()
               ? VarOwner[static_cast<size_t>(V)]
               : NoTerm;
  }
  int numOwnedVars() const { return static_cast<int>(VarOwner.size()); }

  /// After a cone-projected solve: does any bit of var-term \p Id lie in
  /// the query cone? Used to restrict the SAT certificate to variables
  /// the query actually constrains.
  bool varInLastCone(TermId Id, const SatSolver &Solver) const {
    if (const PackedWord *W = bvCached(Id)) {
      for (const Lit &L : *W)
        if (Solver.inLastCone(L.var()))
          return true;
      return false;
    }
    Lit L;
    if (boolCached(Id, L))
      return Solver.inLastCone(L.var());
    return false;
  }

private:
  const TermTable &TT;
  SatSolver &S;
  Lit TrueLit;

  // Term-level caches are dense vectors indexed by TermId (ids are dense),
  // so forking them is a flat copy instead of a hash-map rebuild; the BV
  // pool holds fixed-size packed words (no per-entry heap allocation).
  std::vector<Lit> BoolCache;   ///< X == -2 means "not blasted yet".
  std::deque<PackedWord> BvPool; ///< Stable addresses across growth.
  std::vector<int32_t> BvCache; ///< TermId -> BvPool index, -1 when unset.
  GateTable GateCache;
  std::vector<TermId> VarsSeen;
  /// Per solver var: the term whose blast created it (see varOwner()).
  std::vector<TermId> VarOwner;
  /// Term currently being built (set on the cache-miss path of blastBool
  /// and blastBv; operand recursion finishes before a term's own gates
  /// are constructed, so the save/restore discipline attributes every
  /// fresh variable to the right term).
  TermId CurOwner = NoTerm;
  /// Captured at construction and preserved across fork()/assignFrom so
  /// blasters running on tv worker threads still honour the owning
  /// task's deadline. Null when no CancelScope is active.
  const support::CancelToken *CT = support::currentCancelToken();
  uint64_t BlastSteps = 0; ///< Fresh-blast tick for periodic cancel checks.

  void checkCancelTick() {
    if ((++BlastSteps & 0xFFF) == 0 && CT && CT->expired())
      throw support::CancelledError("smt.blast");
  }

  bool boolCached(TermId Id, Lit &Out) const {
    size_t I = static_cast<size_t>(Id);
    if (I < BoolCache.size() && BoolCache[I].X >= 0) {
      Out = BoolCache[I];
      return true;
    }
    return false;
  }
  const PackedWord *bvCached(TermId Id) const {
    size_t I = static_cast<size_t>(Id);
    if (I < BvCache.size() && BvCache[I] >= 0)
      return &BvPool[static_cast<size_t>(BvCache[I])];
    return nullptr;
  }
  const PackedWord &internBv(TermId Id, const Word &W) {
    PackedWord P;
    std::memcpy(P.data(), W.data(), sizeof(PackedWord));
    BvPool.push_back(P);
    size_t I = static_cast<size_t>(Id);
    if (I >= BvCache.size())
      BvCache.resize(I + 1, -1);
    BvCache[I] = static_cast<int32_t>(BvPool.size()) - 1;
    return BvPool.back();
  }
  Lit internBool(TermId Id, Lit L) {
    size_t I = static_cast<size_t>(Id);
    if (I >= BoolCache.size())
      BoolCache.resize(I + 1, Lit());
    BoolCache[I] = L;
    return L;
  }

  Lit falseLit() const { return ~TrueLit; }
  Lit constLit(bool B) const { return B ? TrueLit : ~TrueLit; }
  bool isConstLit(Lit L, bool &B) const {
    if (L == TrueLit) {
      B = true;
      return true;
    }
    if (L == ~TrueLit) {
      B = false;
      return true;
    }
    return false;
  }

  Lit freshLit() {
    Var V = S.newVar();
    if (static_cast<size_t>(V) >= VarOwner.size())
      VarOwner.resize(static_cast<size_t>(V) + 1, NoTerm);
    VarOwner[static_cast<size_t>(V)] = CurOwner;
    return Lit(V, false);
  }

  // Simplifying gate constructors.
  Lit gAnd(Lit A, Lit B);
  Lit gOr(Lit A, Lit B) { return ~gAnd(~A, ~B); }
  Lit gXor(Lit A, Lit B);
  Lit gXnor(Lit A, Lit B) { return ~gXor(A, B); }
  Lit gMux(Lit Sel, Lit T, Lit E);

  /// Read-only view over a word of literals; lets the helpers consume
  /// working vectors and interned packed words alike without copies.
  struct WordView {
    const Lit *Ptr;
    size_t Len;
    WordView(const Word &W) : Ptr(W.data()), Len(W.size()) {}
    WordView(const PackedWord &W) : Ptr(W.data()), Len(W.size()) {}
    const Lit &operator[](size_t I) const { return Ptr[I]; }
    size_t size() const { return Len; }
    const Lit &back() const { return Ptr[Len - 1]; }
  };

  // Word-level helpers over literal words (LSB first).
  Word wConst(uint32_t V, int Width = 32);
  Word wAdd(WordView A, WordView B, Lit CarryIn, Lit *CarryOut,
            Lit *CarryPrev);
  Word wNeg(WordView A);
  Word wMux(Lit Sel, WordView T, WordView E);
  Lit wUlt(WordView A, WordView B);
  Lit wEq(WordView A, WordView B);
  Word wMul(WordView A, WordView B, int OutWidth);
  void wUDivRem(WordView A, WordView B, Word &Q, Word &R);
  Word wAbs(WordView A);
};

} // namespace smt
} // namespace lv

#endif // LV_SMT_BLAST_H
