// Condition backends: pluggable representations of row conditions.
//
// The conditioned fixpoint and the decision procedures manipulate row
// conditions through four operations — conjoin, disjoin, implication,
// satisfiability — plus a tautology check against a global condition. The
// paper's c-tables make every row condition a conjunction, so the original
// implementation works on interned conjunction ids (ConditionInterner) and
// keeps "a row's condition" as a *set* of conjunctions (an implicit DNF,
// maintained as a covering antichain via pairwise implication). At high
// condition diversity that antichain is genuinely exponential: over the
// infinite domain a union of strictly stronger conjunctions can never cover
// a weaker one, so the antichain must keep them all.
//
// ConditionBackend abstracts the representation behind a small interface so
// a second implementation — hash-consed ordered decision diagrams over
// condition atoms (condition/dd_backend.h) — can represent a row's condition
// as ONE canonical id for an arbitrary boolean combination of atoms, making
// And/Or/Implies polynomial diagram operations and certainty a tautology
// check without DNF expansion. Both backends stay live behind an option flag
// and are differentially cross-checked (tests/differential_test.cc).
//
// A CondId is meaningful only within the backend that produced it. Both
// backends align their sentinels with the interner's, so kTrueCond/kFalseCond
// mean true/false everywhere, and the conjunctive backend's CondIds for
// conjunctions simply ARE the interner's ConjIds (its fixpoint fast path is
// a passthrough). Ids are append-only for the backend's lifetime.
//
// Threading: a backend is single-owner. Its tables and caches have no locks,
// so drive it from one thread; each ConditionedFixpoint owns its own.
// The interner it sits on may be shared: backends on different threads can
// use one interner once it is in shared mode
// (ConditionInterner::EnableSharing).

#ifndef PW_CONDITION_BACKEND_H_
#define PW_CONDITION_BACKEND_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "condition/interner.h"

namespace pw {

/// Id of a backend-represented condition. 0 and 1 are the true/false
/// sentinels in every backend (matching ConjId's sentinels).
using CondId = uint32_t;

/// Which condition representation a fixpoint (or decision procedure) runs
/// on. kDefault resolves through the PW_CONDITION_BACKEND environment
/// variable ("dd" or "antichain"), falling back to kConjunctions — so the CI
/// matrix can drive whole suites onto the DD backend without code changes.
enum class ConditionBackendKind {
  kDefault,
  kConjunctions,      // interned-conjunction antichains (the paper's c-tables)
  kDecisionDiagrams,  // hash-consed ordered decision diagrams over atoms
};

/// Resolves kDefault via PW_CONDITION_BACKEND; other kinds pass through.
ConditionBackendKind ResolveConditionBackendKind(ConditionBackendKind kind);

class ConditionBackend {
 public:
  static constexpr CondId kTrueCond = ConditionInterner::kTrueConj;
  static constexpr CondId kFalseCond = ConditionInterner::kFalseConj;

  explicit ConditionBackend(ConditionInterner& interner)
      : interner_(&interner) {}
  virtual ~ConditionBackend() = default;

  ConditionBackend(const ConditionBackend&) = delete;
  ConditionBackend& operator=(const ConditionBackend&) = delete;

  /// The interner conjunction ids and atoms refer to. Must outlive the
  /// backend; Clear()/RebaseInto() on it invalidate every CondId.
  ConditionInterner& interner() const { return *interner_; }

  virtual const char* name() const = 0;

  /// True when the backend keeps one id per *boolean function* (so a
  /// fixpoint should merge same-tuple derivations with Or instead of
  /// keeping a subsumption antichain, and exported rows may need DNF
  /// expansion via AppendDisjuncts).
  virtual bool disjunctive() const = 0;

  /// The backend id of an interned conjunction. Equal ConjIds map to equal
  /// CondIds; kTrueConj/kFalseConj map to kTrueCond/kFalseCond.
  virtual CondId FromConj(ConjId id) = 0;

  /// Conjunction / disjunction of two backend conditions. Both are
  /// commutative; implementations key their memo/op caches on the canonical
  /// (min, max) id order, so argument order can never split cache entries.
  virtual CondId And(CondId a, CondId b) = 0;
  virtual CondId Or(CondId a, CondId b) = 0;

  /// True iff every valuation (over the infinite domain) satisfying `a`
  /// satisfies `b`. Exact — equality congruence included. Keyed on the
  /// ordered (lhs, rhs) pair where memoized: implication is not symmetric.
  virtual bool Implies(CondId a, CondId b) = 0;

  /// True iff some valuation satisfies the condition. Exact.
  virtual bool Satisfiable(CondId id) = 0;

  /// True iff some valuation satisfies `global` AND the condition — the
  /// fixpoint's per-derivation admission test.
  virtual bool SatisfiableWith(ConjId global, CondId id) = 0;

  /// True iff every valuation satisfying `global` satisfies the condition —
  /// the certainty tautology check (the DD backend answers this without DNF
  /// expansion; the conjunctive backend via an exact backtracking check).
  virtual bool TautologyUnder(ConjId global, CondId id) = 0;

  /// Appends a finite set of satisfiable interned conjunctions whose union
  /// is exactly the condition — the export path back into conjunctive
  /// c-table rows. Deterministic for a given id. May be exponential in the
  /// diagram size (it IS the DNF expansion); use only at result boundaries.
  virtual void AppendDisjuncts(CondId id, std::vector<ConjId>* out) = 0;

 private:
  ConditionInterner* interner_;
};

/// Constructs a backend of the (resolved) kind over `interner`.
std::unique_ptr<ConditionBackend> MakeConditionBackend(
    ConditionBackendKind kind, ConditionInterner& interner);

/// True iff `lhs` implies the disjunction of `disjuncts` over the infinite
/// domain — exact, via a backtracking search for a valuation of lhs that
/// falsifies one atom of every disjunct (the coNP check, exponential only in
/// the number of disjuncts). Shared by the conjunctive backend's tautology
/// path and usable as an independent oracle in tests.
bool ConjImpliesDisjunction(ConditionInterner& interner, ConjId lhs,
                            const std::vector<ConjId>& disjuncts);

}  // namespace pw

#endif  // PW_CONDITION_BACKEND_H_
