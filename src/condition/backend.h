// Condition backends: the representations a conditioned fixpoint keeps its
// row conditions in.
//
// The fixpoint asks three things of a row condition, and ConditionBackend
// is that seam: the condition of an interned conjunction (FromConj), the
// conjunction of two conditions (And), and whether a condition can hold
// together with the global condition (SatisfiableWith). Two backends
// implement it:
//
//   - The conjunctive backend. A condition is an interned conjunction, as in
//     the paper's c-tables, so its CondIds ARE the interner's ConjIds and
//     every call passes through to the interner's memoized And and
//     satisfiability. The fixpoint keeps each tuple's covering antichain of
//     conjunctions itself, by pairwise interner implication
//     (ilalgebra/datalog_ctable.cc). At high condition diversity that
//     antichain is genuinely exponential: over the infinite domain a union
//     of strictly stronger conjunctions can never cover a weaker one, so
//     the antichain must keep them all.
//   - DDBackend (condition/dd_backend.h): hash-consed ordered decision
//     diagrams over condition atoms, ONE canonical id for an arbitrary
//     boolean combination of atoms. Disjunction, satisfiability and the DNF
//     export are its own members: the fixpoint Or-merges a tuple's
//     derivations into one row and exports it with AppendDisjuncts, on the
//     DDBackend* it branches on.
//
// ConditionBackendKind picks one per fixpoint, and the differential harness
// cross-checks both (tests/differential_test.cc). The diagram backend is one
// manager per interner generation (ConditionInterner::DDManager), shared by
// every diagram fixpoint on that interner, as CUDD keeps one manager for all
// its diagrams.
//
// A CondId is meaningful only within the backend that produced it. Both
// backends align their sentinels with the interner's, so kTrueCond/kFalseCond
// mean true/false everywhere. Ids are append-only for the backend's
// lifetime.
//
// Threading: a backend is single-owner, like the interner it sits on. Its
// tables and caches have no locks, so drive it from the interner's thread;
// the fixpoints that share a diagram manager all run there. Backends on
// different threads sit on different interners (each thread's
// ConditionInterner::Global() by default).
//
// Below them: the decision layer's one search, ChoiceCnf, and the
// implication test ConjImpliesDisjunction that runs on it.

#ifndef PW_CONDITION_BACKEND_H_
#define PW_CONDITION_BACKEND_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "condition/binding_env.h"
#include "condition/interner.h"
#include "core/tuple.h"

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
  /// backend; Clear() on it invalidates every CondId.
  ConditionInterner& interner() const { return *interner_; }

  /// The backend id of an interned conjunction. Equal ConjIds map to equal
  /// CondIds; kTrueConj/kFalseConj map to kTrueCond/kFalseCond.
  virtual CondId FromConj(ConjId id) = 0;

  /// Conjunction of two backend conditions. Commutative; implementations key
  /// their memo/op caches on the canonical (min, max) id order, so argument
  /// order can never split cache entries.
  virtual CondId And(CondId a, CondId b) = 0;

  /// True iff some valuation (over the infinite domain) satisfies `global`
  /// AND the condition — the fixpoint's per-derivation admission test.
  /// Exact, equality congruence included.
  virtual bool SatisfiableWith(ConjId global, CondId id) = 0;

 private:
  ConditionInterner* interner_;
};

/// The backend of the (resolved) kind over `interner`: the interner's
/// diagram manager (ConditionInterner::DDManager) for kDecisionDiagrams, a
/// new conjunctive passthrough otherwise. Every ConditionedFixpoint gets its
/// backend here.
std::shared_ptr<ConditionBackend> MakeConditionBackend(
    ConditionBackendKind kind, ConditionInterner& interner);

/// The decision layer's one search: can one alternative (a conjunction of
/// =/!= atoms) be picked from every clause so that the picked atoms hold
/// together with a base conjunction, over the infinite domain? MEMB, POSS
/// and ConjImpliesDisjunction build their clauses for it. An empty
/// alternative makes its clause hold; a clause with one alternative joins
/// the base when it closes, so a contradiction ends the build. Solve takes
/// the clauses smallest first, ties in input order, skips a clause when
/// every atom of one of its alternatives is already entailed (a static pass
/// finds the clauses where that can happen), and otherwise asserts each
/// alternative in turn in a BindingEnv, reverting on failure. All state is
/// capacity-retaining scratch, so a grown ChoiceCnf allocates nothing;
/// callers keep one per call site (thread_local).
class ChoiceCnf {
 public:
  /// Starts a new problem: true base, no clauses.
  void Clear();

  /// Conjoins `conjunction` to the base, as a unit clause; returns
  /// EndClause's verdict.
  bool AddBase(const Conjunction& conjunction);

  /// Append to the alternative being built. A trivially false atom drops
  /// the alternative; trivially true ones are left out.
  void AddAtom(const CondAtom& atom);
  void AddAtoms(const Conjunction& conjunction);

  /// Closes the alternative being built. Returns true once the open clause
  /// holds (an alternative was empty); its later alternatives are ignored.
  bool EndAlternative();

  /// Adds and closes the alternative "a row (tuple, local) produces fact":
  /// tuple = fact AND local, dropped at once on another arity or constant.
  /// Returns EndAlternative's verdict.
  bool AddProducer(const Tuple& tuple, const Conjunction& local,
                   const Fact& fact);

  /// Closes the open clause. Returns false once the problem is known to be
  /// unsatisfiable: the clause has no alternative, or is a unit clause that
  /// contradicts the base.
  bool EndClause();

  /// True iff one alternative of every clause holds together with the base
  /// in some valuation. Call once per problem.
  bool Solve();

 private:
  struct Use {  // an occurrence of a variable, for the may-hold pass
    VarId var;
    uint32_t pos;   // 0 for the base, r + 1 for the clause of rank r
    uint32_t atom;  // index into atoms_; unused for the base
    bool eq;
  };

  /// The atoms of alternatives [first, last).
  std::span<const CondAtom> Atoms(uint32_t first, uint32_t last) const {
    return {atoms_.data() + alt_begin_[first],
            atoms_.data() + alt_begin_[last]};
  }
  void AddUses(const CondAtom& atom, uint32_t pos, uint32_t index);
  void FindMayHold();
  bool Search(size_t rank);

  BindingEnv env_;  // the base, then the search's choices
  // Alternative a is atoms_[alt_begin_[a], alt_begin_[a + 1]); clause c is
  // alternatives [clause_begin_[c], clause_begin_[c + 1]). Both keep a
  // trailing entry for the open alternative and clause.
  std::vector<CondAtom> atoms_;
  std::vector<uint32_t> alt_begin_{0};
  std::vector<uint32_t> clause_begin_{0};
  std::vector<uint64_t> order_;  // (alternatives << 32 | clause), sorted
  std::vector<Use> uses_;        // the base's first
  std::vector<char> atom_may_hold_;
  std::vector<char> may_hold_;  // per clause
  bool dropped_ = false;  // the alternative being built is trivially false
  bool held_ = false;     // the open clause holds
  bool unsat_ = false;
};

/// True iff `lhs` implies the disjunction of `disjuncts` over the infinite
/// domain — exact: after a memoized pairwise Implies against each disjunct,
/// ChoiceCnf looks for a valuation of lhs that falsifies one atom of every
/// distinct disjunct (the coNP check, exponential only in the number of
/// disjuncts). The certain-fact test (decision/certainty.h) and UNIQ's
/// "some world differs from I" (decision/uniqueness.cc) run on it.
bool ConjImpliesDisjunction(ConditionInterner& interner, ConjId lhs,
                            const std::vector<ConjId>& disjuncts);

}  // namespace pw

#endif  // PW_CONDITION_BACKEND_H_
