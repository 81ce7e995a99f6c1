// Hash-consed ordered decision diagrams over condition atoms.
//
// On the conjunctive backend the fixpoint keeps one interned conjunction per
// covering derivation of a tuple, an antichain; over the infinite domain a
// union of strictly stronger conjunctions never covers a weaker one, so at
// high condition diversity the antichain per tuple is genuinely exponential
// and every implication against it pays for the whole set. DDBackend
// instead gives each *boolean function* of condition atoms one canonical id:
// a reduced ordered decision diagram (ROBDD discipline) whose decision
// variables are condition atoms under a semantic order (see VarBefore).
// And/Or are then the classic polynomial Apply recursion over a node unique
// table and a memoized operation cache, both flat (util/hash_cons.h) and
// single-owner (see backend.h's threading contract).
//
// Besides the seam's FromConj/And/SatisfiableWith, DDBackend has its own
// Or, Satisfiable and AppendDisjuncts. The fixpoint and IVM call them on the
// DDBackend* they branch on; no other backend has them.
//
// One manager per interner generation: ConditionInterner::DDManager owns the
// DDBackend that every diagram fixpoint on the interner runs on (the one-shot
// DatalogOnCTables/DatalogQueryOnCTables fixpoints and a MaterializedView's
// alike), so a goal finds the diagrams and op results of the goals and
// updates before it. Reduced ordered diagrams are canonical under the fixed
// VarBefore order, so a diagram found again in a warm manager is the same
// function with the same DNF paths: ids differ from a cold manager's,
// exported rows do not. The manager grows only within the interner's
// generation, the bound of the interner's own tables; Clear() drops it.
//
// The diagrams are propositional: a node branches on an atom's truth value
// with no knowledge that `x = y` and `x != y` exclude each other or that
// equality is a congruence. Theory reasoning happens exactly where verdicts
// are produced — Satisfiable and AppendDisjuncts run a BindingEnv-pruned
// DFS over diagram paths, which is exact over the paper's infinite constant
// domain (a path is a conjunction of =/!= literals, and BindingEnv decides
// those completely). Satisfiability caches its context-free verdict per id;
// an UNSAT id is unsatisfiable under any path context, so the cache also
// prunes inner recursion.
//
// Node layout: ids 0/1 are the shared true/false sentinels
// (kTrueCond/kFalseCond, matching ConjId); id >= 2 denotes nodes_[id - 2], a
// 12-byte (var, lo, hi) triple in one std::vector. The unique table is an
// IdTable over that vector, so nodes are append-only for the backend's
// lifetime and the unique table never evicts. A node append may move the
// vector, so the recursions copy a node before they recurse and never hold a
// reference across MakeNode.
//
// Op cache: Apply results and satisfiability verdicts share one
// direct-mapped LossyCache. It starts at 1024 slots and doubles to stay at
// least as large as the node count, up to the cap set by
// SetOpCacheCapacity. A store overwrites its slot, so a result may be
// forgotten; a miss recomputes it from nodes that all still exist, which
// re-finds the same ids. The cache can cost recomputation, never change an
// id or a verdict.

#ifndef PW_CONDITION_DD_BACKEND_H_
#define PW_CONDITION_DD_BACKEND_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "condition/backend.h"
#include "condition/binding_env.h"
#include "condition/conjunction.h"
#include "util/hash_cons.h"

namespace pw {

class DDBackend final : public ConditionBackend {
 public:
  /// An empty manager over `interner`. Fixpoints do not build their own:
  /// they run on the interner's (ConditionInterner::DDManager).
  explicit DDBackend(ConditionInterner& interner)
      : ConditionBackend(interner), ops_(kInitialOpSlots) {}

  CondId FromConj(ConjId id) override;
  CondId And(CondId a, CondId b) override;
  bool SatisfiableWith(ConjId global, CondId id) override;

  /// Disjunction of two diagram conditions. Commutative, memoized on the
  /// (min, max) id pair like And. The fixpoint Or-merges a tuple's
  /// derivations with it.
  CondId Or(CondId a, CondId b);

  /// True iff some valuation satisfies the condition. Exact.
  bool Satisfiable(CondId id);

  /// Appends a finite set of satisfiable interned conjunctions whose union
  /// is exactly the condition — the fixpoint's export path back into
  /// conjunctive c-table rows. Deterministic for a given id. May be
  /// exponential in the diagram size (it IS the DNF expansion); use only at
  /// result boundaries.
  void AppendDisjuncts(CondId id, std::vector<ConjId>* out);

  /// Diagram nodes allocated so far (excluding the two sentinels).
  size_t num_nodes() const { return nodes_.size(); }

  /// Caps the op cache (Apply results and satisfiability verdicts) at
  /// `capacity` slots, rounded down to a power of two; the cache is resized
  /// at once. 0 (the default) means no cap: the cache starts at 1024 slots
  /// and doubles to stay at least as large as the node count. The node
  /// unique table is NEVER evicted — ids stay valid for the backend's
  /// lifetime.
  void SetOpCacheCapacity(size_t capacity);

  /// Number of op-cache stores that overwrote a live entry with a different
  /// key.
  uint64_t op_cache_evictions() const { return ops_.overwrites(); }

 private:
  enum class Op : uint32_t { kAnd, kOr, kSat };

  struct Node {
    AtomId var;  // decision atom; strictly increases along any path
    CondId lo;   // successor when the atom is false
    CondId hi;   // successor when the atom is true
  };

  static constexpr size_t kInitialOpSlots = 1024;
  static constexpr CondId kNoCond = UINT32_MAX;  // from_conj_: not built yet

  static constexpr AtomId kTerminalVar = UINT32_MAX;

  /// A copy: the recursions append nodes, which may move nodes_.
  Node NodeOf(CondId id) const { return nodes_[id - 2]; }
  static bool IsTerminal(CondId id) { return id <= kFalseCond; }
  AtomId VarOf(CondId id) const {
    return IsTerminal(id) ? kTerminalVar : NodeOf(id).var;
  }

  /// The diagram's variable order: strict "a sits above b". Semantic, not
  /// AtomId order — atoms are interned in derivation order, which scatters
  /// the atoms constraining one null across the id space and blows the
  /// diagrams up. Keying lexicographically on (lhs, rhs, is_equality)
  /// groups them instead: atoms are normalized lhs <= rhs with constants
  /// below variables, so all the `c = x` / `c != x` literals binding one
  /// constant sit adjacent near the top, where their mutual exclusions
  /// collapse paths immediately. Empirically this is the winner on the
  /// conditioned-TC diversity sweep: ~20x fewer Apply calls than grouping
  /// by the variable side (rhs first), which interleaves the constants each
  /// null is tested against and keeps the disjuncts from sharing suffixes.
  bool VarBefore(AtomId a, AtomId b) const;

  /// Reduced, hash-consed node constructor: lo == hi collapses, otherwise
  /// the unique-table guarantees one id per (var, lo, hi).
  CondId MakeNode(AtomId var, CondId lo, CondId hi);

  /// Shared binary Apply for kAnd/kOr (terminal rules per op, memoized on
  /// the canonical (min, max) pair — both are commutative).
  CondId Apply(Op op, CondId a, CondId b);

  /// The op-cache size SetOpCacheCapacity and node growth call for.
  size_t OpCacheTarget() const;

  static LossyCache::Key OpKey(Op op, CondId a, CondId b) {
    return {static_cast<uint32_t>(op), a, b};
  }

  /// Theory-pruned path DFS under the assertions already in `env`.
  bool SatSearch(CondId id, BindingEnv& env);

  /// Emits each consistent path to true as an interned conjunction, once
  /// per ConjId (seen_ is a bitmap over ConjIds).
  void ExpandPaths(CondId id, std::vector<ConjId>* out);

  std::vector<Node> nodes_;
  IdTable unique_;  // keys are nodes_[id]
  LossyCache ops_;  // verdicts stored 0/1
  std::vector<CondId> from_conj_;  // by ConjId; kNoCond until built

  BindingEnv scratch_env_;  // Satisfiable's and AppendDisjuncts' search env
  std::vector<CondAtom> path_;  // AppendDisjuncts: literals on the path
  Conjunction path_conj_;       // AppendDisjuncts: path_ to intern
  std::vector<bool> seen_;      // AppendDisjuncts: ConjId bitmap

  size_t op_cache_capacity_ = 0;
};

}  // namespace pw

#endif  // PW_CONDITION_DD_BACKEND_H_
