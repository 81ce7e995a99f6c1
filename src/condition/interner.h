// Hash-consing of condition atoms and conjunctions into canonical ids.
//
// Condition manipulation is the hot path of every algorithm in this codebase:
// the Imielinski–Lipski algebra conjoins local conditions per row pair, the
// decision procedures of src/decision/ test satisfiability of (mostly
// repeated) conjunctions and implications between them.
// The same small conditions recur constantly — a product of two c-tables
// builds |T1| x |T2| conjunctions from only |T1| + |T2| distinct inputs.
//
// ConditionInterner gives every semantically distinct conjunction one small
// integer id (a ConjId). Interning canonicalizes:
//   - equality atoms are closed under congruence (union-find over terms) and
//     re-emitted as `member = representative` per equality class, where the
//     representative is the class constant if bound, else the least variable;
//   - inequality atoms are rewritten through the representatives, trivially
//     true ones dropped, then deduplicated;
//   - atoms are sorted, so equivalent conjunctions get the *same* id.
// An unsatisfiable conjunction (congruence merges two constants, or a
// disequality joins a merged class) canonicalizes to the reserved kFalseConj,
// so satisfiability of an interned conjunction is the O(1) comparison
// `id != kFalseConj` — the closure runs once per distinct conjunction and the
// verdict is memoized in the id itself. A second, syntactic cache makes
// re-interning a conjunction already seen (the common case: the same
// row.local over and over) a single hash lookup with no closure at all.
//
// Conjoining two interned conjunctions (`And`) is memoized pairwise, which is
// exactly the access pattern of EvalOnCTables' product rule. Implication
// between interned conjunctions (`Implies`) is likewise memoized pairwise —
// the access pattern of row subsumption in the conditioned fixpoints.
//
// Within one generation the interner is append-only, so ids stay valid and
// can be stored in long-lived objects (CRow memoizes its local condition's
// id this way). For long-running processes the table must not grow without
// bound, so the interner has a *generational* lifecycle:
//   - `stamp()` is a value unique to this (instance, generation) pair; any
//     cached id is valid exactly while the stamp under which it was produced
//     equals the interner's current stamp;
//   - `Clear()` starts a new generation: every table is dropped back to the
//     two sentinel ids and the stamp changes, so stale stamped caches
//     re-intern transparently instead of reading freed state. It also ends
//     the generation's decision-diagram manager (`DDManager()`), whose
//     diagrams are built from this generation's atom and conjunction ids.
//
// Threading model. An interner is single-owner: one thread uses it, and
// nothing in it takes a lock. `Global()` returns a thread-local instance, so
// concurrent evaluators never contend. `SetProcessShared()` installs one
// instance as the result of `Global()` on every thread, for a process whose
// one thread uses it (the `serve` loop of the repository benchmark routes
// the library-internal fast paths — decision procedures,
// CTable::Normalized — to the interner its snapshots were frozen under).
//
// The stamped id caches rows and tables carry (CRow::LocalId,
// CTable::GlobalId) are lazily *written* on first use. A table shared across
// threads is frozen first (CTable::PrepareForSharing): its caches are warmed
// for the writer's interner and pinned, so a reader thread that asks with
// its own interner interns the condition there and leaves the cache alone.

#ifndef PW_CONDITION_INTERNER_H_
#define PW_CONDITION_INTERNER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "condition/atom.h"
#include "condition/binding_env.h"
#include "condition/conjunction.h"

namespace pw {

class DDBackend;

/// Id of an interned atom. Dense, starting at 0.
using AtomId = uint32_t;

/// Id of an interned (canonicalized) conjunction. Dense, starting at 0.
using ConjId = uint32_t;

/// Hash for atoms (used by the interner's maps).
struct CondAtomHash {
  size_t operator()(const CondAtom& a) const noexcept {
    uint64_t h = std::hash<Term>()(a.lhs);
    h = h * 1099511628211ull ^ std::hash<Term>()(a.rhs);
    return static_cast<size_t>(h * 2ull + (a.is_equality ? 1 : 0));
  }
};

class ConditionInterner {
 public:
  /// The empty conjunction `true` always interns to this id.
  static constexpr ConjId kTrueConj = 0;

  /// Every unsatisfiable conjunction interns to this id.
  static constexpr ConjId kFalseConj = 1;

  ConditionInterner();

  ConditionInterner(const ConditionInterner&) = delete;
  ConditionInterner& operator=(const ConditionInterner&) = delete;

  /// Hash-conses one atom (exactly as given; atoms are already normalized by
  /// Eq/Neq so symmetric variants coincide).
  AtomId InternAtom(const CondAtom& atom);

  /// The atom behind an id.
  const CondAtom& AtomOf(AtomId id) const { return atoms_[id]; }

  /// Canonicalizes and hash-conses a conjunction. Equivalent conjunctions
  /// (up to atom order, duplicates, trivial atoms, and equality congruence)
  /// return the same id; unsatisfiable ones return kFalseConj.
  ConjId Intern(const Conjunction& conjunction);

  /// The canonical materialized form of an interned conjunction. For
  /// kFalseConj this is the single-atom conjunction {0 != 0}.
  const Conjunction& Resolve(ConjId id) const { return conjs_[id].canonical; }

  /// Conjunction of two interned conjunctions, memoized pairwise.
  ConjId And(ConjId a, ConjId b);

  /// True iff every valuation satisfying `a` satisfies `b`. Complete for
  /// conjunctions of =/!= atoms over the infinite domain (congruence check),
  /// memoized pairwise with a canonical-atom subset fast path.
  bool Implies(ConjId a, ConjId b);

  /// O(1) satisfiability of an interned conjunction (the congruence closure
  /// ran at intern time).
  bool Satisfiable(ConjId id) const { return id != kFalseConj; }

  /// The canonical atom ids of an interned conjunction (sorted by atom
  /// value, deduplicated). `a` subsumes `b` when AtomIdsOf(a) is a subset of
  /// AtomIdsOf(b) — the fast path of `Implies`.
  const std::vector<AtomId>& AtomIdsOf(ConjId id) const {
    return conjs_[id].atoms;
  }

  size_t num_conjunctions() const { return conjs_.size(); }

  // --- Generational lifecycle -----------------------------------------------

  /// A value unique to this (instance, generation) pair across the process.
  /// Ids obtained under stamp s are valid exactly while stamp() == s; caches
  /// key their entries on it. Never 0, so 0 works as "no cache".
  uint64_t stamp() const { return stamp_; }

  /// Number of Clear() calls survived.
  uint64_t generation() const { return generation_; }

  /// Starts a new generation: drops every interned atom, conjunction, and
  /// pair cache back to the two sentinels, drops the generation's
  /// decision-diagram manager, and changes the stamp, invalidating all
  /// outstanding ids and stamped caches. Stats are not reset.
  void Clear();

  /// This generation's decision-diagram manager (condition/dd_backend.h):
  /// the one node store, unique table, FromConj map and op cache that every
  /// kDecisionDiagrams fixpoint on this interner runs on, so a diagram one
  /// fixpoint built is found again by the next. Created on first use; after
  /// Clear() the next call starts an empty one. A fixpoint keeps its own
  /// reference, so one that outlives a Clear() holds the old manager until
  /// it is destroyed (its ids are stale, like every id of the old
  /// generation). Single-owner, like the interner.
  std::shared_ptr<DDBackend> DDManager();

  // --- Routing and memo bounds ----------------------------------------------

  /// Installs `interner` as the result of Global() on every thread,
  /// overriding the per-thread instances; nullptr restores the thread-local
  /// default. The interner stays single-owner: only one thread may use it.
  /// Callers own the lifetime: reset the override before destroying the
  /// instance.
  static void SetProcessShared(ConditionInterner* interner);

  /// Bounds the And/Implies memo tables for long-lived interners: each of
  /// their 16 hash partitions holds at most `per_partition` entries, and a
  /// partition at capacity is dropped wholesale before the next insert (no
  /// LRU bookkeeping on the read path). 0 (the default) means unbounded.
  /// Only the *memo* tables evict — the atom/conjunction unique-tables never
  /// do, so interned ids stay valid and eviction can only cost
  /// recomputation, never change a verdict.
  void SetMemoCapacity(size_t per_partition) {
    memo_capacity_ = per_partition;
  }

  /// Number of memo-partition drops since construction (And + Implies).
  uint64_t memo_evictions() const { return memo_evictions_; }

  /// Cache-effectiveness counters (for benches and tests).
  struct Stats {
    uint64_t intern_calls = 0;      // Intern() invocations
    uint64_t syntactic_hits = 0;    // resolved without running closure
    uint64_t canonical_hits = 0;    // closure ran, canonical form known
    uint64_t and_calls = 0;         // And() invocations past trivial cases
    uint64_t and_hits = 0;          // resolved from the pair cache
    uint64_t implies_calls = 0;     // Implies() invocations past trivial cases
    uint64_t implies_hits = 0;      // resolved by subset test or pair cache
  };
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = {}; }

  /// The interner used by the library fast paths (EvalOnCTables, the
  /// decision procedures): the instance installed with SetProcessShared(),
  /// else a thread-local instance.
  static ConditionInterner& Global();

 private:
  struct ConjEntry {
    std::vector<AtomId> atoms;  // canonical: sorted by atom value, unique
    Conjunction canonical;      // the same atoms materialized
  };

  struct IdVecHash {
    size_t operator()(const std::vector<AtomId>& v) const noexcept {
      uint64_t h = 1469598103934665603ull;  // FNV-1a
      for (AtomId id : v) {
        h ^= id;
        h *= 1099511628211ull;
      }
      return static_cast<size_t>(h);
    }
  };

  struct PairHash {
    size_t operator()(const std::pair<ConjId, ConjId>& p) const noexcept {
      return static_cast<size_t>(
          (static_cast<uint64_t>(p.first) << 32) | p.second);
    }
  };

  static constexpr size_t kMemoPartitions = 16;

  /// A pairwise memo in kMemoPartitions hash partitions, each bounded on its
  /// own by SetMemoCapacity.
  template <typename Value>
  struct PairMemo {
    using Map = std::unordered_map<std::pair<ConjId, ConjId>, Value, PairHash>;
    std::array<Map, kMemoPartitions> partitions;

    Map& PartitionFor(const std::pair<ConjId, ConjId>& key) {
      return partitions[PairHash{}(key) % kMemoPartitions];
    }
    void Clear() {
      for (Map& m : partitions) m.clear();
    }
  };

  /// Capacity-evicting memo insert shared by And and Implies.
  template <typename Map>
  void MemoEmplace(Map& partition, const typename Map::key_type& key,
                   const typename Map::mapped_type& value) {
    if (memo_capacity_ != 0 && partition.size() >= memo_capacity_) {
      partition.clear();
      ++memo_evictions_;
    }
    partition.emplace(key, value);
  }

  /// Runs the congruence closure on `conjunction` and interns its canonical
  /// form (kFalseConj when unsatisfiable).
  ConjId Canonicalize(const Conjunction& conjunction);

  /// Interns an already-canonical sorted atom-id vector.
  ConjId InternCanonical(std::vector<AtomId> ids);

  /// Installs the two sentinel entries into empty tables.
  void InitSentinels();

  // Element storage: ids index these. A deque never moves its elements, so
  // the references AtomOf/Resolve/AtomIdsOf return stay valid while later
  // calls intern more (callers hold them across interning).
  std::deque<CondAtom> atoms_;
  std::deque<ConjEntry> conjs_;

  std::unordered_map<CondAtom, AtomId, CondAtomHash> atom_ids_;
  // Canonical sorted atom-id vector -> ConjId.
  std::unordered_map<std::vector<AtomId>, ConjId, IdVecHash> canonical_ids_;
  // Syntactic (pre-closure, order-sensitive) atom-id vector -> ConjId.
  std::unordered_map<std::vector<AtomId>, ConjId, IdVecHash> syntactic_ids_;
  // Unordered pair (min, max) -> And result (And is commutative, so the
  // canonical key halves the entries and argument order never splits them).
  PairMemo<ConjId> and_cache_;
  // Ordered pair (lhs, rhs) -> whether lhs implies rhs. Implication is NOT
  // symmetric, so the canonical key is exactly the ordered pair.
  PairMemo<bool> implies_cache_;

  // Reused scratch state: the syntactic key buffer and the congruence
  // environment (reverted to empty after each closure, retaining capacity).
  std::vector<AtomId> scratch_key_;
  BindingEnv scratch_env_;

  std::shared_ptr<DDBackend> dd_manager_;  // null until DDManager()

  size_t memo_capacity_ = 0;
  uint64_t memo_evictions_ = 0;
  uint64_t stamp_ = 0;
  uint64_t generation_ = 0;

  Stats stats_;
};

}  // namespace pw

#endif  // PW_CONDITION_INTERNER_H_
