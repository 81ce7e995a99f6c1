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
//     two sentinel ids (capacity retained) and the stamp changes, so stale
//     stamped caches re-intern transparently instead of reading freed state;
//   - a per-request *child* interner can be used for scoped work and its
//     surviving ids carried over with `RebaseInto(parent)`, which re-interns
//     every conjunction into the parent and returns the id translation;
//     memoized verdicts are preserved (false maps to false, true to true).
//
// Threading model. By default an interner is single-threaded and `Global()`
// returns a thread-local instance, so concurrent evaluators never contend.
// Calling `EnableSharing()` switches one instance into *shared* mode: the
// unique-tables and the And/Implies memo tables are sharded 16 ways behind
// per-shard std::shared_mutex (lookups take a shared lock, misses a unique
// one), element storage moves through lock-free StableStores, and scratch
// state becomes thread-local — after that, Intern/And/Implies/Resolve and
// friends are safe from any number of threads. The single-threaded path
// stays zero-cost: when sharing is off every lock constructs deferred and
// never touches the mutex. Clear() and RebaseInto() still require external
// quiescence (no concurrent calls) even in shared mode, and `stats()` stops
// counting once sharing is enabled (the counters would be a contention
// point). `SetProcessShared()` installs a shared instance as the process-
// wide target of `Global()`, which routes the library-internal fast paths
// (decision procedures, CTable::Normalized) to the shared tables — the
// serving loop uses this so reader threads and the writer agree on one
// stamp and warmed row caches stay hits.
//
// The stamped id caches rows and tables carry (CRow::LocalId,
// CTable::GlobalId) are lazily *written* on first use, so sharing a table
// across threads additionally requires warming those caches first — see
// CTable::PrepareForSharing.

#ifndef PW_CONDITION_INTERNER_H_
#define PW_CONDITION_INTERNER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "condition/atom.h"
#include "condition/binding_env.h"
#include "condition/conjunction.h"
#include "util/stable_store.h"

namespace pw {

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

  /// Interns, then reads the memoized verdict. Semantically identical to
  /// `conjunction.Satisfiable()` (the uncached congruence-closure path) but
  /// repeated queries on equal conjunctions cost one hash lookup.
  bool CachedSatisfiable(const Conjunction& conjunction) {
    return Intern(conjunction) != kFalseConj;
  }

  /// The canonical atom ids of an interned conjunction (sorted by atom
  /// value, deduplicated). `a` subsumes `b` when AtomIdsOf(a) is a subset of
  /// AtomIdsOf(b) — the fast path of `Implies`.
  const std::vector<AtomId>& AtomIdsOf(ConjId id) const {
    return conjs_[id].atoms;
  }

  size_t num_atoms() const { return atoms_.size(); }
  size_t num_conjunctions() const { return conjs_.size(); }

  // --- Generational lifecycle -----------------------------------------------

  /// A value unique to this (instance, generation) pair across the process.
  /// Ids obtained under stamp s are valid exactly while stamp() == s; caches
  /// key their entries on it. Never 0, so 0 works as "no cache".
  uint64_t stamp() const { return stamp_; }

  /// Number of Clear() calls survived.
  uint64_t generation() const { return generation_; }

  /// Starts a new generation: drops every interned atom, conjunction, and
  /// pair cache back to the two sentinels (retaining container capacity) and
  /// changes the stamp, invalidating all outstanding ids and stamped caches.
  /// Stats are not reset. Requires exclusive access (no concurrent use of
  /// this interner, even in shared mode).
  void Clear();

  /// Re-interns every conjunction of this interner into `dst` and returns
  /// the translation: result[id] is the id in `dst` of the conjunction `id`
  /// denotes here. kTrueConj and kFalseConj map to themselves, so memoized
  /// satisfiability verdicts survive the rebase. Typical use: run a request
  /// against a scratch child interner, then rebase surviving row ids into
  /// the long-lived parent. Requires exclusive access to `this`.
  std::vector<ConjId> RebaseInto(ConditionInterner& dst) const;

  // --- Sharing ---------------------------------------------------------------

  /// Switches this instance into shared (thread-safe) mode. Irreversible.
  /// Must be called before the instance is visible to other threads. After
  /// this, stats() stops counting (see class comment).
  void EnableSharing() { shared_.store(true, std::memory_order_release); }

  /// True once EnableSharing() was called.
  bool shared() const { return shared_.load(std::memory_order_relaxed); }

  /// Installs `interner` (which must be in shared mode) as the process-wide
  /// result of Global(), overriding the per-thread instances; nullptr
  /// restores the thread-local default. Callers own the lifetime: reset the
  /// override before destroying the instance.
  static void SetProcessShared(ConditionInterner* interner);

  /// Bounds the And/Implies memo tables for long-lived shared interners:
  /// each of their 16 shards holds at most `per_shard` entries, and a shard
  /// at capacity is dropped wholesale before the next insert (no LRU
  /// bookkeeping on the read path, so lookups stay a single shared-lock
  /// probe). 0 (the default) means unbounded. Only the *memo* tables evict —
  /// the atom/conjunction unique-tables never do, so interned ids stay valid
  /// and eviction can only cost recomputation, never change a verdict.
  /// Safe to call at any time, including on a shared instance.
  void SetMemoCapacity(size_t per_shard) {
    memo_capacity_.store(per_shard, std::memory_order_relaxed);
  }

  /// Number of memo-shard drops since construction (And + Implies).
  uint64_t memo_evictions() const {
    return memo_evictions_.load(std::memory_order_relaxed);
  }

  /// Cache-effectiveness counters (for benches and tests). Frozen (no longer
  /// updated) once EnableSharing() was called.
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
  /// decision procedures): the process-wide shared instance if one was
  /// installed with SetProcessShared(), else a thread-local instance.
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

  static constexpr size_t kNumShards = 16;

  /// One lock-striped hash map: lookups under a shared lock, inserts under a
  /// unique one; in single-threaded mode the locks construct deferred and
  /// cost nothing. The shard is picked from the key hash the caller already
  /// computed.
  template <typename Key, typename Value, typename Hash>
  struct ShardedMap {
    struct Shard {
      mutable std::shared_mutex mutex;
      std::unordered_map<Key, Value, Hash> map;
    };
    Shard shards[kNumShards];

    Shard& ShardFor(size_t hash) { return shards[hash % kNumShards]; }
    const Shard& ShardFor(size_t hash) const {
      return shards[hash % kNumShards];
    }
    void ClearAll() {
      for (Shard& s : shards) s.map.clear();
    }
  };

  std::shared_lock<std::shared_mutex> ReadLock(std::shared_mutex& m) const {
    std::shared_lock<std::shared_mutex> lock(m, std::defer_lock);
    if (shared()) lock.lock();
    return lock;
  }
  std::unique_lock<std::shared_mutex> WriteLock(std::shared_mutex& m) const {
    std::unique_lock<std::shared_mutex> lock(m, std::defer_lock);
    if (shared()) lock.lock();
    return lock;
  }
  std::unique_lock<std::mutex> StorageLock(std::mutex& m) const {
    std::unique_lock<std::mutex> lock(m, std::defer_lock);
    if (shared()) lock.lock();
    return lock;
  }

  /// Stats bump that vanishes in shared mode.
  void Bump(uint64_t Stats::* counter) {
    if (!shared()) ++(stats_.*counter);
  }

  // Scratch selection: the members in single-threaded mode (capacity reuse
  // per instance), thread-local buffers in shared mode (no contention).
  std::vector<AtomId>& ScratchKey();
  BindingEnv& ScratchEnv();

  /// Runs the congruence closure on `conjunction` and interns its canonical
  /// form (kFalseConj when unsatisfiable).
  ConjId Canonicalize(const Conjunction& conjunction);

  /// Interns an already-canonical sorted atom-id vector.
  ConjId InternCanonical(std::vector<AtomId> ids);

  /// Installs the two sentinel entries into empty tables.
  void InitSentinels();

  // Element storage: ids index these; lock-free reads, appends serialized by
  // the storage mutexes (taken only under the owning map's unique lock —
  // lock order is always map shard, then storage).
  StableStore<CondAtom> atoms_;
  StableStore<ConjEntry> conjs_;
  std::mutex atom_storage_mutex_;
  std::mutex conj_storage_mutex_;

  ShardedMap<CondAtom, AtomId, CondAtomHash> atom_ids_;
  // Canonical sorted atom-id vector -> ConjId.
  ShardedMap<std::vector<AtomId>, ConjId, IdVecHash> canonical_ids_;
  // Syntactic (pre-closure, order-sensitive) atom-id vector -> ConjId.
  ShardedMap<std::vector<AtomId>, ConjId, IdVecHash> syntactic_ids_;
  // Unordered pair (min, max) -> And result (And is commutative, so the
  // canonical key halves the entries and argument order never splits them).
  ShardedMap<std::pair<ConjId, ConjId>, ConjId, PairHash> and_cache_;
  // Ordered pair (lhs, rhs) -> whether lhs implies rhs. Implication is NOT
  // symmetric, so the canonical key is exactly the ordered pair — every
  // backend's implication memo (see condition/dd_backend.h) keys the same
  // way, and a rebased id pair hits the same entry in every generation.
  ShardedMap<std::pair<ConjId, ConjId>, bool, PairHash> implies_cache_;

  // Reused scratch state for single-threaded mode: the syntactic key buffer
  // and the congruence environment (reverted to empty after each closure,
  // retaining capacity).
  std::vector<AtomId> scratch_key_;
  BindingEnv scratch_env_;

  /// Capacity-evicting memo insert shared by And and Implies; call with the
  /// shard's unique lock held.
  template <typename Shard, typename Key, typename Value>
  void MemoEmplace(Shard& shard, const Key& key, const Value& value) {
    size_t capacity = memo_capacity_.load(std::memory_order_relaxed);
    if (capacity != 0 && shard.map.size() >= capacity) {
      shard.map.clear();
      memo_evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    shard.map.emplace(key, value);
  }

  std::atomic<bool> shared_{false};
  std::atomic<size_t> memo_capacity_{0};
  std::atomic<uint64_t> memo_evictions_{0};

  uint64_t stamp_ = 0;
  uint64_t generation_ = 0;

  Stats stats_;
};

}  // namespace pw

#endif  // PW_CONDITION_INTERNER_H_
