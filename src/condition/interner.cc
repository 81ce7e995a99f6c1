#include "condition/interner.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <utility>

#include "condition/binding_env.h"

namespace pw {

namespace {

/// Process-wide monotone counter behind stamp(): every constructed interner
/// and every generation gets a value no other (instance, generation) has.
uint64_t NextStamp() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// The Global() override installed by SetProcessShared().
std::atomic<ConditionInterner*> process_shared{nullptr};

}  // namespace

void ConditionInterner::InitSentinels() {
  // Reserve the two sentinel ids. kTrueConj is the empty conjunction;
  // kFalseConj materializes as {0 != 0}, the paper's encoding of `false`.
  // Runs single-threaded (construction / Clear), so storage appends and map
  // writes need no locks beyond the mode-aware helpers in InternAtom.
  ConjEntry true_entry;
  conjs_.Append(std::move(true_entry));
  canonical_ids_.ShardFor(IdVecHash{}(std::vector<AtomId>{}))
      .map.emplace(std::vector<AtomId>{}, kTrueConj);

  ConjEntry false_entry;
  false_entry.atoms.push_back(InternAtom(FalseAtom()));
  false_entry.canonical = Conjunction{FalseAtom()};
  conjs_.Append(std::move(false_entry));
}

ConditionInterner::ConditionInterner() : stamp_(NextStamp()) {
  InitSentinels();
}

void ConditionInterner::Clear() {
  atoms_.Clear();
  atom_ids_.ClearAll();
  conjs_.Clear();
  canonical_ids_.ClearAll();
  syntactic_ids_.ClearAll();
  and_cache_.ClearAll();
  implies_cache_.ClearAll();
  InitSentinels();
  ++generation_;
  stamp_ = NextStamp();
}

std::vector<ConjId> ConditionInterner::RebaseInto(
    ConditionInterner& dst) const {
  std::vector<ConjId> map(conjs_.size());
  map[kTrueConj] = kTrueConj;
  map[kFalseConj] = kFalseConj;
  for (ConjId id = kFalseConj + 1; id < conjs_.size(); ++id) {
    map[id] = dst.Intern(conjs_[id].canonical);
  }
  return map;
}

std::vector<AtomId>& ConditionInterner::ScratchKey() {
  if (!shared()) return scratch_key_;
  static thread_local std::vector<AtomId> key;
  return key;
}

BindingEnv& ConditionInterner::ScratchEnv() {
  if (!shared()) return scratch_env_;
  static thread_local BindingEnv env;
  return env;
}

AtomId ConditionInterner::InternAtom(const CondAtom& atom) {
  auto& shard = atom_ids_.ShardFor(CondAtomHash{}(atom));
  {
    auto lock = ReadLock(shard.mutex);
    auto it = shard.map.find(atom);
    if (it != shard.map.end()) return it->second;
  }
  auto lock = WriteLock(shard.mutex);
  auto [it, inserted] = shard.map.emplace(atom, AtomId{0});
  if (inserted) {
    auto storage = StorageLock(atom_storage_mutex_);
    it->second = static_cast<AtomId>(atoms_.Append(atom));
  }
  return it->second;
}

ConjId ConditionInterner::InternCanonical(std::vector<AtomId> ids) {
  auto& shard = canonical_ids_.ShardFor(IdVecHash{}(ids));
  {
    auto lock = ReadLock(shard.mutex);
    auto it = shard.map.find(ids);
    if (it != shard.map.end()) {
      Bump(&Stats::canonical_hits);
      return it->second;
    }
  }
  // Materialize the entry outside the unique lock (atom resolution is
  // lock-free), then publish under it — the re-check via emplace keeps ids
  // unique when two threads canonicalize the same conjunction at once.
  ConjEntry entry;
  for (AtomId a : ids) entry.canonical.Add(atoms_[a]);
  entry.atoms = ids;

  auto lock = WriteLock(shard.mutex);
  auto [it, inserted] = shard.map.emplace(std::move(ids), ConjId{0});
  if (inserted) {
    auto storage = StorageLock(conj_storage_mutex_);
    it->second = static_cast<ConjId>(conjs_.Append(std::move(entry)));
  } else {
    Bump(&Stats::canonical_hits);
  }
  return it->second;
}

ConjId ConditionInterner::Canonicalize(const Conjunction& conjunction) {
  // Fast path: without live equality atoms there is no congruence to close.
  // Over the infinite domain an inequality-only conjunction is satisfiable
  // iff no atom has identical sides, and its canonical form is just the
  // sorted, deduplicated nontrivial atoms.
  bool has_equality = false;
  std::vector<CondAtom> atoms;
  atoms.reserve(conjunction.size());
  for (const CondAtom& a : conjunction.atoms()) {
    if (IsTriviallyFalse(a)) return kFalseConj;
    if (IsTriviallyTrue(a)) continue;
    if (a.is_equality) has_equality = true;
    atoms.push_back(a);
  }
  if (!has_equality) {
    std::sort(atoms.begin(), atoms.end());
    atoms.erase(std::unique(atoms.begin(), atoms.end()), atoms.end());
    std::vector<AtomId> ids;
    ids.reserve(atoms.size());
    for (const CondAtom& a : atoms) ids.push_back(InternAtom(a));
    return InternCanonical(std::move(ids));
  }

  // Slow path: run the congruence closure in the (capacity-retaining)
  // scratch environment.
  BindingEnv& env = ScratchEnv();
  env.Revert(0);
  if (!env.Assert(conjunction)) return kFalseConj;

  // Map every variable to its class representative: the class constant if
  // bound, else the least variable of the class (vars is sorted, so the
  // first same-class hit is the least).
  std::vector<VarId> vars;
  for (const CondAtom& a : atoms) {
    if (a.lhs.is_variable()) vars.push_back(a.lhs.variable());
    if (a.rhs.is_variable()) vars.push_back(a.rhs.variable());
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  std::vector<Term> reps;
  reps.reserve(vars.size());
  for (VarId v : vars) {
    if (auto c = env.ValueOf(Term::Var(v))) {
      reps.push_back(Term::Const(*c));
      continue;
    }
    for (VarId w : vars) {
      if (env.SameClass(Term::Var(v), Term::Var(w))) {
        reps.push_back(Term::Var(w));
        break;
      }
    }
  }
  auto rewrite = [&vars, &reps](Term t) {
    if (t.is_variable()) {
      auto it = std::lower_bound(vars.begin(), vars.end(), t.variable());
      if (it != vars.end() && *it == t.variable()) {
        return reps[it - vars.begin()];
      }
    }
    return t;
  };

  // Canonical equalities: one `member = representative` atom per non-trivial
  // class membership. Canonical inequalities: original atoms rewritten
  // through the representatives (trivially true ones drop; trivially false
  // ones cannot survive a successful closure).
  std::vector<CondAtom> canonical;
  canonical.reserve(atoms.size());
  for (size_t i = 0; i < vars.size(); ++i) {
    if (reps[i] != Term::Var(vars[i])) {
      canonical.push_back(Eq(Term::Var(vars[i]), reps[i]));
    }
  }
  for (const CondAtom& a : atoms) {
    if (a.is_equality) continue;
    CondAtom rewritten = Neq(rewrite(a.lhs), rewrite(a.rhs));
    if (!IsTriviallyTrue(rewritten)) canonical.push_back(rewritten);
  }
  std::sort(canonical.begin(), canonical.end());
  canonical.erase(std::unique(canonical.begin(), canonical.end()),
                  canonical.end());

  std::vector<AtomId> ids;
  ids.reserve(canonical.size());
  for (const CondAtom& a : canonical) ids.push_back(InternAtom(a));
  return InternCanonical(std::move(ids));
}

ConjId ConditionInterner::Intern(const Conjunction& conjunction) {
  Bump(&Stats::intern_calls);
  if (conjunction.size() == 0) return kTrueConj;

  // The syntactic key is built in a reused scratch buffer so cache hits (the
  // hot case) do no allocation; only a miss copies the key into the map.
  std::vector<AtomId>& key = ScratchKey();
  key.clear();
  key.reserve(conjunction.size());
  for (const CondAtom& a : conjunction.atoms()) {
    key.push_back(InternAtom(a));
  }
  auto& shard = syntactic_ids_.ShardFor(IdVecHash{}(key));
  {
    auto lock = ReadLock(shard.mutex);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      Bump(&Stats::syntactic_hits);
      return it->second;
    }
  }
  // Canonicalize without holding the shard lock (the closure interns atoms
  // and the canonical form, which take their own locks); a concurrent
  // interner of the same key computes the same id, so the emplace re-check
  // keeps the map consistent.
  ConjId id = Canonicalize(conjunction);
  auto lock = WriteLock(shard.mutex);
  shard.map.emplace(key, id);
  return id;
}

ConjId ConditionInterner::And(ConjId a, ConjId b) {
  if (a == kFalseConj || b == kFalseConj) return kFalseConj;
  if (a == kTrueConj) return b;
  if (b == kTrueConj) return a;
  if (a == b) return a;

  Bump(&Stats::and_calls);
  std::pair<ConjId, ConjId> key{std::min(a, b), std::max(a, b)};
  auto& shard = and_cache_.ShardFor(PairHash{}(key));
  {
    auto lock = ReadLock(shard.mutex);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      Bump(&Stats::and_hits);
      return it->second;
    }
  }
  // Conjoining two canonical conjunctions can force fresh congruence merges
  // (e.g. {x = y} AND {y = 3}), so run the full closure on the union.
  Conjunction merged = conjs_[a].canonical;
  merged.AddAll(conjs_[b].canonical);
  ConjId out = Canonicalize(merged);
  auto lock = WriteLock(shard.mutex);
  MemoEmplace(shard, key, out);
  return out;
}

bool ConditionInterner::Implies(ConjId a, ConjId b) {
  if (a == kFalseConj || b == kTrueConj || a == b) return true;
  if (a == kTrueConj || b == kFalseConj) return false;

  Bump(&Stats::implies_calls);
  // Subset fast path: canonical atom-id vectors are sorted by atom value
  // (InternAtom preserves discovery order, but both vectors were built from
  // value-sorted atoms, so a merge walk over atom values works). A superset
  // of atoms is a stronger condition.
  const std::vector<AtomId>& need = conjs_[b].atoms;
  const std::vector<AtomId>& have = conjs_[a].atoms;
  if (need.size() <= have.size()) {
    size_t i = 0;
    for (AtomId id : have) {
      if (i < need.size() && need[i] == id) ++i;
    }
    if (i == need.size()) {
      Bump(&Stats::implies_hits);
      return true;
    }
  }

  std::pair<ConjId, ConjId> key{a, b};
  auto& shard = implies_cache_.ShardFor(PairHash{}(key));
  {
    auto lock = ReadLock(shard.mutex);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      Bump(&Stats::implies_hits);
      return it->second;
    }
  }
  // Full congruence check: a implies b iff a AND NOT atom is unsatisfiable
  // for every atom of b.
  bool out = true;
  BindingEnv& env = ScratchEnv();
  env.Revert(0);
  if (env.Assert(conjs_[a].canonical)) {
    for (const CondAtom& atom : conjs_[b].canonical.atoms()) {
      size_t mark = env.Mark();
      bool negation_consistent = env.AssertAtom(Negate(atom));
      env.Revert(mark);
      if (negation_consistent) {
        out = false;
        break;
      }
    }
  }
  auto lock = WriteLock(shard.mutex);
  MemoEmplace(shard, key, out);
  return out;
}

void ConditionInterner::SetProcessShared(ConditionInterner* interner) {
  assert(interner == nullptr || interner->shared());
  process_shared.store(interner, std::memory_order_release);
}

ConditionInterner& ConditionInterner::Global() {
  ConditionInterner* shared = process_shared.load(std::memory_order_acquire);
  if (shared != nullptr) return *shared;
  static thread_local ConditionInterner interner;
  return interner;
}

}  // namespace pw
