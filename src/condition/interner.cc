#include "condition/interner.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "condition/binding_env.h"
#include "condition/dd_backend.h"

namespace pw {

namespace {

/// Process-wide monotone counter behind stamp(): every constructed interner
/// and every generation gets a value no other (instance, generation) has.
uint64_t NextStamp() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// The Global() override installed by SetProcessShared(). Atomic because
/// every thread reads it, while the interner it points to is single-owner.
std::atomic<ConditionInterner*> process_shared{nullptr};

}  // namespace

void ConditionInterner::InitSentinels() {
  // Reserve the two sentinel ids. kTrueConj is the empty conjunction;
  // kFalseConj materializes as {0 != 0}, the paper's encoding of `false`.
  conjs_.emplace_back();
  canonical_ids_.emplace(std::vector<AtomId>{}, kTrueConj);

  ConjEntry& false_entry = conjs_.emplace_back();
  false_entry.atoms.push_back(InternAtom(FalseAtom()));
  false_entry.canonical = Conjunction{FalseAtom()};
}

ConditionInterner::ConditionInterner() : stamp_(NextStamp()) {
  InitSentinels();
}

void ConditionInterner::Clear() {
  atoms_.clear();
  atom_ids_.clear();
  conjs_.clear();
  canonical_ids_.clear();
  syntactic_ids_.clear();
  and_cache_.Clear();
  implies_cache_.Clear();
  dd_manager_.reset();
  InitSentinels();
  ++generation_;
  stamp_ = NextStamp();
}

std::shared_ptr<DDBackend> ConditionInterner::DDManager() {
  if (dd_manager_ == nullptr) dd_manager_ = std::make_shared<DDBackend>(*this);
  return dd_manager_;
}

AtomId ConditionInterner::InternAtom(const CondAtom& atom) {
  auto [it, inserted] =
      atom_ids_.try_emplace(atom, static_cast<AtomId>(atoms_.size()));
  if (inserted) atoms_.push_back(atom);
  return it->second;
}

ConjId ConditionInterner::InternCanonical(std::vector<AtomId> ids) {
  auto [it, inserted] =
      canonical_ids_.try_emplace(ids, static_cast<ConjId>(conjs_.size()));
  if (!inserted) {
    ++stats_.canonical_hits;
    return it->second;
  }
  ConjEntry& entry = conjs_.emplace_back();
  for (AtomId a : ids) entry.canonical.Add(atoms_[a]);
  entry.atoms = std::move(ids);
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
  BindingEnv& env = scratch_env_;
  env.Revert(0);
  if (!env.Assert(conjunction)) return kFalseConj;

  // Map every variable to its class representative: the class constant if
  // bound, else the least variable of the class. (A variable of a dropped
  // x = x atom alone is its own and adds no canonical atom.)
  std::vector<VarId> vars = conjunction.Variables();
  std::vector<Term> reps;
  env.Representatives(vars, reps);
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
  ++stats_.intern_calls;
  if (conjunction.size() == 0) return kTrueConj;

  // The syntactic key is built in a reused scratch buffer so cache hits (the
  // hot case) do no allocation; only a miss copies the key into the map.
  scratch_key_.clear();
  for (const CondAtom& a : conjunction.atoms()) {
    scratch_key_.push_back(InternAtom(a));
  }
  auto it = syntactic_ids_.find(scratch_key_);
  if (it != syntactic_ids_.end()) {
    ++stats_.syntactic_hits;
    return it->second;
  }
  ConjId id = Canonicalize(conjunction);
  syntactic_ids_.emplace(scratch_key_, id);
  return id;
}

ConjId ConditionInterner::And(ConjId a, ConjId b) {
  if (a == kFalseConj || b == kFalseConj) return kFalseConj;
  if (a == kTrueConj) return b;
  if (b == kTrueConj) return a;
  if (a == b) return a;

  ++stats_.and_calls;
  std::pair<ConjId, ConjId> key{std::min(a, b), std::max(a, b)};
  auto& memo = and_cache_.PartitionFor(key);
  auto it = memo.find(key);
  if (it != memo.end()) {
    ++stats_.and_hits;
    return it->second;
  }
  // Conjoining two canonical conjunctions can force fresh congruence merges
  // (e.g. {x = y} AND {y = 3}), so run the full closure on the union.
  Conjunction merged = conjs_[a].canonical;
  merged.AddAll(conjs_[b].canonical);
  ConjId out = Canonicalize(merged);
  MemoEmplace(memo, key, out);
  return out;
}

bool ConditionInterner::Implies(ConjId a, ConjId b) {
  if (a == kFalseConj || b == kTrueConj || a == b) return true;
  if (a == kTrueConj || b == kFalseConj) return false;

  ++stats_.implies_calls;
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
      ++stats_.implies_hits;
      return true;
    }
  }

  std::pair<ConjId, ConjId> key{a, b};
  auto& memo = implies_cache_.PartitionFor(key);
  auto it = memo.find(key);
  if (it != memo.end()) {
    ++stats_.implies_hits;
    return it->second;
  }
  // Full congruence check: a implies b iff a AND NOT atom is unsatisfiable
  // for every atom of b.
  bool out = true;
  BindingEnv& env = scratch_env_;
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
  MemoEmplace(memo, key, out);
  return out;
}

void ConditionInterner::SetProcessShared(ConditionInterner* interner) {
  process_shared.store(interner, std::memory_order_release);
}

ConditionInterner& ConditionInterner::Global() {
  ConditionInterner* installed =
      process_shared.load(std::memory_order_acquire);
  if (installed != nullptr) return *installed;
  static thread_local ConditionInterner interner;
  return interner;
}

}  // namespace pw
