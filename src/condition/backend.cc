#include "condition/backend.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <deque>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "condition/binding_env.h"
#include "condition/dd_backend.h"

namespace pw {

namespace {

/// Backtracking step of ConjImpliesDisjunction: find one falsifiable atom
/// per remaining disjunct, consistently with everything asserted so far.
bool CnfSearch(BindingEnv& env, const std::vector<const Conjunction*>& negs,
               size_t i) {
  if (i == negs.size()) return true;
  for (const CondAtom& atom : negs[i]->atoms()) {
    CondAtom negated = Negate(atom);
    if (IsTriviallyFalse(negated)) continue;
    size_t mark = env.Mark();
    if (env.AssertAtom(negated) && CnfSearch(env, negs, i + 1)) return true;
    env.Revert(mark);
  }
  return false;
}

}  // namespace

bool ConjImpliesDisjunction(ConditionInterner& interner, ConjId lhs,
                            const std::vector<ConjId>& disjuncts) {
  if (lhs == ConditionInterner::kFalseConj) return true;
  std::vector<const Conjunction*> negs;
  negs.reserve(disjuncts.size());
  for (ConjId d : disjuncts) {
    if (d == ConditionInterner::kFalseConj) continue;
    if (d == ConditionInterner::kTrueConj) return true;
    // Memoized pairwise fast path: implying any single disjunct suffices.
    if (interner.Implies(lhs, d)) return true;
    negs.push_back(&interner.Resolve(d));
  }
  if (negs.empty()) return false;  // lhs satisfiable, empty disjunction
  // lhs /\ NOT d1 /\ ... /\ NOT dk is a conjunction of literals plus a CNF
  // with one clause per disjunct (the negated atoms). Over the infinite
  // domain it is satisfiable iff some choice of one negated atom per clause
  // is congruence-consistent with lhs — which the backtracking search
  // decides exactly. No such valuation means the implication holds.
  BindingEnv env;
  if (!env.Assert(interner.Resolve(lhs))) return true;
  return !CnfSearch(env, negs, 0);
}

namespace {

/// The paper-faithful backend: a condition is an interned conjunction, or —
/// only where a caller asks for Or, i.e. never on the fixpoint's antichain
/// fast path — a hash-consed set of interned conjunctions kept as a covering
/// antichain (an explicit DNF). Conjunction CondIds are exactly the
/// interner's ConjIds, so FromConj/And/Implies/SatisfiableWith are
/// passthroughs with the interner's memoization and stats.
class ConjunctiveBackend final : public ConditionBackend {
 public:
  /// Disjunction-set ids carry this bit; the low bits index disj_sets_.
  static constexpr CondId kDisjBit = CondId{1} << 31;

  explicit ConjunctiveBackend(ConditionInterner& interner)
      : ConditionBackend(interner) {}

  const char* name() const override { return "antichain"; }
  bool disjunctive() const override { return false; }

  CondId FromConj(ConjId id) override { return id; }

  CondId And(CondId a, CondId b) override {
    if (!IsDisj(a) && !IsDisj(b)) return interner().And(a, b);
    // Distribute over the (small, export-side) disjunction sets.
    std::vector<ConjId> left = MembersOf(a);
    std::vector<ConjId> right = MembersOf(b);
    std::vector<ConjId> out;
    out.reserve(left.size() * right.size());
    for (ConjId x : left) {
      for (ConjId y : right) out.push_back(interner().And(x, y));
    }
    return MakeDisjunction(std::move(out));
  }

  CondId Or(CondId a, CondId b) override {
    if (a == b) return a;
    std::vector<ConjId> out = MembersOf(a);
    std::vector<ConjId> right = MembersOf(b);
    out.insert(out.end(), right.begin(), right.end());
    return MakeDisjunction(std::move(out));
  }

  bool Implies(CondId a, CondId b) override {
    if (a == b || a == kFalseCond || b == kTrueCond) return true;
    if (!IsDisj(a) && !IsDisj(b)) return interner().Implies(a, b);
    std::vector<ConjId> need = MembersOf(b);
    for (ConjId m : MembersOf(a)) {
      if (!ConjImpliesDisjunction(interner(), m, need)) return false;
    }
    return true;
  }

  bool Satisfiable(CondId id) override {
    // Normalized disjunction sets are non-empty with satisfiable members.
    return IsDisj(id) || id != kFalseCond;
  }

  bool SatisfiableWith(ConjId global, CondId id) override {
    if (!IsDisj(id)) {
      return interner().Satisfiable(interner().And(global, id));
    }
    for (ConjId m : MembersOf(id)) {
      if (interner().Satisfiable(interner().And(global, m))) return true;
    }
    return false;
  }

  bool TautologyUnder(ConjId global, CondId id) override {
    if (!IsDisj(id)) return interner().Implies(global, id);
    return ConjImpliesDisjunction(interner(), global, MembersOf(id));
  }

  void AppendDisjuncts(CondId id, std::vector<ConjId>* out) override {
    if (!IsDisj(id)) {
      if (id != kFalseCond) out->push_back(id);
      return;
    }
    std::vector<ConjId> members = MembersOf(id);
    out->insert(out->end(), members.begin(), members.end());
  }

 private:
  static bool IsDisj(CondId id) { return (id & kDisjBit) != 0; }

  std::vector<ConjId> MembersOf(CondId id) const {
    if (!IsDisj(id)) {
      if (id == kFalseCond) return {};
      return {id};
    }
    return disj_sets_[id & ~kDisjBit];
  }

  /// Normalizes a member list into the canonical covering antichain and
  /// hash-conses it: false members drop, a true member collapses the set,
  /// members implying another member are absorbed (ties to equivalent
  /// members broken toward the smaller id, so the set is order-independent),
  /// the result is sorted and deduplicated. Empty -> false; singleton -> the
  /// member's own ConjId.
  CondId MakeDisjunction(std::vector<ConjId> members) {
    std::vector<ConjId> kept;
    kept.reserve(members.size());
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    for (ConjId m : members) {
      if (m == ConditionInterner::kFalseConj) continue;
      if (m == ConditionInterner::kTrueConj) return kTrueCond;
      bool absorbed = false;
      for (ConjId other : members) {
        if (other == m || other == ConditionInterner::kFalseConj) continue;
        if (!interner().Implies(m, other)) continue;
        // m -> other: m is redundant, unless they are equivalent and m is
        // the designated (smaller-id) representative.
        if (interner().Implies(other, m) && m < other) continue;
        absorbed = true;
        break;
      }
      if (!absorbed) kept.push_back(m);
    }
    if (kept.empty()) return kFalseCond;
    if (kept.size() == 1) return kept[0];
    auto [it, inserted] =
        disj_ids_.try_emplace(kept, static_cast<CondId>(disj_sets_.size()));
    if (inserted) disj_sets_.push_back(kept);
    return kDisjBit | it->second;
  }

  struct VecHash {
    size_t operator()(const std::vector<ConjId>& v) const noexcept {
      uint64_t h = 1469598103934665603ull;
      for (ConjId id : v) {
        h ^= id;
        h *= 1099511628211ull;
      }
      return static_cast<size_t>(h);
    }
  };

  std::deque<std::vector<ConjId>> disj_sets_;
  std::unordered_map<std::vector<ConjId>, CondId, VecHash> disj_ids_;
};

}  // namespace

ConditionBackendKind ResolveConditionBackendKind(ConditionBackendKind kind) {
  if (kind != ConditionBackendKind::kDefault) return kind;
  if (const char* env = std::getenv("PW_CONDITION_BACKEND")) {
    std::string_view v(env);
    if (v == "dd" || v == "DD") {
      return ConditionBackendKind::kDecisionDiagrams;
    }
  }
  return ConditionBackendKind::kConjunctions;
}

std::unique_ptr<ConditionBackend> MakeConditionBackend(
    ConditionBackendKind kind, ConditionInterner& interner) {
  switch (ResolveConditionBackendKind(kind)) {
    case ConditionBackendKind::kDecisionDiagrams:
      return std::make_unique<DDBackend>(interner);
    case ConditionBackendKind::kConjunctions:
    case ConditionBackendKind::kDefault:
      break;
  }
  return std::make_unique<ConjunctiveBackend>(interner);
}

}  // namespace pw
