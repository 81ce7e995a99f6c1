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

/// lhs AND NOT d1 AND ... AND NOT dk as a CNF over atoms: clause i is
/// atoms[ends[i - 1], ends[i]), the negations of disjunct i's atoms.
/// may_hold[i] is false when no atom of clause i can already hold when the
/// search reaches it.
struct AtomCnf {
  std::vector<CondAtom> atoms;
  std::vector<uint32_t> ends;
  std::vector<char> may_hold;
};

/// Sets cnf.may_hold. An atom can hold before its clause is reached only if
/// lhs or an earlier clause mentions one of its variables — in an equality,
/// for an equality atom, since disequalities never force one over the
/// infinite domain. A one-atom clause needs no check: asserting an atom that
/// holds adds nothing, and there is no other atom to try.
void MarkMayHold(const Conjunction& lhs, AtomCnf& cnf) {
  struct Use {
    VarId var;
    uint32_t pos;  // 0 for lhs, i + 1 for clause i
    bool eq;
  };
  std::vector<Use> uses;
  uses.reserve(2 * (lhs.size() + cnf.atoms.size()));
  auto add = [&uses](const CondAtom& atom, size_t pos) {
    for (Term t : {atom.lhs, atom.rhs}) {
      if (!t.is_variable()) continue;
      uses.push_back(
          {t.variable(), static_cast<uint32_t>(pos), atom.is_equality});
    }
  };
  for (const CondAtom& atom : lhs.atoms()) add(atom, 0);
  for (size_t i = 0, k = 0; i < cnf.ends.size(); ++i) {
    for (; k < cnf.ends[i]; ++k) add(cnf.atoms[k], i + 1);
  }
  std::sort(uses.begin(), uses.end(), [](const Use& a, const Use& b) {
    return a.var != b.var ? a.var < b.var : a.pos < b.pos;
  });
  cnf.may_hold.assign(cnf.ends.size(), 0);
  for (size_t begin = 0, end = 0; begin < uses.size(); begin = end) {
    uint32_t first_any = uses[begin].pos;
    uint32_t first_eq = UINT32_MAX;
    for (end = begin; end < uses.size() && uses[end].var == uses[begin].var;
         ++end) {
      if (uses[end].eq) first_eq = std::min(first_eq, uses[end].pos);
    }
    for (size_t u = begin; u < end; ++u) {
      uint32_t pos = uses[u].pos;
      if (pos == 0 || (uses[u].eq ? first_eq : first_any) >= pos) continue;
      uint32_t start = pos == 1 ? 0 : cnf.ends[pos - 2];
      if (cnf.ends[pos - 1] - start > 1) cnf.may_hold[pos - 1] = 1;
    }
  }
}

/// Backtracking step of ConjImpliesDisjunction: find one atom per remaining
/// clause, consistently with everything asserted so far.
bool CnfSearch(BindingEnv& env, const AtomCnf& cnf, size_t i) {
  if (i == cnf.ends.size()) return true;
  const CondAtom* begin = cnf.atoms.data() + (i == 0 ? 0 : cnf.ends[i - 1]);
  const CondAtom* end = cnf.atoms.data() + cnf.ends[i];
  // A clause that already holds needs no choice, and trying its atoms could
  // only add constraints.
  if (cnf.may_hold[i]) {
    for (const CondAtom* atom = begin; atom != end; ++atom) {
      if (env.Entails(*atom)) return CnfSearch(env, cnf, i + 1);
    }
  }
  for (const CondAtom* atom = begin; atom != end; ++atom) {
    size_t mark = env.Mark();
    if (env.AssertAtom(*atom) && CnfSearch(env, cnf, i + 1)) return true;
    env.Revert(mark);
  }
  return false;
}

}  // namespace

bool ConjImpliesDisjunction(ConditionInterner& interner, ConjId lhs,
                            const std::vector<ConjId>& disjuncts) {
  if (lhs == ConditionInterner::kFalseConj) return true;
  struct Disjunct {
    ConjId id;
    uint32_t pos;  // first position in `disjuncts`
    const Conjunction* conj;
  };
  std::vector<Disjunct> kept;
  kept.reserve(disjuncts.size());
  for (size_t i = 0; i < disjuncts.size(); ++i) {
    ConjId d = disjuncts[i];
    if (d == ConditionInterner::kFalseConj) continue;
    if (d == ConditionInterner::kTrueConj) return true;
    // Memoized pairwise fast path: implying any single disjunct suffices.
    if (interner.Implies(lhs, d)) return true;
    kept.push_back({d, static_cast<uint32_t>(i), nullptr});
  }
  // A repeated id adds no clause: keep its first occurrence.
  std::sort(kept.begin(), kept.end(), [](const Disjunct& a, const Disjunct& b) {
    return a.id != b.id ? a.id < b.id : a.pos < b.pos;
  });
  kept.erase(std::unique(kept.begin(), kept.end(),
                         [](const Disjunct& a, const Disjunct& b) {
                           return a.id == b.id;
                         }),
             kept.end());
  // lhs is satisfiable (interned, not kFalseConj). With no disjunct left, or
  // one that the pairwise check already refuted, the implication fails.
  if (kept.size() < 2) return false;
  size_t num_atoms = 0;
  for (Disjunct& d : kept) {
    d.conj = &interner.Resolve(d.id);
    num_atoms += d.conj->size();
  }
  // Smallest clauses first: they fail fastest. Ties keep the input order.
  std::sort(kept.begin(), kept.end(), [](const Disjunct& a, const Disjunct& b) {
    return a.conj->size() != b.conj->size() ? a.conj->size() < b.conj->size()
                                            : a.pos < b.pos;
  });
  // lhs AND NOT d1 AND ... AND NOT dk is a conjunction of literals plus a
  // CNF with one clause per disjunct (the negated atoms). Over the infinite
  // domain it is satisfiable iff some choice of one negated atom per clause
  // is congruence-consistent with lhs — which the backtracking search
  // decides exactly. No such valuation means the implication holds. Within
  // a clause, equalities come first: a bound value settles more of the later
  // clauses than a disequality does.
  AtomCnf cnf;
  cnf.atoms.reserve(num_atoms);
  cnf.ends.reserve(kept.size());
  for (const Disjunct& d : kept) {
    for (bool equality : {true, false}) {
      for (const CondAtom& atom : d.conj->atoms()) {
        CondAtom negated = Negate(atom);
        if (negated.is_equality == equality && !IsTriviallyFalse(negated)) {
          cnf.atoms.push_back(negated);
        }
      }
    }
    cnf.ends.push_back(static_cast<uint32_t>(cnf.atoms.size()));
  }
  const Conjunction& lhs_conj = interner.Resolve(lhs);
  MarkMayHold(lhs_conj, cnf);
  BindingEnv env;
  if (!env.Assert(lhs_conj)) return true;
  return !CnfSearch(env, cnf, 0);
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
