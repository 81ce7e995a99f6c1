#include "condition/backend.h"

#include <algorithm>
#include <cstdlib>
#include <string_view>
#include <utility>

#include "condition/dd_backend.h"

namespace pw {

void ChoiceCnf::Clear() {
  env_.Revert(0);
  atoms_.clear();
  alt_begin_.assign(1, 0);
  clause_begin_.assign(1, 0);
  uses_.clear();
  dropped_ = held_ = unsat_ = false;
}

bool ChoiceCnf::AddBase(const Conjunction& conjunction) {
  AddAtoms(conjunction);
  EndAlternative();
  return EndClause();
}

void ChoiceCnf::AddAtom(const CondAtom& atom) {
  if (dropped_ || IsTriviallyTrue(atom)) return;
  dropped_ = IsTriviallyFalse(atom);
  if (!dropped_) atoms_.push_back(atom);
}

void ChoiceCnf::AddAtoms(const Conjunction& conjunction) {
  for (const CondAtom& atom : conjunction.atoms()) AddAtom(atom);
}

bool ChoiceCnf::EndAlternative() {
  uint32_t begin = alt_begin_.back();
  if (dropped_ || held_) {
    atoms_.resize(begin);
  } else if (atoms_.size() == begin) {
    held_ = true;
  } else {
    alt_begin_.push_back(static_cast<uint32_t>(atoms_.size()));
  }
  dropped_ = false;
  return held_;
}

bool ChoiceCnf::AddProducer(const Tuple& tuple, const Conjunction& local,
                            const Fact& fact) {
  // Constants first: most rows of a scanned table differ from the fact in
  // one, and comparing ids is cheaper than building atoms.
  dropped_ |= tuple.size() != fact.size();
  for (size_t i = 0; i < tuple.size() && !dropped_; ++i) {
    dropped_ = tuple[i].is_constant() && tuple[i].constant() != fact[i];
  }
  for (size_t i = 0; i < tuple.size() && !dropped_; ++i) {
    if (tuple[i].is_variable()) AddAtom(Eq(tuple[i], Term::Const(fact[i])));
  }
  if (!dropped_) AddAtoms(local);
  return EndAlternative();
}

bool ChoiceCnf::EndClause() {
  uint32_t begin = clause_begin_.back();
  uint32_t end = static_cast<uint32_t>(alt_begin_.size() - 1);
  if (held_ || end - begin == 1) {
    // A unit clause joins the base; either way the clause leaves storage.
    for (const CondAtom& atom : Atoms(begin, held_ || unsat_ ? begin : end)) {
      if (!env_.AssertAtom(atom)) {
        unsat_ = true;
        break;
      }
      AddUses(atom, 0, 0);
    }
    atoms_.resize(alt_begin_[begin]);
    alt_begin_.resize(begin + 1);
  } else if (begin == end) {
    unsat_ = true;
  } else {
    clause_begin_.push_back(end);
  }
  held_ = false;
  return !unsat_;
}

void ChoiceCnf::AddUses(const CondAtom& atom, uint32_t pos, uint32_t index) {
  for (Term t : {atom.lhs, atom.rhs}) {
    if (t.is_variable()) {
      uses_.push_back({t.variable(), pos, index, atom.is_equality});
    }
  }
}

// An atom can be entailed before its clause is reached only if the base or
// an earlier clause mentions one of its variables — in an equality, for an
// equality atom, since disequalities never force one over the infinite
// domain. An alternative can be entailed only if all its atoms can, and a
// clause only if one of its alternatives can.
void ChoiceCnf::FindMayHold() {
  for (uint32_t rank = 0; rank < order_.size(); ++rank) {
    uint32_t c = static_cast<uint32_t>(order_[rank]);
    for (uint32_t i = alt_begin_[clause_begin_[c]];
         i < alt_begin_[clause_begin_[c + 1]]; ++i) {
      AddUses(atoms_[i], rank + 1, i);
    }
  }
  std::sort(uses_.begin(), uses_.end(), [](const Use& a, const Use& b) {
    return a.var != b.var ? a.var < b.var : a.pos < b.pos;
  });
  atom_may_hold_.assign(atoms_.size(), 0);
  uint32_t first = 0;
  uint32_t first_eq = 0;
  for (size_t u = 0; u < uses_.size(); ++u) {
    const Use& use = uses_[u];
    if (u == 0 || use.var != uses_[u - 1].var) {
      first = use.pos;
      first_eq = UINT32_MAX;
    }
    if ((use.eq ? first_eq : first) < use.pos) atom_may_hold_[use.atom] = 1;
    if (use.eq) first_eq = std::min(first_eq, use.pos);
  }
  may_hold_.assign(order_.size(), 0);
  for (uint32_t c = 0; c < order_.size(); ++c) {
    uint32_t end = clause_begin_[c + 1];
    for (uint32_t a = clause_begin_[c]; a < end && !may_hold_[c]; ++a) {
      may_hold_[c] = std::all_of(atom_may_hold_.begin() + alt_begin_[a],
                                  atom_may_hold_.begin() + alt_begin_[a + 1],
                                  [](char may) { return may != 0; });
    }
  }
}

bool ChoiceCnf::Search(size_t rank) {
  if (rank == order_.size()) return true;
  uint32_t c = static_cast<uint32_t>(order_[rank]);
  uint32_t begin = clause_begin_[c];
  uint32_t end = clause_begin_[c + 1];
  // A clause that already holds needs no choice, and trying its
  // alternatives could only add constraints.
  for (uint32_t a = begin; may_hold_[c] && a < end; ++a) {
    if (std::ranges::all_of(Atoms(a, a + 1), [this](const CondAtom& atom) {
          return env_.Entails(atom);
        })) {
      return Search(rank + 1);
    }
  }
  size_t mark = env_.Mark();
  for (uint32_t a = begin; a < end; ++a) {
    if (std::ranges::all_of(Atoms(a, a + 1), [this](const CondAtom& atom) {
          return env_.AssertAtom(atom);
        }) &&
        Search(rank + 1)) {
      return true;
    }
    env_.Revert(mark);
  }
  return false;
}

bool ChoiceCnf::Solve() {
  if (unsat_) return false;
  order_.clear();
  for (uint32_t c = 0; c + 1 < clause_begin_.size(); ++c) {
    uint64_t size = clause_begin_[c + 1] - clause_begin_[c];
    order_.push_back(size << 32 | c);
  }
  std::sort(order_.begin(), order_.end());
  FindMayHold();
  return Search(0);
}

bool ConjImpliesDisjunction(ConditionInterner& interner, ConjId lhs,
                            const std::vector<ConjId>& disjuncts) {
  if (lhs == ConditionInterner::kFalseConj) return true;
  // (id, first position in `disjuncts`) of each disjunct left to refute.
  thread_local std::vector<std::pair<ConjId, uint32_t>> kept;
  kept.clear();
  for (size_t i = 0; i < disjuncts.size(); ++i) {
    ConjId d = disjuncts[i];
    if (d == ConditionInterner::kFalseConj) continue;
    if (d == ConditionInterner::kTrueConj) return true;
    // Memoized pairwise fast path: implying any single disjunct suffices.
    if (interner.Implies(lhs, d)) return true;
    kept.emplace_back(d, static_cast<uint32_t>(i));
  }
  // A repeated id adds no clause: keep its first occurrence.
  std::sort(kept.begin(), kept.end());
  kept.erase(std::unique(kept.begin(), kept.end(),
                         [](const auto& a, const auto& b) {
                           return a.first == b.first;
                         }),
             kept.end());
  // lhs is satisfiable (interned, not kFalseConj). With no disjunct left, or
  // one that the pairwise check already refuted, the implication fails.
  if (kept.size() < 2) return false;
  std::sort(kept.begin(), kept.end(), [](const auto& a, const auto& b) {
    return a.second < b.second;
  });
  // lhs AND NOT d1 AND ... AND NOT dk: one clause per disjunct, whose
  // alternatives are its negated atoms. It has no model iff the implication
  // holds. Within a clause, equalities come first (the negated
  // disequalities): a bound value settles more of the later clauses than a
  // disequality does.
  thread_local ChoiceCnf cnf;
  cnf.Clear();
  if (!cnf.AddBase(interner.Resolve(lhs))) return true;
  for (const auto& [d, pos] : kept) {
    const Conjunction& conj = interner.Resolve(d);
    for (bool equality : {false, true}) {
      for (const CondAtom& atom : conj.atoms()) {
        if (atom.is_equality != equality) continue;
        cnf.AddAtom(Negate(atom));
        cnf.EndAlternative();
      }
    }
    if (!cnf.EndClause()) return true;
  }
  return !cnf.Solve();
}

namespace {

/// The paper-faithful backend: a condition is an interned conjunction, so
/// every call is a passthrough with the interner's memoization and stats.
class ConjunctiveBackend final : public ConditionBackend {
 public:
  explicit ConjunctiveBackend(ConditionInterner& interner)
      : ConditionBackend(interner) {}

  CondId FromConj(ConjId id) override { return id; }

  CondId And(CondId a, CondId b) override { return interner().And(a, b); }

  bool SatisfiableWith(ConjId global, CondId id) override {
    return interner().Satisfiable(interner().And(global, id));
  }
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

std::shared_ptr<ConditionBackend> MakeConditionBackend(
    ConditionBackendKind kind, ConditionInterner& interner) {
  switch (ResolveConditionBackendKind(kind)) {
    case ConditionBackendKind::kDecisionDiagrams:
      return interner.DDManager();
    case ConditionBackendKind::kConjunctions:
    case ConditionBackendKind::kDefault:
      break;
  }
  return std::make_shared<ConjunctiveBackend>(interner);
}

}  // namespace pw
