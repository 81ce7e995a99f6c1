#include "condition/conjunction.h"

#include <algorithm>

#include "condition/binding_env.h"
#include "core/symbol_table.h"

namespace pw {

void Conjunction::AddAll(const Conjunction& other) {
  atoms_.insert(atoms_.end(), other.atoms_.begin(), other.atoms_.end());
}

bool Conjunction::IsTautology() const {
  return std::all_of(atoms_.begin(), atoms_.end(), IsTriviallyTrue);
}

bool Conjunction::Satisfiable() const {
  BindingEnv env;
  return env.Assert(*this);
}

bool Conjunction::Implies(const CondAtom& atom) const {
  // Over an infinite domain: C implies a  iff  C AND NOT a is unsatisfiable.
  BindingEnv env;
  if (!env.Assert(*this)) return true;  // unsatisfiable implies everything
  return !env.AssertAtom(Negate(atom));
}

Conjunction Conjunction::Substitute(
    const std::unordered_map<VarId, Term>& substitution) const {
  auto apply = [&substitution](Term t) {
    if (t.is_variable()) {
      auto it = substitution.find(t.variable());
      if (it != substitution.end()) return it->second;
    }
    return t;
  };
  Conjunction out;
  out.atoms_.reserve(atoms_.size());
  for (const CondAtom& a : atoms_) {
    out.atoms_.push_back(a.is_equality ? Eq(apply(a.lhs), apply(a.rhs))
                                       : Neq(apply(a.lhs), apply(a.rhs)));
  }
  return out;
}

Conjunction Conjunction::And(const Conjunction& a, const Conjunction& b) {
  Conjunction out = a;
  out.AddAll(b);
  return out;
}

std::unordered_map<VarId, ConstId> Conjunction::ForcedConstants() const {
  std::unordered_map<VarId, ConstId> out;
  BindingEnv env;
  if (!env.Assert(*this)) return out;
  for (VarId v : Variables()) {
    if (auto c = env.ValueOf(Term::Var(v))) out.emplace(v, *c);
  }
  return out;
}

std::unordered_map<VarId, Term> Conjunction::CanonicalSubstitution() const {
  std::unordered_map<VarId, Term> out;
  BindingEnv env;
  if (!env.Assert(*this)) return out;
  std::vector<VarId> vars = Variables();
  std::vector<Term> reps;
  env.Representatives(vars, reps);
  out.reserve(vars.size());
  for (size_t i = 0; i < vars.size(); ++i) out.emplace(vars[i], reps[i]);
  return out;
}

std::vector<VarId> Conjunction::Variables() const {
  std::vector<VarId> out;
  for (const CondAtom& a : atoms_) {
    if (a.lhs.is_variable()) out.push_back(a.lhs.variable());
    if (a.rhs.is_variable()) out.push_back(a.rhs.variable());
  }
  SortUnique(out);
  return out;
}

std::vector<ConstId> Conjunction::Constants() const {
  std::vector<ConstId> out;
  for (const CondAtom& a : atoms_) {
    if (a.lhs.is_constant()) out.push_back(a.lhs.constant());
    if (a.rhs.is_constant()) out.push_back(a.rhs.constant());
  }
  SortUnique(out);
  return out;
}

Conjunction Conjunction::Simplified() const {
  Conjunction out;
  for (const CondAtom& a : atoms_) {
    if (!IsTriviallyTrue(a)) out.Add(a);
  }
  return out;
}

std::string Conjunction::ToString(const SymbolTable* symbols) const {
  if (atoms_.empty()) return "true";
  std::string out;
  for (size_t i = 0; i < atoms_.size(); ++i) {
    if (i > 0) out += " AND ";
    out += pw::ToString(atoms_[i], symbols);
  }
  return out;
}

}  // namespace pw
