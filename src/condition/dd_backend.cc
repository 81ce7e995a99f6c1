#include "condition/dd_backend.h"

#include <algorithm>
#include <cassert>

#include "condition/conjunction.h"

namespace pw {

CondId DDBackend::MakeNode(AtomId var, CondId lo, CondId hi) {
  if (lo == hi) return lo;
  auto [it, inserted] = unique_.try_emplace(NodeKey{var, lo, hi}, CondId{0});
  if (inserted) {
    it->second = static_cast<CondId>(nodes_.Append(Node{var, lo, hi})) + 2;
  }
  return it->second;
}

bool DDBackend::CacheLookup(const OpKey& key, CondId* out) {
  auto it = ops_.find(key);
  if (it == ops_.end()) return false;
  *out = it->second;
  return true;
}

void DDBackend::CacheStore(const OpKey& key, CondId value) {
  if (op_cache_capacity_ != 0 && ops_.size() >= op_cache_capacity_) {
    ops_.clear();
    ++op_cache_evictions_;
  }
  ops_.emplace(key, value);
}

bool DDBackend::VarBefore(AtomId a, AtomId b) const {
  if (a == b) return false;
  const CondAtom& x = interner().AtomOf(a);
  const CondAtom& y = interner().AtomOf(b);
  if (x.lhs != y.lhs) return x.lhs < y.lhs;
  if (x.rhs != y.rhs) return x.rhs < y.rhs;
  if (x.is_equality != y.is_equality) return x.is_equality;
  return a < b;  // distinct ids never tie on the atom, but stay total
}

CondId DDBackend::FromConj(ConjId id) {
  if (id <= kFalseCond) return id;  // sentinels coincide by construction
  auto it = from_conj_.find(id);
  if (it != from_conj_.end()) return it->second;
  // A conjunction's diagram is the chain asserting each atom in variable
  // order: later variables sit deeper, so build bottom-up from the last.
  std::vector<AtomId> atoms = interner().AtomIdsOf(id);
  std::sort(atoms.begin(), atoms.end(),
            [this](AtomId a, AtomId b) { return VarBefore(a, b); });
  CondId acc = kTrueCond;
  for (auto it = atoms.rbegin(); it != atoms.rend(); ++it) {
    acc = MakeNode(*it, kFalseCond, acc);
  }
  from_conj_.emplace(id, acc);
  return acc;
}

CondId DDBackend::Apply(Op op, CondId a, CondId b) {
  // Terminal rules (recall the sentinel layout: 0 = true, 1 = false).
  if (op == Op::kAnd) {
    if (a == kTrueCond) return b;
    if (b == kTrueCond) return a;
    if (a == kFalseCond || b == kFalseCond) return kFalseCond;
  } else {
    if (a == kFalseCond) return b;
    if (b == kFalseCond) return a;
    if (a == kTrueCond || b == kTrueCond) return kTrueCond;
  }
  if (a == b) return a;

  OpKey key{op, std::min(a, b), std::max(a, b)};
  CondId cached;
  if (CacheLookup(key, &cached)) return cached;

  AtomId va = VarOf(a);
  AtomId vb = VarOf(b);
  AtomId var = VarBefore(vb, va) ? vb : va;
  CondId a_lo = a, a_hi = a, b_lo = b, b_hi = b;
  if (va == var) {
    const Node& n = NodeOf(a);
    a_lo = n.lo;
    a_hi = n.hi;
  }
  if (vb == var) {
    const Node& n = NodeOf(b);
    b_lo = n.lo;
    b_hi = n.hi;
  }
  CondId out = MakeNode(var, Apply(op, a_lo, b_lo), Apply(op, a_hi, b_hi));
  CacheStore(key, out);
  return out;
}

CondId DDBackend::And(CondId a, CondId b) { return Apply(Op::kAnd, a, b); }

CondId DDBackend::Or(CondId a, CondId b) { return Apply(Op::kOr, a, b); }

CondId DDBackend::Not(CondId id) {
  if (id == kTrueCond) return kFalseCond;
  if (id == kFalseCond) return kTrueCond;
  OpKey key{Op::kNot, id, 0};
  CondId cached;
  if (CacheLookup(key, &cached)) return cached;
  const Node& n = NodeOf(id);
  CondId out = MakeNode(n.var, Not(n.lo), Not(n.hi));
  CacheStore(key, out);
  return out;
}

bool DDBackend::SatSearch(CondId id, BindingEnv& env) {
  if (id == kTrueCond) return true;
  if (id == kFalseCond) return false;
  // A context-free UNSAT verdict holds under any path context.
  CondId cached;
  if (CacheLookup(OpKey{Op::kSat, id, 0}, &cached) && cached == 0) {
    return false;
  }
  const Node& n = NodeOf(id);
  const CondAtom& atom = interner().AtomOf(n.var);
  size_t mark = env.Mark();
  if (env.AssertAtom(atom) && SatSearch(n.hi, env)) return true;
  env.Revert(mark);
  mark = env.Mark();
  if (env.AssertAtom(Negate(atom)) && SatSearch(n.lo, env)) return true;
  env.Revert(mark);
  return false;
}

bool DDBackend::Satisfiable(CondId id) {
  if (id == kTrueCond) return true;
  if (id == kFalseCond) return false;
  OpKey key{Op::kSat, id, 0};
  CondId cached;
  if (CacheLookup(key, &cached)) return cached != 0;
  scratch_env_.Revert(0);
  bool out = SatSearch(id, scratch_env_);
  scratch_env_.Revert(0);
  CacheStore(key, out ? 1 : 0);
  return out;
}

bool DDBackend::SatisfiableWith(ConjId global, CondId id) {
  if (id == kFalseCond) return false;
  if (global == ConditionInterner::kTrueConj) return Satisfiable(id);
  return Satisfiable(And(FromConj(global), id));
}

bool DDBackend::Implies(CondId a, CondId b) {
  if (a == b || a == kFalseCond || b == kTrueCond) return true;
  // No propositional shortcut for the remaining cases: distinct atoms can be
  // theory-coupled (x = y and x != y are different decision variables), so
  // even Implies(true, node) can hold. Decide via a AND NOT b unsatisfiable,
  // memoized on the ordered pair — implication is not symmetric.
  OpKey key{Op::kImplies, a, b};
  CondId cached;
  if (CacheLookup(key, &cached)) return cached != 0;
  bool out = !Satisfiable(And(a, Not(b)));
  CacheStore(key, out ? 1 : 0);
  return out;
}

bool DDBackend::TautologyUnder(ConjId global, CondId id) {
  if (id == kTrueCond) return true;
  CondId negated = Not(id);
  if (global == ConditionInterner::kTrueConj) return !Satisfiable(negated);
  return !Satisfiable(And(FromConj(global), negated));
}

void DDBackend::ExpandPaths(CondId id, BindingEnv& env,
                            std::vector<CondAtom>* path,
                            std::unordered_set<ConjId>* seen,
                            std::vector<ConjId>* out) {
  if (id == kFalseCond) return;
  if (id == kTrueCond) {
    Conjunction conj;
    for (const CondAtom& a : *path) conj.Add(a);
    ConjId cid = interner().Intern(conj);
    // The env kept every emitted path consistent, so cid is satisfiable.
    assert(cid != ConditionInterner::kFalseConj);
    if (seen->insert(cid).second) out->push_back(cid);
    return;
  }
  const Node& n = NodeOf(id);
  const CondAtom& atom = interner().AtomOf(n.var);
  size_t mark = env.Mark();
  if (env.AssertAtom(atom)) {
    path->push_back(atom);
    ExpandPaths(n.hi, env, path, seen, out);
    path->pop_back();
  }
  env.Revert(mark);
  mark = env.Mark();
  CondAtom negated = Negate(atom);
  if (env.AssertAtom(negated)) {
    path->push_back(negated);
    ExpandPaths(n.lo, env, path, seen, out);
    path->pop_back();
  }
  env.Revert(mark);
}

void DDBackend::AppendDisjuncts(CondId id, std::vector<ConjId>* out) {
  if (id == kFalseCond) return;
  if (id == kTrueCond) {
    out->push_back(ConditionInterner::kTrueConj);
    return;
  }
  BindingEnv env;  // local: ExpandPaths interns, which uses the scratch env
  std::vector<CondAtom> path;
  std::unordered_set<ConjId> seen;
  ExpandPaths(id, env, &path, &seen, out);
}

}  // namespace pw
