#include "condition/dd_backend.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace pw {

namespace {

uint64_t NodeHash(AtomId var, CondId lo, CondId hi) {
  return HashCombine(HashCombine(var, lo), hi);
}

}  // namespace

CondId DDBackend::MakeNode(AtomId var, CondId lo, CondId hi) {
  if (lo == hi) return lo;
  auto [index, inserted] = unique_.FindOrInsert(
      NodeHash(var, lo, hi),
      [&](uint32_t i) {
        const Node& n = nodes_[i];
        return n.var == var && n.lo == lo && n.hi == hi;
      },
      [this](uint32_t i) {
        const Node& n = nodes_[i];
        return NodeHash(n.var, n.lo, n.hi);
      });
  if (inserted) {
    nodes_.push_back(Node{var, lo, hi});
    if (nodes_.size() > ops_.slots()) {
      size_t target = OpCacheTarget();
      if (target != ops_.slots()) ops_.Resize(target);
    }
  }
  return index + 2;
}

size_t DDBackend::OpCacheTarget() const {
  size_t target = std::max(kInitialOpSlots, std::bit_ceil(nodes_.size()));
  if (op_cache_capacity_ != 0) {
    target = std::min(target, std::bit_floor(op_cache_capacity_));
  }
  return target;
}

void DDBackend::SetOpCacheCapacity(size_t capacity) {
  op_cache_capacity_ = capacity;
  ops_.Resize(OpCacheTarget());
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
  if (id < from_conj_.size() && from_conj_[id] != kNoCond) {
    return from_conj_[id];
  }
  // A conjunction's diagram is the chain asserting each atom in variable
  // order: later variables sit deeper, so build bottom-up from the last.
  std::vector<AtomId> atoms = interner().AtomIdsOf(id);
  std::sort(atoms.begin(), atoms.end(),
            [this](AtomId a, AtomId b) { return VarBefore(a, b); });
  CondId acc = kTrueCond;
  for (auto it = atoms.rbegin(); it != atoms.rend(); ++it) {
    acc = MakeNode(*it, kFalseCond, acc);
  }
  if (id >= from_conj_.size()) from_conj_.resize(id + 1, kNoCond);
  from_conj_[id] = acc;
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

  LossyCache::Key key = OpKey(op, std::min(a, b), std::max(a, b));
  CondId cached;
  if (ops_.Find(key, &cached)) return cached;

  AtomId va = VarOf(a);
  AtomId vb = VarOf(b);
  AtomId var = VarBefore(vb, va) ? vb : va;
  CondId a_lo = a, a_hi = a, b_lo = b, b_hi = b;
  if (va == var) {
    Node n = NodeOf(a);
    a_lo = n.lo;
    a_hi = n.hi;
  }
  if (vb == var) {
    Node n = NodeOf(b);
    b_lo = n.lo;
    b_hi = n.hi;
  }
  CondId out = MakeNode(var, Apply(op, a_lo, b_lo), Apply(op, a_hi, b_hi));
  ops_.Store(key, out);
  return out;
}

CondId DDBackend::And(CondId a, CondId b) { return Apply(Op::kAnd, a, b); }

CondId DDBackend::Or(CondId a, CondId b) { return Apply(Op::kOr, a, b); }

CondId DDBackend::Not(CondId id) {
  if (id == kTrueCond) return kFalseCond;
  if (id == kFalseCond) return kTrueCond;
  LossyCache::Key key = OpKey(Op::kNot, id, 0);
  CondId cached;
  if (ops_.Find(key, &cached)) return cached;
  Node n = NodeOf(id);
  CondId out = MakeNode(n.var, Not(n.lo), Not(n.hi));
  ops_.Store(key, out);
  return out;
}

bool DDBackend::SatSearch(CondId id, BindingEnv& env) {
  if (id == kTrueCond) return true;
  if (id == kFalseCond) return false;
  // A context-free UNSAT verdict holds under any path context.
  CondId cached;
  if (ops_.Find(OpKey(Op::kSat, id, 0), &cached) && cached == 0) {
    return false;
  }
  Node n = NodeOf(id);
  CondAtom atom = interner().AtomOf(n.var);
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
  LossyCache::Key key = OpKey(Op::kSat, id, 0);
  CondId cached;
  if (ops_.Find(key, &cached)) return cached != 0;
  scratch_env_.Revert(0);
  bool out = SatSearch(id, scratch_env_);
  scratch_env_.Revert(0);
  ops_.Store(key, out ? 1 : 0);
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
  LossyCache::Key key = OpKey(Op::kImplies, a, b);
  CondId cached;
  if (ops_.Find(key, &cached)) return cached != 0;
  bool out = !Satisfiable(And(a, Not(b)));
  ops_.Store(key, out ? 1 : 0);
  return out;
}

bool DDBackend::TautologyUnder(ConjId global, CondId id) {
  if (id == kTrueCond) return true;
  CondId negated = Not(id);
  if (global == ConditionInterner::kTrueConj) return !Satisfiable(negated);
  return !Satisfiable(And(FromConj(global), negated));
}

void DDBackend::ExpandPaths(CondId id, std::vector<ConjId>* out) {
  if (id == kFalseCond) return;
  if (id == kTrueCond) {
    path_conj_.Clear();
    for (const CondAtom& a : path_) path_conj_.Add(a);
    ConjId cid = interner().Intern(path_conj_);
    // The env kept every emitted path consistent, so cid is satisfiable.
    assert(cid != ConditionInterner::kFalseConj);
    if (cid >= seen_.size()) seen_.resize(cid + 1);
    if (!seen_[cid]) {
      seen_[cid] = true;
      out->push_back(cid);
    }
    return;
  }
  Node n = NodeOf(id);
  CondAtom atom = interner().AtomOf(n.var);
  size_t mark = scratch_env_.Mark();
  if (scratch_env_.AssertAtom(atom)) {
    path_.push_back(atom);
    ExpandPaths(n.hi, out);
    path_.pop_back();
  }
  scratch_env_.Revert(mark);
  CondAtom negated = Negate(atom);
  if (scratch_env_.AssertAtom(negated)) {
    path_.push_back(negated);
    ExpandPaths(n.lo, out);
    path_.pop_back();
  }
  scratch_env_.Revert(mark);
}

void DDBackend::AppendDisjuncts(CondId id, std::vector<ConjId>* out) {
  if (id == kFalseCond) return;
  if (id == kTrueCond) {
    out->push_back(ConditionInterner::kTrueConj);
    return;
  }
  size_t first = out->size();
  scratch_env_.Revert(0);
  ExpandPaths(id, out);
  // Leave the bitmap empty for the next call: clear only what this one set.
  for (size_t i = first; i < out->size(); ++i) seen_[(*out)[i]] = false;
}

}  // namespace pw
