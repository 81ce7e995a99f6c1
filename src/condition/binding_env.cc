#include "condition/binding_env.h"

#include <utility>

#include "condition/conjunction.h"

namespace pw {

void BindingEnv::Revert(size_t mark) {
  while (trail_.size() > mark) {
    const TrailEntry e = trail_.back();
    trail_.pop_back();
    switch (e.kind) {
      case TrailEntry::kNodeAdded:
        // Nodes leave in reverse creation order, so e.a is the newest.
        node_of_.EraseLast(TermHash(term_of_[e.a]));
        term_of_.pop_back();
        parent_.pop_back();
        rank_.pop_back();
        const_of_.pop_back();
        break;
      case TrailEntry::kUnion:
        parent_[e.a] = e.a;
        rank_[e.b] = e.old_rank;
        const_of_[e.b] = e.old_const;
        break;
      case TrailEntry::kDiseqAdded:
        diseqs_.pop_back();
        break;
    }
  }
}

int BindingEnv::NodeOf(Term t) {
  auto [node, inserted] = node_of_.FindOrInsert(
      TermHash(t), [&](uint32_t n) { return term_of_[n] == t; },
      [this](uint32_t n) { return TermHash(term_of_[n]); });
  int id = static_cast<int>(node);
  if (!inserted) return id;
  term_of_.push_back(t);
  parent_.push_back(id);
  rank_.push_back(0);
  const_of_.push_back(t.is_constant() ? static_cast<int64_t>(t.constant())
                                      : kNoConst);
  trail_.push_back({TrailEntry::kNodeAdded, id, 0, 0, 0});
  return id;
}

std::optional<int> BindingEnv::FindNode(Term t) const {
  uint32_t node = node_of_.Find(
      TermHash(t), [&](uint32_t n) { return term_of_[n] == t; });
  if (node == IdTable::kNone) return std::nullopt;
  return static_cast<int>(node);
}

int BindingEnv::Root(int node) const {
  while (parent_[node] != node) node = parent_[node];  // no compression
  return node;
}

bool BindingEnv::ViolatesDiseq(int root_a, int root_b) const {
  for (const auto& [x, y] : diseqs_) {
    int rx = Root(x);
    int ry = Root(y);
    if ((rx == root_a && ry == root_b) || (rx == root_b && ry == root_a)) {
      return true;
    }
  }
  return false;
}

bool BindingEnv::AssertEqual(Term a, Term b) {
  int ra = Root(NodeOf(a));
  int rb = Root(NodeOf(b));
  if (ra == rb) return true;
  if (const_of_[ra] != kNoConst && const_of_[rb] != kNoConst &&
      const_of_[ra] != const_of_[rb]) {
    return false;  // two distinct constants
  }
  if (ViolatesDiseq(ra, rb)) return false;
  if (rank_[ra] > rank_[rb]) std::swap(ra, rb);  // rb becomes the new root
  trail_.push_back({TrailEntry::kUnion, ra, rb, rank_[rb], const_of_[rb]});
  parent_[ra] = rb;
  if (rank_[ra] == rank_[rb]) ++rank_[rb];
  if (const_of_[rb] == kNoConst) const_of_[rb] = const_of_[ra];
  return true;
}

bool BindingEnv::AssertNotEqual(Term a, Term b) {
  int na = NodeOf(a);
  int nb = NodeOf(b);
  int ra = Root(na);
  int rb = Root(nb);
  if (ra == rb) return false;
  // Distinct constants can never become equal; recording is unnecessary.
  if (const_of_[ra] != kNoConst && const_of_[rb] != kNoConst) return true;
  diseqs_.emplace_back(na, nb);
  trail_.push_back({TrailEntry::kDiseqAdded, 0, 0, 0, 0});
  return true;
}

bool BindingEnv::AssertAtom(const CondAtom& atom) {
  return atom.is_equality ? AssertEqual(atom.lhs, atom.rhs)
                          : AssertNotEqual(atom.lhs, atom.rhs);
}

bool BindingEnv::Assert(const Conjunction& conjunction) {
  for (const CondAtom& atom : conjunction.atoms()) {
    if (!AssertAtom(atom)) return false;
  }
  return true;
}

std::optional<ConstId> BindingEnv::ValueOf(Term t) const {
  if (t.is_constant()) return t.constant();
  auto node = FindNode(t);
  if (!node) return std::nullopt;
  int64_t c = const_of_[Root(*node)];
  if (c == kNoConst) return std::nullopt;
  return static_cast<ConstId>(c);
}

bool BindingEnv::SameClass(Term a, Term b) const {
  if (a == b) return true;
  auto na = FindNode(a);
  auto nb = FindNode(b);
  if (!na || !nb) {
    // Unseen terms are only equal to an identical term or, for a constant,
    // to a class bound to that constant — and such a class would contain the
    // constant's node, so the term would have been seen. Hence: not equal.
    return false;
  }
  return Root(*na) == Root(*nb);
}

bool BindingEnv::Entails(const CondAtom& atom) const {
  std::optional<ConstId> a = ValueOf(atom.lhs);
  std::optional<ConstId> b = ValueOf(atom.rhs);
  if (a && b) return (*a == *b) == atom.is_equality;
  // A class bound to a constant holds that constant's node, so a bound and
  // an unbound term are in different classes.
  if (atom.is_equality) return !a && !b && SameClass(atom.lhs, atom.rhs);
  auto na = FindNode(atom.lhs);
  auto nb = FindNode(atom.rhs);
  return na && nb && ViolatesDiseq(Root(*na), Root(*nb));
}

void BindingEnv::Representatives(const std::vector<VarId>& vars,
                                 std::vector<Term>& reps) {
  reps.clear();
  reps.reserve(vars.size());
  least_of_root_.assign(term_of_.size(), -1);
  for (size_t i = 0; i < vars.size(); ++i) {
    Term v = Term::Var(vars[i]);
    std::optional<int> node = FindNode(v);
    if (!node) {
      reps.push_back(v);
      continue;
    }
    int root = Root(*node);
    if (const_of_[root] != kNoConst) {
      reps.push_back(Term::Const(static_cast<ConstId>(const_of_[root])));
      continue;
    }
    // `vars` ascends, so the first variable met in a class is its least.
    if (least_of_root_[root] < 0) least_of_root_[root] = static_cast<int>(i);
    reps.push_back(Term::Var(vars[static_cast<size_t>(least_of_root_[root])]));
  }
}

bool BindingEnv::CanEqual(Term a, Term b) {
  size_t mark = Mark();
  bool ok = AssertEqual(a, b);
  Revert(mark);
  return ok;
}

}  // namespace pw
