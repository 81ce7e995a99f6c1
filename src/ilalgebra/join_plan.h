// N-ary join planning for the Imielinski–Lipski algebra.
//
// A conjunctive query over c-tables arrives as a tree of selections,
// projections and binary products in some arbitrary written shape —
// `select(product(product(a, b), c))`, nested selections, selections above
// projections of products, `RaExpr::Join` chains. All of them denote the
// same thing: an n-way join with a conjunctive predicate and an output
// projection. A one-leaf prefix (a select or project over one relation) and
// a product without a join key are the degenerate cases of that shape. This
// layer normalizes every such prefix and plans its execution:
//
//   1. *Flatten* the maximal select*/project* prefix over the n-ary product
//      tree into (leaves, conjunct set, output spec): leaves are the
//      subtrees the flattening treats as atomic (relation refs, constant
//      relations, unions, differences), conjuncts are every selection atom
//      rebased to the concatenated leaf coordinate space (atoms written
//      against a projection are composed through it), and the output spec
//      is the root's generalized projection over those coordinates.
//   2. *Partition* the conjuncts: an atom whose columns sit inside one leaf
//      becomes a pushdown filter applied to that leaf's rows before any
//      pairing; a cross-leaf column equality becomes a hash-join key;
//      everything else (cross-leaf inequalities, constant-only atoms) is a
//      residual applied per emitted combination.
//   3. *Order* the n-way join greedily at execution time, when the live
//      (post-pushdown) cardinalities are known: seed with the smallest leaf
//      touched by a join key (the smallest leaf when none is), then
//      repeatedly join the smallest leaf connected to the joined set
//      (falling back to the smallest remaining leaf — a cartesian step —
//      when a component is exhausted). Each keyed step indexes the new leaf
//      on its key columns and probes it with the partial combinations.
//   4. *Sink projections*: intermediate state is row-id combinations, so a
//      leaf column not needed by a join key, a conjunct, or the output spec
//      is never materialized above its leaf (`JoinPlan::needed`).
//
// Execution (ilalgebra/ctable_eval.cc) is the one executor of select,
// project and product. It emits the same rows, in the same order, as the
// Imielinski–Lipski rules applied to the original tree one operator at a
// time (testutil::NestedLoopImage in tests/test_util.h). Those rules
// enumerate surviving leaf-row combinations in lexicographic order of the
// leaf-id vector (each product iterates its left side outer), so sorting
// the planned combinations by that vector restores the order; the interned
// condition of a combination does not depend on the order its atoms are
// conjoined in. The join machinery itself is pure candidate pruning: it
// only skips combinations the selection would have dropped on a
// trivially-false ground atom or an unsatisfiable condition.
//
// The conditioned Datalog fixpoint's body-atom matcher plans its probes
// through this layer too (`PlanAtomProbe`): the bound, constant-valued
// positions of a body atom under a partial rule binding form the key of a
// per-predicate index probe.

#ifndef PW_ILALGEBRA_JOIN_PLAN_H_
#define PW_ILALGEBRA_JOIN_PLAN_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "core/term.h"
#include "core/tuple.h"
#include "ra/expr.h"

namespace pw {

/// One leaf of a flattened prefix: a subtree the flattening treats as
/// atomic. `base` is the leaf's first column in the concatenated coordinate
/// space of all leaves (leaf order is the tree's left-to-right order).
struct JoinLeaf {
  RaExpr expr;
  int base = 0;
  int arity = 0;
};

/// Where a conjunct of the normalized selection acts.
enum class ConjunctKind {
  kConstant,  // references no leaf column: decided once per plan
  kPushdown,  // columns of exactly one leaf: a per-leaf pre-filter
  kJoinKey,   // cross-leaf column equality: a hash-join key
  kResidual,  // any other cross-leaf atom: applied per combination
};

/// One atom of the normalized conjunct set, in concatenated coordinates.
struct JoinConjunct {
  SelectAtom atom;
  ConjunctKind kind = ConjunctKind::kResidual;
  std::vector<int> leaves;  // distinct leaves referenced, ascending
};

/// A normalized, partitioned n-way join (n >= 1).
struct JoinPlan {
  std::vector<JoinLeaf> leaves;
  int total_width = 0;                  // sum of leaf arities
  std::vector<int> col_leaf;            // concatenated column -> leaf index
  std::vector<ColOrConst> outputs;      // output spec, concatenated coords
  std::vector<JoinConjunct> conjuncts;  // normalized selection, tree order
  // Per leaf: its pushdown conjuncts rebased to leaf-local coordinates.
  std::vector<std::vector<SelectAtom>> pushdown;
  // Concatenated columns needed above the leaves (by a key, a conjunct, or
  // the output spec); a column with needed[c] == false is sunk — it never
  // appears in intermediate state.
  std::vector<bool> needed;
  // Plan-shape counters, consumed by CTableEvalStats.
  size_t conjuncts_pushed = 0;   // kPushdown + kConstant conjuncts
  size_t projections_sunk = 0;   // columns with needed[c] == false
};

/// Flattens and partitions the select*/project*/product prefix rooted at
/// `expr`. A root of any other operator is one leaf under the identity
/// output.
JoinPlan PlanJoin(const RaExpr& expr);

/// One step of the greedy join order. `steps[0]` is the seed (no key; its
/// `conjuncts` are the plan's constant conjuncts); every later step joins
/// `leaf` to the set of already-joined leaves, probing an index of the
/// leaf's rows on `build_cols` with keys drawn from the partial
/// combination's `probe_cols` (aligned pairwise; empty for a cartesian
/// step), then applies `conjuncts` — every not-yet-applied conjunct whose
/// leaves are now all joined, join keys included (their instantiation emits
/// the condition atoms a variable match requires).
struct JoinStep {
  int leaf = 0;
  std::vector<int> probe_cols;  // concatenated coords, already-joined side
  std::vector<int> build_cols;  // leaf-local coords, aligned to probe_cols
  std::vector<int> conjuncts;   // indices into JoinPlan::conjuncts
};

/// Orders the join greedily given the live (post-pushdown) row count of
/// each leaf: seed = smallest leaf incident to a join key (smallest leaf
/// when no leaf is), then repeatedly
/// the smallest leaf connected to the joined set (smallest remaining leaf,
/// as a cartesian step, when no connected one is left). Deterministic:
/// ties break toward the lower leaf index.
std::vector<JoinStep> OrderJoinSteps(const JoinPlan& plan,
                                     const std::vector<size_t>& leaf_rows);

/// A partial rule binding of the conditioned fixpoint's body-atom matcher:
/// rule variable -> table term, in binding order. A rule binds a handful of
/// variables, so the binding is a flat vector with a linear lookup, and
/// the matcher backtracks by truncating it to a saved size.
using RuleBinding = std::vector<std::pair<VarId, Term>>;

/// The term `var` is bound to, or nullptr if it is unbound.
inline const Term* FindBound(const RuleBinding& binding, VarId var) {
  for (const auto& [bound_var, term] : binding) {
    if (bound_var == var) return &term;
  }
  return nullptr;
}

/// The bound-position probe of one Datalog body atom under a partial rule
/// binding: `cols` are the atom positions whose value is a constant (a
/// constant argument, or a variable the binding maps to a constant — a
/// variable bound to a null cannot key a probe, since a null matches any
/// row under a condition), and `key` their values, aligned. Empty cols
/// means the atom cannot be probed and must scan.
struct AtomProbePlan {
  std::vector<int> cols;
  Tuple key;
};
AtomProbePlan PlanAtomProbe(const Tuple& args, const RuleBinding& binding);

}  // namespace pw

#endif  // PW_ILALGEBRA_JOIN_PLAN_H_
