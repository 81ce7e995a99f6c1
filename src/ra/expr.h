// Relational algebra expressions.
//
// Positional algebra over the operators the paper uses (Section 2.1):
// project, (positive) select, product, union, renaming — all subsumed by a
// generalized projection — plus difference, which upgrades the positive
// existential fragment to full first order queries. Natural join is
// select-over-product. A constant relation operator covers queries whose
// heads emit constants (e.g. "... AND x = 0" in Theorem 4.2(2)).
//
// Expressions are immutable trees with shared subexpressions; `Query` is a
// vector of expressions, one per output relation (queries of arity
// (a1..an) -> (b1..bm)).

#ifndef PW_RA_EXPR_H_
#define PW_RA_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "core/relation.h"
#include "core/term.h"

namespace pw {

/// Operator tags.
enum class RaOp {
  kRel,       // input relation by index
  kProject,   // generalized projection (reorder / duplicate / constants)
  kSelect,    // conjunction of =/!= atoms over columns and constants
  kProduct,   // cartesian product
  kUnion,     // set union (same arity)
  kDiff,      // set difference (same arity) — leaves positive existential
  kConstRel,  // a fixed constant relation
};

/// One side of a select atom, or one output column of a projection: either a
/// column of the input or a constant.
struct ColOrConst {
  bool is_column = true;
  int column = 0;
  ConstId constant = 0;

  static ColOrConst Col(int c) { return {true, c, 0}; }
  static ColOrConst Const(ConstId k) { return {false, 0, k}; }

  friend bool operator==(const ColOrConst&, const ColOrConst&) = default;
};

/// A select atom `lhs (=|!=) rhs`.
struct SelectAtom {
  ColOrConst lhs;
  ColOrConst rhs;
  bool is_equality = true;

  static SelectAtom Eq(ColOrConst l, ColOrConst r) { return {l, r, true}; }
  static SelectAtom Neq(ColOrConst l, ColOrConst r) { return {l, r, false}; }

  friend bool operator==(const SelectAtom&, const SelectAtom&) = default;
};

/// An immutable relational algebra expression. Copy is O(1).
class RaExpr {
 public:
  /// Reference to input relation `index`, which must have arity `arity`.
  static RaExpr Rel(size_t index, int arity);

  /// Generalized projection; output column i is `outputs[i]` (an input
  /// column or a constant). Subsumes classical projection and renaming.
  static RaExpr Project(RaExpr input, std::vector<ColOrConst> outputs);

  /// Classical projection onto the given input columns.
  static RaExpr ProjectCols(RaExpr input, const std::vector<int>& columns);

  /// Selection by a conjunction of atoms.
  static RaExpr Select(RaExpr input, std::vector<SelectAtom> atoms);

  static RaExpr Product(RaExpr left, RaExpr right);
  static RaExpr Union(RaExpr left, RaExpr right);
  static RaExpr Diff(RaExpr left, RaExpr right);

  /// The fixed relation {facts}.
  static RaExpr ConstRel(Relation relation);

  /// Equi-join: product of `left` and `right` followed by selection of
  /// `left.col == right.col` for every pair in `on` (right columns are
  /// indexed from 0 in `right`).
  static RaExpr Join(RaExpr left, RaExpr right,
                     const std::vector<std::pair<int, int>>& on);

  RaOp op() const { return node_->op; }
  int arity() const { return node_->arity; }

  /// True iff every column the expression names is below its input's arity
  /// and the two sides of every union and difference have the same arity,
  /// in this node and every subexpression. Recorded at construction and
  /// checked in every build mode: evaluation reads an expression that does
  /// not fit as empty (ra::Eval) or declines it (EvalOnCTables).
  bool fits() const { return node_->fits; }

  // Accessors; meaningful per-op (see RaOp).
  size_t rel_index() const { return node_->rel_index; }
  const std::vector<ColOrConst>& outputs() const { return node_->outputs; }
  const std::vector<SelectAtom>& atoms() const { return node_->atoms; }
  const RaExpr& left() const { return node_->children[0]; }
  const RaExpr& right() const { return node_->children[1]; }
  const RaExpr& input() const { return node_->children[0]; }
  const Relation& const_relation() const { return node_->const_relation; }

  std::string ToString() const;

 private:
  struct Node {
    RaOp op;
    int arity = 0;
    bool fits = true;
    size_t rel_index = 0;
    std::vector<ColOrConst> outputs;
    std::vector<SelectAtom> atoms;
    std::vector<RaExpr> children;
    Relation const_relation;
  };

  explicit RaExpr(std::shared_ptr<const Node> node) : node_(std::move(node)) {}

  std::shared_ptr<const Node> node_;
};

/// A query with one output relation per expression.
using RaQuery = std::vector<RaExpr>;

}  // namespace pw

#endif  // PW_RA_EXPR_H_
