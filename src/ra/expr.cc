#include "ra/expr.h"

#include <algorithm>

namespace pw {

namespace {

/// True iff `o` is a constant or a column below `arity`.
bool ColumnFits(const ColOrConst& o, int arity) {
  return !o.is_column || (o.column >= 0 && o.column < arity);
}

}  // namespace

RaExpr RaExpr::Rel(size_t index, int arity) {
  auto node = std::make_shared<Node>();
  node->op = RaOp::kRel;
  node->arity = arity;
  node->rel_index = index;
  return RaExpr(std::move(node));
}

RaExpr RaExpr::Project(RaExpr input, std::vector<ColOrConst> outputs) {
  auto node = std::make_shared<Node>();
  node->op = RaOp::kProject;
  node->arity = static_cast<int>(outputs.size());
  node->fits = input.fits() &&
               std::all_of(outputs.begin(), outputs.end(),
                           [&input](const ColOrConst& o) {
                             return ColumnFits(o, input.arity());
                           });
  node->outputs = std::move(outputs);
  node->children.push_back(std::move(input));
  return RaExpr(std::move(node));
}

RaExpr RaExpr::ProjectCols(RaExpr input, const std::vector<int>& columns) {
  std::vector<ColOrConst> outputs;
  outputs.reserve(columns.size());
  for (int c : columns) outputs.push_back(ColOrConst::Col(c));
  return Project(std::move(input), std::move(outputs));
}

RaExpr RaExpr::Select(RaExpr input, std::vector<SelectAtom> atoms) {
  auto node = std::make_shared<Node>();
  node->op = RaOp::kSelect;
  node->arity = input.arity();
  node->fits = input.fits() &&
               std::all_of(atoms.begin(), atoms.end(),
                           [&input](const SelectAtom& a) {
                             return ColumnFits(a.lhs, input.arity()) &&
                                    ColumnFits(a.rhs, input.arity());
                           });
  node->atoms = std::move(atoms);
  node->children.push_back(std::move(input));
  return RaExpr(std::move(node));
}

RaExpr RaExpr::Product(RaExpr left, RaExpr right) {
  auto node = std::make_shared<Node>();
  node->op = RaOp::kProduct;
  node->arity = left.arity() + right.arity();
  node->fits = left.fits() && right.fits();
  node->children.push_back(std::move(left));
  node->children.push_back(std::move(right));
  return RaExpr(std::move(node));
}

RaExpr RaExpr::Union(RaExpr left, RaExpr right) {
  auto node = std::make_shared<Node>();
  node->op = RaOp::kUnion;
  node->arity = left.arity();
  node->fits = left.fits() && right.fits() && left.arity() == right.arity();
  node->children.push_back(std::move(left));
  node->children.push_back(std::move(right));
  return RaExpr(std::move(node));
}

RaExpr RaExpr::Diff(RaExpr left, RaExpr right) {
  auto node = std::make_shared<Node>();
  node->op = RaOp::kDiff;
  node->arity = left.arity();
  node->fits = left.fits() && right.fits() && left.arity() == right.arity();
  node->children.push_back(std::move(left));
  node->children.push_back(std::move(right));
  return RaExpr(std::move(node));
}

RaExpr RaExpr::ConstRel(Relation relation) {
  auto node = std::make_shared<Node>();
  node->op = RaOp::kConstRel;
  node->arity = relation.arity();
  node->const_relation = std::move(relation);
  return RaExpr(std::move(node));
}

RaExpr RaExpr::Join(RaExpr left, RaExpr right,
                    const std::vector<std::pair<int, int>>& on) {
  int offset = left.arity();
  std::vector<SelectAtom> atoms;
  atoms.reserve(on.size());
  for (const auto& [l, r] : on) {
    atoms.push_back(SelectAtom::Eq(ColOrConst::Col(l),
                                   ColOrConst::Col(offset + r)));
  }
  return Select(Product(std::move(left), std::move(right)), std::move(atoms));
}

namespace {
std::string ColOrConstToString(const ColOrConst& o) {
  return o.is_column ? "#" + std::to_string(o.column)
                     : std::to_string(o.constant);
}
}  // namespace

std::string RaExpr::ToString() const {
  switch (op()) {
    case RaOp::kRel:
      return "R" + std::to_string(rel_index());
    case RaOp::kConstRel:
      return "{const:" + std::to_string(const_relation().size()) + "}";
    case RaOp::kProject: {
      std::string cols;
      for (size_t i = 0; i < outputs().size(); ++i) {
        if (i > 0) cols += ",";
        cols += ColOrConstToString(outputs()[i]);
      }
      return "pi[" + cols + "](" + input().ToString() + ")";
    }
    case RaOp::kSelect: {
      std::string conds;
      for (size_t i = 0; i < atoms().size(); ++i) {
        if (i > 0) conds += ",";
        conds += ColOrConstToString(atoms()[i].lhs) +
                 (atoms()[i].is_equality ? "=" : "!=") +
                 ColOrConstToString(atoms()[i].rhs);
      }
      return "sigma[" + conds + "](" + input().ToString() + ")";
    }
    case RaOp::kProduct:
      return "(" + left().ToString() + " x " + right().ToString() + ")";
    case RaOp::kUnion:
      return "(" + left().ToString() + " U " + right().ToString() + ")";
    case RaOp::kDiff:
      return "(" + left().ToString() + " - " + right().ToString() + ")";
  }
  return "?";
}

}  // namespace pw
