#include "ra/properties.h"

#include <set>

namespace pw {

namespace {

void CollectConstants(const RaExpr& expr, std::set<ConstId>& out) {
  switch (expr.op()) {
    case RaOp::kRel:
      return;
    case RaOp::kConstRel:
      for (ConstId c : expr.const_relation().Constants()) out.insert(c);
      return;
    case RaOp::kProject:
      for (const ColOrConst& o : expr.outputs()) {
        if (!o.is_column) out.insert(o.constant);
      }
      CollectConstants(expr.input(), out);
      return;
    case RaOp::kSelect:
      for (const SelectAtom& a : expr.atoms()) {
        if (!a.lhs.is_column) out.insert(a.lhs.constant);
        if (!a.rhs.is_column) out.insert(a.rhs.constant);
      }
      CollectConstants(expr.input(), out);
      return;
    case RaOp::kProduct:
    case RaOp::kUnion:
    case RaOp::kDiff:
      CollectConstants(expr.left(), out);
      CollectConstants(expr.right(), out);
      return;
  }
}

}  // namespace

bool IsPositiveExistential(const RaExpr& expr, bool allow_neq) {
  switch (expr.op()) {
    case RaOp::kRel:
    case RaOp::kConstRel:
      return true;
    case RaOp::kProject:
      return IsPositiveExistential(expr.input(), allow_neq);
    case RaOp::kSelect:
      if (!allow_neq) {
        for (const SelectAtom& a : expr.atoms()) {
          if (!a.is_equality) return false;
        }
      }
      return IsPositiveExistential(expr.input(), allow_neq);
    case RaOp::kProduct:
    case RaOp::kUnion:
      return IsPositiveExistential(expr.left(), allow_neq) &&
             IsPositiveExistential(expr.right(), allow_neq);
    case RaOp::kDiff:
      return false;
  }
  return false;
}

bool IsPositiveExistential(const RaQuery& query, bool allow_neq) {
  for (const RaExpr& e : query) {
    if (!IsPositiveExistential(e, allow_neq)) return false;
  }
  return true;
}

bool UsesDifference(const RaExpr& expr) {
  switch (expr.op()) {
    case RaOp::kRel:
    case RaOp::kConstRel:
      return false;
    case RaOp::kProject:
    case RaOp::kSelect:
      return UsesDifference(expr.input());
    case RaOp::kProduct:
    case RaOp::kUnion:
      return UsesDifference(expr.left()) || UsesDifference(expr.right());
    case RaOp::kDiff:
      return true;
  }
  return false;
}

std::vector<ConstId> QueryConstants(const RaQuery& query) {
  std::set<ConstId> out;
  for (const RaExpr& e : query) CollectConstants(e, out);
  return {out.begin(), out.end()};
}

}  // namespace pw
