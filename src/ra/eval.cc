#include "ra/eval.h"

namespace pw {

namespace {

ConstId Resolve(const ColOrConst& o, const Fact& fact) {
  return o.is_column ? fact[o.column] : o.constant;
}

bool SatisfiesAtoms(const std::vector<SelectAtom>& atoms, const Fact& fact) {
  for (const SelectAtom& a : atoms) {
    ConstId l = Resolve(a.lhs, fact);
    ConstId r = Resolve(a.rhs, fact);
    if (a.is_equality ? (l != r) : (l == r)) return false;
  }
  return true;
}

}  // namespace

Relation Eval(const RaExpr& expr, const Instance& input) {
  if (!expr.fits()) return Relation(expr.arity());
  switch (expr.op()) {
    case RaOp::kRel:
      if (expr.rel_index() >= input.num_relations() ||
          input.relation(expr.rel_index()).arity() != expr.arity()) {
        return Relation(expr.arity());  // a reference that does not fit
      }
      return input.relation(expr.rel_index());
    case RaOp::kConstRel:
      return expr.const_relation();
    case RaOp::kProject: {
      Relation in = Eval(expr.input(), input);
      Relation out(expr.arity());
      for (const Fact& f : in) {
        Fact g;
        g.reserve(expr.outputs().size());
        for (const ColOrConst& o : expr.outputs()) g.push_back(Resolve(o, f));
        out.Insert(g);
      }
      return out;
    }
    case RaOp::kSelect: {
      Relation in = Eval(expr.input(), input);
      Relation out(expr.arity());
      for (const Fact& f : in) {
        if (SatisfiesAtoms(expr.atoms(), f)) out.Insert(f);
      }
      return out;
    }
    case RaOp::kProduct: {
      Relation l = Eval(expr.left(), input);
      Relation r = Eval(expr.right(), input);
      Relation out(expr.arity());
      for (const Fact& fl : l) {
        for (const Fact& fr : r) {
          Fact f = fl;
          f.insert(f.end(), fr.begin(), fr.end());
          out.Insert(f);
        }
      }
      return out;
    }
    case RaOp::kUnion:
      return Eval(expr.left(), input).UnionWith(Eval(expr.right(), input));
    case RaOp::kDiff: {
      Relation l = Eval(expr.left(), input);
      Relation r = Eval(expr.right(), input);
      Relation out(expr.arity());
      for (const Fact& f : l) {
        if (!r.Contains(f)) out.Insert(f);
      }
      return out;
    }
  }
  return Relation(expr.arity());
}

Instance EvalQuery(const RaQuery& query, const Instance& input) {
  std::vector<Relation> out;
  out.reserve(query.size());
  for (const RaExpr& e : query) out.push_back(Eval(e, input));
  return Instance(std::move(out));
}

}  // namespace pw
