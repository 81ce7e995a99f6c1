// Evaluation of relational algebra on complete information databases.

#ifndef PW_RA_EVAL_H_
#define PW_RA_EVAL_H_

#include "core/instance.h"
#include "ra/expr.h"

namespace pw {

/// Evaluates `expr` on `input`. A relation reference that names no relation
/// of `input`, or one of another arity, reads as the empty relation of the
/// referenced arity, and an expression that does not fit (RaExpr::fits) as
/// the empty relation of its arity, in every build mode.
Relation Eval(const RaExpr& expr, const Instance& input);

/// Evaluates every expression of `query`, producing one output relation per
/// expression.
Instance EvalQuery(const RaQuery& query, const Instance& input);

}  // namespace pw

#endif  // PW_RA_EVAL_H_
