// Syntactic fragment checks for relational algebra expressions.

#ifndef PW_RA_PROPERTIES_H_
#define PW_RA_PROPERTIES_H_

#include "ra/expr.h"

namespace pw {

/// True iff `expr` uses only project / select-with-= / product / union /
/// relation references / constant relations — the positive existential
/// queries of Section 2.1. With `allow_neq`, select atoms may also use !=
/// (the "positive existential with !=" fragment of Theorem 3.2(4)).
bool IsPositiveExistential(const RaExpr& expr, bool allow_neq = false);

/// True iff every expression of the query is positive existential.
bool IsPositiveExistential(const RaQuery& query, bool allow_neq = false);

/// True iff the expression contains a difference operator (i.e. needs the
/// full first order fragment).
bool UsesDifference(const RaExpr& expr);

/// All constants the query mentions (constant relations, select and
/// projection constants), sorted, deduplicated.
std::vector<ConstId> QueryConstants(const RaQuery& query);

}  // namespace pw

#endif  // PW_RA_PROPERTIES_H_
