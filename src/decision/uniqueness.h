// The uniqueness problem UNIQ(q) — Theorem 3.2.
//
//   input: c-database representing worlds; instance I; query q
//   question: is q(rep(database)) the singleton set {I}?
//
// Complexity landscape reproduced here:
//   - g-tables, identity query:                 PTIME (Thm 3.2(1))
//   - pos. existential views of e-tables:       PTIME (Thm 3.2(2))
//   - c-tables, identity:                       coNP-complete (Thm 3.2(3))
//   - pos. existential-with-!= views of tables: coNP-complete (Thm 3.2(4))
// The general case is UniquenessSearch. On the view's image (ViewImage,
// decision/view.h: the identity and positive existential views, != allowed)
// it decides MEMB plus "no world differs from I", written as implications
// over the rows' interned conditions and decided on ChoiceCnf
// (condition/backend.h); only other views enumerate worlds
// (ForEachViewImage).

#ifndef PW_DECISION_UNIQUENESS_H_
#define PW_DECISION_UNIQUENESS_H_

#include <optional>

#include "core/instance.h"
#include "decision/view.h"
#include "tables/ctable.h"

namespace pw {

/// PTIME uniqueness for g-table databases (Thm 3.2(1)): normalize (substitute
/// every variable the global condition forces to a constant), then rep = {I}
/// iff the global condition is satisfiable, the matrix is ground, and the
/// matrix equals I. Returns std::nullopt when some local condition is
/// non-trivial (not a g-table database).
std::optional<bool> UniqGTables(const CDatabase& database,
                                const Instance& instance);

/// PTIME uniqueness for positive existential views of e-table databases
/// (Thm 3.2(2), via the Imielinski–Lipski c-table construction):
///   (alpha) every fact of I is a certain answer of the view, and
///   (beta)  for every row (t, phi) of the result c-table and every DNF
///           disjunct of phi, the e-table obtained from the full result
///           matrix with the disjunct's equalities incorporated represents
///           exactly {I}.
/// Returns std::nullopt when the query is not positive existential (without
/// !=) or the database is not an e-table database (kind above e-table).
std::optional<bool> UniqPosExistentialView(const RaQuery& query,
                                           const CDatabase& database,
                                           const Instance& instance);

/// Exact uniqueness for arbitrary views of c-databases. Over the view's
/// image (ViewImage: the database itself for the identity, the
/// Imielinski–Lipski image for a positive existential view, != allowed): I
/// is a world (Membership) and no world differs from I, i.e. no row is on
/// while landing on no fact of I, and every fact of I is certain. Each of
/// these is an implication over the rows' interned conditions, decided on
/// ChoiceCnf by ConjImpliesDisjunction (condition/backend.h). Any other
/// view enumerates worlds (ForEachViewImage, up to fresh-constant renaming)
/// and compares each image against I. Worst case exponential — the problem
/// is coNP-complete already for a single c-table with the identity query.
bool UniquenessSearch(const View& view, const CDatabase& database,
                      const Instance& instance);

/// Dispatcher: PTIME special cases when applicable, else search.
bool Uniqueness(const View& view, const CDatabase& database,
                const Instance& instance);

}  // namespace pw

#endif  // PW_DECISION_UNIQUENESS_H_
