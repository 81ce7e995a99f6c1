// The membership problem MEMB(q) — Theorem 3.1.
//
//   input: instance I0; c-database representing a set of worlds; query q
//   question: is I0 in q(rep(database))?
//
// Complexity landscape reproduced here:
//   - Codd-tables, identity query: PTIME via bipartite matching (Thm 3.1(1))
//   - e-/i-/g-/c-tables, identity:  NP-complete (Thm 3.1(2,3)); exact
//     search over row-to-fact choices (ChoiceCnf, condition/backend.h)
//   - views of tables:              NP-complete (Thm 3.1(4)); the same
//     search on the view's image (ViewImage, decision/view.h), else
//     enumeration of valuations (up to fresh-constant renaming)

#ifndef PW_DECISION_MEMBERSHIP_H_
#define PW_DECISION_MEMBERSHIP_H_

#include <optional>

#include "core/instance.h"
#include "decision/view.h"
#include "tables/ctable.h"

namespace pw {

/// PTIME membership for Codd-table databases (paper's algorithm, reduction
/// to maximum bipartite matching). Returns std::nullopt if `database` is not
/// a Codd-table database (conditions present, or some variable occurs more
/// than once across all tuples).
std::optional<bool> MembershipCoddTables(const CDatabase& database,
                                         const Instance& instance);

/// The matching both Codd-table front ends decide by (Thm 3.1(1) and
/// 5.1(1)): true iff distinct rows of `table` map onto all the facts of
/// `relation`, on the graph that joins a row to every fact it unifies with.
/// With `every_row_lands`, false as soon as a row unifies with no fact.
/// `table` and `relation` have the same arity.
bool CoddRowsCoverFacts(const CTable& table, const Relation& relation,
                        bool every_row_lands);

/// Exact membership for arbitrary c-databases, as clauses of the decision
/// layer's one search (ChoiceCnf) over the combined global condition: per
/// row whose local can hold, "the row lands on a unifiable fact of the
/// instance (tuple = fact AND local), or is off (one local atom is
/// false)"; per fact of the instance, "some row produces it". Worst case
/// exponential (the problem is NP-complete already for a single e-table or
/// i-table).
bool MembershipSearch(const CDatabase& database, const Instance& instance);

/// Dispatcher: matching-based PTIME algorithm when the database is a vector
/// of Codd-tables, exact search otherwise.
bool Membership(const CDatabase& database, const Instance& instance);

/// MEMB(q): is `instance` in q(rep(database))? Membership on the view's
/// image (ViewImage) when it has one; otherwise enumerates satisfying
/// valuations over Delta union Delta' and compares view images.
bool MembershipInView(const View& view, const CDatabase& database,
                      const Instance& instance);

}  // namespace pw

#endif  // PW_DECISION_MEMBERSHIP_H_
