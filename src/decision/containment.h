// The containment problem CONT(q0, q) — Theorems 4.1, 4.2 and Fig. 2.
//
//   input: c-databases for the candidate-subset worlds (lhs) and the
//          candidate-superset worlds (rhs); queries q0 (lhs) and q (rhs)
//   question: q0(rep(lhs)) subseteq q(rep(rhs))?
//
// Upper bounds reproduced here:
//   - lhs g-tables, rhs Codd-tables : PTIME, by freezing (Thm 4.1(3))
//   - lhs g-tables, rhs e-tables    : NP, freezing + NP membership (4.1(2))
//   - any lhs view, rhs Codd-tables : coNP, forall-valuation loop with a
//                                     PTIME membership inside (Thm 4.1(1))
//   - general                       : Pi-2-p, forall-valuation loop with an
//                                     NP membership inside (Prop. 2.1(1))

#ifndef PW_DECISION_CONTAINMENT_H_
#define PW_DECISION_CONTAINMENT_H_

#include <optional>

#include "decision/view.h"
#include "tables/ctable.h"

namespace pw {

/// PTIME containment: lhs a g-table database, rhs a Codd-table database
/// (identity queries both sides). rep(lhs) subseteq rep(rhs) iff
/// Freeze(lhs, rhs constants) (tables/world_enum.h) is in rep(rhs), decided
/// by bipartite matching. Returns
/// std::nullopt if the inputs are outside this fragment.
std::optional<bool> ContGTablesInCoddTables(const CDatabase& lhs,
                                            const CDatabase& rhs);

/// NP containment: lhs a g-table database, rhs an e-table database
/// (identity queries). Freezing plus exact membership search. Returns
/// std::nullopt if the inputs are outside this fragment.
std::optional<bool> ContGTablesInETables(const CDatabase& lhs,
                                         const CDatabase& rhs);

/// coNP containment: any view of any lhs c-database, rhs a Codd-table
/// database with the identity query — ContainmentSearch's Codd-rhs case,
/// where each membership test inside is the PTIME matching algorithm.
/// Returns std::nullopt if rhs is not a Codd-table database.
std::optional<bool> ContViewInCoddTables(const View& lhs_view,
                                         const CDatabase& lhs,
                                         const CDatabase& rhs);

/// The general Pi-2-p procedure: for every valuation of the lhs (up to
/// fresh-constant renaming), test membership of the lhs image in the rhs
/// view. The rhs view's image (ViewImage, decision/view.h) is built once per
/// call, and each lhs world is tested with Membership on it; a rhs view
/// without one is searched world by world. Exponential in both input sizes
/// in the worst case — as the Pi-2-p-completeness results of Theorem 4.2
/// require.
bool ContainmentSearch(const View& lhs_view, const CDatabase& lhs,
                       const View& rhs_view, const CDatabase& rhs);

/// Dispatcher: the two identity-view front ends above when they apply, else
/// ContainmentSearch.
bool Containment(const View& lhs_view, const CDatabase& lhs,
                 const View& rhs_view, const CDatabase& rhs);

}  // namespace pw

#endif  // PW_DECISION_CONTAINMENT_H_
