// The possibility problems POSS(k, q) and POSS(*, q) — Theorems 5.1, 5.2.
//
//   input: c-database; query q; a set of facts P
//   question: is there a world I in q(rep(database)) with P subseteq I?
//
// Complexity landscape reproduced here:
//   - POSS(*, -) on Codd-tables: PTIME via bipartite matching (Thm 5.1(1))
//   - POSS(*, -) on e-/i-tables: NP-complete (Thm 5.1(2,3)); exact search
//   - POSS(k, q) for the identity and positive existential q on c-tables:
//     PTIME for fixed k on the view's c-table image (ViewImage,
//     decision/view.h: the database itself, or the Imielinski–Lipski image;
//     Thm 5.2(1))
//   - POSS(1, q) for first order / DATALOG q on tables: NP-complete
//     (Thm 5.2(2,3)); exact valuation enumeration

#ifndef PW_DECISION_POSSIBILITY_H_
#define PW_DECISION_POSSIBILITY_H_

#include <optional>
#include <vector>

#include "core/instance.h"
#include "decision/view.h"
#include "tables/ctable.h"

namespace pw {

/// PTIME unbounded possibility for Codd-table databases: P subseteq sigma(T)
/// for some sigma iff, per relation, a bipartite matching saturates the
/// pattern facts (each pattern fact handled by a distinct row; since each
/// variable occurs once, bindings never clash). Returns std::nullopt if the
/// database is not a Codd-table database.
std::optional<bool> PossUnboundedCoddTables(const CDatabase& database,
                                            const Instance& pattern);

/// PTIME (for fixed pattern size) bounded possibility for positive
/// existential queries on c-databases (Thm 5.2(1)): takes the query's
/// c-table image (ViewImage), then picks one producing image row per pattern
/// fact (ChoiceCnf, condition/backend.h) — O(rows^k) combinations. Returns
/// std::nullopt if the query is not positive existential (!= is allowed) or
/// does not fit the database.
std::optional<bool> PossBoundedPosExistential(
    const RaQuery& query, const CDatabase& database,
    const std::vector<LocatedFact>& pattern);

/// Demand-path possibility for DATALOG views: every pattern fact is a fully
/// bound goal atom, answered through the magic-set rewrite
/// (DatalogQueryOnCTables) — only demand-reachable conditioned facts are
/// derived, not the whole fixpoint. Each restricted row records the exact
/// condition under which its fact is in the view of a world, so the pattern
/// is possible iff some choice of one row per fact is satisfiable together
/// with the combined global condition (one ChoiceCnf clause per fact).
/// Exact over the infinite domain. Returns std::nullopt if the view is not
/// a DATALOG query, if the rewrite leaves some demanded predicate with an
/// all-free binding pattern (demand then degenerates to the full fixpoint —
/// the SAT-gadget shape), or if the demand evaluation exhausts its
/// derivation budget (conditioned fixpoints can grow exponentially — the
/// paper's lower bounds). In every nullopt case the dispatcher falls back
/// to the per-world search.
std::optional<bool> PossDatalogDemand(const View& view,
                                      const CDatabase& database,
                                      const std::vector<LocatedFact>& pattern);

/// Exact possibility for arbitrary views, by enumerating satisfying
/// valuations and testing P subseteq view(world). NP in general.
bool PossibilitySearch(const View& view, const CDatabase& database,
                       const std::vector<LocatedFact>& pattern);

/// Dispatcher for POSS(k, q): the assignment search of
/// PossBoundedPosExistential on the view's image (ViewImage), else
/// PossDatalogDemand for a DATALOG view, else search.
bool Possibility(const View& view, const CDatabase& database,
                 const std::vector<LocatedFact>& pattern);

/// Dispatcher for POSS(*, q) with the pattern given as an instance.
bool PossibilityUnbounded(const View& view, const CDatabase& database,
                          const Instance& pattern);

/// Flattens an instance into located facts (for moving between the bounded
/// and unbounded interfaces).
std::vector<LocatedFact> ToLocatedFacts(const Instance& pattern);

}  // namespace pw

#endif  // PW_DECISION_POSSIBILITY_H_
