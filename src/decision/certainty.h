// The certainty problems CERT(k, q) and CERT(*, q) — Theorem 5.3.
//
//   input: c-database; query q; a set of facts P
//   question: is P subseteq q(I) for every world I of rep(database)?
//
// Complexity landscape reproduced here:
//   - CERT(*, q) for DATALOG q on g-tables: PTIME (Thm 5.3(1), after [10,17])
//     by evaluating the fixpoint on the matrix as if complete
//   - CERT(*, q) for the identity and positive existential q on c-tables:
//     one implication per pattern fact over the rows of the view's image
//     (ViewImage, decision/view.h), exponential only in the rows that can
//     produce the fact
//   - CERT(1, q) for a first order q on a table: coNP-complete (Thm 5.3(2));
//     exact valuation enumeration
//   - CERT(*, q) is PTIME-equivalent to CERT(1, q) (Prop. 2.1(6)): the
//     tests and bench/thm53_certainty.cc check the reduction fact by fact.

#ifndef PW_DECISION_CERTAINTY_H_
#define PW_DECISION_CERTAINTY_H_

#include <optional>
#include <vector>

#include "condition/interner.h"
#include "core/instance.h"
#include "decision/view.h"
#include "tables/ctable.h"

namespace pw {

/// The interned condition under which `row` puts `fact` into a world: the
/// row's local condition AND tuple = fact. kFalseConj when the arities or a
/// constant position differ.
ConjId RowProducesFact(const CRow& row, const Fact& fact,
                       ConditionInterner& interner);

/// True iff `fact` is present in every world of `table` under `global_id`:
/// the implication  global -> OR over rows RowProducesFact(row, fact),
/// decided by ConjImpliesDisjunction over the rows' interned conditions,
/// without enumerating worlds or building a DNF. Exact for any c-table (an
/// unsatisfiable global makes everything vacuously certain, matching
/// rep-emptiness). The per-world oracle in tests/test_util.h cross-checks it.
bool CertainFactInTable(const CTable& table, const Fact& fact, ConjId global_id,
                        ConditionInterner& interner);

/// PTIME certainty for DATALOG views of g-table databases. If rep(database)
/// is empty the answer is vacuously true. Returns std::nullopt when the view
/// is not a DATALOG query (the identity included: Certainty decides it on
/// the database itself) or the database has local conditions.
std::optional<bool> CertDatalogGTables(const View& view,
                                       const CDatabase& database,
                                       const std::vector<LocatedFact>& pattern);

/// Exact certainty for arbitrary views of c-databases: enumerate satisfying
/// valuations and require P subseteq view(world) in all of them. coNP in
/// general.
bool CertaintySearch(const View& view, const CDatabase& database,
                     const std::vector<LocatedFact>& pattern);

/// Dispatcher: CertDatalogGTables when it applies, else CertainFactInTable
/// per pattern fact on ViewImage, else search.
bool Certainty(const View& view, const CDatabase& database,
               const std::vector<LocatedFact>& pattern);

}  // namespace pw

#endif  // PW_DECISION_CERTAINTY_H_
