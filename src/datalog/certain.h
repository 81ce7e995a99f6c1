// Certain answers of DATALOG queries on g-tables — Theorem 5.3(1)
// (due to Imielinski & Lipski [10] and Vardi [17]).
//
// The algorithm "manipulates the matrix representation of the g-tables as if
// they were complete information databases": normalize the g-table
// (incorporate forced equalities), map each remaining variable to a fresh
// labeled null treated as an ordinary constant (Freeze, tables/world_enum.h;
// no null equals a constant of the database or the program), run the
// DATALOG fixpoint, and keep exactly the null-free facts. The global
// inequalities only prune valuations, so this is sound and — by the cited
// results — complete.

#ifndef PW_DATALOG_CERTAIN_H_
#define PW_DATALOG_CERTAIN_H_

#include <optional>

#include "core/instance.h"
#include "datalog/program.h"
#include "tables/ctable.h"

namespace pw {

/// Certain answers of `program` over the g-table database `database`:
/// the instance of facts contained in q(I) for every I in rep(database).
/// Intensional and extensional relations are both returned (extensional
/// certain facts are the ground tuples of the normalized matrix).
///
/// Returns std::nullopt if `database` is not a g-table database (some local
/// condition is non-trivial) — this PTIME algorithm only applies to g-tables
/// and below; use decision/certainty.h for the general coNP procedure.
///
/// If rep(database) is empty (unsatisfiable global condition), every fact is
/// certain vacuously; by convention we return the fixpoint over the full
/// matrix with variables kept, i.e. the caller should test RepIsEmpty first
/// for the vacuous case. (CertainFacts* helpers in decision/certainty.h do.)
std::optional<Instance> DatalogCertainAnswers(const DatalogProgram& program,
                                              const CDatabase& database);

}  // namespace pw

#endif  // PW_DATALOG_CERTAIN_H_
