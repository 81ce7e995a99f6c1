// Update operations on c-tables, after Abiteboul & Grahne, "Update
// semantics for incomplete databases" (VLDB 1985) — reference [1] of the
// paper.
//
// Updates act pointwise on the represented set of worlds:
//
//   rep(Insert(T, f)) = { I union {f}     : I in rep(T) }
//   rep(Delete(T, f)) = { I minus {f}     : I in rep(T) }
//
// Insertion is a new unconditioned ground row. Deletion of fact f rewrites
// each row (t, phi) into the rows (t, phi and t[i] != f[i]), one per
// position — the row survives exactly in the worlds where it differs from
// f somewhere. Conditions stay conjunctions, so the result remains a
// c-table of the same class-or-higher.
//
// The per-position expansion over-produces: a guarded copy whose
// condition contradicts the row's forced equalities (or the table's global
// condition) holds in no world, and sibling copies frequently subsume each
// other (e.g. deleting (1,1) from the row (x,x) emits the guard x != 1
// twice). Deletion prunes both through the interner — unsatisfiable copies
// are dropped, and per source row only the antichain of weakest guard
// conditions survives — which preserves rep() exactly and keeps repeated
// deletes idempotent at the row level.
//
// Every entry point checks that the fact has the table's arity; a fact of
// any other size leaves the table untouched (and asserts in debug builds).

#ifndef PW_TABLES_UPDATES_H_
#define PW_TABLES_UPDATES_H_

#include <vector>

#include "condition/interner.h"
#include "tables/ctable.h"

namespace pw {

/// Knobs for the update path.
struct UpdateOptions {
  /// Interner override; null uses ConditionInterner::Global(). Not
  /// thread-safe, like every interner use.
  ConditionInterner* interner = nullptr;
};

/// Insertion: appends the unconditioned ground row, so the table represents
/// { I union {fact} : I in rep(table) }. The table's cached tuple indexes
/// extend on next use instead of rebuilding.
void InsertFactInPlace(CTable& table, const Fact& fact);

/// Conditional insertion: the fact is present exactly in the worlds whose
/// valuations satisfy `condition` (in addition to the global condition). A
/// condition that cannot hold together with the table's global condition
/// adds no row (the fact would be present in no world). Returns true iff a
/// row was appended.
bool InsertFactIfInPlace(CTable& table, const Fact& fact,
                         const Conjunction& condition,
                         const UpdateOptions& options = {});

/// The row-level delta of a deletion, in terms of (tuple, local condition)
/// rows: `removed` rows were dropped or replaced by guarded copies, and
/// `added` holds copies of those guarded rows. A row whose guarded copies
/// collapse back onto it (the guard is implied by its own condition) is
/// unchanged, and appears in neither.
struct DeleteDelta {
  std::vector<CRow> removed;
  std::vector<CRow> added;
  /// True iff the table was rewritten (removed or added is nonempty).
  bool changed = false;
};

/// Deletion: rewrites the table to represent
/// { I minus {fact} : I in rep(table) } and reports the row-level delta.
/// A read-only pass first finds the rows the fact can match and their pruned
/// guarded copies (see above). When no row changes,
/// or the fact has the wrong arity, the table (and all its caches) is left
/// untouched and the delta is empty, with `changed` false. Otherwise each
/// rewritten row is replaced, in place in the row order, by its guarded
/// copies; every other row is moved, not copied, so its tuple storage and
/// id cache carry over. Cached indexes rebuild on next use.
DeleteDelta DeleteFactInPlace(CTable& table, const Fact& fact,
                              const UpdateOptions& options = {});

}  // namespace pw

#endif  // PW_TABLES_UPDATES_H_
