// The Imielinski–Lipski algebra: evaluating positive relational algebra
// directly on conditioned tables.
//
// c-tables are a *representation system* for positive existential queries
// (Imielinski & Lipski, JACM 1984): for every positive query q and c-table T
// one can compute, in PTIME in |T|, a c-table q^(T) with
//
//     rep(q^(T)) = q(rep(T))       (pointwise image of the worlds).
//
// This is the engine behind the PTIME bounded-possibility algorithm of
// Theorem 5.2(1) and the uniqueness algorithm of Theorem 3.2(2). Our
// transformation rules keep local conditions in conjunction form:
//
//   relation ref : copy rows (a query image shares the table instead when
//                  the copy would equal it; see EvalQueryOnCTables)
//   select       : conjoin the instantiated select atoms onto each local
//   project      : rewrite each tuple through the output spec
//   product      : pair rows, conjoin locals
//   union        : concatenate rows
//   const rel    : unconditioned ground rows
//
// (We do not merge duplicate projected rows, so no disjunctions arise; set
// semantics is recovered at instantiation time.)
//
// Local conditions travel as interned ids (condition/interner.h): every
// conjoin is a memoized pairwise And, and a row whose condition can never
// hold is dropped on the spot.
//
// Select, project and product have one executor. Every select*/project*
// prefix over an n-ary product tree — one leaf, RaExpr::Join chains, nested
// selections, selections above projections of products, products without
// an equi-join key — is normalized by the join planner
// (ilalgebra/join_plan.h) and executed as a greedily-ordered n-way join over
// the shared tuple-index layer (tables/tuple_index.h): one-leaf conjuncts
// are pushed down into the leaves, cross-leaf equalities key the probes, and
// projections are sunk below the joins (intermediate state is row-id
// combinations; a column not needed by a later key, a conjunct, or the
// output is never materialized). Rows are emitted in the order the rules
// above produce them one operator at a time, each product's left side
// outer; testutil::NestedLoopImage (tests/test_util.h) is that reference.

#ifndef PW_ILALGEBRA_CTABLE_EVAL_H_
#define PW_ILALGEBRA_CTABLE_EVAL_H_

#include <optional>

#include "condition/interner.h"
#include "ra/expr.h"
#include "tables/ctable.h"

namespace pw {

/// Counters of the join/index machinery of one evaluation. Attach via
/// CTableEvalOptions::stats; counters are accumulated (+=) so one sink can
/// span several calls.
struct CTableEvalStats {
  // Plan shape.
  size_t planned_joins = 0;       // select/project/product prefixes executed
  size_t planned_join_leaves = 0; // leaves across those prefixes
  size_t conjuncts_pushed = 0;    // conjuncts turned into leaf pre-filters
                                  // (one-leaf atoms and constant atoms)
  size_t projections_sunk = 0;    // leaf columns never materialized above
                                  // their leaf (not needed by a key, a
                                  // conjunct, or the output)
  // Join execution.
  size_t hash_joins = 0;        // keyed join steps executed through an index
  size_t index_builds = 0;      // tuple indexes built or rebuilt from
                                // scratch (never an extend)
  size_t index_extends = 0;     // cached indexes caught up on appended rows
  size_t index_probes = 0;      // keyed probes into a build-side index
  size_t index_hits = 0;        // candidate rows returned by those probes
  size_t join_pairs = 0;        // row pairs enumerated through the index
  size_t scan_pairs = 0;        // row pairs enumerated by scans (steps
                                // without a key, and non-ground-key
                                // fallbacks)
  size_t pushdown_dropped_rows = 0;  // leaf rows dropped by conjunct
                                     // pushdown before pairing
};

/// Evaluation knobs.
struct CTableEvalOptions {
  /// Optional interner override. Leave null to use the executing thread's
  /// ConditionInterner::Global() (interners are not thread-safe, so the
  /// override must not be shared across threads).
  ConditionInterner* interner = nullptr;

  /// Optional stats sink.
  CTableEvalStats* stats = nullptr;
};

/// Evaluates one positive existential expression on a c-database, producing
/// a c-table whose rep is the image of rep(database) under the expression
/// (the result table carries no global condition of its own; combine with
/// `database.CombinedGlobal()`). != select atoms are allowed (they become
/// inequality atoms in local conditions). Returns std::nullopt if the
/// expression is not positive existential (contains difference), if it
/// does not fit (RaExpr::fits: a column past its input's arity, a union of
/// two arities), or if a relation reference RaExpr::Rel(k, a) does not fit
/// the database: table k must exist and have arity a. Those checks hold in
/// every build mode.
std::optional<CTable> EvalOnCTables(const RaExpr& expr,
                                    const CDatabase& database,
                                    const CTableEvalOptions& options = {});

/// Evaluates a whole query. The resulting c-database carries the input's
/// combined global condition (attached to its first table, or to an empty
/// sentinel table when the query is empty). Returns std::nullopt if any
/// expression is not positive existential, does not fit, or has a relation
/// reference that does not fit the database (see EvalOnCTables).
///
/// Slot i of the result may be the input's table k itself, shared by
/// pointer, when query[i] is a bare RaExpr::Rel(k, a) and the copy
/// EvalOnCTables would build equals table k (operator==): no row's local
/// condition is unsatisfiable, every local is already the interner's
/// canonical form of its id, and table k's global is the one slot i
/// carries (the combined global in slot 0, none elsewhere). Otherwise the
/// slot is a copy. Sharing keeps value semantics through copy-on-write: the
/// result's mutable_table clones a shared or frozen table before writing.
/// An image of a snapshot (tables/snapshot.h) can thus hold that snapshot's
/// frozen tables, read-only, and outlive it.
std::optional<CDatabase> EvalQueryOnCTables(
    const RaQuery& query, const CDatabase& database,
    const CTableEvalOptions& options = {});

}  // namespace pw

#endif  // PW_ILALGEBRA_CTABLE_EVAL_H_
