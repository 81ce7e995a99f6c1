// Incremental maintenance of conditioned DATALOG views under updates.
//
// A MaterializedView pairs a c-database of base (extensional) tables with
// the live fixpoint state of a DATALOG program over them
// (ilalgebra/datalog_ctable.h) and keeps the two in sync as facts are
// inserted and deleted through the Abiteboul–Grahne update semantics
// (tables/updates.h). The maintained state is *identical* — same tuples,
// same interned condition ids — to recomputing the fixpoint from scratch
// on the updated base, not merely rep()-equivalent; the differential suite
// pins this down across randomized update sequences.
//
// Why identity is attainable: the fixpoint keeps, per derived tuple, the
// antichain of weakest derivable conditions, and that antichain is a
// function of the derivable-condition *set* — insertion order cannot
// matter. So:
//
//   - Insertion seeds just the new base rows into the converged state and
//     resumes the semi-naive loop: only combinations involving the new
//     delta fire, and any stale stronger row is killed by the weaker mirror
//     derivation the delta produces. Cost scales with the insertion's
//     derivation cone, not the database (DRed's re-derivation half, with
//     subsumption standing in for support counting).
//
//   - Deletion rewrites the base table in place; one that changes no row
//     changes nothing derivable. Otherwise the view over-deletes everything:
//     ConditionedFixpoint::Reset drops every row, and construction's seeding
//     (every base table, the ground facts, a plain Run()) re-derives the
//     fixpoint from the updated base (`cone_rebuilds`) — DRed's
//     over-delete/re-derive pair at its coarsest grain, identical to a
//     recomputation because it is one, on the same interner and backend.
//
// Demand-restricted views compose with the magic-set transformation
// (datalog/magic.h): a view constructed with a goal evaluates the rewritten
// program instead, so updates maintain only demand-reachable facts, and
// `Answers()` restricts the goal predicate exactly as
// DatalogQueryOnCTables would.

#ifndef PW_DATALOG_IVM_H_
#define PW_DATALOG_IVM_H_

#include <memory>
#include <optional>
#include <vector>

#include "condition/interner.h"
#include "datalog/magic.h"
#include "datalog/program.h"
#include "ilalgebra/datalog_ctable.h"
#include "tables/ctable.h"

namespace pw {

/// Maintenance counters, cumulative over the view's lifetime.
struct IvmStats {
  size_t updates_applied = 0;   // Insert/InsertIf/Delete calls
  size_t inserts_seeded = 0;    // seeded rows admitted into the fixpoint
                                // (duplicates/subsumed/unsatisfiable seeds
                                // cost nothing further)
  size_t deletes_covered = 0;   // always 0 (every changing delete resets
                                // the fixpoint); goes with its last reader,
                                // the benchmark's datalog.covered_share
  size_t cone_rebuilds = 0;     // deletes that reset the fixpoint and
                                // re-derived it from the base
  size_t rows_overdeleted = 0;  // live intensional rows those resets
                                // dropped (the re-derivation bill)
  /// The underlying fixpoint's cumulative counters (rounds, derived rows,
  /// index builds/extends, ...), including the initial materialization.
  ConditionedFixpointStats fixpoint;
};

/// Knobs for a maintained view.
struct MaterializedViewOptions {
  /// Evaluation options for the underlying fixpoint. `magic_pred_begin` is
  /// overwritten by the goal constructor and kept by the full one (a full
  /// view of an already-rewritten program attributes its magic rows to the
  /// demand counters). A `max_derived_rows` budget counts every row the
  /// view derives in its life, re-derivations after deletes included; once
  /// it trips, `stats().fixpoint.budget_exhausted` is set and the view
  /// stops maintaining: it is a partial under-approximation.
  DatalogCTableOptions eval;
};

/// A DATALOG view over a c-database of base tables, kept materialized under
/// updates. Construction runs the initial fixpoint; Insert/InsertIf/Delete
/// apply an update to the owned base database *and* fold it into the live
/// state. Move-only; the interner (options or the thread-local global) must
/// outlive the view, and the view is single-owner: drive it from one
/// thread. A base table whose arity differs from its extensional
/// predicate's contributes no rows to the view.
class MaterializedView {
 public:
  /// Full view: maintains every predicate of `program` over `base`.
  MaterializedView(DatalogProgram program, CDatabase base,
                   MaterializedViewOptions options = {});

  /// Demand view: maintains the magic-set rewrite of `program` for `goal`,
  /// so only demand-reachable facts are derived and kept up to date;
  /// `Answers()` serves the goal's restricted answer table.
  MaterializedView(DatalogProgram program, CDatabase base, DatalogGoal goal,
                   MaterializedViewOptions options = {});

  MaterializedView(MaterializedView&&) noexcept = default;
  MaterializedView& operator=(MaterializedView&&) noexcept = default;

  /// Inserts the unconditioned ground fact into base predicate `pred` and
  /// folds the insertion forward through the view. An out-of-range `pred`
  /// (not a base/EDB predicate) or a fact whose size is not the table's
  /// arity is a no-op in all build modes (asserts in debug); the same holds
  /// for InsertIf (returns false) and Delete.
  void Insert(int pred, const Fact& fact);

  /// Conditional insertion (rep-wise: the fact joins exactly the worlds
  /// satisfying `condition`). Returns false — and changes nothing — when
  /// the condition cannot hold together with the table's global condition.
  bool InsertIf(int pred, const Fact& fact, const Conjunction& condition);

  /// Deletes the ground fact from base predicate `pred` (rep-wise:
  /// { I minus {fact} }) and maintains the view: a delete that rewrites no
  /// base row is free, and any other resets the fixpoint and re-derives it
  /// from the base.
  void Delete(int pred, const Fact& fact);

  /// The maintained fixpoint as a c-database, identical (tuples and
  /// interned condition ids, up to row order) to DatalogOnCTables on the
  /// current base. For a demand view this is the *rewritten* program's
  /// fixpoint — adorned and magic predicates included.
  CDatabase Materialized() const;

  /// Demand views only: the goal's restricted answers, identical to
  /// DatalogQueryOnCTables on the current base. A full view, or a demand
  /// view whose goal names no predicate of the program or has bindings not
  /// exactly as wide as its predicate, has no answers: an empty table (as
  /// wide as the goal's bindings), in all build modes.
  CTable Answers() const;

  /// The maintained base database (updates applied in place).
  const CDatabase& base() const { return base_; }

  /// The program the fixpoint evaluates: the one the view was built with,
  /// or for a demand view its magic rewrite (rule-free for a goal that
  /// demands nothing, MagicRewrite's goal of another width among them).
  const DatalogProgram& evaluated_program() const { return *evaluated_; }

  bool is_demand_view() const { return goal_.has_value(); }

  ConditionInterner& interner() const { return fix_->interner(); }

  /// Maintenance counters (the fixpoint sub-struct is refreshed per call;
  /// a demand view adds its rewrite's rules_adorned, magic_rules and
  /// rules_pruned).
  IvmStats stats() const;

 private:
  void Initialize();
  /// Seeds every base table and the ground facts into the fresh (or reset)
  /// fixpoint and runs it to convergence.
  void DeriveFromBase();
  /// True iff `pred` names a base (EDB) predicate with a backing table and
  /// `fact` has that table's arity — the unconditional precondition of the
  /// public update entry points.
  bool ValidUpdate(int pred, const Fact& fact) const;

  // Behind a pointer for address stability: the fixpoint keeps a reference
  // to the program it evaluates, which must survive moving the view.
  std::unique_ptr<DatalogProgram> evaluated_;
  std::optional<DatalogGoal> goal_;
  int goal_table_ = -1;
  // The rewrite's counts (demand views only), carried into stats().
  size_t rules_adorned_ = 0;
  size_t magic_rules_ = 0;
  size_t rules_pruned_ = 0;
  CDatabase base_;
  ConjId global_id_ = ConditionInterner::kTrueConj;
  // optional only for deferred construction (the fixpoint needs evaluated_
  // and the interned global first); engaged for the view's whole life.
  std::optional<ConditionedFixpoint> fix_;
  MaterializedViewOptions options_;
  mutable IvmStats stats_;
};

}  // namespace pw

#endif  // PW_DATALOG_IVM_H_
