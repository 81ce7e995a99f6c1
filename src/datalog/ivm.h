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
//   - Deletion first rewrites the base table in place and inspects the
//     row-level delta. If every removed row left no live trace in the
//     fixpoint — it was unsatisfiable under the global condition, or a
//     surviving row with the same tuple carries an implied-or-equal
//     (weaker) condition, mirroring exactly the evaluator's subsumption
//     rule — the converged state is already the from-scratch state of the
//     shrunken base, and the guarded replacement rows seed forward like an
//     insertion (`deletes_covered` in the stats). Otherwise the view
//     over-deletes: every predicate whose derivations could reach back to
//     the changed table (the reachability-closed *cone* of head
//     dependencies) is dropped wholesale and re-derived against the intact
//     remainder (`cone_rebuilds`) — the DRed over-delete/re-derive pair at
//     predicate granularity, which conditioned rows make affordable because
//     untouched predicates keep their rows, dedup maps, and tuple indexes.
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
  size_t deletes_covered = 0;   // deletes absorbed without over-deletion:
                                // every removed row had left no live trace
  size_t cone_rebuilds = 0;     // deletes that over-deleted and re-derived
  size_t cone_predicates = 0;   // predicates cleared across those rebuilds
  size_t rows_overdeleted = 0;  // live rows dropped by those clears (the
                                // re-derivation bill)
  /// The underlying fixpoint's cumulative counters (rounds, derived rows,
  /// index builds/extends, ...), including the initial materialization.
  ConditionedFixpointStats fixpoint;
};

/// Knobs for a maintained view.
struct MaterializedViewOptions {
  /// Evaluation options for the underlying fixpoint. `magic_pred_begin` is
  /// overwritten by the goal constructor; `max_derived_rows` budgets apply
  /// to the lifetime state (once exhausted the view stops maintaining —
  /// check `aborted()`).
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
  /// { I minus {fact} }) and maintains the view — the covered fast path
  /// when possible, the cone over-delete/re-derive otherwise.
  void Delete(int pred, const Fact& fact);

  /// The maintained fixpoint as a c-database, identical (tuples and
  /// interned condition ids, up to row order) to DatalogOnCTables on the
  /// current base. For a demand view this is the *rewritten* program's
  /// fixpoint — adorned and magic predicates included.
  CDatabase Materialized() const;

  /// Demand views only: the goal's restricted answers, identical to
  /// DatalogQueryOnCTables on the current base.
  CTable Answers() const;

  /// The maintained base database (updates applied in place).
  const CDatabase& base() const { return base_; }

  /// The program as constructed (pre-rewrite for demand views).
  const DatalogProgram& program() const { return original_; }

  /// The program the fixpoint actually evaluates (the magic rewrite for
  /// demand views, otherwise `program()`).
  const DatalogProgram& evaluated_program() const { return *evaluated_; }

  bool is_demand_view() const { return goal_.has_value(); }

  ConditionInterner& interner() const { return fix_->interner(); }

  /// True once a max_derived_rows budget tripped; the view is a partial
  /// under-approximation and further updates stop maintaining it.
  bool aborted() const { return fix_->aborted(); }

  /// Maintenance counters (the fixpoint sub-struct is refreshed per call).
  IvmStats stats() const;

 private:
  void Initialize();
  /// True iff `pred` names a base (EDB) predicate with a backing table and
  /// `fact` has that table's arity — the unconditional precondition of the
  /// public update entry points.
  bool ValidUpdate(int pred, const Fact& fact) const;
  /// Head predicates transitively derivable from `pred` (the fixpoint
  /// analysis's precomputed reachability cone, minus the reseeded `pred`
  /// itself), as a num_predicates mask.
  std::vector<bool> ConeOf(int pred) const;

  DatalogProgram original_;
  // Behind a pointer for address stability: the fixpoint keeps a reference
  // to the program it evaluates, which must survive moving the view.
  std::unique_ptr<DatalogProgram> evaluated_;
  std::optional<DatalogGoal> goal_;
  int goal_table_ = -1;
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
