// Conditioned DATALOG: evaluating pure DATALOG programs directly on
// c-databases.
//
// c-tables are closed under DATALOG queries as well: the fixpoint can be
// computed with *conditioned* facts (tuple, conjunction) whose conditions
// accumulate the join equalities and base-row conditions of a derivation —
// lineage, in modern terminology. Unlike the positive existential case
// (Theorem 5.2(1)), the resulting table may grow exponentially: the paper
// points this out ("This growth may be unavoidable for first order and
// DATALOG queries as indicated by the lower bounds"). Termination holds
// because conditions are drawn from the finite universe of canonical
// conjunctions over the atoms generated by the program and table terms;
// every (tuple, condition-id) pair is inserted at most once, and subsumed
// rows (same tuple, implied-or-equal condition already present) are pruned.
//
// Rows travel as interned condition ids (ConditionInterner): conjoining body
// conditions is the memoized pairwise And, duplicate derivations die on an
// id comparison, unsatisfiable branches are cut inside the join loop, and
// subsumption is the memoized pairwise implication. Evaluation is
// semi-naive — each round fires rules only against row combinations with at
// least one row from the previous round's delta — and scheduled stratum by
// stratum: the program's SCC condensation (datalog/analysis.h) runs in
// topological order, nonrecursive strata in a single pass and delta rounds
// confined to the current SCC's rules. A recursive stratum runs certain
// first: phase 1 runs its rounds while every conditional derivation is held
// back (or dropped, if its tuple has a true row), phase 2 admits the held
// ones as one delta and finishes with plain rounds. No conditional row is
// then propagated only to be killed or widened later by a true row of its
// tuple; the final rows are the same. The schedule is fixed at
// construction: rules the analysis marks dead (a rule that does not fit the
// program, a body predicate no rule chain can derive from the extensional
// database, or a textual duplicate of an earlier rule) never enter it. Body
// atoms with bound, constant-valued positions are matched through a
// per-predicate hash index on those positions (tables/tuple_index.h), built
// lazily and extended across rounds.

#ifndef PW_ILALGEBRA_DATALOG_CTABLE_H_
#define PW_ILALGEBRA_DATALOG_CTABLE_H_

#include <memory>
#include <optional>
#include <vector>

#include "condition/backend.h"
#include "condition/interner.h"
#include "datalog/program.h"
#include "tables/ctable.h"

namespace pw {

/// Statistics of a conditioned fixpoint run, including the interner-side
/// counters the bench tracks for the perf trajectory.
struct ConditionedFixpointStats {
  size_t rounds = 0;
  size_t strata = 0;              // SCC strata that fired at least one round
                                  // (cumulative across Run() calls)
  size_t dead_rules_skipped = 0;  // the analysis's dead rules with a body
                                  // that fit the program (underivable body
                                  // predicate or textual duplicate),
                                  // counted per SCC on every Run()
  size_t derived_rows = 0;        // rows kept across all predicates
  size_t subsumed_rows = 0;       // derivations dropped by subsumption
  size_t unsatisfiable_rows = 0;  // derivations dropped as inconsistent
  size_t duplicate_rows = 0;      // derivations suppressed by id equality
  size_t pruned_branches = 0;     // join subtrees cut by an unsat prefix,
                                  // including the antichain backend's
                                  // forced-null cuts, decided from the
                                  // accumulated condition's canonical form
                                  // without an interner call
  size_t delta_rows = 0;          // delta rows consumed across all rounds
  size_t interner_conjunctions = 0;  // interner growth during this run
  size_t index_builds = 0;        // body-atom indexes built from scratch
                                  // (one per predicate and bound-column
                                  // subset; never counts an extend)
  size_t index_extends = 0;       // index catch-ups on rows appended since
                                  // the index was built (mid-query appends
                                  // extend, they do not rebuild)
  size_t index_probes = 0;        // keyed probes during body-atom matching
  size_t index_hits = 0;          // candidate rows returned by those probes
  // Demand counters of the magic-set path (DatalogQueryOnCTables; all zero
  // on a plain fixpoint).
  size_t magic_facts = 0;     // demand rows kept across all magic predicates
  size_t rules_adorned = 0;   // guarded rules the rewrite emitted
  size_t magic_rules = 0;     // demand rules emitted, the seed included
  size_t rules_pruned = 0;    // source rules the rewrite dropped before
                              // adorning (dead or duplicate, per analysis)
  size_t demand_pruned = 0;   // magic derivations dropped as unsatisfiable —
                              // demand that can never hold, cut before any
                              // guarded body fires on it
  bool budget_exhausted = false;  // the max_derived_rows budget tripped: the
                                  // run stopped early and the result is a
                                  // partial under-approximation
};

/// Evaluation knobs for the conditioned fixpoint.
struct DatalogCTableOptions {
  /// Optional interner override. Leave null to use
  /// ConditionInterner::Global(). Interners are single-owner, so concurrent
  /// readers each run their own fixpoint over their own interner (the
  /// thread-local Global() does this).
  ConditionInterner* interner = nullptr;

  /// Which condition representation the fixpoint's rows travel in
  /// (condition/backend.h). kConjunctions keeps the paper's interned
  /// conjunctions with a per-tuple covering antichain — exponential at high
  /// condition diversity but free of diagram overhead below it.
  /// kDecisionDiagrams keeps ONE live row per tuple whose condition is a
  /// hash-consed decision diagram: same-tuple derivations merge via Or
  /// instead of growing an antichain, which collapses the diversity blowup.
  /// Exported c-tables are identical *per possible world* either way (the
  /// DD backend expands conditions back to satisfiable conjunctions at
  /// export); exact row identity across backends is not guaranteed — the
  /// admission order of derivations dropped as globally unsatisfiable can
  /// differ. kDefault resolves through the PW_CONDITION_BACKEND environment
  /// variable ("dd" selects diagrams), falling back to kConjunctions.
  ConditionBackendKind condition_backend = ConditionBackendKind::kDefault;

  /// Predicates at or past this id are magic (demand) predicates, so the
  /// fixpoint attributes their rows to the demand counters (magic_facts,
  /// demand_pruned). Set by the demand view (datalog/ivm.h) from the
  /// rewrite's predicate layout; -1 (the default) means no predicate is
  /// magic.
  int magic_pred_begin = -1;

  /// Nonzero caps the rows the fixpoint may derive (seeds included), and
  /// meters join-loop row visits and subsumption-bucket scans against 64x
  /// this value — so evaluation also stops when the work explodes without
  /// accumulating kept rows. When either cap trips, evaluation stops early,
  /// `stats.budget_exhausted` is set, and the result is a partial
  /// under-approximation of the fixpoint. Conditioned fixpoints can grow
  /// exponentially (the paper: "this growth may be unavoidable"), so
  /// speculative callers — e.g. the demand-path possibility procedure — set
  /// a budget and fall back to another algorithm on exhaustion. 0 (the
  /// default) means unlimited.
  size_t max_derived_rows = 0;
};

/// Re-enterable conditioned-fixpoint state — the engine behind
/// MaterializedView (datalog/ivm.h), which seeds per-predicate deltas and
/// resumes the semi-naive loop across update boundaries instead of
/// recomputing from scratch. DatalogOnCTables and DatalogQueryOnCTables are
/// views read once.
///
/// Lifecycle: construct, `Seed`/`SeedTable` rows (they form the pending
/// delta), `FireGroundRules` once on a fresh state, `Run()` to convergence,
/// `Export` results — then `Seed` more rows (newly inserted base facts) and
/// `Run()` again: the loop fires rules only against combinations involving
/// the new delta, which is exactly the semi-naive invariant, so a converged
/// state absorbs an insertion in time proportional to its derivation cone.
/// Within one Run(), each recursive stratum takes the two phases above; a
/// held derivation counts once (admitted, subsumed or duplicate), and a
/// budget trip drops the held list.
/// Each predicate carries one consumed mark, the row count at the last
/// converged Run(); a stratum's delta is every predicate's rows past it. A
/// stratum reads only predicates of its own or lower strata, which no later
/// stratum grows, so the mark is where every stratum reading the predicate
/// stopped. A view delete that changes its table calls `Reset()` and then
/// construction's seeding again: every base table, FireGroundRules, Run().
///
/// The duplicate-suppression map, subsumption antichain, and per-predicate
/// tuple indexes all persist across Run() calls until a Reset(); the program
/// and the options' interner must outlive the fixpoint. The fixpoint, its
/// condition backend and its interner are single-owner: drive them from the
/// interner's thread (the diagram backend is shared by every diagram
/// fixpoint on the interner).
class ConditionedFixpoint {
 public:
  explicit ConditionedFixpoint(const DatalogProgram& program,
                               const DatalogCTableOptions& options = {});
  ~ConditionedFixpoint();
  ConditionedFixpoint(ConditionedFixpoint&&) noexcept;
  ConditionedFixpoint& operator=(ConditionedFixpoint&&) noexcept;

  /// The interner every condition id refers to (options.interner or the
  /// thread-local global).
  ConditionInterner& interner() const;

  /// The condition backend this fixpoint's rows travel in
  /// (MakeConditionBackend of options.condition_backend over interner()).
  /// The fixpoint does not own it alone: on diagrams it is the interner's
  /// manager (ConditionInterner::DDManager), shared with every other diagram
  /// fixpoint on the interner, and the fixpoint's reference keeps it alive
  /// past the interner's Clear().
  ConditionBackend& backend() const;

  /// Sets the global condition id derivations are checked against
  /// (default: the true conjunction).
  void SetGlobal(ConjId global_id);

  /// Seeds one row into `pred`, duplicate/subsumption-checked like any
  /// derivation; seeded rows join the pending delta of the next Run().
  /// Returns true iff the row was admitted (not a duplicate, not subsumed,
  /// not unsatisfiable with the global condition). An out-of-range `pred`
  /// or a tuple whose size is not `pred`'s arity is rejected (returns
  /// false) in all build modes. Seed extensional predicates: the schedule
  /// is fixed at construction from the analysis, so a rule whose body names
  /// an intensional predicate no rule chain derives stays unscheduled even
  /// when that predicate is seeded directly.
  bool Seed(int pred, const Tuple& tuple, ConjId cond);

  /// Seeds every row of `table` into `pred` (the rows' interned ids are
  /// memoized on the rows, so re-seeding the same table costs hash lookups).
  /// Rows Seed would reject for their width or predicate are skipped, so a
  /// table whose arity differs from `pred`'s contributes no rows.
  void SeedTable(int pred, const CTable& table);

  /// Fires the program's empty-body rules (ground facts). Call once on a
  /// fresh or reset state, before its first Run().
  void FireGroundRules();

  /// Runs the stratum-scheduled semi-naive loop to convergence over the
  /// pending deltas. Once a max_derived_rows budget trips
  /// (stats().budget_exhausted), the state is a partial under-approximation
  /// and Seed, SeedTable, FireGroundRules and Run() do nothing more.
  void Run();

  /// Drops every predicate's rows, dedup map, delta window and index cache
  /// (a view delete's over-delete) and returns how many intensional rows
  /// were live. The rule schedule, the global condition, the backend, the
  /// budget and the cumulative stats stay: the state is a fresh one to seed.
  size_t Reset();

  /// The live rows of `pred` as a c-table with hot id caches (no global
  /// condition attached). An out-of-range `pred` exports an empty arity-0
  /// table, in all build modes.
  CTable Export(int pred) const;

  /// Cumulative counters across every Run() on this state.
  const ConditionedFixpointStats& stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Restricts a predicate's c-table to a goal binding — the final step of
/// DatalogQueryOnCTables, exposed so maintained demand views (datalog/ivm.h)
/// can serve answers from their live fixpoint state. Rows whose tuple
/// clashes with a bound constant are dropped, matching a bound constant
/// against a null records the equality in the row's condition, tuple terms
/// resolve to their representatives under the condition's forced equalities,
/// rows unsatisfiable together with `global_id` are dropped, and per tuple
/// only the weakest conditions survive (a covering antichain, so the result
/// is canonical regardless of row order). No global condition is attached.
/// Bindings not exactly as wide as the table match no row: the result is an
/// empty table as wide as the bindings, in all build modes.
CTable RestrictTableToGoal(const CTable& table,
                           const std::vector<std::optional<ConstId>>& bindings,
                           ConjId global_id, ConditionInterner& interner);

/// Computes the conditioned least fixpoint of `program` over `database`:
/// one c-table per predicate (extensional tables are carried through), such
/// that for every valuation sigma satisfying the combined global condition,
/// applying sigma to the result gives exactly the DATALOG fixpoint of the
/// world sigma(database). The input must be condition-free in its rule
/// bodies' extensional predicates only in the sense of Definition 2.2 —
/// i.e. any c-database works.
///
/// A full MaterializedView (datalog/ivm.h) read once. The result carries
/// the input's combined global condition. `stats` is optional. A table
/// whose arity differs from its extensional predicate's contributes no rows
/// (see ConditionedFixpoint::SeedTable).
CDatabase DatalogOnCTables(const DatalogProgram& program,
                           const CDatabase& database,
                           ConditionedFixpointStats* stats = nullptr,
                           const DatalogCTableOptions& options = {});

/// Query-directed evaluation: the conditioned answers of one goal atom —
/// predicate `goal` with an optional constant binding per position
/// (`nullopt` = free). Returns a c-table of the goal's arity whose rows are exactly the
/// full fixpoint's rows for `goal`, restricted to the binding: rows whose
/// tuple clashes with a bound constant are dropped, matching a bound
/// constant against a null records the equality in the row's condition,
/// tuple terms are resolved to their representatives under the condition's
/// forced equalities (so a bound null position becomes the constant), rows
/// unsatisfiable together with the combined global condition are dropped,
/// and per-tuple the weakest conditions survive (the same subsumption
/// antichain the fixpoint keeps). The input's combined global condition is
/// attached.
///
/// The goal is evaluated through the magic-set rewrite (datalog/magic.h), as
/// a demand MaterializedView (datalog/ivm.h) whose Answers() are read once:
/// the conditioned fixpoint runs on the rewritten program, deriving only
/// demand-reachable facts — conditions flow into the magic facts, so demand
/// that cannot hold is pruned via the interner before guarded rule bodies
/// fire. Only the rewrite's goal table is exported (on diagrams, only it is
/// DNF-expanded); the adorned helper and magic tables stay inside the
/// fixpoint. The result is identical (up to row order) to
/// RestrictTableToGoal over DatalogOnCTables' goal table. `stats`
/// additionally reports the demand counters, and its interner growth
/// includes the goal restriction. A `goal` that names no predicate of
/// `program` (negative, or at least num_predicates), or whose `bindings` are
/// not exactly as wide as its predicate, is checked in all build modes
/// before anything is evaluated: the result is an empty table as wide as
/// `bindings`, with the global attached, and `stats` is zeroed.
CTable DatalogQueryOnCTables(const DatalogProgram& program,
                             const CDatabase& database, int goal,
                             const std::vector<std::optional<ConstId>>& bindings,
                             ConditionedFixpointStats* stats = nullptr,
                             const DatalogCTableOptions& options = {});

}  // namespace pw

#endif  // PW_ILALGEBRA_DATALOG_CTABLE_H_
