// The one-shot queries over the conditioned fixpoint — the full fixpoint and
// the magic-set goal query, each a maintained view (datalog/ivm.h) read once
// — and the restriction of a predicate's table to a goal binding. Declared
// in ilalgebra/datalog_ctable.h beside the fixpoint they drive.
#include "ilalgebra/datalog_ctable.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "datalog/ivm.h"
#include "tables/tuple_index.h"

namespace pw {

namespace {

struct RestrictedRow {
  Tuple tuple;
  ConjId cond;
  bool alive = true;
};

/// True iff row (a_tuple, a_cond) *covers* row (b_tuple, b_cond): in every
/// world satisfying b's condition, a is present too and denotes the same
/// fact — b's condition implies a's, and forces each pair of differing
/// tuple positions equal. This generalizes the fixpoint's same-tuple
/// subsumption across tuples: the magic path derives instances whose tuples
/// carry demand values (e.g. (x,x) under x = 0) where the full path derives
/// the general row (0, x) — the instance's strictly stronger condition
/// forces the tuples to coincide, so it is redundant.
bool Covers(const Tuple& a_tuple, ConjId a_cond, const Tuple& b_tuple,
            ConjId b_cond, ConditionInterner& interner) {
  if (!interner.Implies(b_cond, a_cond)) return false;
  for (size_t i = 0; i < a_tuple.size(); ++i) {
    if (a_tuple[i] == b_tuple[i]) continue;
    CondAtom eq = Eq(a_tuple[i], b_tuple[i]);
    if (IsTriviallyFalse(eq) ||
        !interner.Implies(b_cond, interner.Intern(Conjunction{eq}))) {
      return false;
    }
  }
  return true;
}

}  // namespace

/// Rows whose tuple clashes with a bound constant are dropped, matching a
/// bound constant against a non-constant term conjoins the equality onto the
/// row's condition, rows unsatisfiable together with `global_id` are
/// dropped, every tuple term is resolved to its representative under the
/// condition's forced equalities (the interner's canonical form emits one
/// `rep = member` atom per class membership, `rep` on the left, so a bound
/// null position becomes the goal constant), and only rows not covered by
/// another row survive. Resolution plus the covering antichain make the
/// result canonical: mutually covering rows have equal condition ids and
/// therefore identical resolved tuples, so insertion order cannot matter —
/// which is exactly why the magic and full paths (and a maintained view and
/// its recomputation) restrict to *identical* row sets.
///
/// The antichain is bucketed by what resolution leaves in a tuple. A null
/// left in a resolved tuple is one the row's (satisfiable) condition does
/// not force to any constant, so it cannot force that null equal to a
/// constant either. Hence a ground row covers only rows with its identical
/// tuple (any differing position would pair its constant with a different
/// constant or with such a null), and a non-ground row is covered only by
/// non-ground rows. Kept rows are filed under their ground tuple or in one
/// non-ground list: a ground row is checked against its bucket and the
/// non-ground list and can kill only rows of its bucket; a non-ground row
/// is checked against the non-ground list and kills by a full scan. Only
/// pairs whose Covers is provably false are skipped, so the kept rows and
/// their order are those of the all-pairs antichain.
CTable RestrictTableToGoal(const CTable& table,
                           const std::vector<std::optional<ConstId>>& bindings,
                           ConjId global_id, ConditionInterner& interner) {
  std::vector<RestrictedRow> rows;
  std::unordered_map<Tuple, std::vector<size_t>, TupleHash> ground;
  std::vector<size_t> non_ground;

  for (const CRow& row : table.rows()) {
    ConjId cond = row.LocalId(interner);
    Tuple tuple = row.tuple;
    Conjunction eqs;
    bool mismatch = false;
    for (size_t i = 0; i < bindings.size() && i < tuple.size(); ++i) {
      if (!bindings[i].has_value()) continue;
      CondAtom eq = Eq(Term::Const(*bindings[i]), tuple[i]);
      if (IsTriviallyFalse(eq)) {
        mismatch = true;
        break;
      }
      if (!IsTriviallyTrue(eq)) eqs.Add(eq);
    }
    if (mismatch) continue;
    if (eqs.size() > 0) cond = interner.And(cond, interner.Intern(eqs));
    if (!interner.Satisfiable(interner.And(global_id, cond))) continue;
    // Resolve tuple terms through the condition's equality classes.
    for (const CondAtom& atom : interner.Resolve(cond).atoms()) {
      if (!atom.is_equality) continue;
      for (Term& t : tuple) {
        if (t == atom.rhs) t = atom.lhs;
      }
    }

    // Duplicates included: a row covers itself.
    auto covers_new = [&](size_t i) {
      const RestrictedRow& existing = rows[i];
      return existing.alive &&
             Covers(existing.tuple, existing.cond, tuple, cond, interner);
    };
    auto kill_covered = [&](size_t i) {
      RestrictedRow& existing = rows[i];
      if (existing.alive &&
          Covers(tuple, cond, existing.tuple, existing.cond, interner)) {
        existing.alive = false;
      }
    };
    const bool is_ground = std::all_of(
        tuple.begin(), tuple.end(), [](Term t) { return t.is_constant(); });
    std::vector<size_t>* bucket =
        is_ground ? &ground.try_emplace(tuple).first->second : nullptr;
    bool covered =
        is_ground && std::any_of(bucket->begin(), bucket->end(), covers_new);
    covered = covered ||
              std::any_of(non_ground.begin(), non_ground.end(), covers_new);
    if (covered) continue;
    if (is_ground) {
      std::for_each(bucket->begin(), bucket->end(), kill_covered);
      bucket->push_back(rows.size());
    } else {
      for (size_t i = 0; i < rows.size(); ++i) kill_covered(i);
      non_ground.push_back(rows.size());
    }
    rows.push_back(RestrictedRow{std::move(tuple), cond, true});
  }

  CTable out(table.arity());
  for (RestrictedRow& row : rows) {
    if (row.alive) out.AddRow(std::move(row.tuple), row.cond, interner);
  }
  return out;
}

CDatabase DatalogOnCTables(const DatalogProgram& program,
                           const CDatabase& database,
                           ConditionedFixpointStats* stats,
                           const DatalogCTableOptions& options) {
  MaterializedView view(program, database, {.eval = options});
  CDatabase out = view.Materialized();
  if (stats != nullptr) *stats = view.stats().fixpoint;
  return out;
}

CTable DatalogQueryOnCTables(const DatalogProgram& program,
                             const CDatabase& database, int goal,
                             const std::vector<std::optional<ConstId>>& bindings,
                             ConditionedFixpointStats* stats,
                             const DatalogCTableOptions& options) {
  // Unconditional (not assert-only): the rewrite and the fixpoint's tables
  // are indexed by the goal, so a goal that names no predicate answers with
  // no rows, and nothing is evaluated.
  if (goal < 0 || static_cast<size_t>(goal) >= program.num_predicates()) {
    ConditionInterner& interner = options.interner != nullptr
                                      ? *options.interner
                                      : ConditionInterner::Global();
    CTable empty(static_cast<int>(bindings.size()));
    empty.SetGlobal(database.CombinedGlobal(),
                    database.CombinedGlobalId(interner), interner);
    if (stats != nullptr) *stats = ConditionedFixpointStats{};
    return empty;
  }
  MaterializedView view(program, database, DatalogGoal{goal, bindings},
                        {.eval = options});
  CTable answers = view.Answers();
  if (stats != nullptr) *stats = view.stats().fixpoint;
  return answers;
}

}  // namespace pw
