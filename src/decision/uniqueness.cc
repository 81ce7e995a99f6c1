#include "decision/uniqueness.h"

#include <algorithm>
#include <numeric>
#include <span>

#include "condition/backend.h"
#include "condition/binding_env.h"
#include "condition/interner.h"
#include "decision/certainty.h"
#include "decision/membership.h"
#include "ilalgebra/ctable_eval.h"
#include "ra/eval.h"
#include "ra/properties.h"
#include "tables/world_enum.h"

namespace pw {

namespace {

/// rep(table's matrix under the equalities of `env`) == {relation}? The
/// PTIME core of Thm 3.2(1) after normalization: every null of the rows
/// must be forced to a constant, and the rows so grounded, sorted and
/// deduplicated, must be exactly the relation.
bool ForcedMatrixEquals(const CTable& table, const BindingEnv& env,
                        const Relation& relation) {
  if (table.arity() != relation.arity()) return false;
  // Row r grounded is cells[r * arity, (r + 1) * arity): one buffer, not a
  // fact per row.
  const size_t arity = static_cast<size_t>(table.arity());
  std::vector<ConstId> cells;
  cells.reserve(table.num_rows() * arity);
  for (const CRow& row : table.rows()) {
    for (const Term& t : row.tuple) {
      std::optional<ConstId> c = env.ValueOf(t);
      if (!c) return false;  // a free null: more than one world
      cells.push_back(*c);
    }
  }
  auto grounded = [&cells, arity](size_t r) {
    return std::span<const ConstId>(cells).subspan(r * arity, arity);
  };
  std::vector<size_t> rows(table.num_rows());
  std::iota(rows.begin(), rows.end(), size_t{0});
  std::ranges::sort(rows, std::ranges::lexicographical_compare, grounded);
  auto repeats = std::ranges::unique(rows, std::ranges::equal, grounded);
  rows.erase(repeats.begin(), repeats.end());
  return std::ranges::equal(rows, relation, std::ranges::equal, grounded);
}

/// Is there a world of rep(database) other than `instance`? One differs iff
/// (a) some row is on and lands outside the instance, or (b) some fact of
/// the instance is produced by no row. Each is a failed implication over the
/// rows' interned conditions, decided on the interner (whatever the
/// configured condition backend) by ConjImpliesDisjunction:
///   (a) global AND local(r) -> OR over f in I of RowProducesFact(r, f);
///   (b) global -> OR over rows r of RowProducesFact(r, f), for f in I.
bool ExistsWorldOtherThan(const CDatabase& database,
                          const Instance& instance) {
  if (database.num_tables() != instance.num_relations()) return true;
  ConditionInterner& interner = ConditionInterner::Global();
  ConjId global = database.CombinedGlobalId(interner);
  std::vector<ConjId> landings;
  for (size_t k = 0; k < database.num_tables(); ++k) {
    const CTable& table = database.table(k);
    const Relation& relation = instance.relation(k);
    if (table.arity() != relation.arity()) return true;
    for (const CRow& row : table.rows()) {
      ConjId on = interner.And(global, row.LocalId(interner));
      if (on == ConditionInterner::kFalseConj) continue;
      landings.clear();
      for (const Fact& f : relation) {
        ConjId cond = RowProducesFact(row, f, interner);
        if (cond != ConditionInterner::kFalseConj) landings.push_back(cond);
      }
      if (!ConjImpliesDisjunction(interner, on, landings)) return true;
    }
    for (const Fact& f : relation) {
      if (!CertainFactInTable(table, f, global, interner)) return true;
    }
  }
  return false;
}

}  // namespace

std::optional<bool> UniqGTables(const CDatabase& database,
                                const Instance& instance) {
  if (database.HasLocalConditions()) return std::nullopt;
  if (database.num_tables() != instance.num_relations()) return false;

  // Normalization: the combined global's congruence closure gives each
  // null the constant it forces, if any.
  BindingEnv env;
  for (size_t k = 0; k < database.num_tables(); ++k) {
    if (!env.Assert(database.table(k).global())) {
      return false;  // rep empty, never a singleton
    }
  }
  for (size_t k = 0; k < database.num_tables(); ++k) {
    if (!ForcedMatrixEquals(database.table(k), env, instance.relation(k))) {
      return false;
    }
  }
  return true;
}

std::optional<bool> UniqPosExistentialView(const RaQuery& query,
                                           const CDatabase& database,
                                           const Instance& instance) {
  if (!IsPositiveExistential(query, /*allow_neq=*/false)) return std::nullopt;
  if (database.Kind() > TableKind::kETable) return std::nullopt;
  if (query.size() != instance.num_relations()) return false;

  // Step (a): the c-table representation of the view, computed in PTIME.
  auto result = EvalQueryOnCTables(query, database);
  if (!result) return std::nullopt;

  // (alpha): every fact of I is certain. For positive existential queries on
  // e-tables, the certain answers are the null-free facts of the query over
  // the frozen database, whose nulls avoid the constants of I and of the
  // query: a fact of I is certain iff the query produces it there.
  {
    std::vector<ConstId> avoid = instance.Constants();
    for (ConstId c : QueryConstants(query)) avoid.push_back(c);
    Instance naive = EvalQuery(query, Freeze(database, avoid));
    for (size_t p = 0; p < instance.num_relations(); ++p) {
      for (const Fact& u : instance.relation(p)) {
        if (!naive.relation(p).Contains(u)) return false;  // not certain
      }
    }
  }

  // (beta): for each output table, each row t with local condition phi and
  // each DNF disjunct phi_i (our IL-algebra keeps conjunctions, so phi is its
  // own single disjunct): incorporate phi_i's equalities into the full
  // matrix and require the resulting e-table to represent exactly {I_p}.
  BindingEnv env;
  for (size_t p = 0; p < result->num_tables(); ++p) {
    const CTable& rt = result->table(p);
    for (const CRow& row : rt.rows()) {
      // Positive existential without != yields equality-only conjunctions.
      env.Revert(0);
      if (!env.Assert(row.local())) continue;  // row can never be on
      if (!ForcedMatrixEquals(rt, env, instance.relation(p))) return false;
    }
  }
  return true;
}

bool UniquenessSearch(const View& view, const CDatabase& database,
                      const Instance& instance) {
  if (RepIsEmpty(database)) return false;
  if (auto image = ViewImage(view, database)) {
    return Membership(*image, instance) &&
           !ExistsWorldOtherThan(*image, instance);
  }
  return ForEachViewImage(view, database, instance.Constants(),
                          [&instance](const Instance& image) {
                            return image == instance;
                          });
}

bool Uniqueness(const View& view, const CDatabase& database,
                const Instance& instance) {
  if (view.is_identity()) {
    if (auto fast = UniqGTables(database, instance)) return *fast;
  } else if (view.is_ra()) {
    if (auto fast = UniqPosExistentialView(view.ra(), database, instance)) {
      return *fast;
    }
  }
  return UniquenessSearch(view, database, instance);
}

}  // namespace pw
