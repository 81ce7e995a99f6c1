#include "tables/updates.h"

#include <cassert>
#include <utility>

namespace pw {

namespace {

ConditionInterner& InternerOf(const UpdateOptions& options) {
  return options.interner != nullptr ? *options.interner
                                     : ConditionInterner::Global();
}

/// True iff `fact` has the table's arity. Unconditional (not assert-only):
/// these are public entry points, and in NDEBUG builds a wrong-size fact
/// would otherwise be read past (delete) or appended as a malformed row.
bool FitsTable(const CTable& table, const Fact& fact) {
  assert(static_cast<int>(fact.size()) == table.arity());
  return static_cast<int>(fact.size()) == table.arity();
}

/// One guarded deletion copy under construction: the row with `cond`
/// conjoined — `gcond` is the copy's condition together with the table's
/// global condition, the key the antichain compares on.
struct GuardedCopy {
  ConjId cond = ConditionInterner::kTrueConj;
  ConjId gcond = ConditionInterner::kTrueConj;
};

/// The interner-pruned guarded copies of deleting `fact` from `row`:
/// per escapable position one candidate condition row.local() AND
/// row[i] != fact[i]; candidates unsatisfiable together with the global
/// condition are dropped, and only the antichain of weakest conditions
/// survives (first-seen order breaks ties, so the output is deterministic).
/// Returns interned condition ids, deduplicated.
std::vector<ConjId> PrunedGuardedCopies(const CRow& row, const Fact& fact,
                                        ConjId global_id,
                                        ConditionInterner& interner) {
  ConjId row_id = row.LocalId(interner);
  std::vector<GuardedCopy> copies;
  for (size_t i = 0; i < row.tuple.size(); ++i) {
    CondAtom differs = Neq(row.tuple[i], Term::Const(fact[i]));
    if (IsTriviallyFalse(differs)) continue;
    ConjId cand = interner.And(row_id, interner.Intern(Conjunction{differs}));
    ConjId gcand = interner.And(global_id, cand);
    if (!interner.Satisfiable(gcand)) continue;  // holds in no world
    // Keep only the weakest conditions: a candidate implied-or-equal to a
    // kept sibling is subsumed (any world it keeps the row in, the sibling
    // does too); a kept sibling the candidate weakens dies.
    bool subsumed = false;
    for (const GuardedCopy& kept : copies) {
      if (interner.Implies(gcand, kept.cond)) {
        subsumed = true;
        break;
      }
    }
    if (subsumed) continue;
    std::erase_if(copies, [&](const GuardedCopy& kept) {
      return interner.Implies(kept.gcond, cand);
    });
    copies.push_back(GuardedCopy{cand, gcand});
  }
  std::vector<ConjId> out;
  out.reserve(copies.size());
  for (const GuardedCopy& copy : copies) out.push_back(copy.cond);
  return out;
}

}  // namespace

CTable InsertFact(const CTable& table, const Fact& fact) {
  CTable out = table;
  InsertFactInPlace(out, fact);
  return out;
}

void InsertFactInPlace(CTable& table, const Fact& fact) {
  if (!FitsTable(table, fact)) return;
  table.AddRow(ToTuple(fact));
}

CTable InsertFactIf(const CTable& table, const Fact& fact,
                    const Conjunction& condition,
                    const UpdateOptions& options) {
  CTable out = table;
  InsertFactIfInPlace(out, fact, condition, options);
  return out;
}

bool InsertFactIfInPlace(CTable& table, const Fact& fact,
                         const Conjunction& condition,
                         const UpdateOptions& options) {
  if (!FitsTable(table, fact)) return false;
  ConditionInterner& interner = InternerOf(options);
  ConjId cond = interner.Intern(condition);
  if (!interner.Satisfiable(interner.And(table.GlobalId(interner), cond))) {
    return false;  // the fact would be present in no world
  }
  table.AddRow(ToTuple(fact), condition);
  return true;
}

CTable DeleteFact(const CTable& table, const Fact& fact,
                  const UpdateOptions& options) {
  CTable out = table;
  DeleteFactInPlace(out, fact, options);
  return out;
}

DeleteDelta DeleteFactInPlace(CTable& table, const Fact& fact,
                              const UpdateOptions& options) {
  DeleteDelta delta;
  if (!FitsTable(table, fact)) return delta;
  ConditionInterner& interner = InternerOf(options);
  ConjId global_id = table.GlobalId(interner);
  std::vector<CRow> rows;
  rows.reserve(table.num_rows());
  for (const CRow& row : table.rows()) {
    // If some position can never match the fact, the row can never equal
    // it: keep it unchanged (caches included).
    bool never_matches = false;
    for (size_t i = 0; i < row.tuple.size() && !never_matches; ++i) {
      never_matches = IsTriviallyTrue(Neq(row.tuple[i], Term::Const(fact[i])));
    }
    if (never_matches) {
      delta.kept.push_back(row);
      rows.push_back(row);
      continue;
    }
    // Otherwise emit the pruned guarded copies. A fully-ground row equal to
    // the fact emits nothing: deleted everywhere.
    std::vector<ConjId> copies =
        PrunedGuardedCopies(row, fact, global_id, interner);
    if (copies.size() == 1 && copies[0] == row.LocalId(interner)) {
      // The guards collapsed onto the row's own condition (e.g. the row's
      // forced equalities already contradict the fact): nothing changed.
      delta.kept.push_back(row);
      rows.push_back(row);
      continue;
    }
    delta.removed.push_back(row);
    for (ConjId cond : copies) {
      CRow copy(row.tuple, cond, interner);
      delta.added.push_back(copy);
      rows.push_back(std::move(copy));
    }
  }
  delta.changed = !delta.removed.empty() || !delta.added.empty();
  // An untouched table keeps its row storage and caches; a rewrite replaces
  // the rows wholesale (indexes rebuild on next use).
  if (delta.changed) table.ReplaceRows(std::move(rows));
  return delta;
}

}  // namespace pw
