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

void InsertFactInPlace(CTable& table, const Fact& fact) {
  if (!FitsTable(table, fact)) return;
  table.AddRow(ToTuple(fact));
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

DeleteDelta DeleteFactInPlace(CTable& table, const Fact& fact,
                              const UpdateOptions& options) {
  DeleteDelta delta;
  if (!FitsTable(table, fact)) return delta;
  ConditionInterner& interner = InternerOf(options);
  ConjId global_id = table.GlobalId(interner);
  // Read-only pass: the rows the delete rewrites, with their guarded copies.
  struct Rewrite {
    size_t row;
    std::vector<ConjId> copies;
  };
  std::vector<Rewrite> rewrites;
  size_t num_copies = 0;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    const CRow& row = table.row(r);
    // If some position holds another constant, the row can never equal the
    // fact: it passes through unchanged. This is IsTriviallyTrue(Neq(row[i],
    // fact[i])) tested inline, because it runs for every row and column of
    // every delete and building the atom costs more than the test.
    bool never_matches = false;
    for (size_t i = 0; i < row.tuple.size() && !never_matches; ++i) {
      never_matches =
          row.tuple[i].is_constant() && row.tuple[i].constant() != fact[i];
    }
    if (never_matches) continue;
    // Otherwise the row becomes its pruned guarded copies. A fully-ground
    // row equal to the fact has none: deleted everywhere.
    std::vector<ConjId> copies =
        PrunedGuardedCopies(row, fact, global_id, interner);
    // Guards that collapsed onto the row's own condition (e.g. its forced
    // equalities already contradict the fact) leave it unchanged.
    if (copies.size() == 1 && copies[0] == row.LocalId(interner)) continue;
    num_copies += copies.size();
    rewrites.push_back({r, std::move(copies)});
  }
  // An untouched table keeps its row storage and caches.
  if (rewrites.empty()) return delta;
  // Rewrite in row order: untouched rows move over with their id caches,
  // and only the rewritten rows' tuples are copied, into their guarded
  // copies. The indexes rebuild on next use.
  std::vector<CRow> old_rows = table.TakeRows();
  std::vector<CRow> rows;
  rows.reserve(old_rows.size() - rewrites.size() + num_copies);
  auto next = rewrites.begin();
  for (size_t r = 0; r < old_rows.size(); ++r) {
    if (next == rewrites.end() || next->row != r) {
      rows.push_back(std::move(old_rows[r]));
      continue;
    }
    for (ConjId cond : next->copies) {
      rows.emplace_back(old_rows[r].tuple, cond, interner);
      delta.added.push_back(rows.back());
    }
    delta.removed.push_back(std::move(old_rows[r]));
    ++next;
  }
  delta.changed = true;
  table.ReplaceRows(std::move(rows));
  return delta;
}

}  // namespace pw
