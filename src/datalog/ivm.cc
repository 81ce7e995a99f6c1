#include "datalog/ivm.h"

#include <cassert>
#include <utility>

#include "tables/updates.h"

namespace pw {

MaterializedView::MaterializedView(DatalogProgram program, CDatabase base,
                                   MaterializedViewOptions options)
    : original_(std::move(program)),
      evaluated_(std::make_unique<DatalogProgram>(original_)),
      base_(std::move(base)),
      options_(options) {
  Initialize();
}

MaterializedView::MaterializedView(DatalogProgram program, CDatabase base,
                                   DatalogGoal goal,
                                   MaterializedViewOptions options)
    : original_(std::move(program)), goal_(std::move(goal)),
      base_(std::move(base)), options_(options) {
  MagicRewriteResult rewrite = MagicRewrite(original_, *goal_);
  options_.eval.magic_pred_begin = static_cast<int>(rewrite.magic_begin);
  evaluated_ = std::make_unique<DatalogProgram>(std::move(rewrite.program));
  goal_table_ = rewrite.goal_predicate;
  rules_adorned_ = rewrite.rules_adorned;
  magic_rules_ = rewrite.magic_rules;
  rules_pruned_ = rewrite.rules_pruned;
  Initialize();
}

void MaterializedView::Initialize() {
  ConditionInterner& interner = options_.eval.interner != nullptr
                                    ? *options_.eval.interner
                                    : ConditionInterner::Global();
  // Intern the global first so the fixpoint's interner-growth stat covers
  // evaluation only. Updates never touch table globals, so the id is fixed
  // for the view's life. The only place a database is seeded into a
  // fixpoint: the one-shot evaluators are views read once.
  global_id_ = base_.CombinedGlobalId(interner);
  fix_.emplace(*evaluated_, options_.eval);
  fix_->SetGlobal(global_id_);
  for (size_t p = 0;
       p < evaluated_->num_edb() && p < base_.num_tables(); ++p) {
    fix_->SeedTable(static_cast<int>(p), base_.table(p));
  }
  fix_->FireGroundRules();
  fix_->Run();
}

bool MaterializedView::ValidUpdate(int pred, const Fact& fact) const {
  // Unconditional (not assert-only): these are the public update entry
  // points, and an out-of-range predicate would otherwise index base_ and
  // the fixpoint state out of bounds in NDEBUG builds, and a wrong-size fact
  // would be seeded into the fixpoint as a malformed row.
  return pred >= 0 && static_cast<size_t>(pred) < evaluated_->num_edb() &&
         static_cast<size_t>(pred) < base_.num_tables() &&
         static_cast<int>(fact.size()) ==
             base_.table(static_cast<size_t>(pred)).arity();
}

void MaterializedView::Insert(int pred, const Fact& fact) {
  assert(ValidUpdate(pred, fact));
  if (!ValidUpdate(pred, fact)) return;
  ++stats_.updates_applied;
  InsertFactInPlace(base_.mutable_table(static_cast<size_t>(pred)), fact);
  if (fix_->Seed(pred, ToTuple(fact), ConditionInterner::kTrueConj)) {
    ++stats_.inserts_seeded;
    fix_->Run();
  }
  // A rejected seed (duplicate, subsumed, or unsatisfiable) changed nothing
  // derivable: the converged state already covers it.
}

bool MaterializedView::InsertIf(int pred, const Fact& fact,
                                const Conjunction& condition) {
  assert(ValidUpdate(pred, fact));
  if (!ValidUpdate(pred, fact)) return false;
  ++stats_.updates_applied;
  ConditionInterner& interner = fix_->interner();
  UpdateOptions update{.interner = &interner};
  if (!InsertFactIfInPlace(base_.mutable_table(static_cast<size_t>(pred)),
                           fact, condition, update)) {
    return false;
  }
  if (fix_->Seed(pred, ToTuple(fact), interner.Intern(condition))) {
    ++stats_.inserts_seeded;
    fix_->Run();
  }
  return true;
}

void MaterializedView::Delete(int pred, const Fact& fact) {
  assert(ValidUpdate(pred, fact));
  if (!ValidUpdate(pred, fact)) return;
  ++stats_.updates_applied;
  UpdateOptions update{.interner = &fix_->interner()};
  CTable& table = base_.mutable_table(static_cast<size_t>(pred));
  if (!DeleteFactInPlace(table, fact, update).changed) return;  // untouched

  // Over-delete/re-derive: clear every predicate whose derivations could
  // involve the changed table — the reachability-closed cone of head
  // dependencies, the changed table included — reseed the base rows, and
  // re-derive. Each clear rewound its own SCC, so Run() re-enumerates the
  // cone's strata against the intact rest; strata outside the cone read no
  // cleared predicate and see no delta.
  ++stats_.cone_rebuilds;
  const std::vector<bool> cone = fix_->analysis().Cone(pred);
  for (size_t p = 0; p < cone.size(); ++p) {
    if (!cone[p]) continue;
    const size_t dropped = fix_->ClearPredicate(static_cast<int>(p));
    if (static_cast<int>(p) == pred) continue;  // reseeded, not re-derived
    ++stats_.cone_predicates;
    stats_.rows_overdeleted += dropped;
  }
  fix_->SeedTable(pred, table);
  fix_->Run();
}

CDatabase MaterializedView::Materialized() const {
  CDatabase out;
  ConditionInterner& interner = fix_->interner();
  for (size_t p = 0; p < evaluated_->num_predicates(); ++p) {
    CTable t = fix_->Export(static_cast<int>(p));
    if (p == 0) {
      t.SetGlobal(base_.CombinedGlobal(), global_id_, interner);
    }
    out.AddTable(std::move(t));
  }
  return out;
}

CTable MaterializedView::Answers() const {
  ConditionInterner& interner = fix_->interner();
  // Unconditional (not assert-only): a full view has no goal, and a goal
  // that names no predicate of the program leaves goal_table_ out of range
  // (the rewrite demands nothing for it). Either way there are no answers.
  if (!goal_.has_value() || goal_table_ < 0 ||
      static_cast<size_t>(goal_table_) >= evaluated_->num_predicates()) {
    CTable empty(goal_.has_value()
                     ? static_cast<int>(goal_->bindings.size())
                     : 0);
    empty.SetGlobal(base_.CombinedGlobal(), global_id_, interner);
    return empty;
  }
  CTable result = RestrictTableToGoal(fix_->Export(goal_table_),
                                      goal_->bindings, global_id_, interner);
  result.SetGlobal(base_.CombinedGlobal(), global_id_, interner);
  return result;
}

IvmStats MaterializedView::stats() const {
  stats_.fixpoint = fix_->stats();
  stats_.fixpoint.rules_adorned = rules_adorned_;
  stats_.fixpoint.magic_rules = magic_rules_;
  stats_.fixpoint.rules_pruned = rules_pruned_;
  return stats_;
}

}  // namespace pw
