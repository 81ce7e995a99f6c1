#include "decision/certainty.h"

#include "condition/backend.h"
#include "datalog/certain.h"
#include "ilalgebra/ctable_eval.h"
#include "tables/world_enum.h"

namespace pw {

namespace {

/// Wraps the identity over a c-database as the trivial DATALOG program
/// copy_p(x...) :- p(x...), so the identity view rides the same PTIME path.
std::pair<DatalogProgram, std::vector<int>> IdentityAsDatalog(
    const CDatabase& database) {
  size_t n = database.num_tables();
  std::vector<int> arities;
  for (size_t k = 0; k < n; ++k) arities.push_back(database.table(k).arity());
  for (size_t k = 0; k < n; ++k) arities.push_back(database.table(k).arity());
  DatalogProgram program(arities, /*num_edb=*/n);
  std::vector<int> outputs;
  for (size_t k = 0; k < n; ++k) {
    Tuple args;
    for (int i = 0; i < database.table(k).arity(); ++i) {
      args.push_back(Term::Var(static_cast<VarId>(i)));
    }
    DatalogRule rule;
    rule.head = {static_cast<int>(n + k), args};
    rule.body = {{static_cast<int>(k), args}};
    program.AddRule(std::move(rule));
    outputs.push_back(static_cast<int>(n + k));
  }
  return {std::move(program), std::move(outputs)};
}

}  // namespace

ConjId RowProducesFact(const CRow& row, const Fact& fact,
                       ConditionInterner& interner) {
  if (row.tuple.size() != fact.size()) return ConditionInterner::kFalseConj;
  Conjunction eqs;
  for (size_t i = 0; i < fact.size(); ++i) {
    CondAtom eq = Eq(row.tuple[i], Term::Const(fact[i]));
    if (IsTriviallyFalse(eq)) return ConditionInterner::kFalseConj;
    if (!IsTriviallyTrue(eq)) eqs.Add(eq);
  }
  ConjId local = row.LocalId(interner);
  return eqs.size() == 0 ? local : interner.And(local, interner.Intern(eqs));
}

bool CertainFactInTable(const CTable& table, const Fact& fact, ConjId global_id,
                        ConditionInterner& interner) {
  std::vector<ConjId> producers;
  for (const CRow& row : table.rows()) {
    ConjId cond = RowProducesFact(row, fact, interner);
    if (cond == ConditionInterner::kTrueConj) return true;  // in every world
    if (cond != ConditionInterner::kFalseConj) producers.push_back(cond);
  }
  return ConjImpliesDisjunction(interner, global_id, producers);
}

std::optional<bool> CertDatalogGTables(
    const View& view, const CDatabase& database,
    const std::vector<LocatedFact>& pattern) {
  // The O(1) view test first: an RA view declines without the O(rows) scan.
  if (!view.is_datalog() && !view.is_identity()) return std::nullopt;
  if (database.HasLocalConditions()) return std::nullopt;
  if (RepIsEmpty(database)) return true;  // vacuous

  const DatalogProgram* program = nullptr;
  const std::vector<int>* outputs = nullptr;
  DatalogProgram identity_program;
  std::vector<int> identity_outputs;
  if (view.is_identity()) {
    auto [p, o] = IdentityAsDatalog(database);
    identity_program = std::move(p);
    identity_outputs = std::move(o);
    program = &identity_program;
    outputs = &identity_outputs;
  } else {
    program = &view.datalog();
    outputs = &view.output_preds();
  }

  auto certain = DatalogCertainAnswers(*program, database);
  if (!certain) return std::nullopt;
  for (const LocatedFact& lf : pattern) {
    if (lf.relation >= outputs->size()) return false;
    int p = (*outputs)[lf.relation];
    if (!program->HasPredicate(p) || !certain->relation(p).Contains(lf.fact)) {
      return false;
    }
  }
  return true;
}

bool CertaintySearch(const View& view, const CDatabase& database,
                     const std::vector<LocatedFact>& pattern) {
  return ForEachViewImage(view, database, FactConstants(pattern),
                          [&pattern](const Instance& image) {
                            return ContainsAll(image, pattern);
                          });
}

bool Certainty(const View& view, const CDatabase& database,
               const std::vector<LocatedFact>& pattern) {
  if (auto fast = CertDatalogGTables(view, database, pattern)) return *fast;
  // Identity views, and positive existential views through their
  // Imielinski–Lipski image: one certain-fact implication per pattern fact.
  std::optional<CDatabase> image;
  if (view.is_ra() && view.IsPositiveExistential(/*allow_neq=*/true)) {
    image = EvalQueryOnCTables(view.ra(), database);
  }
  const CDatabase* rows =
      view.is_identity() ? &database : (image ? &*image : nullptr);
  if (rows == nullptr) return CertaintySearch(view, database, pattern);
  if (RepIsEmpty(database)) return true;  // vacuous
  ConditionInterner& interner = ConditionInterner::Global();
  ConjId global_id = rows->CombinedGlobalId(interner);
  for (const LocatedFact& lf : pattern) {
    if (lf.relation >= rows->num_tables() ||
        !CertainFactInTable(rows->table(lf.relation), lf.fact, global_id,
                            interner)) {
      return false;
    }
  }
  return true;
}

}  // namespace pw
