#include "decision/certainty.h"

#include "condition/backend.h"
#include "datalog/certain.h"
#include "tables/world_enum.h"

namespace pw {

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
  // The O(1) view test first: other views decline without the O(rows) scan.
  if (!view.is_datalog() || database.HasLocalConditions()) return std::nullopt;
  if (RepIsEmpty(database)) return true;  // vacuous
  const DatalogProgram& program = view.datalog();
  auto certain = DatalogCertainAnswers(program, database);
  if (!certain) return std::nullopt;
  for (const LocatedFact& lf : pattern) {
    if (lf.relation >= view.output_preds().size()) return false;
    int p = view.output_preds()[lf.relation];
    if (!program.HasPredicate(p) || !certain->relation(p).Contains(lf.fact)) {
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
  // One certain-fact implication per pattern fact on the view's image.
  auto image = ViewImage(view, database);
  if (!image) return CertaintySearch(view, database, pattern);
  if (RepIsEmpty(database)) return true;  // vacuous
  ConditionInterner& interner = ConditionInterner::Global();
  ConjId global_id = image->CombinedGlobalId(interner);
  for (const LocatedFact& lf : pattern) {
    if (lf.relation >= image->num_tables() ||
        !CertainFactInTable(image->table(lf.relation), lf.fact, global_id,
                            interner)) {
      return false;
    }
  }
  return true;
}

}  // namespace pw
