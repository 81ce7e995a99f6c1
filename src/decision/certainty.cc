#include "decision/certainty.h"

#include <memory>
#include <set>

#include "datalog/certain.h"
#include "decision/world_csp.h"
#include "ilalgebra/ctable_eval.h"
#include "tables/world_enum.h"

namespace pw {

namespace {

bool HasLocalConditions(const CDatabase& database) {
  for (size_t k = 0; k < database.num_tables(); ++k) {
    for (const CRow& row : database.table(k).rows()) {
      if (!row.local().IsTautology()) return true;
    }
  }
  return false;
}

std::vector<ConstId> PatternConstants(const std::vector<LocatedFact>& pattern) {
  std::set<ConstId> seen;
  for (const LocatedFact& lf : pattern) {
    seen.insert(lf.fact.begin(), lf.fact.end());
  }
  return {seen.begin(), seen.end()};
}

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

bool CertainFactInTable(const CTable& table, const Fact& fact, ConjId global_id,
                        ConditionBackend& backend) {
  ConditionInterner& interner = backend.interner();
  CondId disj = ConditionBackend::kFalseCond;
  if (static_cast<size_t>(table.arity()) == fact.size()) {
    for (const CRow& row : table.rows()) {
      // The world contains `fact` through this row iff the row's condition
      // holds and every tuple position valuates to the fact's constant.
      Conjunction eqs;
      bool mismatch = false;
      for (size_t i = 0; i < fact.size(); ++i) {
        CondAtom eq = Eq(Term::Const(fact[i]), row.tuple[i]);
        if (IsTriviallyFalse(eq)) {
          mismatch = true;
          break;
        }
        if (!IsTriviallyTrue(eq)) eqs.Add(eq);
      }
      if (mismatch) continue;
      ConjId cond = row.LocalId(interner);
      if (eqs.size() > 0) cond = interner.And(cond, interner.Intern(eqs));
      if (cond == ConditionInterner::kFalseConj) continue;
      disj = backend.Or(disj, backend.FromConj(cond));
      if (disj == ConditionBackend::kTrueCond) break;  // already a tautology
    }
  }
  return backend.TautologyUnder(global_id, disj);
}

std::optional<bool> CertDatalogGTables(
    const View& view, const CDatabase& database,
    const std::vector<LocatedFact>& pattern) {
  // The O(1) view test first: an RA view declines without the O(rows) scan.
  if (!view.is_datalog() && !view.is_identity()) return std::nullopt;
  if (HasLocalConditions(database)) return std::nullopt;
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
    if (!certain->relation((*outputs)[lf.relation]).Contains(lf.fact)) {
      return false;
    }
  }
  return true;
}

bool CertaintySearch(const View& view, const CDatabase& database,
                     const std::vector<LocatedFact>& pattern) {
  bool certain = true;
  WorldEnumOptions options;
  options.extra_constants = PatternConstants(pattern);
  for (ConstId c : view.Constants()) options.extra_constants.push_back(c);
  ForEachWorld(database, options,
               [&view, &pattern, &certain](const Instance& world,
                                           const Valuation&) {
                 if (!ContainsAll(view.Eval(world), pattern)) {
                   certain = false;
                   return false;  // counterexample world
                 }
                 return true;
               });
  return certain;
}

bool Certainty(const View& view, const CDatabase& database,
               const std::vector<LocatedFact>& pattern) {
  if (auto fast = CertDatalogGTables(view, database, pattern)) return *fast;
  // c-tables with positive existential views: decide via the
  // Imielinski–Lipski image and a per-fact certainty tautology through the
  // configured condition backend (the per-fact "is it missing somewhere"
  // CSP, ExistsWorldMissingFact, stays as the cross-checked baseline).
  if (view.is_ra() && view.IsPositiveExistential(/*allow_neq=*/true)) {
    if (auto image = EvalQueryOnCTables(view.ra(), database)) {
      if (RepIsEmpty(database)) return true;  // vacuous
      ConditionInterner& interner = ConditionInterner::Global();
      std::unique_ptr<ConditionBackend> backend =
          MakeConditionBackend(ConditionBackendKind::kDefault, interner);
      ConjId global_id = image->CombinedGlobalId(interner);
      for (const LocatedFact& lf : pattern) {
        if (lf.relation >= image->num_tables() ||
            !CertainFactInTable(image->table(lf.relation), lf.fact,
                                global_id, *backend)) {
          return false;
        }
      }
      return true;
    }
  }
  if (view.is_identity()) {
    if (RepIsEmpty(database)) return true;  // vacuous
    ConditionInterner& interner = ConditionInterner::Global();
    std::unique_ptr<ConditionBackend> backend =
        MakeConditionBackend(ConditionBackendKind::kDefault, interner);
    ConjId global_id = database.CombinedGlobalId(interner);
    for (const LocatedFact& lf : pattern) {
      if (lf.relation >= database.num_tables() ||
          !CertainFactInTable(database.table(lf.relation), lf.fact,
                              global_id, *backend)) {
        return false;
      }
    }
    return true;
  }
  return CertaintySearch(view, database, pattern);
}

bool CertaintyFactwise(const View& view, const CDatabase& database,
                       const std::vector<LocatedFact>& pattern) {
  for (const LocatedFact& lf : pattern) {
    if (!Certainty(view, database, {lf})) return false;
  }
  return true;
}

}  // namespace pw
