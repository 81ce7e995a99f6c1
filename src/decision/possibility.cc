#include "decision/possibility.h"

#include <map>

#include "condition/backend.h"
#include "condition/interner.h"
#include "datalog/magic.h"
#include "decision/membership.h"
#include "ilalgebra/datalog_ctable.h"

namespace pw {

namespace {

/// One clause per pattern fact: some row of the image c-table produces it.
bool AssignPattern(const CDatabase& image,
                   const std::vector<LocatedFact>& pattern) {
  thread_local ChoiceCnf cnf;
  cnf.Clear();
  if (!cnf.AddBase(image.CombinedGlobal())) return false;  // rep empty
  for (const LocatedFact& lf : pattern) {
    if (lf.relation >= image.num_tables()) return false;
    for (const CRow& row : image.table(lf.relation).rows()) {
      if (cnf.AddProducer(row.tuple, row.local(), lf.fact)) {
        break;  // the row produces the fact in every world
      }
    }
    if (!cnf.EndClause()) return false;
  }
  return cnf.Solve();
}

}  // namespace

std::vector<LocatedFact> ToLocatedFacts(const Instance& pattern) {
  std::vector<LocatedFact> out;
  for (size_t p = 0; p < pattern.num_relations(); ++p) {
    for (const Fact& f : pattern.relation(p)) out.push_back({p, f});
  }
  return out;
}

std::optional<bool> PossUnboundedCoddTables(const CDatabase& database,
                                            const Instance& pattern) {
  if (database.Kind() != TableKind::kCoddTable) return std::nullopt;
  if (pattern.num_relations() > database.num_tables()) return false;
  for (size_t k = 0; k < pattern.num_relations(); ++k) {
    const Relation& rel = pattern.relation(k);
    if (rel.empty()) continue;
    const CTable& table = database.table(k);
    if (table.arity() != rel.arity()) return false;
    // Thm 5.1(1): distinct rows must cover the pattern; the other rows can
    // land anywhere.
    if (!CoddRowsCoverFacts(table, rel, /*every_row_lands=*/false)) {
      return false;
    }
  }
  return true;
}

std::optional<bool> PossDatalogDemand(const View& view,
                                      const CDatabase& database,
                                      const std::vector<LocatedFact>& pattern) {
  if (!view.is_datalog()) return std::nullopt;
  ConditionInterner& interner = ConditionInterner::Global();
  ConjId global_id = database.CombinedGlobalId(interner);
  if (!interner.Satisfiable(global_id)) return false;  // rep empty

  const DatalogProgram& program = view.datalog();
  // One demand query per pattern fact: all positions bound, so each
  // restricted row's condition says exactly when the fact is in the view.
  // Conditioned fixpoints can grow exponentially even under demand (the
  // paper's lower bounds), so each query runs under a derivation budget;
  // exhaustion returns nullopt and the dispatcher falls back to the
  // per-world search.
  size_t edb_rows = 0;
  for (size_t k = 0; k < database.num_tables(); ++k) {
    edb_rows += database.table(k).num_rows();
  }
  DatalogCTableOptions options;
  options.max_derived_rows = 1024 + 16 * edb_rows;
  // Static gate, cached per goal predicate (the adornment structure depends
  // only on the all-bound binding pattern, not on the pattern constants):
  // if some demanded predicate ends up with an all-free binding pattern,
  // demand for it degenerates to the full fixpoint (the SAT gadget's shape
  // — its recursive body atoms receive no bindings), so the demand path
  // buys nothing and the search is the better bet. DemandStaysBound runs
  // only the adornment discovery, not the full rewrite.
  std::map<int, bool> gate_by_goal;
  // Repeated (goal, fact) pairs reuse the first query's condition list
  // instead of re-running the demand fixpoint.
  std::map<std::pair<int, Fact>, std::vector<ConjId>> conds_by_fact;
  // One clause per fact, over its rows' conditions.
  thread_local ChoiceCnf cnf;
  cnf.Clear();
  cnf.AddBase(interner.Resolve(global_id));
  for (const LocatedFact& lf : pattern) {
    if (lf.relation >= view.output_preds().size()) return false;
    int goal = view.output_preds()[lf.relation];
    if (!program.HasPredicate(goal) ||
        static_cast<size_t>(program.arity(goal)) != lf.fact.size()) {
      return false;
    }
    std::vector<std::optional<ConstId>> bindings(lf.fact.begin(),
                                                 lf.fact.end());
    auto [gate, inserted] = gate_by_goal.try_emplace(goal, true);
    if (inserted) {
      gate->second = DemandStaysBound(program, {goal, bindings});
    }
    if (!gate->second) return std::nullopt;
    auto [cached, fresh] = conds_by_fact.try_emplace({goal, lf.fact});
    if (fresh) {
      ConditionedFixpointStats stats;
      CTable restricted =
          DatalogQueryOnCTables(program, database, goal, bindings, &stats,
                                options);
      if (stats.budget_exhausted) return std::nullopt;
      for (const CRow& row : restricted.rows()) {
        cached->second.push_back(row.LocalId(interner));
      }
    }
    for (ConjId cond : cached->second) {
      cnf.AddAtoms(interner.Resolve(cond));
      if (cnf.EndAlternative()) break;
    }
    if (!cnf.EndClause()) return false;  // e.g. the fact is in no world's view
  }
  return cnf.Solve();
}

std::optional<bool> PossBoundedPosExistential(
    const RaQuery& query, const CDatabase& database,
    const std::vector<LocatedFact>& pattern) {
  auto image = ViewImage(View::Ra(query), database);
  if (!image) return std::nullopt;
  return AssignPattern(*image, pattern);
}

bool PossibilitySearch(const View& view, const CDatabase& database,
                       const std::vector<LocatedFact>& pattern) {
  return !ForEachViewImage(view, database, FactConstants(pattern),
                           [&pattern](const Instance& image) {
                             return !ContainsAll(image, pattern);  // witness
                           });
}

bool Possibility(const View& view, const CDatabase& database,
                 const std::vector<LocatedFact>& pattern) {
  if (auto image = ViewImage(view, database)) {
    return AssignPattern(*image, pattern);
  }
  // Goal-shaped: each pattern fact of a DATALOG view is a fully bound goal,
  // answered through the magic-set demand path instead of enumerating worlds.
  if (auto fast = PossDatalogDemand(view, database, pattern)) return *fast;
  return PossibilitySearch(view, database, pattern);
}

bool PossibilityUnbounded(const View& view, const CDatabase& database,
                          const Instance& pattern) {
  if (view.is_identity()) {
    if (auto fast = PossUnboundedCoddTables(database, pattern)) return *fast;
  }
  std::vector<LocatedFact> flat = ToLocatedFacts(pattern);
  // The assignment search on the view's image and the DATALOG demand path
  // are exact for any pattern size (polynomial only for bounded patterns,
  // but correct for all), so the bounded dispatcher covers this too.
  return Possibility(view, database, flat);
}

}  // namespace pw
