#include "decision/membership.h"

#include "condition/backend.h"
#include "condition/interner.h"
#include "ilalgebra/ctable_eval.h"
#include "solvers/bipartite_matching.h"

namespace pw {

namespace {

bool ShapesMatch(const CDatabase& database, const Instance& instance) {
  if (database.num_tables() != instance.num_relations()) return false;
  for (size_t k = 0; k < database.num_tables(); ++k) {
    if (database.table(k).arity() != instance.relation(k).arity()) {
      return false;
    }
  }
  return true;
}

/// Theorem 3.1(1)'s algorithm for a single table/relation pair.
bool CoddTableMembership(const CTable& table, const Relation& relation) {
  std::vector<Fact> facts = relation.ToVector();
  int n = static_cast<int>(facts.size());
  int m = static_cast<int>(table.num_rows());
  // Bipartite graph: left = rows v_j of T, right = facts u_i of I0, with an
  // edge when some valuation maps the row onto the fact.
  BipartiteGraph g(m, n);
  for (int j = 0; j < m; ++j) {
    bool connected = false;
    for (int i = 0; i < n; ++i) {
      if (Unifiable(table.row(j).tuple, facts[i])) {
        g.AddEdge(j, i);
        connected = true;
      }
    }
    // Step (c): a row that can map onto no fact of I0 forces sigma(T) != I0.
    if (!connected) return false;
  }
  // Step (d)/(e): a matching of cardinality n covers every fact of I0 with a
  // distinct row; the remaining rows reuse any compatible fact.
  return MaxBipartiteMatching(g).size == n;
}

}  // namespace

std::optional<bool> MembershipCoddTables(const CDatabase& database,
                                         const Instance& instance) {
  if (database.Kind() != TableKind::kCoddTable) return std::nullopt;
  if (!ShapesMatch(database, instance)) return false;
  for (size_t k = 0; k < database.num_tables(); ++k) {
    if (!CoddTableMembership(database.table(k), instance.relation(k))) {
      return false;
    }
  }
  return true;
}

bool MembershipSearch(const CDatabase& database, const Instance& instance) {
  if (!ShapesMatch(database, instance)) return false;
  // I is a world iff some valuation of the global condition makes every row
  // land on a fact of I or be off, and makes some row produce each fact of
  // I: one clause per row and one per fact.
  thread_local ChoiceCnf cnf;
  cnf.Clear();
  if (!cnf.AddBase(database.CombinedGlobal())) return false;  // rep empty
  ConditionInterner& interner = ConditionInterner::Global();
  for (size_t k = 0; k < database.num_tables(); ++k) {
    const Relation& relation = instance.relation(k);
    const CTable& table = database.table(k);
    for (const CRow& row : table.rows()) {
      // A row whose local can never hold is off in every world (memoized on
      // the row's interned id).
      if (!interner.Satisfiable(row.LocalId(interner))) continue;
      for (const Fact& f : relation) cnf.AddProducer(row.tuple, row.local(), f);
      for (const CondAtom& atom : row.local().atoms()) {
        cnf.AddAtom(Negate(atom));  // off
        cnf.EndAlternative();
      }
      if (!cnf.EndClause()) return false;
    }
    for (const Fact& f : relation) {
      for (const CRow& row : table.rows()) {
        if (interner.Satisfiable(row.LocalId(interner)) &&
            cnf.AddProducer(row.tuple, row.local(), f)) {
          break;  // the row produces f in every world
        }
      }
      if (!cnf.EndClause()) return false;
    }
  }
  return cnf.Solve();
}

bool Membership(const CDatabase& database, const Instance& instance) {
  if (auto fast = MembershipCoddTables(database, instance)) return *fast;
  return MembershipSearch(database, instance);
}

bool MembershipInView(const View& view, const CDatabase& database,
                      const Instance& instance) {
  if (view.is_identity()) return Membership(database, instance);
  if (view.is_ra() && view.IsPositiveExistential(/*allow_neq=*/true)) {
    // c-tables are a representation system for positive existential queries:
    // compute the Imielinski–Lipski image and decide membership on it
    // directly — far better pruning than enumerating valuations.
    if (auto image = EvalQueryOnCTables(view.ra(), database)) {
      return MembershipSearch(*image, instance);
    }
  }
  return !ForEachViewImage(view, database, instance.Constants(),
                           [&instance](const Instance& image) {
                             return image != instance;  // stop on a witness
                           });
}

}  // namespace pw
