#include "decision/membership.h"

#include <algorithm>
#include <ranges>

#include "condition/backend.h"
#include "condition/interner.h"
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

}  // namespace

bool CoddRowsCoverFacts(const CTable& table, const Relation& relation,
                        bool every_row_lands) {
  std::vector<const Fact*> facts;
  facts.reserve(relation.size());
  for (const Fact& f : relation) facts.push_back(&f);
  int n = static_cast<int>(facts.size());
  int m = static_cast<int>(table.num_rows());
  // Bipartite graph: left = rows v_j of T, right = facts u_i of I0, with an
  // edge when some valuation maps the row onto the fact. Facts iterate in
  // lexicographic order, so the ones a row with a constant first column can
  // meet are one run, found by binary search.
  BipartiteGraph g(m, n);
  for (int j = 0; j < m; ++j) {
    const Tuple& tuple = table.row(j).tuple;
    auto run = std::ranges::subrange(facts);
    if (!tuple.empty() && tuple[0].is_constant()) {
      run = std::ranges::equal_range(facts, tuple[0].constant(), {},
                                     [](const Fact* f) { return (*f)[0]; });
    }
    bool connected = false;
    for (auto it = run.begin(); it != run.end(); ++it) {
      if (Unifiable(tuple, **it)) {
        g.AddEdge(j, static_cast<int>(it - facts.begin()));
        connected = true;
      }
    }
    // MEMB's step (c): a row that can map onto no fact of I0 forces
    // sigma(T) != I0.
    if (every_row_lands && !connected) return false;
  }
  // Step (d)/(e): a matching of cardinality n covers every fact of I0 with a
  // distinct row; the remaining rows reuse any compatible fact.
  return MaxBipartiteMatching(g).size == n;
}

std::optional<bool> MembershipCoddTables(const CDatabase& database,
                                         const Instance& instance) {
  if (database.Kind() != TableKind::kCoddTable) return std::nullopt;
  if (!ShapesMatch(database, instance)) return false;
  for (size_t k = 0; k < database.num_tables(); ++k) {
    if (!CoddRowsCoverFacts(database.table(k), instance.relation(k),
                            /*every_row_lands=*/true)) {
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
  if (auto image = ViewImage(view, database)) {
    return Membership(*image, instance);
  }
  return !ForEachViewImage(view, database, instance.Constants(),
                           [&instance](const Instance& image) {
                             return image != instance;  // stop on a witness
                           });
}

}  // namespace pw
