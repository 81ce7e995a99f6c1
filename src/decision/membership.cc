#include "decision/membership.h"

#include <map>
#include <set>

#include "condition/binding_env.h"
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

/// Backtracking state for MembershipSearch.
struct SearchState {
  struct RowTask {
    const CRow* row = nullptr;
    size_t table = 0;
    std::vector<const Fact*> candidates;  // facts this row could map onto
    std::vector<CondAtom> suppress_atoms;  // atoms whose negation kills it
    bool done = false;
  };

  /// One branching option for a task: either map onto a fact, or suppress
  /// by violating one local atom.
  struct Option {
    const Fact* fact = nullptr;       // null = suppression
    const CondAtom* atom = nullptr;   // suppression atom
  };

  std::vector<RowTask> tasks;
  // Per (table, fact) coverage counts and per-table uncovered tallies.
  std::vector<std::map<Fact, int>> covered;
  std::vector<int> uncovered;
  // tasks_left[k] = number of unprocessed tasks of table k (for pruning).
  std::vector<int> tasks_left;
  BindingEnv env;
};

bool AssertTupleEqualsFact(BindingEnv& env, const Tuple& tuple,
                           const Fact& fact) {
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (!env.AssertEqual(tuple[i], Term::Const(fact[i]))) return false;
  }
  return true;
}

/// Attempts one option against the environment. On success leaves the
/// assertions in place and returns true; on failure the caller reverts.
bool TryOption(SearchState& s, const SearchState::RowTask& task,
               const SearchState::Option& option) {
  if (option.fact != nullptr) {
    return AssertTupleEqualsFact(s.env, task.row->tuple, *option.fact) &&
           s.env.Assert(task.row->local());
  }
  return s.env.AssertAtom(Negate(*option.atom));
}

/// Dynamic most-constrained-first backtracking with forward checking: at
/// every node recompute each pending task's viable options; fail fast when
/// a task has none, branch on the task with the fewest.
bool SearchRecurse(SearchState& s, size_t remaining) {
  if (remaining == 0) {
    for (int u : s.uncovered) {
      if (u != 0) return false;
    }
    return true;
  }
  // Coverage prune: uncovered facts of table k need distinct pending tasks.
  for (size_t t = 0; t < s.uncovered.size(); ++t) {
    if (s.uncovered[t] > s.tasks_left[t]) return false;
  }

  // Forward checking: viable options per pending task, and the set of
  // facts still coverable by some pending task. The block frees
  // `coverable` before the recursion below.
  int best = -1;
  std::vector<SearchState::Option> best_options;
  {
    bool forced = false;
    std::vector<std::set<Fact>> coverable(s.uncovered.size());
    for (size_t i = 0; i < s.tasks.size(); ++i) {
      SearchState::RowTask& task = s.tasks[i];
      if (task.done) continue;
      std::vector<SearchState::Option> options;
      for (const Fact* fact : task.candidates) {
        size_t mark = s.env.Mark();
        bool ok = AssertTupleEqualsFact(s.env, task.row->tuple, *fact) &&
                  s.env.Assert(task.row->local());
        s.env.Revert(mark);
        if (ok) {
          options.push_back({fact, nullptr});
          coverable[task.table].insert(*fact);
        }
      }
      for (const CondAtom& atom : task.suppress_atoms) {
        size_t mark = s.env.Mark();
        bool ok = s.env.AssertAtom(Negate(atom));
        s.env.Revert(mark);
        if (ok) options.push_back({nullptr, &atom});
      }
      if (options.empty()) return false;  // dead end
      if (best == -1 || options.size() < best_options.size()) {
        best = static_cast<int>(i);
        best_options = std::move(options);
        if (best_options.size() == 1) {
          forced = true;
          break;  // forced move: branch immediately
        }
      }
    }
    if (!forced) {
      // Coverage dead-end check: every still-uncovered fact must be
      // mappable by some pending task under the current bindings.
      for (size_t t = 0; t < s.uncovered.size(); ++t) {
        if (s.uncovered[t] == 0) continue;
        for (const auto& [fact, count] : s.covered[t]) {
          // covered[t] holds all facts of relation t (pre-seeded), so this
          // scan visits exactly the uncovered ones via count == 0.
          if (count == 0 && coverable[t].count(fact) == 0) return false;
        }
      }
    }
  }

  SearchState::RowTask& task = s.tasks[best];
  size_t k = task.table;
  task.done = true;
  --s.tasks_left[k];
  for (const SearchState::Option& option : best_options) {
    size_t mark = s.env.Mark();
    if (TryOption(s, task, option)) {
      bool covered_new = false;
      if (option.fact != nullptr) {
        int& count = s.covered[k][*option.fact];
        if (count == 0) {
          --s.uncovered[k];
          covered_new = true;
        }
        ++count;
      }
      if (SearchRecurse(s, remaining - 1)) return true;
      if (option.fact != nullptr) {
        int& count = s.covered[k][*option.fact];
        --count;
        if (covered_new) ++s.uncovered[k];
      }
    }
    s.env.Revert(mark);
  }
  task.done = false;
  ++s.tasks_left[k];
  return false;
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

  SearchState s;
  if (!s.env.Assert(database.CombinedGlobal())) {
    return false;  // rep(database) is empty
  }

  size_t num_tables = database.num_tables();
  s.covered.resize(num_tables);
  s.uncovered.assign(num_tables, 0);
  s.tasks_left.assign(num_tables, 0);

  std::vector<std::vector<Fact>> facts(num_tables);
  for (size_t k = 0; k < num_tables; ++k) {
    facts[k] = instance.relation(k).ToVector();
    s.uncovered[k] = static_cast<int>(facts[k].size());
    for (const Fact& f : facts[k]) s.covered[k][f] = 0;
  }

  ConditionInterner& interner = ConditionInterner::Global();
  for (size_t k = 0; k < num_tables; ++k) {
    for (const CRow& row : database.table(k).rows()) {
      // A row whose local condition is unsatisfiable is "off" in every world
      // — no task needed (memoized, so repeated searches over the same
      // tables skip the closure entirely).
      if (!interner.Satisfiable(row.LocalId(interner))) continue;
      SearchState::RowTask task;
      task.row = &row;
      task.table = k;
      for (const Fact& f : facts[k]) {
        if (Unifiable(row.tuple, f)) task.candidates.push_back(&f);
      }
      Conjunction simplified = row.local().Simplified();
      for (const CondAtom& atom : simplified.atoms()) {
        task.suppress_atoms.push_back(atom);
      }
      // A row with no compatible fact and no suppression handle makes
      // membership impossible.
      if (task.candidates.empty() && task.suppress_atoms.empty()) {
        return false;
      }
      s.tasks.push_back(std::move(task));
      ++s.tasks_left[k];
    }
  }

  return SearchRecurse(s, s.tasks.size());
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
