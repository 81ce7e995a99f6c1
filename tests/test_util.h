// Shared fixtures and helpers for the pworlds test suite.
//
// Collects the setup that used to be copy-pasted across the test files:
// compact table construction, the standard small shapes for randomized
// property tests (small enough for exhaustive world enumeration), canonical
// world rendering up to renaming of fresh constants, and the paper's Fig. 3
// example table.

#ifndef PW_TESTS_TEST_UTIL_H_
#define PW_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "condition/interner.h"
#include "core/instance.h"
#include "core/tuple.h"
#include "datalog/eval.h"
#include "datalog/program.h"
#include "ilalgebra/datalog_ctable.h"
#include "ra/eval.h"
#include "ra/expr.h"
#include "ra/properties.h"
#include "tables/ctable.h"
#include "tables/world_enum.h"
#include "workload/random_gen.h"

namespace pw {
namespace testutil {

/// Builds a table from unconditioned rows: MakeTable(2, {{C(1), V(0)}, ...}).
inline CTable MakeTable(int arity, const std::vector<Tuple>& rows) {
  CTable t(arity);
  for (const Tuple& row : rows) t.AddRow(row);
  return t;
}

/// Builds a table from conditioned rows.
inline CTable MakeTable(int arity, const std::vector<CRow>& rows) {
  CTable t(arity);
  for (const CRow& row : rows) t.AddRow(row.tuple, row.local());
  return t;
}

/// The standard shape of the randomized property tests: constants and
/// variables from pools small enough that exhaustive world enumeration stays
/// cheap. Tune condition-atom counts per test.
inline RandomCTableOptions SmallCTableOptions(int arity, int num_rows,
                                              int num_constants,
                                              int num_variables,
                                              int num_local_atoms = 0,
                                              int num_global_atoms = 0) {
  RandomCTableOptions options;
  options.arity = arity;
  options.num_rows = num_rows;
  options.num_constants = num_constants;
  options.num_variables = num_variables;
  options.num_local_atoms = num_local_atoms;
  options.num_global_atoms = num_global_atoms;
  return options;
}

/// A shape whose variable pool is so large that repeats are unlikely — the
/// generated tables are (almost always) Codd-tables.
inline RandomCTableOptions CoddishCTableOptions(int arity, int num_rows,
                                                int num_constants,
                                                int num_variables = 200) {
  return SmallCTableOptions(arity, num_rows, num_constants, num_variables);
}

/// The paper's Fig. 3 Codd-table T = {(x1,1,x2), (x3,2,3), (1,x4,x5),
/// (1,2,3), (1,2,x6)} with I0 = {112, 323, 145, 123} as its companion
/// instance; MEMB(T, I0) answers yes.
inline CTable PaperFig3Table() {
  return MakeTable(3, std::vector<Tuple>{{V(1), C(1), V(2)},
                                         {V(3), C(2), C(3)},
                                         {C(1), V(4), V(5)},
                                         {C(1), C(2), C(3)},
                                         {C(1), C(2), V(6)}});
}

inline Instance PaperFig3Instance() {
  return Instance({Relation(3, {{1, 1, 2}, {3, 2, 3}, {1, 4, 5}, {1, 2, 3}})});
}

/// A tiny two-row c-table with a local and a global condition — enough to
/// leave the Codd/e/i/g classes and exercise every condition code path.
inline CTable TinyConditionedTable() {
  CTable t = MakeTable(
      2, std::vector<CRow>{{{C(1), V(0)}, Conjunction{Neq(V(0), C(2))}},
                           {{V(1), V(0)}, Conjunction()}});
  t.SetGlobal(Conjunction{Neq(V(1), C(3))});
  return t;
}

/// Renders a world canonically up to renaming of constants outside `known`:
/// tries every permutation of placeholder names for the fresh constants and
/// keeps the lexicographically least rendering. (Worlds in these tests carry
/// at most a handful of fresh constants.)
inline std::string CanonicalWorldString(const Instance& world,
                                        const std::vector<ConstId>& known) {
  std::vector<ConstId> fresh;
  for (ConstId c : world.Constants()) {
    if (std::find(known.begin(), known.end(), c) == known.end()) {
      fresh.push_back(c);
    }
  }
  if (fresh.empty()) return world.ToString();
  std::vector<ConstId> placeholders;
  for (size_t i = 0; i < fresh.size(); ++i) {
    placeholders.push_back(900000 + static_cast<ConstId>(i));
  }
  std::sort(fresh.begin(), fresh.end());
  std::string best;
  do {
    std::vector<Relation> renamed;
    for (size_t p = 0; p < world.num_relations(); ++p) {
      Relation r(world.relation(p).arity());
      for (Fact f : world.relation(p)) {
        for (ConstId& c : f) {
          auto it = std::find(fresh.begin(), fresh.end(), c);
          if (it != fresh.end()) {
            c = placeholders[it - fresh.begin()];
          }
        }
        r.Insert(f);
      }
      renamed.push_back(std::move(r));
    }
    std::string s = Instance(std::move(renamed)).ToString();
    if (best.empty() || s < best) best = s;
  } while (std::next_permutation(fresh.begin(), fresh.end()));
  return best;
}

/// The sorted, deduplicated canonical renderings of rep(db) over a shared
/// constant context.
inline std::vector<std::string> CanonicalWorlds(
    const CDatabase& db, const std::vector<ConstId>& extra) {
  WorldEnumOptions options;
  options.extra_constants = extra;
  std::vector<std::string> out;
  ForEachWorld(db, options, [&](const Instance& world, const Valuation&) {
    out.push_back(CanonicalWorldString(world, extra));
    return true;
  });
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// The canonical renderings of q(rep(db)) — the per-world oracle: evaluate
/// the query on each enumerated world of `db` with the plain complete-
/// information evaluator.
inline std::vector<std::string> CanonicalImageWorlds(
    const RaQuery& q, const CDatabase& db, const std::vector<ConstId>& extra) {
  WorldEnumOptions options;
  options.extra_constants = extra;
  std::vector<std::string> out;
  ForEachWorld(db, options, [&](const Instance& world, const Valuation&) {
    out.push_back(CanonicalWorldString(EvalQuery(q, world), extra));
    return true;
  });
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// The per-world oracle of certainty: true iff `fact` is in relation
/// `relation` of every world of rep(db) (vacuously when rep is empty).
inline bool FactInEveryWorld(const CDatabase& db, size_t relation,
                             const Fact& fact) {
  WorldEnumOptions options;
  options.extra_constants = fact;
  bool certain = true;
  ForEachWorld(db, options, [&](const Instance& world, const Valuation&) {
    certain = world.relation(relation).Contains(fact);
    return certain;
  });
  return certain;
}

/// The per-world oracle of membership: true iff `instance` is a world of
/// rep(db).
inline bool IsWorld(const CDatabase& db, const Instance& instance) {
  WorldEnumOptions options;
  options.extra_constants = instance.Constants();
  bool found = false;
  ForEachWorld(db, options, [&](const Instance& world, const Valuation&) {
    found = world == instance;
    return !found;
  });
  return found;
}

/// The per-world oracle of uniqueness: true iff rep(db) is not empty and
/// `q` maps every world of it to `instance`.
inline bool EveryImageIs(const RaQuery& q, const CDatabase& db,
                         const Instance& instance) {
  WorldEnumOptions options;
  options.extra_constants = instance.Constants();
  for (ConstId c : QueryConstants(q)) options.extra_constants.push_back(c);
  bool any = false;
  bool all = true;
  ForEachWorld(db, options, [&](const Instance& world, const Valuation&) {
    any = true;
    all = EvalQuery(q, world) == instance;
    return all;
  });
  return any && all;
}

/// Rows of a table rendered canonically (tuple + interner-canonical local
/// condition), sorted: the "identical up to row order" comparison key.
inline std::vector<std::string> CanonicalRows(const CTable& t) {
  ConditionInterner& interner = ConditionInterner::Global();
  std::vector<std::string> out;
  for (const CRow& row : t.rows()) {
    out.push_back(ToString(row.tuple) + " :: " +
                  interner.Resolve(row.LocalId(interner)).ToString());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The per-world oracle of the conditioned DATALOG fixpoint: true iff for
/// every valuation sigma satisfying db's global condition, sigma(image) is
/// the fixpoint of `program` over sigma(db), as computed by `eval` (the
/// complete-information evaluator, semi-naive by default).
inline bool RepresentsFixpointOfEveryWorld(
    const DatalogProgram& program, const CDatabase& db, const CDatabase& image,
    Instance (*eval)(const DatalogProgram&, const Instance&) = SemiNaiveEval) {
  bool all_match = true;
  ForEachSatisfyingValuation(db, WorldEnumOptions{}, [&](const Valuation& v) {
    all_match = v.Apply(image) == eval(program, v.Apply(db));
    return all_match;
  });
  return all_match;
}

/// The full fixpoint's goal table restricted to the binding, with the
/// input's global condition attached, composed from the public calls — the
/// reference DatalogQueryOnCTables' magic-set path must reproduce row for
/// row. `stats` (optional) receives the full fixpoint's counters.
inline CTable RestrictedFullFixpoint(
    const DatalogProgram& program, const CDatabase& db, int goal,
    const std::vector<std::optional<ConstId>>& bindings,
    ConditionedFixpointStats* stats = nullptr) {
  ConditionInterner& interner = ConditionInterner::Global();
  ConjId global_id = db.CombinedGlobalId(interner);
  CDatabase full = DatalogOnCTables(program, db, stats);
  CTable restricted = RestrictTableToGoal(
      full.table(static_cast<size_t>(goal)), bindings, global_id, interner);
  restricted.SetGlobal(db.CombinedGlobal(), global_id, interner);
  return restricted;
}

/// One row of NestedLoopImage's recursion: a tuple and its interned local
/// condition.
struct ImageRow {
  Tuple tuple;
  ConjId cond;
};

/// NestedLoopImage's rows, or nullopt where EvalOnCTables returns nullopt.
inline std::optional<std::vector<ImageRow>> NestedLoopRows(
    const RaExpr& expr, const CDatabase& db, ConditionInterner& interner) {
  auto term = [](const ColOrConst& o, const Tuple& tuple) {
    return o.is_column ? tuple[o.column] : Term::Const(o.constant);
  };
  std::vector<ImageRow> out;
  switch (expr.op()) {
    case RaOp::kRel: {
      if (expr.rel_index() >= db.num_tables() ||
          db.table(expr.rel_index()).arity() != expr.arity()) {
        return std::nullopt;
      }
      for (const CRow& row : db.table(expr.rel_index()).rows()) {
        ConjId cond = row.LocalId(interner);
        if (interner.Satisfiable(cond)) out.push_back({row.tuple, cond});
      }
      return out;
    }
    case RaOp::kConstRel:
      for (const Fact& f : expr.const_relation()) {
        out.push_back({ToTuple(f), ConditionInterner::kTrueConj});
      }
      return out;
    case RaOp::kProject: {
      auto in = NestedLoopRows(expr.input(), db, interner);
      if (!in) return std::nullopt;
      for (const ImageRow& row : *in) {
        Tuple t;
        for (const ColOrConst& o : expr.outputs()) {
          t.push_back(term(o, row.tuple));
        }
        out.push_back({std::move(t), row.cond});
      }
      return out;
    }
    case RaOp::kSelect: {
      auto in = NestedLoopRows(expr.input(), db, interner);
      if (!in) return std::nullopt;
      for (ImageRow& row : *in) {
        Conjunction sel;
        bool keep = true;
        for (const SelectAtom& a : expr.atoms()) {
          Term l = term(a.lhs, row.tuple);
          Term r = term(a.rhs, row.tuple);
          CondAtom atom = a.is_equality ? Eq(l, r) : Neq(l, r);
          keep = keep && !IsTriviallyFalse(atom);
          if (keep && !IsTriviallyTrue(atom)) sel.Add(atom);
        }
        if (!keep) continue;
        ConjId cond = interner.And(row.cond, interner.Intern(sel));
        if (interner.Satisfiable(cond)) {
          out.push_back({std::move(row.tuple), cond});
        }
      }
      return out;
    }
    case RaOp::kProduct: {
      auto l = NestedLoopRows(expr.left(), db, interner);
      auto r = NestedLoopRows(expr.right(), db, interner);
      if (!l || !r) return std::nullopt;
      for (const ImageRow& a : *l) {
        for (const ImageRow& b : *r) {
          ConjId cond = interner.And(a.cond, b.cond);
          if (!interner.Satisfiable(cond)) continue;
          Tuple t = a.tuple;
          t.insert(t.end(), b.tuple.begin(), b.tuple.end());
          out.push_back({std::move(t), cond});
        }
      }
      return out;
    }
    case RaOp::kUnion: {
      auto l = NestedLoopRows(expr.left(), db, interner);
      auto r = NestedLoopRows(expr.right(), db, interner);
      if (!l || !r) return std::nullopt;
      l->insert(l->end(), r->begin(), r->end());
      return l;
    }
    case RaOp::kDiff:
      break;
  }
  return std::nullopt;
}

/// The Imielinski–Lipski image of `expr` by the paper's rules applied one
/// operator at a time over interned conditions: a relation reference copies
/// the rows whose local is satisfiable, select conjoins the instantiated
/// atoms into each local (dropping a row on a trivially false atom or an
/// unsatisfiable condition), project rewrites tuples, product pairs rows in
/// a plain nested loop, left side outer, and conjoins their locals, and
/// union concatenates. EvalOnCTables' planned executor must reproduce it
/// row for row, in the same order, with the same interned conditions;
/// nullopt exactly where EvalOnCTables returns nullopt.
inline std::optional<CTable> NestedLoopImage(const RaExpr& expr,
                                             const CDatabase& db) {
  ConditionInterner& interner = ConditionInterner::Global();
  auto rows = NestedLoopRows(expr, db, interner);
  if (!rows) return std::nullopt;
  CTable out(expr.arity());
  for (ImageRow& row : *rows) {
    out.AddRow(std::move(row.tuple), row.cond, interner);
  }
  return out;
}

/// The PW_DIFF_SEED filter, or 0 when unset.
inline unsigned SeedFilter() {
  const char* s = std::getenv("PW_DIFF_SEED");
  return s == nullptr ? 0u
                      : static_cast<unsigned>(std::strtoul(s, nullptr, 10));
}

/// True iff the randomized case `seed` runs: PW_DIFF_SEED is unset or names
/// it.
inline bool RunSeed(unsigned seed) {
  unsigned filter = SeedFilter();
  return filter == 0u || filter == seed;
}

}  // namespace testutil
}  // namespace pw

/// Opens a randomized case: skips it when PW_DIFF_SEED selects another seed,
/// and stamps the seed onto every failure message in scope.
#define PW_DIFF_CASE(seed)                                                 \
  if (!::pw::testutil::RunSeed(seed))                                      \
    GTEST_SKIP() << "skipped by PW_DIFF_SEED";                             \
  SCOPED_TRACE("replay with PW_DIFF_SEED=" + std::to_string(seed))

#endif  // PW_TESTS_TEST_UTIL_H_
