// Differential test harness: the fast paths against the per-world oracle.
//
// Families, all randomized with fixed seeds so failures reproduce (set
// PW_DIFF_SEED to rerun a single case — see "Debuggability" below):
//
//  1. Positive existential queries — the Imielinski–Lipski c-table
//     evaluation must satisfy the representation-system identity of the
//     paper's Section 4 discussion:
//
//       rep(EvalQueryOnCTables(q, T))  ==  { EvalQuery(q, I) : I in rep(T) }
//
//     worlds compared canonically up to renaming of fresh constants over a
//     shared constant context. Queries are drawn from a generator covering
//     every operator of the fragment (select with = and !=, generalized
//     project with constants, product, equi-join shapes that plan into hash
//     joins, union) at random shapes; the planned executor must produce a
//     table *identical* to the paper's rules applied one operator at a time
//     with plain nested-loop products (testutil::NestedLoopImage); the
//     result is additionally piped through Minimized(), which must preserve
//     the represented worlds. Single-table
//     and multi-table (c-database) inputs are both covered, and a dedicated
//     family generates n-ary join shapes (3-5-way products, mixed
//     pushable/cross-side conjuncts, interleaved projections).
//
//  2. Conditioned DATALOG views — the conditioned fixpoint must represent
//     exactly the pointwise DATALOG fixpoint of the input's worlds (computed
//     per world by the naive and the semi-naive complete-information
//     evaluators), on randomized programs (one or two extensional
//     predicates) over randomized c-tables. A last round per seed plants
//     one malformed rule (an extensional head, an unbound head variable, or
//     a ground rule with a variable head): Validate() must name that rule
//     and no other, DatalogProgram::Fits must reject exactly the rules the
//     analysis reports, and the fixpoint must still match every world.
//
//  3. Query-directed (magic-set) evaluation — for random programs and random
//     goal binding patterns, DatalogQueryOnCTables through the magic-set
//     rewrite must return exactly the full fixpoint's facts restricted to
//     the goal (same tuples, interned-id-identical conditions), and must
//     represent the per-world goal answers; the demand-path possibility
//     procedure must agree with the possibility search. A last round per
//     seed plants a malformed rule as in family 2.
//
//  4. Multi-output queries and nested views — the image database of both
//     intensional outputs must represent the pointwise relation pairs, and
//     a second DATALOG program (or an RA expression) evaluated over the
//     first program's intensional output must act pointwise on the
//     represented worlds.
//
//  5. Updates — randomized Insert/Delete/InsertFactIf sequences must act
//     pointwise on the represented worlds, including when a DATALOG view is
//     then evaluated over the updated table.
//
//  6. Incremental view maintenance — a MaterializedView (datalog/ivm.h)
//     driven through randomized interleavings of inserts, conditional
//     inserts, and deletes must stay *identical* — same tuples, same
//     interned condition ids — to recomputing the fixpoint from scratch on
//     its updated base, and represent the per-world fixpoints, for full and
//     magic-set demand views (Answers() vs DatalogQueryOnCTables), with a
//     second program evaluated over the maintained output as a nested
//     downstream consumer. The fourth round per seed plants rules over a
//     base table its deletes leave untouched, so each of its changing
//     deletes checks that the reset re-derives through that table.
//
//  7. Condition algebra — randomized And/Or expression trees over random
//     interned conjunctions built on the decision-diagram backend: every
//     Satisfiable/SatisfiableWith verdict (of each expression and of each
//     pair's conjunction), the AppendDisjuncts DNF expansion, and
//     ConjImpliesDisjunction over the expansions' members (an implication
//     from the global is the certainty check) must agree with a
//     small-model enumeration oracle (valuations over the mentioned
//     constants plus one fresh value per variable — complete for boolean
//     combinations of =/!= atoms over the infinite domain).
//
//  8. Decision-diagram fixpoints — the conditioned DATALOG fixpoint on the
//     decision-diagram backend must be row-identical to the same fixpoint
//     resumed incrementally, one seeded base row per Run() as a maintained
//     view does (each tuple's derivations merge into ONE canonical diagram,
//     so the exported DNF is schedule-independent), must represent the same
//     worlds as the antichain backend's fixpoint, and must satisfy the
//     per-world oracle directly.
//
//  9. Certain facts and other worlds — CertainFactInTable (the rows'
//     interned conditions through ConjImpliesDisjunction) and the
//     decision-diagram backend's Or of the same conditions (its DNF members
//     implied by the global) must agree with the per-world oracle
//     (testutil::FactInEveryWorld);
//     UniquenessSearch, which decides
//     "some world differs from I" as implications over the rows' interned
//     conditions, must agree with comparing I against every world
//     (testutil::EveryImageIs), on a table and on a view's image.
//
// 10. Stratum-scheduled fixpoints — on layered programs, the SCC schedule
//     must represent the per-world fixpoints on both backends, and the
//     demand path must equal the restricted full fixpoint.
//
// 11. The decision procedures on the view image — MEMB, UNIQ, POSS, CERT
//     and CONT through ViewImage (decision/view.h), on the identity view
//     and on View::Ra of the bare relation references (CONT: an identity
//     lhs into the union of two tables), must agree with the per-world
//     oracles (testutil::IsWorld, the enumerated worlds, PossibilitySearch,
//     CertaintySearch, EveryWorldIsAnImage) on two-table c-databases that
//     share nulls, g-table databases among them.
//
// 12. PTIME table front ends — the paper's polynomial special cases must
//     agree with the exact searches on arity-3 tables of 8-40 rows (rows of
//     nulls only, rows whose one constant is in the last column, repeated
//     ground facts; globals whose classes may hold no constant):
//     MembershipCoddTables with MembershipSearch (and testutil::IsWorld at
//     up to 6 nulls), PossUnboundedCoddTables with the identity view's
//     bounded Possibility, UniqGTables with UniquenessSearch, and
//     ContGTablesInCoddTables with ContainmentSearch at up to 6 lhs nulls.
//
// Families 1-6 additionally run wholesale on the decision-diagram backend
// via the PW_CONDITION_BACKEND=dd environment variable (the CI matrix's
// tsan-dd cell does exactly that).

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "condition/backend.h"
#include "condition/binding_env.h"
#include "condition/dd_backend.h"
#include "datalog/analysis.h"
#include "datalog/eval.h"
#include "datalog/ivm.h"
#include "decision/certainty.h"
#include "decision/containment.h"
#include "decision/membership.h"
#include "decision/possibility.h"
#include "decision/uniqueness.h"
#include "decision/view.h"
#include "ilalgebra/ctable_eval.h"
#include "ilalgebra/datalog_ctable.h"
#include "ra/eval.h"
#include "ra/properties.h"
#include "tables/text_format.h"
#include "tables/updates.h"
#include "test_util.h"
#include "workload/random_gen.h"

namespace pw {
namespace {

// --- Debuggability ----------------------------------------------------------
//
// Every randomized case is identified by its RNG seed. On failure the
// assertion messages carry the offending program and c-table in replayable
// text form (tables/text_format.h — FormatCTable round-trips through
// ParseCTable), and a SCOPED_TRACE line names the seed. Setting the
// PW_DIFF_SEED environment variable to that seed reruns exactly the matching
// case and skips every other one:
//
//   PW_DIFF_SEED=3007 ctest -R differential --output-on-failure

// PW_DIFF_CASE (test_util.h) opens each randomized case.

/// A random positive existential expression over `num_rels` binary
/// relations. Depth-bounded; every operator of the fragment can appear,
/// including equi-join shapes (selection directly over a product) that the
/// evaluator fuses into hash joins.
RaExpr RandomPosExistential(std::mt19937& rng, int depth, int num_rels = 1) {
  std::uniform_int_distribution<int> pick(0, depth <= 0 ? 0 : 5);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> small_const(0, 3);
  std::uniform_int_distribution<int> rel(0, num_rels - 1);
  switch (pick(rng)) {
    case 0:
      return RaExpr::Rel(rel(rng), 2);
    case 1: {  // select: one or two random atoms over the two columns
      RaExpr in = RandomPosExistential(rng, depth - 1, num_rels);
      std::uniform_int_distribution<int> col(0, in.arity() - 1);
      std::vector<SelectAtom> atoms;
      int n = 1 + coin(rng);
      for (int i = 0; i < n; ++i) {
        ColOrConst lhs = ColOrConst::Col(col(rng));
        ColOrConst rhs = coin(rng) ? ColOrConst::Col(col(rng))
                                   : ColOrConst::Const(small_const(rng));
        atoms.push_back(coin(rng) ? SelectAtom::Eq(lhs, rhs)
                                  : SelectAtom::Neq(lhs, rhs));
      }
      return RaExpr::Select(in, std::move(atoms));
    }
    case 2: {  // generalized project to arity 2 (may duplicate / emit consts)
      RaExpr in = RandomPosExistential(rng, depth - 1, num_rels);
      std::uniform_int_distribution<int> col(0, in.arity() - 1);
      std::vector<ColOrConst> outputs;
      for (int i = 0; i < 2; ++i) {
        outputs.push_back(coin(rng) == 0 && i == 1
                              ? ColOrConst::Const(small_const(rng))
                              : ColOrConst::Col(col(rng)));
      }
      return RaExpr::Project(in, std::move(outputs));
    }
    case 3: {  // product of two shallow subexpressions, projected back to 2
      RaExpr l = RandomPosExistential(rng, 0, num_rels);
      RaExpr r = RandomPosExistential(rng, 0, num_rels);
      RaExpr prod = RaExpr::Product(l, r);
      std::uniform_int_distribution<int> col(0, prod.arity() - 1);
      return RaExpr::ProjectCols(prod, {col(rng), col(rng)});
    }
    case 4: {  // equi-join: selection directly over a product (fuses into a
               // hash join), an optional extra atom of any shape, projected
               // back to 2
      RaExpr l = RandomPosExistential(rng, 0, num_rels);
      RaExpr r = RandomPosExistential(rng, 0, num_rels);
      RaExpr prod = RaExpr::Product(l, r);
      std::uniform_int_distribution<int> lcol(0, l.arity() - 1);
      std::uniform_int_distribution<int> rcol(l.arity(), prod.arity() - 1);
      std::uniform_int_distribution<int> col(0, prod.arity() - 1);
      std::vector<SelectAtom> atoms;
      atoms.push_back(SelectAtom::Eq(ColOrConst::Col(lcol(rng)),
                                     ColOrConst::Col(rcol(rng))));
      if (coin(rng)) {  // side filter, cross inequality, or constant test
        ColOrConst lhs = ColOrConst::Col(col(rng));
        ColOrConst rhs = coin(rng) ? ColOrConst::Col(col(rng))
                                   : ColOrConst::Const(small_const(rng));
        atoms.push_back(coin(rng) ? SelectAtom::Eq(lhs, rhs)
                                  : SelectAtom::Neq(lhs, rhs));
      }
      RaExpr sel = RaExpr::Select(prod, std::move(atoms));
      return RaExpr::ProjectCols(sel, {col(rng), col(rng)});
    }
    default: {  // union of two same-arity subexpressions
      RaExpr l = RandomPosExistential(rng, depth - 1, num_rels);
      RaExpr r = RandomPosExistential(rng, depth - 1, num_rels);
      if (l.arity() != r.arity()) return l;
      return RaExpr::Union(l, r);
    }
  }
}

/// A random n-ary join-shaped query: 3-5 relation leaves combined into a
/// product tree of random shape (left-deep, right-deep, bushy), selections
/// with cross-side equi-join conjuncts, pushable one-side atoms, and
/// cross-side inequalities interleaved at random depths, projections
/// (reordering, duplicating, dropping columns) interleaved between joins,
/// projected back to arity 2 at the top — exactly the shapes the n-ary
/// planner normalizes.
RaExpr RandomNaryJoin(std::mt19937& rng, int num_rels) {
  std::uniform_int_distribution<int> nleaves(3, 5);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> d4(0, 3);
  std::uniform_int_distribution<int> small_const(0, 3);
  std::uniform_int_distribution<int> rel(0, num_rels - 1);

  // Leaves: plain refs, one-leaf selections, column-swapping projections.
  std::vector<RaExpr> parts;
  int n = nleaves(rng);
  for (int i = 0; i < n; ++i) {
    RaExpr leaf = RaExpr::Rel(rel(rng), 2);
    if (d4(rng) == 0) {
      leaf = RaExpr::Select(
          leaf, {coin(rng)
                     ? SelectAtom::Eq(ColOrConst::Col(coin(rng)),
                                      ColOrConst::Const(small_const(rng)))
                     : SelectAtom::Neq(ColOrConst::Col(coin(rng)),
                                       ColOrConst::Const(small_const(rng)))});
    } else if (d4(rng) == 0) {
      leaf = RaExpr::ProjectCols(leaf, {1, 0});
    }
    parts.push_back(leaf);
  }

  // Merge adjacent subtrees at random until one remains: random tree shape,
  // preserving left-to-right leaf order. Each merge is a product, usually
  // topped with a selection carrying a cross-side equi-join conjunct (plus
  // an occasional extra atom of any shape), occasionally topped with a
  // projection that reorders/duplicates/drops columns.
  while (parts.size() > 1) {
    std::uniform_int_distribution<size_t> at(0, parts.size() - 2);
    size_t i = at(rng);
    RaExpr l = parts[i];
    RaExpr r = parts[i + 1];
    RaExpr merged = RaExpr::Product(l, r);
    if (d4(rng) != 0) {  // usually: join the two sides
      std::uniform_int_distribution<int> lcol(0, l.arity() - 1);
      std::uniform_int_distribution<int> rcol(l.arity(), merged.arity() - 1);
      std::uniform_int_distribution<int> col(0, merged.arity() - 1);
      std::vector<SelectAtom> atoms;
      atoms.push_back(SelectAtom::Eq(ColOrConst::Col(lcol(rng)),
                                     ColOrConst::Col(rcol(rng))));
      if (coin(rng)) {  // pushable one-side atom, cross inequality, or
                        // constant test — mixed conjunct kinds
        ColOrConst lhs = ColOrConst::Col(col(rng));
        ColOrConst rhs = coin(rng) ? ColOrConst::Col(col(rng))
                                   : ColOrConst::Const(small_const(rng));
        atoms.push_back(coin(rng) ? SelectAtom::Eq(lhs, rhs)
                                  : SelectAtom::Neq(lhs, rhs));
      }
      merged = RaExpr::Select(merged, std::move(atoms));
    }
    if (d4(rng) == 0 && merged.arity() > 2) {  // interleaved projection
      std::uniform_int_distribution<int> col(0, merged.arity() - 1);
      std::uniform_int_distribution<int> width(2, merged.arity() - 1);
      std::vector<int> cols;
      int w = width(rng);
      for (int c = 0; c < w; ++c) cols.push_back(col(rng));
      merged = RaExpr::ProjectCols(merged, cols);
    }
    parts[i] = merged;
    parts.erase(parts.begin() + static_cast<ptrdiff_t>(i) + 1);
  }
  std::uniform_int_distribution<int> col(0, parts[0].arity() - 1);
  return RaExpr::ProjectCols(parts[0], {col(rng), col(rng)});
}

/// Shared constant context: everything either side could mention.
std::vector<ConstId> SharedContext(const CDatabase& db, const CTable& image) {
  std::vector<ConstId> extra = image.Constants();
  for (ConstId c : db.Constants()) extra.push_back(c);
  for (ConstId c = 0; c <= 3; ++c) extra.push_back(c);  // query constants
  return extra;
}

class DifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialTest, CTableEvalAgreesWithPerWorldEval) {
  // 25 parameter seeds x 5 pairs each = 125 randomized (query, c-table)
  // pairs.
  const unsigned case_seed = 1000 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  for (int round = 0; round < 5; ++round) {
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/3, /*num_constants=*/2, /*num_variables=*/2,
        /*num_local_atoms=*/GetParam() % 2,
        /*num_global_atoms=*/GetParam() % 3);
    CTable t = RandomCTable(options, rng);
    CDatabase db{t};
    RaExpr q = RandomPosExistential(rng, 2);

    auto fast = EvalQueryOnCTables({q}, db);
    auto planned = EvalOnCTables(q, db);
    auto nested = testutil::NestedLoopImage(q, db);
    ASSERT_TRUE(fast.has_value() && planned.has_value() && nested.has_value());

    // The planned executor must be output-*identical* to the paper's rules
    // applied one operator at a time — not merely equivalent up to rep().
    EXPECT_EQ(*planned, *nested)
        << "planned image diverged from nested loop on " << q.ToString()
        << "\n"
        << FormatCTable(t);

    std::vector<ConstId> extra = SharedContext(db, fast->table(0));
    std::vector<std::string> oracle =
        testutil::CanonicalImageWorlds({q}, db, extra);
    EXPECT_EQ(testutil::CanonicalWorlds(*fast, extra), oracle)
        << "c-table image diverged on " << q.ToString() << "\n"
        << FormatCTable(t);

    // Minimized()-after-eval: minimization must preserve the represented
    // image worlds (it runs on the indexed-join output, global attached).
    CDatabase minimized{fast->table(0).Minimized()};
    EXPECT_EQ(testutil::CanonicalWorlds(minimized, extra), oracle)
        << "Minimized() after eval diverged on " << q.ToString() << "\n"
        << FormatCTable(t);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest, ::testing::Range(0, 25));

// N-ary join shapes: 3-5-way products with mixed pushable/cross-side
// conjuncts and interleaved projections, cross-checked against the nested
// loops (testutil::NestedLoopImage) and per-world evaluation.
class NaryJoinDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(NaryJoinDifferentialTest, PlannedJoinAgreesWithNestedLoopAndWorlds) {
  const unsigned case_seed = 6000 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  for (int round = 0; round < 3; ++round) {
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/2, /*num_constants=*/2, /*num_variables=*/2,
        /*num_local_atoms=*/GetParam() % 2,
        /*num_global_atoms=*/GetParam() % 2);
    CTable t0 = RandomCTable(options, rng);
    CTable t1 = RandomCTable(options, rng);
    CDatabase db(std::vector<CTable>{t0, t1});
    RaExpr q = RandomNaryJoin(rng, /*num_rels=*/2);

    auto fast = EvalQueryOnCTables({q}, db);
    auto planned = EvalOnCTables(q, db);
    auto nested = testutil::NestedLoopImage(q, db);
    ASSERT_TRUE(fast.has_value() && planned.has_value() && nested.has_value());

    // The planned n-way join must be output-*identical* to the nested
    // loops — not merely equivalent up to rep().
    EXPECT_EQ(*planned, *nested)
        << "planned join diverged from nested loop on " << q.ToString()
        << "\n"
        << FormatCDatabase(db);

    std::vector<ConstId> extra = SharedContext(db, fast->table(0));
    std::vector<std::string> oracle =
        testutil::CanonicalImageWorlds({q}, db, extra);
    EXPECT_EQ(testutil::CanonicalWorlds(*fast, extra), oracle)
        << "planned join diverged per-world on " << q.ToString() << "\n"
        << FormatCDatabase(db);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NaryJoinDifferentialTest,
                         ::testing::Range(0, 20));

// Multi-table inputs: queries draw from (and join across) two member
// c-tables whose shared variables link the tables like equality conditions;
// the combined global condition spans both members.
class MultiTableDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(MultiTableDifferentialTest, CTableEvalAgreesWithPerWorldEval) {
  const unsigned case_seed = 2000 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  for (int round = 0; round < 3; ++round) {
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/2, /*num_constants=*/2, /*num_variables=*/2,
        /*num_local_atoms=*/GetParam() % 2,
        /*num_global_atoms=*/GetParam() % 2);
    CTable t0 = RandomCTable(options, rng);
    CTable t1 = RandomCTable(options, rng);
    CDatabase db(std::vector<CTable>{t0, t1});
    RaExpr q = RandomPosExistential(rng, 2, /*num_rels=*/2);

    auto fast = EvalQueryOnCTables({q}, db);
    auto planned = EvalOnCTables(q, db);
    auto nested = testutil::NestedLoopImage(q, db);
    ASSERT_TRUE(fast.has_value() && planned.has_value() && nested.has_value());
    EXPECT_EQ(*planned, *nested)
        << "planned image diverged from nested loop on " << q.ToString()
        << "\n"
        << FormatCDatabase(db);

    std::vector<ConstId> extra = SharedContext(db, fast->table(0));
    std::vector<std::string> oracle =
        testutil::CanonicalImageWorlds({q}, db, extra);
    EXPECT_EQ(testutil::CanonicalWorlds(*fast, extra), oracle)
        << "c-table image diverged on " << q.ToString() << "\n"
        << FormatCDatabase(db);

    CDatabase minimized{fast->table(0).Minimized()};
    EXPECT_EQ(testutil::CanonicalWorlds(minimized, extra), oracle)
        << "Minimized() after eval diverged on " << q.ToString() << "\n"
        << FormatCDatabase(db);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiTableDifferentialTest,
                         ::testing::Range(0, 15));

TEST(DifferentialEdgeTest, UnsatisfiableGlobalYieldsNoWorlds) {
  CTable t = testutil::MakeTable(2, std::vector<Tuple>{{C(1), V(0)}});
  t.SetGlobal(Conjunction{Eq(V(0), C(1)), Eq(V(0), C(2))});
  CDatabase db{t};
  RaExpr q = RaExpr::Rel(0, 2);
  auto image = EvalQueryOnCTables({q}, db);
  ASSERT_TRUE(image.has_value());
  EXPECT_TRUE(testutil::CanonicalWorlds(*image, db.Constants()).empty());
  EXPECT_TRUE(testutil::CanonicalImageWorlds({q}, db, db.Constants()).empty());
}

// --- Conditioned DATALOG views ----------------------------------------------

/// A random range-restricted pure DATALOG program: `num_edb` binary
/// extensional predicates, two binary intensional ones, 2-4 rules with 1-2
/// body atoms over rule variables and small constants.
DatalogProgram RandomDatalogProgram(std::mt19937& rng, int num_edb = 1) {
  DatalogProgram p(std::vector<int>(num_edb + 2, 2), num_edb);
  std::uniform_int_distribution<int> num_rules(2, 4);
  std::uniform_int_distribution<int> body_len(1, 2);
  std::uniform_int_distribution<int> any_pred(0, num_edb + 1);
  std::uniform_int_distribution<int> idb_pred(num_edb, num_edb + 1);
  std::uniform_int_distribution<VarId> var(100, 102);
  std::uniform_int_distribution<int> small_const(0, 2);
  std::uniform_int_distribution<int> d10(0, 9);
  int n = num_rules(rng);
  for (int r = 0; r < n; ++r) {
    DatalogRule rule;
    std::vector<VarId> body_vars;
    int len = body_len(rng);
    for (int b = 0; b < len; ++b) {
      DatalogAtom atom;
      atom.predicate = any_pred(rng);
      for (int i = 0; i < 2; ++i) {
        if (d10(rng) == 0) {
          atom.args.push_back(C(small_const(rng)));
        } else {
          VarId v = var(rng);
          atom.args.push_back(V(v));
          body_vars.push_back(v);
        }
      }
      rule.body.push_back(std::move(atom));
    }
    rule.head.predicate = idb_pred(rng);
    for (int i = 0; i < 2; ++i) {
      if (body_vars.empty() || d10(rng) == 0) {
        rule.head.args.push_back(C(small_const(rng)));
      } else {
        std::uniform_int_distribution<size_t> pick(0, body_vars.size() - 1);
        rule.head.args.push_back(V(body_vars[pick(rng)]));
      }
    }
    p.AddRule(std::move(rule));
  }
  EXPECT_EQ(p.Validate(), "");
  return p;
}

/// Inserts one malformed rule at a random position of `program`: an
/// extensional head, a head variable no body atom binds, or a ground rule
/// whose head has a variable. Every atom fits its predicate. Returns the
/// planted rule's index.
size_t PlantMalformedRule(DatalogProgram& program, std::mt19937& rng) {
  const int num_edb = static_cast<int>(program.num_edb());
  const int num_preds = static_cast<int>(program.num_predicates());
  std::uniform_int_distribution<int> edb_pred(0, num_edb - 1);
  std::uniform_int_distribution<int> idb_pred(num_edb, num_preds - 1);
  std::uniform_int_distribution<int> any_pred(0, num_preds - 1);
  DatalogRule rule;
  switch (std::uniform_int_distribution<int>(0, 2)(rng)) {
    case 0:  // f(x, y) :- p(x, y) with f extensional
      rule.head = {edb_pred(rng), Tuple{V(100), V(101)}};
      rule.body = {{any_pred(rng), Tuple{V(100), V(101)}}};
      break;
    case 1:  // q(x, z) :- p(x, y), with z in no body atom
      rule.head = {idb_pred(rng), Tuple{V(100), V(102)}};
      rule.body = {{any_pred(rng), Tuple{V(100), V(101)}}};
      break;
    default:  // q(x, 1) :- .
      rule.head = {idb_pred(rng), Tuple{V(100), C(1)}};
      break;
  }
  std::vector<DatalogRule> rules = program.rules();
  const size_t at =
      std::uniform_int_distribution<size_t>(0, rules.size())(rng);
  rules.insert(rules.begin() + static_cast<std::ptrdiff_t>(at), rule);
  std::vector<int> arities;
  for (int p = 0; p < num_preds; ++p) arities.push_back(program.arity(p));
  program = DatalogProgram(arities, program.num_edb());
  for (DatalogRule& r : rules) program.AddRule(std::move(r));
  return at;
}

/// Validate() names the planted rule and no other, and Fits rejects exactly
/// the rules the analysis reports.
void ExpectOnlyPlantedRuleReported(const DatalogProgram& program,
                                   size_t planted) {
  const std::string validate = program.Validate();
  const std::string prefix = "error: rule " + std::to_string(planted) + ": ";
  EXPECT_FALSE(validate.empty()) << program.ToString();
  size_t begin = 0;
  while (begin < validate.size()) {
    size_t end = validate.find('\n', begin);
    if (end == std::string::npos) end = validate.size();
    EXPECT_EQ(validate.compare(begin, prefix.size(), prefix), 0)
        << validate << "\n" << program.ToString();
    begin = end + 1;
  }
  const ProgramAnalysis analysis(program);
  for (size_t r = 0; r < program.rules().size(); ++r) {
    const bool reported = std::any_of(
        analysis.diagnostics().begin(), analysis.diagnostics().end(),
        [r](const Diagnostic& d) { return d.rule == static_cast<int>(r); });
    EXPECT_EQ(program.Fits(program.rules()[r]), !reported)
        << "rule " << r << "\n" << program.ToString();
  }
}

using testutil::CanonicalRows;

/// Asserts the full per-world identity of a conditioned fixpoint: for every
/// satisfying valuation, sigma(image) == DATALOG fixpoint of sigma(db), as
/// computed by `eval`.
void ExpectRepresentsFixpointOfEveryWorld(
    const DatalogProgram& program, const CDatabase& db, const CDatabase& image,
    Instance (*eval)(const DatalogProgram&, const Instance&) = SemiNaiveEval) {
  EXPECT_TRUE(
      testutil::RepresentsFixpointOfEveryWorld(program, db, image, eval))
      << program.ToString() << FormatCDatabase(db) << image.ToString();
}

class DatalogDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(DatalogDifferentialTest, SemiNaiveAgreesWithNaiveAndPerWorld) {
  // 25 parameter seeds x 5 (program, c-table) pairs: the semi-naive
  // conditioned fixpoint must represent exactly the per-world fixpoints,
  // computed world by world with the naive complete-information evaluator
  // (an independent reference: no delta windows, no strata, no indexes).
  // The last program carries one planted malformed rule.
  const unsigned case_seed = 3000 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  for (int round = 0; round < 5; ++round) {
    DatalogProgram program = RandomDatalogProgram(rng);
    if (round == 4) {
      ExpectOnlyPlantedRuleReported(program,
                                    PlantMalformedRule(program, rng));
    }
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/3, /*num_constants=*/3, /*num_variables=*/2,
        /*num_local_atoms=*/GetParam() % 2,
        /*num_global_atoms=*/GetParam() % 2);
    CTable t = RandomCTable(options, rng);
    CDatabase db{t};

    CDatabase fast = DatalogOnCTables(program, db);
    ExpectRepresentsFixpointOfEveryWorld(program, db, fast, NaiveEval);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DatalogDifferentialTest,
                         ::testing::Range(0, 25));

// Multi-table c-database inputs: two extensional predicates seeded from two
// member c-tables (shared variables link them), random rules joining across
// both — the conditioned fixpoint vs per-world evaluation.
class DatalogMultiTableDifferentialTest
    : public ::testing::TestWithParam<int> {};

TEST_P(DatalogMultiTableDifferentialTest, AgreesAcrossStrategiesAndWorlds) {
  const unsigned case_seed = 5000 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  for (int round = 0; round < 3; ++round) {
    DatalogProgram program = RandomDatalogProgram(rng, /*num_edb=*/2);
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/2, /*num_constants=*/3, /*num_variables=*/2,
        /*num_local_atoms=*/GetParam() % 2,
        /*num_global_atoms=*/GetParam() % 2);
    CTable t0 = RandomCTable(options, rng);
    CTable t1 = RandomCTable(options, rng);
    CDatabase db(std::vector<CTable>{t0, t1});

    CDatabase fast = DatalogOnCTables(program, db);
    ExpectRepresentsFixpointOfEveryWorld(program, db, fast, NaiveEval);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DatalogMultiTableDifferentialTest,
                         ::testing::Range(0, 15));

// --- Query-directed (magic-set) evaluation ----------------------------------

/// A random goal binding: each position independently bound to a small
/// constant or left free.
std::vector<std::optional<ConstId>> RandomBindings(std::mt19937& rng,
                                                   int arity) {
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> small_const(0, 2);
  std::vector<std::optional<ConstId>> out;
  for (int i = 0; i < arity; ++i) {
    out.push_back(coin(rng) ? std::optional<ConstId>(small_const(rng))
                            : std::nullopt);
  }
  return out;
}

std::string BindingsString(const std::vector<std::optional<ConstId>>& b) {
  std::string out = "(";
  for (size_t i = 0; i < b.size(); ++i) {
    if (i > 0) out += ",";
    out += b[i].has_value() ? std::to_string(*b[i]) : "_";
  }
  return out + ")";
}

bool MatchesBindings(const Fact& fact,
                     const std::vector<std::optional<ConstId>>& bindings) {
  for (size_t i = 0; i < bindings.size(); ++i) {
    if (bindings[i].has_value() && fact[i] != *bindings[i]) return false;
  }
  return true;
}

// Random programs + random goal binding patterns: the magic-rewritten run
// must return exactly the full fixpoint's facts restricted to the goal
// (RestrictTableToGoal over DatalogOnCTables) — same tuples,
// interned-id-identical conditions (CanonicalRowSet renders the
// interner-canonical form, which is 1:1 with the id) — and must represent
// the per-world goal answers exactly. One caveat under the decision-diagram
// backend: the magic and full programs merge *different* per-tuple
// diagrams (demand atoms are distinct propositional variables), so their
// exports can expand to different covering DNFs of the same world-set —
// there the magic-vs-full comparison is per-world, which is that backend's
// documented contract.
class MagicDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(MagicDifferentialTest, MagicEqualsRestrictedFullFixpoint) {
  const unsigned case_seed = 7000 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  for (int round = 0; round < 5; ++round) {
    int num_edb = 1 + (round % 2);
    DatalogProgram program = RandomDatalogProgram(rng, num_edb);
    if (round == 4) {  // one planted malformed rule
      ExpectOnlyPlantedRuleReported(program,
                                    PlantMalformedRule(program, rng));
    }
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/3 - (num_edb - 1), /*num_constants=*/3,
        /*num_variables=*/2,
        /*num_local_atoms=*/GetParam() % 2,
        /*num_global_atoms=*/GetParam() % 2);
    std::vector<CTable> tables;
    for (int p = 0; p < num_edb; ++p) {
      tables.push_back(RandomCTable(options, rng));
    }
    CDatabase db(tables);
    std::uniform_int_distribution<int> any_pred(
        0, static_cast<int>(program.num_predicates()) - 1);
    int goal = any_pred(rng);
    std::vector<std::optional<ConstId>> bindings =
        RandomBindings(rng, program.arity(goal));
    std::string label = "goal P" + std::to_string(goal) +
                        BindingsString(bindings) + "\n" + program.ToString() +
                        FormatCDatabase(db);

    CTable via_magic = DatalogQueryOnCTables(program, db, goal, bindings);
    CTable via_full =
        testutil::RestrictedFullFixpoint(program, db, goal, bindings);
    if (ResolveConditionBackendKind(ConditionBackendKind::kDefault) ==
        ConditionBackendKind::kDecisionDiagrams) {
      std::vector<ConstId> extra;
      for (ConstId c = 0; c <= 3; ++c) extra.push_back(c);
      EXPECT_EQ(testutil::CanonicalWorlds(CDatabase{via_magic}, extra),
                testutil::CanonicalWorlds(CDatabase{via_full}, extra))
          << "magic diverged (per-world) from restricted full fixpoint on "
          << label;
    } else {
      EXPECT_EQ(CanonicalRows(via_magic), CanonicalRows(via_full))
          << "magic diverged from restricted full fixpoint on " << label;
    }
    EXPECT_EQ(via_magic.global(), via_full.global());

    // Per-world: sigma(answers) == the goal-matching facts of the DATALOG
    // fixpoint of sigma(db), for every satisfying valuation.
    WorldEnumOptions wopts;
    for (ConstId c = 0; c <= 3; ++c) wopts.extra_constants.push_back(c);
    bool all_match = true;
    ForEachSatisfyingValuation(db, wopts, [&](const Valuation& v) {
      Instance world = v.Apply(db);
      Instance fix = SemiNaiveEval(program, world);
      Relation expected(program.arity(goal));
      for (const Fact& f : fix.relation(static_cast<size_t>(goal))) {
        if (MatchesBindings(f, bindings)) expected.Insert(f);
      }
      if (v.Apply(via_magic) != expected) {
        all_match = false;
        return false;
      }
      return true;
    });
    EXPECT_TRUE(all_match) << "magic answers diverged per-world on " << label;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MagicDifferentialTest, ::testing::Range(0, 20));

// --- Multi-output queries and nested views -----------------------------------

// Multi-output DATALOG queries: the image database formed by *both*
// intensional tables (global carried on the first) must represent exactly
// the pointwise pairs of fixpoint relations.
class MultiOutputDatalogDifferentialTest
    : public ::testing::TestWithParam<int> {};

TEST_P(MultiOutputDatalogDifferentialTest, ImageRepresentsOutputPairs) {
  const unsigned case_seed = 8000 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  for (int round = 0; round < 3; ++round) {
    DatalogProgram program = RandomDatalogProgram(rng);
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/3, /*num_constants=*/3, /*num_variables=*/2,
        /*num_local_atoms=*/GetParam() % 2,
        /*num_global_atoms=*/GetParam() % 2);
    CTable t = RandomCTable(options, rng);
    CDatabase db{t};

    CDatabase fixpoint = DatalogOnCTables(program, db);
    CDatabase image(
        std::vector<CTable>{fixpoint.table(1), fixpoint.table(2)});
    image.mutable_table(0).SetGlobal(fixpoint.CombinedGlobal());

    std::vector<ConstId> extra = db.Constants();
    for (size_t p = 0; p < image.num_tables(); ++p) {
      for (ConstId c : image.table(p).Constants()) extra.push_back(c);
    }
    for (ConstId c = 0; c <= 3; ++c) extra.push_back(c);

    WorldEnumOptions wopts;
    wopts.extra_constants = extra;
    std::vector<std::string> oracle;
    ForEachWorld(db, wopts, [&](const Instance& world, const Valuation&) {
      Instance fix = SemiNaiveEval(program, world);
      oracle.push_back(testutil::CanonicalWorldString(
          Instance({fix.relation(1), fix.relation(2)}), extra));
      return true;
    });
    std::sort(oracle.begin(), oracle.end());
    oracle.erase(std::unique(oracle.begin(), oracle.end()), oracle.end());

    EXPECT_EQ(testutil::CanonicalWorlds(image, extra), oracle)
        << "multi-output image diverged on\n"
        << program.ToString() << FormatCTable(t);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiOutputDatalogDifferentialTest,
                         ::testing::Range(0, 15));

// Nested views: the intensional output of one program becomes the input of
// a second program AND of an RA expression; both nestings must act pointwise
// on the represented worlds.
class NestedViewDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(NestedViewDifferentialTest, NestingsActPointwiseOnWorlds) {
  const unsigned case_seed = 9000 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  for (int round = 0; round < 2; ++round) {
    DatalogProgram inner = RandomDatalogProgram(rng);
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/2, /*num_constants=*/3, /*num_variables=*/2,
        /*num_local_atoms=*/GetParam() % 2,
        /*num_global_atoms=*/GetParam() % 2);
    CTable t = RandomCTable(options, rng);
    CDatabase db{t};

    CDatabase stage1 = DatalogOnCTables(inner, db);
    CDatabase mid(std::vector<CTable>{stage1.table(1), stage1.table(2)});
    mid.mutable_table(0).SetGlobal(stage1.CombinedGlobal());

    // (a) DATALOG over the DATALOG view: the two intensional outputs are the
    // second program's extensional predicates.
    DatalogProgram outer = RandomDatalogProgram(rng, /*num_edb=*/2);
    CDatabase stage2 = DatalogOnCTables(outer, mid);
    // (b) an RA expression over the same view outputs.
    RaExpr q = RandomPosExistential(rng, 2, /*num_rels=*/2);
    auto ra_image = EvalQueryOnCTables({q}, mid);
    ASSERT_TRUE(ra_image.has_value());

    WorldEnumOptions wopts;
    for (ConstId c = 0; c <= 3; ++c) wopts.extra_constants.push_back(c);
    bool datalog_match = true;
    bool ra_match = true;
    ForEachSatisfyingValuation(db, wopts, [&](const Valuation& v) {
      Instance world = v.Apply(db);
      Instance fix = SemiNaiveEval(inner, world);
      Instance mid_world({fix.relation(1), fix.relation(2)});
      if (v.Apply(stage2) != SemiNaiveEval(outer, mid_world)) {
        datalog_match = false;
      }
      if (v.Apply(ra_image->table(0)) !=
          EvalQuery({q}, mid_world).relation(0)) {
        ra_match = false;
      }
      return datalog_match && ra_match;
    });
    EXPECT_TRUE(datalog_match)
        << "nested DATALOG view diverged per-world on\n"
        << inner.ToString() << "then\n"
        << outer.ToString() << FormatCTable(t);
    EXPECT_TRUE(ra_match) << "RA over DATALOG view diverged per-world on\n"
                          << inner.ToString() << "then " << q.ToString()
                          << "\n"
                          << FormatCTable(t);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NestedViewDifferentialTest,
                         ::testing::Range(0, 15));

// Goal-shaped possibility through the demand path: PossDatalogDemand (each
// pattern fact a fully bound magic-set goal) must agree with the per-world
// possibility search on random DATALOG views and patterns.
class DemandPossibilityDifferentialTest
    : public ::testing::TestWithParam<int> {};

TEST_P(DemandPossibilityDifferentialTest, DemandAgreesWithSearch) {
  const unsigned case_seed = 9500 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  for (int round = 0; round < 3; ++round) {
    DatalogProgram program = RandomDatalogProgram(rng);
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/3, /*num_constants=*/3, /*num_variables=*/2,
        /*num_local_atoms=*/GetParam() % 2,
        /*num_global_atoms=*/GetParam() % 2);
    CTable t = RandomCTable(options, rng);
    CDatabase db{t};
    View view = View::Datalog(program, {1, 2});

    std::uniform_int_distribution<int> num_facts(1, 2);
    std::uniform_int_distribution<int> rel(0, 1);
    std::uniform_int_distribution<int> small_const(0, 2);
    std::vector<LocatedFact> pattern;
    int n = num_facts(rng);
    for (int i = 0; i < n; ++i) {
      pattern.push_back({static_cast<size_t>(rel(rng)),
                         {small_const(rng), small_const(rng)}});
    }

    auto demand = PossDatalogDemand(view, db, pattern);
    bool search = PossibilitySearch(view, db, pattern);
    // nullopt when the demand path declines (an all-free sub-demand, or
    // budget exhaustion — the latter not expected at these tiny sizes).
    if (demand.has_value()) {
      EXPECT_EQ(*demand, search) << "demand-path possibility diverged on\n"
                                 << program.ToString() << FormatCTable(t);
    }
    // The dispatcher routes DATALOG views through the demand path (falling
    // back to the search when it declines — either way it must agree).
    EXPECT_EQ(Possibility(view, db, pattern), search);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DemandPossibilityDifferentialTest,
                         ::testing::Range(0, 15));

// --- Updates ----------------------------------------------------------------

/// One randomized update against a table: insert, delete, or conditional
/// insert of a random small fact.
struct RandomUpdate {
  enum Kind { kInsert, kDelete, kInsertIf } kind;
  Fact fact;
  Conjunction condition;  // kInsertIf only
};

RandomUpdate DrawUpdate(std::mt19937& rng, int num_constants,
                        int num_variables) {
  std::uniform_int_distribution<int> kind(0, 2);
  std::uniform_int_distribution<int> c(0, num_constants - 1);
  std::uniform_int_distribution<VarId> v(0, num_variables - 1);
  std::uniform_int_distribution<int> coin(0, 1);
  RandomUpdate out;
  out.kind = static_cast<RandomUpdate::Kind>(kind(rng));
  out.fact = {c(rng), c(rng)};
  if (out.kind == RandomUpdate::kInsertIf) {
    // One atom over the table's own variable pool, so the valuation oracle
    // covers it.
    CondAtom atom = coin(rng) ? Eq(V(v(rng)), C(c(rng)))
                              : Neq(V(v(rng)), C(c(rng)));
    out.condition = Conjunction{atom};
  }
  return out;
}

void ApplyUpdate(CTable& table, const RandomUpdate& update) {
  switch (update.kind) {
    case RandomUpdate::kInsert:
      InsertFactInPlace(table, update.fact);
      break;
    case RandomUpdate::kDelete:
      DeleteFactInPlace(table, update.fact);
      break;
    case RandomUpdate::kInsertIf:
      InsertFactIfInPlace(table, update.fact, update.condition);
      break;
  }
}

/// The per-world meaning of one update under valuation `v`.
Relation ApplyUpdateToWorld(const Relation& world, const RandomUpdate& update,
                            const Valuation& v) {
  Relation out(world.arity());
  for (const Fact& f : world) {
    if (update.kind == RandomUpdate::kDelete && f == update.fact) continue;
    out.Insert(f);
  }
  if (update.kind == RandomUpdate::kInsert ||
      (update.kind == RandomUpdate::kInsertIf &&
       v.Satisfies(update.condition))) {
    out.Insert(update.fact);
  }
  return out;
}

class UpdateDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(UpdateDifferentialTest, UpdateSequencesActPointwiseOnWorlds) {
  // 25 parameter seeds x 4 rounds: a random c-table, a random sequence of
  // 1-3 updates. The updated table's worlds must equal the per-world update
  // results, valuation by valuation; a transitive-closure view evaluated
  // over the updated table must then represent the per-world fixpoints of
  // those results.
  const unsigned case_seed = 4000 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  constexpr int kConstants = 3;
  constexpr int kVariables = 2;
  for (int round = 0; round < 4; ++round) {
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/3, /*num_constants=*/kConstants,
        /*num_variables=*/kVariables,
        /*num_local_atoms=*/GetParam() % 2,
        /*num_global_atoms=*/GetParam() % 2);
    CTable t = RandomCTable(options, rng);

    std::uniform_int_distribution<int> num_updates(1, 3);
    std::vector<RandomUpdate> updates;
    CTable updated = t;
    int n = num_updates(rng);
    for (int u = 0; u < n; ++u) {
      updates.push_back(DrawUpdate(rng, kConstants, kVariables));
      ApplyUpdate(updated, updates.back());
    }

    // Enumerate over the whole variable pool: deleting a fully-ground row
    // can drop variables that occur only in its local condition from the
    // updated table, and the oracle needs every variable any intermediate
    // condition mentioned bound. The carrier table pins the pool; the
    // duplicated global condition does not change the satisfying set.
    WorldEnumOptions wopts;
    for (ConstId c = 0; c < kConstants; ++c) {
      wopts.extra_constants.push_back(c);
    }
    CTable carrier(1);
    for (VarId var = 0; var < kVariables; ++var) {
      carrier.AddRow(Tuple{V(var)});
    }
    CDatabase updated_db{updated};
    CDatabase joint(std::vector<CTable>{t, updated, carrier});
    bool all_match = true;
    ForEachSatisfyingValuation(joint, wopts, [&](const Valuation& v) {
      Relation expected = v.Apply(t);
      for (const RandomUpdate& update : updates) {
        expected = ApplyUpdateToWorld(expected, update, v);
      }
      if (v.Apply(updated) != expected) {
        all_match = false;
        return false;
      }
      return true;
    });
    EXPECT_TRUE(all_match) << FormatCTable(t) << FormatCTable(updated);

    // A DATALOG view over the updated table represents the correct worlds.
    DatalogProgram tc({2, 2}, /*num_edb=*/1);
    DatalogRule base;
    base.head = {1, Tuple{V(100), V(101)}};
    base.body = {{0, Tuple{V(100), V(101)}}};
    tc.AddRule(base);
    DatalogRule step;
    step.head = {1, Tuple{V(100), V(102)}};
    step.body = {{1, Tuple{V(100), V(101)}}, {0, Tuple{V(101), V(102)}}};
    tc.AddRule(step);

    CDatabase fast = DatalogOnCTables(tc, updated_db);
    ExpectRepresentsFixpointOfEveryWorld(tc, updated_db, fast);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpdateDifferentialTest,
                         ::testing::Range(0, 25));

// --- Incremental view maintenance -------------------------------------------

/// Routes one randomized update through a maintained view's update API.
void ApplyUpdateToView(MaterializedView& view, int pred,
                       const RandomUpdate& update) {
  switch (update.kind) {
    case RandomUpdate::kInsert:
      view.Insert(pred, update.fact);
      break;
    case RandomUpdate::kDelete:
      view.Delete(pred, update.fact);
      break;
    case RandomUpdate::kInsertIf:
      view.InsertIf(pred, update.fact, update.condition);
      break;
  }
}

/// Plants, into a random two-table program (e0, e1, P, Q), a delete cone
/// that reads a base table the delete leaves untouched: P(x,y) :- e0(x,y),
/// P(x,y) :- e1(x,y), and Q(x,z) :- P(x,y), e1(y,z). A delete from e0 resets
/// the fixpoint, and the re-derivation must read every e1 row again through
/// P's rule over e1, which it does only if the reset drops every consumed
/// mark and every base table is reseeded.
void PlantUntouchedTableCone(DatalogProgram& program) {
  const Tuple xy{V(100), V(101)};
  program.AddRule(DatalogRule{{2, xy}, {{0, xy}}});
  program.AddRule(DatalogRule{{2, xy}, {{1, xy}}});
  program.AddRule(DatalogRule{{3, Tuple{V(100), V(102)}},
                              {{2, xy}, {1, Tuple{V(101), V(102)}}}});
}

class IvmDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(IvmDifferentialTest, MaintainedViewsStayIdenticalToRecompute) {
  // 20 parameter seeds x 4 rounds: random programs (alternating one and two
  // extensional predicates) over random c-tables, driven through 3-5
  // randomized updates. After *every* update, each maintained view — a
  // full view and a magic-set demand view — must be identical (same tuples,
  // same interned condition ids, up to row order) to recomputing its
  // program from scratch on its updated base, and the full view must
  // represent the per-world fixpoints of that base. This is the IVM
  // invariant: the reset-and-rederive of a changing delete and resumed
  // semi-naive rounds may never leave a stale row or a
  // stronger-than-necessary condition behind. The last round plants a cone
  // over an untouched base table (PlantUntouchedTableCone) and sends every
  // delete to e0, so it checks the reset; its tables are redrawn while
  // their rep is empty, so that every seed's recomputed fixpoints derive
  // some intensional row (a seed that derives none passes under any
  // fixpoint fault).
  const unsigned case_seed = 10000 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  constexpr int kConstants = 3;
  constexpr int kVariables = 2;
  size_t derived_rows = 0;  // intensional rows of every recomputed fixpoint
  for (int round = 0; round < 4; ++round) {
    const int num_edb = 1 + (round % 2);
    const bool planted = round == 3;
    DatalogProgram program = RandomDatalogProgram(rng, num_edb);
    if (planted) PlantUntouchedTableCone(program);
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/2, /*num_constants=*/kConstants,
        /*num_variables=*/kVariables,
        /*num_local_atoms=*/GetParam() % 2,
        /*num_global_atoms=*/GetParam() % 2);
    CDatabase db;
    do {
      std::vector<CTable> tables;
      for (int p = 0; p < num_edb; ++p) {
        tables.push_back(RandomCTable(options, rng));
      }
      db = CDatabase(std::move(tables));
    } while (planted && RepIsEmpty(db));

    // Moved right after construction — maintained state must survive moves.
    MaterializedView built(program, db);
    MaterializedView view = std::move(built);
    DatalogGoal goal{/*predicate=*/num_edb, RandomBindings(rng, 2)};
    MaterializedView demand(program, db, goal);

    std::uniform_int_distribution<int> num_updates(3, 5);
    std::uniform_int_distribution<int> pick_pred(0, num_edb - 1);
    const int n = num_updates(rng);
    for (int u = 0; u < n; ++u) {
      RandomUpdate update = DrawUpdate(rng, kConstants, kVariables);
      const int pred =
          planted && update.kind == RandomUpdate::kDelete ? 0 : pick_pred(rng);
      ApplyUpdateToView(view, pred, update);
      ApplyUpdateToView(demand, pred, update);

      CDatabase maintained = view.Materialized();
      CDatabase scratch = DatalogOnCTables(program, view.base());
      ASSERT_EQ(maintained.num_tables(), scratch.num_tables());
      for (size_t p = program.num_edb(); p < scratch.num_tables(); ++p) {
        derived_rows += scratch.table(p).num_rows();
      }
      for (size_t p = 0; p < maintained.num_tables(); ++p) {
        EXPECT_EQ(CanonicalRows(maintained.table(p)),
                  CanonicalRows(scratch.table(p)))
            << "maintained view diverged from recompute on predicate " << p
            << " after update " << u << "\n"
            << program.ToString() << FormatCDatabase(view.base());
      }
      ExpectRepresentsFixpointOfEveryWorld(program, view.base(), maintained);
      CTable answers = demand.Answers();
      CTable scratch_answers = DatalogQueryOnCTables(
          program, demand.base(), goal.predicate, goal.bindings);
      EXPECT_EQ(CanonicalRows(answers), CanonicalRows(scratch_answers))
          << "demand view diverged from query-from-scratch with bindings "
          << BindingsString(goal.bindings) << " after update " << u << "\n"
          << program.ToString() << FormatCDatabase(demand.base());
    }

    // Nested consumption: a second program (transitive closure) evaluated
    // over the maintained IDB output must match the same program over the
    // recomputed output — maintained views compose downstream.
    DatalogProgram tc({2, 2}, /*num_edb=*/1);
    DatalogRule base;
    base.head = {1, Tuple{V(100), V(101)}};
    base.body = {{0, Tuple{V(100), V(101)}}};
    tc.AddRule(base);
    DatalogRule step;
    step.head = {1, Tuple{V(100), V(102)}};
    step.body = {{1, Tuple{V(100), V(101)}}, {0, Tuple{V(101), V(102)}}};
    tc.AddRule(step);
    CDatabase maintained = view.Materialized();
    CDatabase scratch = DatalogOnCTables(program, view.base());
    CDatabase over_maintained =
        DatalogOnCTables(tc, CDatabase{maintained.table(num_edb)});
    CDatabase over_scratch =
        DatalogOnCTables(tc, CDatabase{scratch.table(num_edb)});
    ASSERT_EQ(over_maintained.num_tables(), over_scratch.num_tables());
    for (size_t p = 0; p < over_maintained.num_tables(); ++p) {
      EXPECT_EQ(CanonicalRows(over_maintained.table(p)),
                CanonicalRows(over_scratch.table(p)))
          << "nested program over maintained output diverged on predicate "
          << p << "\n"
          << program.ToString() << FormatCDatabase(view.base());
    }
  }
  EXPECT_GT(derived_rows, 0u) << "no recomputed fixpoint derived a row";
}

INSTANTIATE_TEST_SUITE_P(Seeds, IvmDifferentialTest, ::testing::Range(0, 20));

TEST(DifferentialEdgeTest, InternedPathPrunesUnsatisfiableRows) {
  // A select contradicting a row's local condition: the row is dropped
  // outright instead of being kept under an unsatisfiable local, and the
  // image still represents the per-world query results.
  CTable t(1);
  t.AddRow(Tuple{V(0)}, Conjunction{Eq(V(0), C(1))});
  CDatabase db{t};
  RaExpr q = RaExpr::Select(
      RaExpr::Rel(0, 1),
      {SelectAtom::Eq(ColOrConst::Col(0), ColOrConst::Const(2))});

  auto image = EvalQueryOnCTables({q}, db);
  ASSERT_TRUE(image.has_value());
  EXPECT_EQ(image->table(0).num_rows(), 0u);
  std::vector<ConstId> extra = SharedContext(db, image->table(0));
  EXPECT_EQ(testutil::CanonicalWorlds(*image, extra),
            testutil::CanonicalImageWorlds({q}, db, extra));
}

// --- Family 7: condition algebra across backends ---------------------------

/// Truth of one =/!= atom under a total valuation (indexed by VarId).
bool AtomHolds(const CondAtom& atom, const std::vector<ConstId>& valuation) {
  auto value = [&](const Term& t) {
    return t.is_constant() ? t.constant()
                           : valuation[static_cast<size_t>(t.variable())];
  };
  return (value(atom.lhs) == value(atom.rhs)) == atom.is_equality;
}

/// Truth of an interned conjunction under a valuation.
bool ConjHolds(const ConditionInterner& interner, ConjId id,
               const std::vector<ConstId>& valuation) {
  if (id == ConditionInterner::kTrueConj) return true;
  if (id == ConditionInterner::kFalseConj) return false;
  for (const CondAtom& atom : interner.Resolve(id).atoms()) {
    if (!AtomHolds(atom, valuation)) return false;
  }
  return true;
}

/// A random conjunction over a pool small enough that implications,
/// contradictions, and tautologies all actually occur.
Conjunction RandomAlgebraConjunction(std::mt19937& rng) {
  std::uniform_int_distribution<int> natoms(1, 2);
  std::uniform_int_distribution<int> var(0, 2);
  std::uniform_int_distribution<int> constant(0, 2);
  std::uniform_int_distribution<int> kind(0, 3);
  Conjunction c;
  int n = natoms(rng);
  for (int i = 0; i < n; ++i) {
    switch (kind(rng)) {
      case 0:
        c.Add(Eq(V(var(rng)), C(constant(rng))));
        break;
      case 1:
        c.Add(Neq(V(var(rng)), C(constant(rng))));
        break;
      case 2:
        c.Add(Eq(V(var(rng)), V(var(rng))));
        break;
      default:
        c.Add(Neq(V(var(rng)), V(var(rng))));
        break;
    }
  }
  return c;
}

class ConditionAlgebraDifferentialTest : public ::testing::TestWithParam<int> {
};

TEST_P(ConditionAlgebraDifferentialTest, BackendsAgreeWithSmallModelOracle) {
  // Random And/Or trees over random conjunction leaves, built on the
  // decision-diagram backend; every verdict the fixpoint and the decision
  // procedures rely on is compared against the brute-force oracle: the
  // diagram's own, and ConjImpliesDisjunction's (the certain-fact search)
  // over each expression's DNF members. The oracle enumerates valuations
  // over the mentioned constants (0..2) plus one fresh value per variable —
  // complete for boolean combinations of =/!= atoms over the infinite
  // domain, because any model collapses to one where each variable takes a
  // mentioned constant or one of |vars| pairwise-distinct fresh values.
  const unsigned case_seed = 11000 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);

  ConditionInterner interner;
  DDBackend dd(interner);

  constexpr int kVars = 3;
  const std::vector<ConstId> domain = {0, 1, 2, 100, 101, 102};
  std::vector<std::vector<ConstId>> valuations;
  static_assert(kVars == 3, "the valuation odometer below is unrolled");
  for (ConstId a : domain) {
    for (ConstId b : domain) {
      for (ConstId c : domain) {
        valuations.push_back({a, b, c});
      }
    }
  }

  auto truth_of_conj = [&](ConjId id) {
    std::vector<bool> truth(valuations.size());
    for (size_t k = 0; k < valuations.size(); ++k) {
      truth[k] = ConjHolds(interner, id, valuations[k]);
    }
    return truth;
  };

  struct Expr {
    CondId dd;
    std::vector<bool> truth;
    std::vector<ConjId> disjuncts;  // dd.AppendDisjuncts
  };
  std::vector<Expr> exprs;
  for (int i = 0; i < 6; ++i) {
    ConjId leaf = interner.Intern(RandomAlgebraConjunction(rng));
    exprs.push_back({dd.FromConj(leaf), truth_of_conj(leaf), {}});
  }
  std::uniform_int_distribution<int> coin(0, 1);
  for (int step = 0; step < 10; ++step) {
    std::uniform_int_distribution<size_t> pick(0, exprs.size() - 1);
    Expr a = exprs[pick(rng)];
    Expr b = exprs[pick(rng)];
    bool is_and = coin(rng) == 0;
    Expr out;
    out.dd = is_and ? dd.And(a.dd, b.dd) : dd.Or(a.dd, b.dd);
    out.truth.resize(valuations.size());
    for (size_t k = 0; k < valuations.size(); ++k) {
      out.truth[k] =
          is_and ? (a.truth[k] && b.truth[k]) : (a.truth[k] || b.truth[k]);
    }
    exprs.push_back(std::move(out));
  }

  ConjId global = interner.Intern(RandomAlgebraConjunction(rng));
  const std::vector<bool> global_truth = truth_of_conj(global);

  for (size_t i = 0; i < exprs.size(); ++i) {
    SCOPED_TRACE("expr #" + std::to_string(i));
    Expr& e = exprs[i];
    bool oracle_sat = false;
    bool oracle_sat_with = false;
    bool oracle_valid = true;
    bool oracle_taut = true;
    for (size_t k = 0; k < valuations.size(); ++k) {
      oracle_sat = oracle_sat || e.truth[k];
      oracle_sat_with = oracle_sat_with || (global_truth[k] && e.truth[k]);
      oracle_valid = oracle_valid && e.truth[k];
      oracle_taut = oracle_taut && (!global_truth[k] || e.truth[k]);
    }
    EXPECT_EQ(dd.Satisfiable(e.dd), oracle_sat);
    EXPECT_EQ(dd.SatisfiableWith(global, e.dd), oracle_sat_with);

    // The DNF expansion must represent exactly the expression's function.
    dd.AppendDisjuncts(e.dd, &e.disjuncts);
    for (size_t k = 0; k < valuations.size(); ++k) {
      bool holds = false;
      for (ConjId d : e.disjuncts) {
        if (ConjHolds(interner, d, valuations[k])) {
          holds = true;
          break;
        }
      }
      ASSERT_EQ(holds, static_cast<bool>(e.truth[k]))
          << "dd DNF expansion diverged at valuation " << k;
    }
    // The certain-fact search over the same members: the global implies
    // the expression, and true implies it.
    EXPECT_EQ(ConjImpliesDisjunction(interner, global, e.disjuncts),
              oracle_taut);
    EXPECT_EQ(ConjImpliesDisjunction(interner, ConditionInterner::kTrueConj,
                                     e.disjuncts),
              oracle_valid);
  }

  // Over every ordered pair: whether the two can hold together, on the
  // diagram's satisfiability of their conjunction, and implication, as
  // ConjImpliesDisjunction from each DNF member of the left expression to
  // the right one's members, against the oracle.
  for (size_t i = 0; i < exprs.size(); ++i) {
    for (size_t j = 0; j < exprs.size(); ++j) {
      bool oracle_meet = false;
      bool oracle_implies = true;
      for (size_t k = 0; k < valuations.size(); ++k) {
        oracle_meet = oracle_meet || (exprs[i].truth[k] && exprs[j].truth[k]);
        oracle_implies =
            oracle_implies && (!exprs[i].truth[k] || exprs[j].truth[k]);
      }
      EXPECT_EQ(dd.Satisfiable(dd.And(exprs[i].dd, exprs[j].dd)), oracle_meet)
          << "dd Satisfiable(And) diverged on pair (" << i << ", " << j << ")";
      bool members_imply = std::ranges::all_of(
          exprs[i].disjuncts, [&](ConjId member) {
            return ConjImpliesDisjunction(interner, member,
                                          exprs[j].disjuncts);
          });
      EXPECT_EQ(members_imply, oracle_implies)
          << "ConjImpliesDisjunction diverged on pair (" << i << ", " << j
          << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConditionAlgebraDifferentialTest,
                         ::testing::Range(0, 25));

// --- Family 8: decision-diagram fixpoints ----------------------------------

class DDFixpointDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(DDFixpointDifferentialTest, StrategiesConfluentAndWorldsMatch) {
  // On the decision-diagram backend each tuple's derivations merge into one
  // canonical diagram, so the strategy (one from-scratch run, or the
  // incremental resume a maintained view drives: ground rules first, then
  // one seeded base row per Run()) must not even reorder the exported DNF's
  // disjuncts per tuple — the row sets are identical. Against the antichain
  // backend the comparison is per-world (the two backends pick different
  // covering DNFs of the same world-set), and the dd image must satisfy the
  // per-world fixpoint oracle directly.
  const unsigned case_seed = 12000 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  for (int round = 0; round < 2; ++round) {
    DatalogProgram program = RandomDatalogProgram(rng);
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/3, /*num_constants=*/3, /*num_variables=*/2,
        /*num_local_atoms=*/GetParam() % 2,
        /*num_global_atoms=*/GetParam() % 2);
    CTable t = RandomCTable(options, rng);
    CDatabase db{t};

    DatalogCTableOptions dd_semi;
    dd_semi.condition_backend = ConditionBackendKind::kDecisionDiagrams;
    CDatabase semi = DatalogOnCTables(program, db, nullptr, dd_semi);

    ConditionedFixpoint resumed(program, dd_semi);
    resumed.SetGlobal(db.CombinedGlobalId(resumed.interner()));
    resumed.FireGroundRules();
    resumed.Run();
    for (const CRow& row : t.rows()) {
      resumed.Seed(0, row.tuple, row.LocalId(resumed.interner()));
      resumed.Run();
    }

    DatalogCTableOptions antichain;
    antichain.condition_backend = ConditionBackendKind::kConjunctions;
    CDatabase anti = DatalogOnCTables(program, db, nullptr, antichain);

    ASSERT_EQ(semi.num_tables(), program.num_predicates());
    for (size_t p = 0; p < semi.num_tables(); ++p) {
      EXPECT_EQ(CanonicalRows(semi.table(p)),
                CanonicalRows(resumed.Export(static_cast<int>(p))))
          << "dd incremental resume diverged from one run on predicate " << p
          << "\n"
          << program.ToString() << FormatCTable(t);
    }

    std::vector<ConstId> extra;
    for (ConstId c = 0; c <= 3; ++c) extra.push_back(c);
    EXPECT_EQ(testutil::CanonicalWorlds(semi, extra),
              testutil::CanonicalWorlds(anti, extra))
        << "dd fixpoint represents different worlds than the antichain on\n"
        << program.ToString() << FormatCTable(t);

    ExpectRepresentsFixpointOfEveryWorld(program, db, semi);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DDFixpointDifferentialTest,
                         ::testing::Range(0, 15));

// --- Family 9: certain facts and other worlds ------------------------------

class CertaintyBackendDifferentialTest : public ::testing::TestWithParam<int> {
};

TEST_P(CertaintyBackendDifferentialTest, CertainFactAgreesAcrossBackends) {
  // CertainFactInTable decides `global -> OR over matching rows` by the
  // backtracking search over the rows' interned conditions. The
  // decision-diagram backend's Or of the same conditions, expanded back
  // into its DNF members, must state the same question: the global implies
  // those members' disjunction. Both must agree with the per-world oracle
  // on every candidate fact (present, conditioned, and absent ones alike).
  const unsigned case_seed = 13000 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  for (int round = 0; round < 3; ++round) {
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/3, /*num_constants=*/3, /*num_variables=*/2,
        /*num_local_atoms=*/GetParam() % 2,
        /*num_global_atoms=*/GetParam() % 2);
    CTable t = RandomCTable(options, rng);
    CDatabase db{t};

    ConditionInterner interner;
    DDBackend dd(interner);
    ConjId global = t.GlobalId(interner);

    for (ConstId a = 0; a <= 3; ++a) {
      for (ConstId b = 0; b <= 3; ++b) {
        Fact fact{a, b};
        bool oracle = testutil::FactInEveryWorld(db, 0, fact);
        EXPECT_EQ(CertainFactInTable(t, fact, global, interner), oracle)
            << "certain-fact search diverged from the per-world oracle on ("
            << a << ", " << b << ") in\n"
            << FormatCTable(t);
        CondId rows = ConditionBackend::kFalseCond;
        for (const CRow& row : t.rows()) {
          rows = dd.Or(rows,
                       dd.FromConj(RowProducesFact(row, fact, interner)));
        }
        std::vector<ConjId> members;
        dd.AppendDisjuncts(rows, &members);
        EXPECT_EQ(ConjImpliesDisjunction(interner, global, members), oracle)
            << "dd disagrees on the certainty of (" << a << ", " << b
            << ") in\n"
            << FormatCTable(t);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CertaintyBackendDifferentialTest,
                         ::testing::Range(0, 15));

class OtherWorldDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(OtherWorldDifferentialTest, ImplicationsAgreeWithEveryWorld) {
  // UniquenessSearch answers q(rep(T)) = {I} as MEMB plus "no world differs
  // from I", written as implications over the rows' interned conditions:
  //   some row on under the global lands on no fact of I, or
  //   some fact of I is not implied by the rows that produce it.
  // Through the identity (the table's rows) and a random positive
  // existential view (its image's rows), for the empty instance, the
  // images of the first worlds, and each of those with one fact dropped,
  // it must agree with comparing I against the image of every world.
  const unsigned case_seed = 13500 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  for (int round = 0; round < 4; ++round) {
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/1 + round % 3, /*num_constants=*/2,
        /*num_variables=*/2, /*num_local_atoms=*/GetParam() % 3,
        /*num_global_atoms=*/GetParam() % 2);
    CTable t = RandomCTable(options, rng);
    CDatabase db{t};
    RaQuery random = {RandomPosExistential(rng, 1)};
    const std::pair<View, RaQuery> cases[] = {
        {View::Identity(), {RaExpr::Rel(0, 2)}}, {View::Ra(random), random}};
    for (const auto& [view, q] : cases) {
      std::vector<Instance> candidates = {Instance({Relation(2)})};
      WorldEnumOptions wopts;
      wopts.extra_constants = {0, 1, 2, 3};
      ForEachWorld(db, wopts, [&](const Instance& world, const Valuation&) {
        Instance image = EvalQuery(q, world);
        if (std::find(candidates.begin(), candidates.end(), image) ==
            candidates.end()) {
          candidates.push_back(image);
        }
        return candidates.size() < 4;
      });
      for (size_t i = 1, drawn = candidates.size(); i < drawn; ++i) {
        std::vector<Fact> facts = candidates[i].relation(0).ToVector();
        if (facts.empty()) continue;
        facts.pop_back();
        candidates.push_back(Instance({Relation(2, facts)}));
      }
      for (const Instance& instance : candidates) {
        EXPECT_EQ(UniquenessSearch(view, db, instance),
                  testutil::EveryImageIs(q, db, instance))
            << view.ToString() << " against\n"
            << instance.ToString() << "on\n"
            << FormatCTable(t);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OtherWorldDifferentialTest,
                         ::testing::Range(0, 15));

// --- Family 10: stratum-scheduled fixpoints ---------------------------------

/// A random *layered* range-restricted program engineered to exercise the
/// SCC scheduler: `num_edb` binary extensional predicates, `kLayers` binary
/// intensional layers whose rules draw body atoms from strictly lower
/// predicates (feeding multiple nonrecursive SCCs) or recurse within their
/// own layer (recursive SCCs), plus one rule-less intensional predicate that
/// occasionally appears in a body — producing statically dead rules the
/// stratum schedule and the magic rewrite both prune.
DatalogProgram RandomLayeredProgram(std::mt19937& rng, int num_edb = 2) {
  constexpr int kLayers = 4;
  // Last predicate: intensional, no rules — any body mentioning it is dead.
  DatalogProgram p(std::vector<int>(num_edb + kLayers + 1, 2), num_edb);
  const int barren = num_edb + kLayers;
  std::uniform_int_distribution<int> rules_per_layer(1, 2);
  std::uniform_int_distribution<int> body_len(1, 2);
  std::uniform_int_distribution<VarId> var(100, 102);
  std::uniform_int_distribution<int> small_const(0, 2);
  std::uniform_int_distribution<int> d10(0, 9);
  auto make_rule = [&](int head, int max_body_pred, bool allow_dead) {
    DatalogRule rule;
    std::vector<VarId> body_vars;
    int len = body_len(rng);
    for (int b = 0; b < len; ++b) {
      DatalogAtom atom;
      std::uniform_int_distribution<int> body_pred(0, max_body_pred);
      atom.predicate = allow_dead && d10(rng) == 0 ? barren : body_pred(rng);
      for (int i = 0; i < 2; ++i) {
        if (d10(rng) == 0) {
          atom.args.push_back(C(small_const(rng)));
        } else {
          VarId v = var(rng);
          atom.args.push_back(V(v));
          body_vars.push_back(v);
        }
      }
      rule.body.push_back(std::move(atom));
    }
    rule.head.predicate = head;
    for (int i = 0; i < 2; ++i) {
      if (body_vars.empty() || d10(rng) == 0) {
        rule.head.args.push_back(C(small_const(rng)));
      } else {
        std::uniform_int_distribution<size_t> pick(0, body_vars.size() - 1);
        rule.head.args.push_back(V(body_vars[pick(rng)]));
      }
    }
    p.AddRule(std::move(rule));
  };
  for (int l = 0; l < kLayers; ++l) {
    const int head = num_edb + l;
    int n = rules_per_layer(rng);
    for (int r = 0; r < n; ++r) {
      // Recursing within the layer (max body pred == head) forms recursive
      // SCCs; otherwise the rule feeds off strictly lower layers.
      bool recurse = d10(rng) < 3;
      make_rule(head, recurse ? head : head - 1, /*allow_dead=*/l > 0);
    }
  }
  EXPECT_EQ(p.Validate(), "");
  return p;
}

// The stratum-scheduled semi-naive fixpoint (SCCs in topological order,
// nonrecursive strata in one pass, delta rounds confined to the current SCC,
// statically dead and duplicate rules skipped) must represent the per-world
// fixpoints computed by the complete-information evaluator, which runs every
// rule in every round (a monolithic schedule) — on the antichain and
// decision-diagram backends alike — and the demand (magic) path must return
// the restricted full fixpoint's rows.
class StratumDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(StratumDifferentialTest, StratumScheduleMatchesMonolithic) {
  const unsigned case_seed = 14000 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  for (int round = 0; round < 3; ++round) {
    const int num_edb = 2;
    DatalogProgram program = RandomLayeredProgram(rng, num_edb);
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/2, /*num_constants=*/3, /*num_variables=*/2,
        /*num_local_atoms=*/GetParam() % 2,
        /*num_global_atoms=*/GetParam() % 2);
    std::vector<CTable> tables;
    for (int p = 0; p < num_edb; ++p) {
      tables.push_back(RandomCTable(options, rng));
    }
    CDatabase db(tables);
    std::string label = program.ToString() + FormatCDatabase(db);

    CDatabase via_stratum = DatalogOnCTables(program, db);
    ExpectRepresentsFixpointOfEveryWorld(program, db, via_stratum);

    // Decision-diagram backend.
    DatalogCTableOptions dd;
    dd.condition_backend = ConditionBackendKind::kDecisionDiagrams;
    CDatabase via_dd = DatalogOnCTables(program, db, nullptr, dd);
    ExpectRepresentsFixpointOfEveryWorld(program, db, via_dd);

    // Demand path: goal answers equal the restricted full fixpoint (the
    // rewrite also pruned the statically dead rules first).
    std::uniform_int_distribution<int> any_pred(
        0, static_cast<int>(program.num_predicates()) - 1);
    int goal = any_pred(rng);
    std::vector<std::optional<ConstId>> bindings =
        RandomBindings(rng, program.arity(goal));
    CTable via_magic = DatalogQueryOnCTables(program, db, goal, bindings);
    CTable via_full =
        testutil::RestrictedFullFixpoint(program, db, goal, bindings);
    if (ResolveConditionBackendKind(ConditionBackendKind::kDefault) ==
        ConditionBackendKind::kDecisionDiagrams) {
      std::vector<ConstId> extra;
      for (ConstId c = 0; c <= 3; ++c) extra.push_back(c);
      EXPECT_EQ(testutil::CanonicalWorlds(CDatabase{via_magic}, extra),
                testutil::CanonicalWorlds(CDatabase{via_full}, extra))
          << "demand path diverged (per-world) on goal P" << goal << "\n"
          << label;
    } else {
      EXPECT_EQ(CanonicalRows(via_magic), CanonicalRows(via_full))
          << "demand path diverged on goal P" << goal << "\n"
          << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StratumDifferentialTest,
                         ::testing::Range(0, 15));

// --- Family 11: the decision procedures on the view image -------------------

/// The per-world oracle of CONT(identity, q): every world of `lhs` is q(I)
/// for some world I of `rhs`. The rhs worlds are enumerated once, over the
/// constants of every lhs world, so an lhs world that is an image is found.
bool EveryWorldIsAnImage(const CDatabase& lhs, const RaQuery& q,
                         const CDatabase& rhs) {
  auto key = [](const Instance& instance) {
    std::vector<std::vector<Fact>> facts;
    for (size_t k = 0; k < instance.num_relations(); ++k) {
      facts.push_back(instance.relation(k).ToVector());
    }
    return facts;
  };
  WorldEnumOptions lhs_options;
  lhs_options.extra_constants = rhs.Constants();
  for (ConstId c : QueryConstants(q)) lhs_options.extra_constants.push_back(c);
  std::vector<Instance> lhs_worlds;
  WorldEnumOptions rhs_options;
  ForEachWorld(lhs, lhs_options, [&](const Instance& world, const Valuation&) {
    lhs_worlds.push_back(world);
    for (ConstId c : world.Constants()) {
      rhs_options.extra_constants.push_back(c);
    }
    return true;
  });
  std::set<std::vector<std::vector<Fact>>> images;
  ForEachWorld(rhs, rhs_options, [&](const Instance& world, const Valuation&) {
    images.insert(key(EvalQuery(q, world)));
    return true;
  });
  return std::ranges::all_of(lhs_worlds, [&](const Instance& world) {
    return images.count(key(world)) > 0;
  });
}

class MembershipPossibilityDifferentialTest
    : public ::testing::TestWithParam<int> {};

TEST_P(MembershipPossibilityDifferentialTest, SearchesAgreeWithEveryWorld) {
  // The decision procedures that run on a view's image (ViewImage,
  // decision/view.h), checked through the identity view and through
  // View::Ra of the bare relation references, on two-table c-databases
  // with global =/!= atoms and nulls shared across the tables; round 3 has
  // no local condition (a g-table database), and round 4 is ground and
  // condition-free, so it has exactly one world. MEMB must agree with
  // comparing against every world (testutil::IsWorld) on every enumerated
  // world, each world minus one fact and each world plus one fact over the
  // context constants; UNIQ holds exactly for the one world of a database
  // with one (round 4 checks that yes on every seed); POSS and CERT of 1-3
  // facts must agree with PossibilitySearch and CertaintySearch; and CONT
  // of each table, alone under the identity, in the union of both tables
  // over the database (one rhs image for every lhs world) must agree with
  // EveryWorldIsAnImage.
  const unsigned case_seed = 15000 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  std::uniform_int_distribution<int> any_relation(0, 1);
  std::uniform_int_distribution<ConstId> any_const(0, 3);
  const View identity = View::Identity();
  const View bare = View::Ra({RaExpr::Rel(0, 2), RaExpr::Rel(1, 2)});
  const RaQuery both = {RaExpr::Union(RaExpr::Rel(0, 2), RaExpr::Rel(1, 2))};
  for (int round = 0; round < 5; ++round) {
    const bool ground = round == 4;
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/2 + round % 2, /*num_constants=*/3,
        /*num_variables=*/3,
        /*num_local_atoms=*/round >= 3 ? 0 : 1 + GetParam() % 2,
        /*num_global_atoms=*/ground ? 0 : GetParam() % 3);
    if (ground) options.variable_probability = 0;
    CDatabase db(
        std::vector<CTable>{RandomCTable(options, rng),
                            RandomCTable(options, rng)});
    std::vector<Instance> candidates;
    auto add = [&candidates](Instance instance) {
      if (std::find(candidates.begin(), candidates.end(), instance) ==
          candidates.end()) {
        candidates.push_back(std::move(instance));
      }
    };
    WorldEnumOptions wopts;
    wopts.extra_constants = {0, 1, 2, 3};
    ForEachWorld(db, wopts, [&](const Instance& world, const Valuation&) {
      add(world);
      return true;
    });
    const size_t num_worlds = candidates.size();
    if (ground) {
      ASSERT_EQ(num_worlds, 1u) << FormatCDatabase(db);
    }
    for (size_t w = 0; w < num_worlds; ++w) {
      const Instance world = candidates[w];
      for (size_t k = 0; k < 2; ++k) {
        std::vector<Fact> facts = world.relation(k).ToVector();
        for (size_t drop = 0; drop < facts.size(); ++drop) {
          std::vector<Fact> fewer = facts;
          fewer.erase(fewer.begin() + static_cast<std::ptrdiff_t>(drop));
          Instance smaller = world;
          smaller.mutable_relation(k) = Relation(2, fewer);
          add(std::move(smaller));
        }
      }
      Instance larger = world;
      larger.mutable_relation(any_relation(rng))
          .Insert(Fact{any_const(rng), any_const(rng)});
      add(std::move(larger));
    }
    for (const Instance& instance : candidates) {
      // Every world is enumerated, up to renaming of constants outside
      // {0, 1, 2, 3}: rep(db) = {instance} iff it is the only one.
      const bool is_world = testutil::IsWorld(db, instance);
      const bool unique = num_worlds == 1 && instance == candidates[0];
      for (const View* view : {&identity, &bare}) {
        EXPECT_EQ(MembershipInView(*view, db, instance), is_world)
            << "MEMB diverged through " << view->ToString() << " on\n"
            << instance.ToString() << "in\n"
            << FormatCDatabase(db);
        EXPECT_EQ(UniquenessSearch(*view, db, instance), unique)
            << "UNIQ diverged through " << view->ToString() << " on\n"
            << instance.ToString() << "in\n"
            << FormatCDatabase(db);
      }
      EXPECT_EQ(MembershipSearch(db, instance), is_world);
    }
    for (int draw = 0; draw < 8; ++draw) {
      // Facts of one world (often possible together) or random ones.
      std::vector<LocatedFact> pattern;
      for (int n = 1 + static_cast<int>(rng() % 3); n > 0; --n) {
        size_t k = static_cast<size_t>(any_relation(rng));
        std::vector<Fact> facts;
        if (num_worlds > 0 && draw % 2 == 0) {
          facts = candidates[static_cast<size_t>(draw) % num_worlds]
                      .relation(k)
                      .ToVector();
        }
        pattern.push_back({k, facts.empty()
                                  ? Fact{any_const(rng), any_const(rng)}
                                  : facts[rng() % facts.size()]});
      }
      const bool possible = PossibilitySearch(identity, db, pattern);
      const bool certain = CertaintySearch(identity, db, pattern);
      for (const View* view : {&identity, &bare}) {
        EXPECT_EQ(Possibility(*view, db, pattern), possible)
            << "POSS diverged through " << view->ToString() << " on "
            << pattern.size() << " facts, first (" << pattern[0].fact[0]
            << ", " << pattern[0].fact[1] << ") in relation "
            << pattern[0].relation << ", in\n"
            << FormatCDatabase(db);
        EXPECT_EQ(Certainty(*view, db, pattern), certain)
            << "CERT diverged through " << view->ToString() << " on "
            << pattern.size() << " facts, first (" << pattern[0].fact[0]
            << ", " << pattern[0].fact[1] << ") in relation "
            << pattern[0].relation << ", in\n"
            << FormatCDatabase(db);
      }
    }
    for (size_t k = 0; k < 2; ++k) {
      const CDatabase lhs{db.table(k)};
      EXPECT_EQ(Containment(identity, lhs, View::Ra(both), db),
                EveryWorldIsAnImage(lhs, both, db))
          << "CONT diverged for table " << k << " alone in\n"
          << FormatCDatabase(db);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MembershipPossibilityDifferentialTest,
                         ::testing::Range(0, 20));

// --- Family 12: PTIME table front ends --------------------------------------

/// An arity-3 table of 8-40 rows for the PTIME front ends. Row shapes: only
/// nulls, nulls with one constant in the last column, a ground row (often
/// repeating an earlier ground fact) and a mix. Null positions stop at
/// `max_nulls`; later rows are ground. Each null is fresh (a Codd-table)
/// unless `repeat_nulls`, which reuses an earlier null at a third of the
/// positions. Constants are drawn from [0, num_constants).
CTable FrontEndTable(std::mt19937& rng, int max_nulls, int num_constants,
                     bool repeat_nulls) {
  std::uniform_int_distribution<int> num_rows(8, 40), shape(0, 3);
  std::uniform_int_distribution<ConstId> constant(0, num_constants - 1);
  CTable table(3);
  std::vector<Tuple> ground;
  int nulls = 0;
  VarId next_var = 0;
  auto null = [&]() {
    ++nulls;
    if (repeat_nulls && next_var > 0 && rng() % 3 == 0) {
      return V(static_cast<VarId>(rng() % static_cast<unsigned>(next_var)));
    }
    return V(next_var++);
  };
  for (int r = 0, n = num_rows(rng); r < n; ++r) {
    int kind = nulls + 3 <= max_nulls ? shape(rng) : 2;
    Tuple tuple;
    switch (kind) {
      case 0:
        tuple = {null(), null(), null()};
        break;
      case 1:
        tuple = {null(), null(), C(constant(rng))};
        break;
      case 2:
        if (!ground.empty() && rng() % 2 == 0) {
          tuple = ground[rng() % ground.size()];
        } else {
          tuple = {C(constant(rng)), C(constant(rng)), C(constant(rng))};
        }
        break;
      default:
        for (int p = 0; p < 3; ++p) {
          tuple.push_back(rng() % 2 == 0 ? null() : C(constant(rng)));
        }
    }
    if (IsGround(tuple)) ground.push_back(tuple);
    table.AddRow(tuple);
  }
  return table;
}

/// The world of `table` under a valuation that sends each null to a
/// constant of [0, num_constants) or, now and then, to the constant 9 that
/// no row holds.
Relation RandomWorld(std::mt19937& rng, const CTable& table,
                     int num_constants) {
  std::unordered_map<VarId, ConstId> value;
  for (VarId v : table.Variables()) {
    value[v] = rng() % 4 == 0
                   ? 9
                   : static_cast<ConstId>(
                         rng() % static_cast<unsigned>(num_constants));
  }
  Relation world(3);
  for (const CRow& row : table.rows()) {
    Fact fact;
    for (const Term& t : row.tuple) {
      fact.push_back(t.is_constant() ? t.constant() : value.at(t.variable()));
    }
    world.Insert(fact);
  }
  return world;
}

class TableFrontEndDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(TableFrontEndDifferentialTest, CoddMembershipAgreesWithSearch) {
  // Thm 3.1(1): a world of the table is a member; the world without the
  // fact of a ground row is not (that row produces it in every world);
  // the world plus a fact, or minus another one, is whatever the search
  // and, at up to 6 nulls, the worlds say.
  const unsigned case_seed = 16000 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  for (int round = 0; round < 3; ++round) {
    CTable table = FrontEndTable(rng, /*max_nulls=*/2 * round + 3 +
                                          GetParam() % 3,
                                 /*num_constants=*/4, /*repeat_nulls=*/false);
    CDatabase db(table);
    ASSERT_EQ(db.Kind(), TableKind::kCoddTable) << FormatCTable(table);
    Relation world = RandomWorld(rng, table, 4);
    std::vector<Fact> facts = world.ToVector();
    std::vector<std::pair<Relation, std::optional<bool>>> candidates = {
        {world, true}};
    for (const CRow& row : table.rows()) {
      if (!IsGround(row.tuple)) continue;
      Relation without(3);
      for (const Fact& f : facts) {
        if (f != ToFact(row.tuple)) without.Insert(f);
      }
      candidates.push_back({without, false});
      break;
    }
    Relation fewer(3, std::vector<Fact>(facts.begin() + 1, facts.end()));
    candidates.push_back({fewer, std::nullopt});
    Relation more = world;
    more.Insert(Fact{static_cast<ConstId>(rng() % 4), 3, 9});
    candidates.push_back({more, std::nullopt});
    const bool enumerable = table.Variables().size() <= 6;
    for (const auto& [relation, planted] : candidates) {
      Instance instance({relation});
      std::optional<bool> fast = MembershipCoddTables(db, instance);
      ASSERT_TRUE(fast.has_value());
      if (planted) {
        EXPECT_EQ(*fast, *planted) << relation.ToString();
      }
      EXPECT_EQ(*fast, MembershipSearch(db, instance))
          << "MEMB diverged on\n"
          << relation.ToString() << "in\n"
          << FormatCTable(table);
      if (enumerable && !planted) {
        EXPECT_EQ(*fast, testutil::IsWorld(db, instance))
            << "MEMB diverged from the worlds on\n"
            << relation.ToString() << "in\n"
            << FormatCTable(table);
      }
    }
  }
}

TEST_P(TableFrontEndDifferentialTest, CoddPossibilityAgreesWithChoiceCnf) {
  // Thm 5.1(1): any subset of a world is possible; a fact over a constant
  // no row holds needs a row of nulls that no other pattern fact needs.
  const unsigned case_seed = 16100 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  for (int round = 0; round < 3; ++round) {
    CTable table = FrontEndTable(rng, /*max_nulls=*/3 * round + 3,
                                 /*num_constants=*/4, /*repeat_nulls=*/false);
    CDatabase db(table);
    std::vector<Fact> facts = RandomWorld(rng, table, 4).ToVector();
    for (int draw = 0; draw < 4; ++draw) {
      Relation pattern(3);
      for (const Fact& f : facts) {
        if (rng() % 2 == 0) pattern.Insert(f);
      }
      const bool planted = draw < 2;
      if (draw == 2) pattern.Insert(Fact{1000, 1000, 1000});
      if (draw == 3) {
        pattern.Insert(Fact{static_cast<ConstId>(rng() % 4),
                            static_cast<ConstId>(rng() % 4), 2});
      }
      Instance instance({pattern});
      std::optional<bool> fast = PossUnboundedCoddTables(db, instance);
      ASSERT_TRUE(fast.has_value());
      if (planted) {
        EXPECT_TRUE(*fast) << pattern.ToString();
      }
      EXPECT_EQ(*fast,
                Possibility(View::Identity(), db, ToLocatedFacts(instance)))
          << "POSS diverged on\n"
          << pattern.ToString() << "in\n"
          << FormatCTable(table);
    }
  }
}

TEST_P(TableFrontEndDifferentialTest, GTableUniquenessAgreesWithSearch) {
  // Thm 3.2(1): the global's classes of nulls are chains asserted in a
  // random order, bound to a constant at the far end or left free; a few
  // inequalities may make the global unsatisfiable. Candidates: the matrix
  // under the forced constants (or under some valuation, when a class is
  // free), with a fact dropped and with a fact added.
  const unsigned case_seed = 16200 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  for (int round = 0; round < 3; ++round) {
    CTable table = FrontEndTable(rng, /*max_nulls=*/4 + 4 * round,
                                 /*num_constants=*/4, /*repeat_nulls=*/true);
    std::vector<VarId> nulls = table.Variables();
    // The table's nulls are 0..n-1; n is a null of the global only.
    nulls.push_back(static_cast<VarId>(nulls.size()));
    std::shuffle(nulls.begin(), nulls.end(), rng);
    std::vector<CondAtom> global;
    std::vector<std::pair<VarId, ConstId>> bound;  // class head -> constant
    for (size_t i = 0; i < nulls.size();) {
      size_t size = 1 + rng() % 3;
      size_t end = std::min(nulls.size(), i + size);
      for (size_t j = i + 1; j < end; ++j) {
        global.push_back(Eq(V(nulls[j]), V(nulls[j - 1])));
      }
      // Round 0 binds every class, so its matrix is the one world.
      bool free_class = round > 0 && rng() % 6 == 0;
      if (!free_class) {
        ConstId c = static_cast<ConstId>(rng() % 4);
        global.push_back(Eq(V(nulls[end - 1]), C(c)));
        bound.push_back({nulls[i], c});
      }
      i = end;
    }
    for (int k = 0; k < 2 && !bound.empty(); ++k) {
      const auto& [head, c] = bound[rng() % bound.size()];
      // Mostly a true inequality; now and then the bound constant itself.
      ConstId other = rng() % 8 == 0 ? c : static_cast<ConstId>(10 + k);
      global.push_back(Neq(V(head), C(other)));
    }
    std::shuffle(global.begin(), global.end(), rng);
    table.SetGlobal(Conjunction(global));
    CDatabase db(table);
    ASSERT_LE(db.Kind(), TableKind::kGTable);

    // The forced matrix, with every free null sent to a constant.
    Relation matrix(3);
    BindingEnv env;
    const bool satisfiable = env.Assert(table.global());
    if (satisfiable) {
      for (const CRow& row : table.rows()) {
        Fact f;
        for (const Term& t : row.tuple) {
          f.push_back(env.ValueOf(t).value_or(50));
        }
        matrix.Insert(f);
      }
    }
    std::vector<Fact> facts = matrix.ToVector();
    std::vector<Relation> candidates = {matrix};
    if (!facts.empty()) {
      candidates.push_back(
          Relation(3, std::vector<Fact>(facts.begin() + 1, facts.end())));
    }
    Relation more = matrix;
    more.Insert(Fact{1, 2, 3});
    candidates.push_back(more);
    for (const Relation& relation : candidates) {
      Instance instance({relation});
      std::optional<bool> fast = UniqGTables(db, instance);
      ASSERT_TRUE(fast.has_value());
      if (round == 0 && satisfiable && relation == matrix) {
        EXPECT_TRUE(*fast) << FormatCTable(table);
      }
      EXPECT_EQ(*fast, UniquenessSearch(View::Identity(), db, instance))
          << "UNIQ diverged on\n"
          << relation.ToString() << "in\n"
          << FormatCTable(table);
    }
  }
}

TEST_P(TableFrontEndDifferentialTest, GInCoddContainmentAgreesWithSearch) {
  // Thm 4.1(3): lhs is a g-table with repeated nulls under global
  // inequalities and, in some rounds, equalities that merge two nulls or
  // bind one; rhs is the Codd-table that frees every null position of
  // lhs. Then one rhs row is perturbed: a constant moved off the data, a
  // constant freed, or the row dropped.
  const unsigned case_seed = 16300 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  for (int round = 0; round < 3; ++round) {
    CTable lhs = FrontEndTable(rng, /*max_nulls=*/4 + round,
                               /*num_constants=*/3, /*repeat_nulls=*/true);
    std::vector<VarId> lhs_nulls = lhs.Variables();
    for (size_t i = 1; i < lhs_nulls.size(); i += 2) {
      lhs.AddGlobalAtom(Neq(V(lhs_nulls[i - 1]), V(lhs_nulls[i])));
    }
    // Classes for Freeze to normalize: two nulls merged, one bound.
    if (lhs_nulls.size() >= 3 && GetParam() % 2 == 1) {
      lhs.AddGlobalAtom(Eq(V(lhs_nulls[2]), V(lhs_nulls[0])));
    }
    if (!lhs_nulls.empty() && round == 2) {
      lhs.AddGlobalAtom(Eq(V(lhs_nulls.back()), C(1)));
    }
    CTable rhs(3);
    VarId next_var = 0;
    std::vector<Tuple> rows;
    // The null the global binds to 1 may stay the constant 1 in rhs: every
    // lhs world holds 1 there, and so does K0 once Freeze normalizes.
    const bool pin = round == 2 && GetParam() % 4 == 3;
    for (const CRow& row : lhs.rows()) {
      Tuple tuple;
      for (const Term& t : row.tuple) {
        if (pin && t == V(lhs_nulls.back())) {
          tuple.push_back(C(1));
        } else {
          tuple.push_back(t.is_variable() ? V(next_var++) : t);
        }
      }
      rows.push_back(tuple);
    }
    size_t r = rng() % rows.size();
    switch (GetParam() % 4) {
      case 0:
        rows[r][2] = C(7);
        break;
      case 1:
        rows[r][rng() % 3] = V(next_var++);
        break;
      case 2:
        rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(r));
        break;
      default:
        break;  // rhs generalizes lhs: contained
    }
    for (const Tuple& tuple : rows) rhs.AddRow(tuple);
    CDatabase lhs_db(lhs), rhs_db(rhs);
    ASSERT_LE(lhs_db.Kind(), TableKind::kGTable);
    ASSERT_EQ(rhs_db.Kind(), TableKind::kCoddTable);
    ASSERT_LE(lhs_db.Variables().size(), 6u);
    std::optional<bool> fast = ContGTablesInCoddTables(lhs_db, rhs_db);
    ASSERT_TRUE(fast.has_value());
    // Planted: a constant off the data is never in the frozen world K0; a
    // row-for-row generalization always contains.
    if (GetParam() % 4 == 0) {
      EXPECT_FALSE(*fast);
    }
    if (GetParam() % 4 == 3) {
      EXPECT_TRUE(*fast);
    }
    EXPECT_EQ(*fast, ContainmentSearch(View::Identity(), lhs_db,
                                       View::Identity(), rhs_db))
        << "CONT diverged on\n"
        << FormatCTable(lhs) << "in\n"
        << FormatCTable(rhs);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TableFrontEndDifferentialTest,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace pw
