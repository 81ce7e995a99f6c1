// Tests for the conditioned DATALOG fixpoint on c-tables: its result must
// represent exactly the pointwise DATALOG image of the input's worlds.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "ilalgebra/datalog_ctable.h"
#include "condition/dd_backend.h"
#include "datalog/eval.h"
#include "datalog/magic.h"
#include "tables/world_enum.h"
#include "test_util.h"
#include "workload/random_gen.h"

namespace pw {
namespace {

DatalogProgram TransitiveClosure() {
  DatalogProgram p({2, 2}, /*num_edb=*/1);
  DatalogRule base;
  base.head = {1, Tuple{V(100), V(101)}};
  base.body = {{0, Tuple{V(100), V(101)}}};
  p.AddRule(base);
  DatalogRule step;
  step.head = {1, Tuple{V(100), V(102)}};
  step.body = {{1, Tuple{V(100), V(101)}}, {0, Tuple{V(101), V(102)}}};
  p.AddRule(step);
  return p;
}

TEST(DatalogCTableTest, GroundInputMatchesOrdinaryEval) {
  CDatabase db(CTable::FromRelation(Relation(2, {{1, 2}, {2, 3}})));
  CDatabase out = DatalogOnCTables(TransitiveClosure(), db);
  Relation result(2);
  for (const CRow& row : out.table(1).rows()) {
    EXPECT_TRUE(row.local().IsTautology());
    result.Insert(ToFact(row.tuple));
  }
  Instance plain = SemiNaiveEval(TransitiveClosure(),
                                 Instance({Relation(2, {{1, 2}, {2, 3}})}));
  EXPECT_EQ(result, plain.relation(1));
}

TEST(DatalogCTableTest, JoinThroughVariableCarriesNoCondition) {
  // edge = {(1, x), (x, 3)}: path(1, 3) derivable with condition true
  // (the shared variable joins to itself).
  CTable t(2);
  t.AddRow(Tuple{C(1), V(0)});
  t.AddRow(Tuple{V(0), C(3)});
  CDatabase db{t};
  CDatabase out = DatalogOnCTables(TransitiveClosure(), db);
  bool found_unconditional = false;
  for (const CRow& row : out.table(1).rows()) {
    if (row.tuple == Tuple{C(1), C(3)} && row.local().IsTautology()) {
      found_unconditional = true;
    }
  }
  EXPECT_TRUE(found_unconditional) << out.table(1).ToString();
}

TEST(DatalogCTableTest, JoinAcrossDistinctVariablesGetsEquality) {
  // edge = {(1, x), (y, 3)}: path(1, 3) holds under the condition x = y.
  CTable t(2);
  t.AddRow(Tuple{C(1), V(0)});
  t.AddRow(Tuple{V(1), C(3)});
  CDatabase db{t};
  CDatabase out = DatalogOnCTables(TransitiveClosure(), db);
  bool found_conditional = false;
  for (const CRow& row : out.table(1).rows()) {
    if (row.tuple == Tuple{C(1), C(3)}) {
      ASSERT_EQ(row.local().size(), 1u);
      EXPECT_EQ(row.local().atoms()[0], Eq(V(0), V(1)));
      found_conditional = true;
    }
  }
  EXPECT_TRUE(found_conditional) << out.table(1).ToString();
}

TEST(DatalogCTableTest, SubsumptionKeepsWeakerConditions) {
  // edge = {(1, 2) :: true, (1, 2) :: x = 1}: path(1,2) should survive only
  // with the unconditional row.
  CTable t(2);
  t.AddRow(Tuple{C(1), C(2)});
  t.AddRow(Tuple{C(1), C(2)}, Conjunction{Eq(V(0), C(1))});
  CDatabase db{t};
  ConditionedFixpointStats stats;
  CDatabase out = DatalogOnCTables(TransitiveClosure(), db, &stats);
  int rows_12 = 0;
  for (const CRow& row : out.table(1).rows()) {
    if (row.tuple == Tuple{C(1), C(2)}) {
      ++rows_12;
      EXPECT_TRUE(row.local().IsTautology());
    }
  }
  EXPECT_EQ(rows_12, 1);
  EXPECT_GT(stats.subsumed_rows, 0u);
}

TEST(DatalogCTableTest, CyclicDataTerminates) {
  CTable t(2);
  t.AddRow(Tuple{C(1), V(0)});
  t.AddRow(Tuple{V(0), C(1)});
  t.AddRow(Tuple{C(2), C(1)});
  CDatabase db{t};
  ConditionedFixpointStats stats;
  CDatabase out = DatalogOnCTables(TransitiveClosure(), db, &stats);
  EXPECT_GT(out.table(1).num_rows(), 0u);
  EXPECT_LT(stats.rounds, 100u);
}

TEST(DatalogCTableTest, SemiNaiveSkipsRederivations) {
  // Semi-naive fires each rule only against combinations touching the
  // previous round's delta, so every combination is enumerated exactly
  // once. On a ground chain each path has a single derivation: nothing is
  // re-derived (a naive schedule would re-derive every known path each
  // round).
  CTable ground(2);
  for (int i = 0; i < 6; ++i) ground.AddRow(Tuple{C(i), C(i + 1)});
  ConditionedFixpointStats stats;
  CDatabase out =
      DatalogOnCTables(TransitiveClosure(), CDatabase{ground}, &stats);
  EXPECT_EQ(out.table(1).num_rows(), 21u);  // 6 + 5 + ... + 1 paths
  EXPECT_EQ(stats.derived_rows, 6u + 21u);  // seeds + paths
  EXPECT_EQ(stats.duplicate_rows, 0u);
  EXPECT_GT(stats.delta_rows, 0u);

  // The null edges make the run intern fresh conditions; a private
  // interner keeps the growth counter deterministic.
  CTable t = ground;
  t.AddRow(Tuple{C(6), V(0)});
  t.AddRow(Tuple{V(1), C(7)});
  CDatabase db{t};
  ConditionInterner interner;
  DatalogCTableOptions options;
  options.interner = &interner;
  ConditionedFixpointStats null_stats;
  CDatabase image =
      DatalogOnCTables(TransitiveClosure(), db, &null_stats, options);
  EXPECT_GT(null_stats.interner_conjunctions, 0u);
  EXPECT_TRUE(
      testutil::RepresentsFixpointOfEveryWorld(TransitiveClosure(), db, image))
      << image.table(1).ToString();
}

TEST(DatalogCTableTest, InsertReallocationMidFireRuleIsSafe) {
  // Regression for the iterator-invalidation hazard in FireRule: with the
  // head predicate also in the body (q(x,z) :- q(x,y), q(y,z)), Insert
  // appends to — and repeatedly reallocates — the very row vector the join
  // loop is ranging over, and (on the indexed path) extends the very index
  // whose candidates are being consumed. A 48-edge chain pushes ~1.2k rows
  // through many vector growths; the loop must address rows by id and
  // snapshot candidate lists, never hold references across Insert. Verified
  // against the ordinary ground fixpoint.
  DatalogProgram p({2, 2}, /*num_edb=*/1);
  DatalogRule base;
  base.head = {1, Tuple{V(100), V(101)}};
  base.body = {{0, Tuple{V(100), V(101)}}};
  p.AddRule(base);
  DatalogRule square;
  square.head = {1, Tuple{V(100), V(102)}};
  square.body = {{1, Tuple{V(100), V(101)}}, {1, Tuple{V(101), V(102)}}};
  p.AddRule(square);

  Relation edges(2);
  for (int i = 0; i < 48; ++i) edges.Insert({i, i + 1});
  Instance expected = SemiNaiveEval(p, Instance({edges}));
  CDatabase db(CTable::FromRelation(edges));

  ConditionedFixpointStats stats;
  CDatabase out = DatalogOnCTables(p, db, &stats);
  Relation result(2);
  for (const CRow& row : out.table(1).rows()) {
    EXPECT_TRUE(row.local().IsTautology());
    result.Insert(ToFact(row.tuple));
  }
  EXPECT_EQ(result, expected.relation(1));
  EXPECT_GT(stats.index_probes, 0u);
}

TEST(DatalogCTableTest, IndexedMatchingMatchesPerWorldFixpoint) {
  // Indexed body-atom matching on input with nulls at join positions
  // (wildcard rows) and local conditions: the result must represent the
  // per-world fixpoint exactly.
  CTable t(2);
  for (int i = 0; i < 10; ++i) t.AddRow(Tuple{C(i), C(i + 1)});
  t.AddRow(Tuple{C(10), V(0)});
  t.AddRow(Tuple{V(0), C(11)}, Conjunction{Neq(V(0), C(3))});
  CDatabase db{t};

  ConditionedFixpointStats stats;
  CDatabase image = DatalogOnCTables(TransitiveClosure(), db, &stats);
  EXPECT_TRUE(
      testutil::RepresentsFixpointOfEveryWorld(TransitiveClosure(), db, image))
      << image.table(1).ToString();
  // One index per (predicate, bound-column subset), built once and extended
  // across rounds — a mid-query catch-up after an append is an *extend*,
  // never another build, so the build counter stays flat however many
  // rounds the fixpoint runs.
  EXPECT_GT(stats.index_probes, 0u);
  EXPECT_GT(stats.index_hits, 0u);
  EXPECT_LE(stats.index_builds, 4u);
  EXPECT_LT(stats.index_builds, stats.rounds);
  EXPECT_GT(stats.rounds, 3u);
}

TEST(DatalogCTableTest, ProbedIndexExtendsButNeverRebuildsMidQuery) {
  // The step rule q(x,z) :- q(x,y), q(y,z) probes q itself while Insert
  // keeps appending to q: every round's catch-up must register as an
  // extend of the one q-index, never as a rebuild — the counters pin the
  // semantics the bench relies on (builds = distinct (predicate, columns)
  // subsets, extends = incremental catch-ups).
  DatalogProgram p({2, 2}, /*num_edb=*/1);
  DatalogRule base;
  base.head = {1, Tuple{V(100), V(101)}};
  base.body = {{0, Tuple{V(100), V(101)}}};
  p.AddRule(base);
  DatalogRule square;
  square.head = {1, Tuple{V(100), V(102)}};
  square.body = {{1, Tuple{V(100), V(101)}}, {1, Tuple{V(101), V(102)}}};
  p.AddRule(square);
  Relation edges(2);
  for (int i = 0; i < 16; ++i) edges.Insert({i, i + 1});
  CDatabase db(CTable::FromRelation(edges));

  ConditionedFixpointStats stats;
  DatalogOnCTables(p, db, &stats);
  // Two bound-column subsets are probed — q on its first position (the
  // delta-pos-0 firing binds y from the first atom) and q on its second
  // position (the delta-first rotation of the delta-pos-1 firing binds y
  // from the second atom) — each built exactly once, extending every time
  // the probe catches up on rows derived since.
  EXPECT_EQ(stats.index_builds, 2u);
  EXPECT_GT(stats.index_extends, 0u);
  EXPECT_GT(stats.index_probes, stats.index_builds);
}

TEST(DatalogCTableTest, EmptyBodyRuleFiresOnce) {
  // A ground-fact rule has no body atom to carry a delta; it must still
  // appear in the fixpoint, exactly once.
  DatalogProgram p({2, 2}, /*num_edb=*/1);
  DatalogRule fact;
  fact.head = {1, Tuple{C(7), C(8)}};
  p.AddRule(fact);
  CDatabase db(CTable::FromRelation(Relation(2, {{1, 2}})));
  CDatabase out = DatalogOnCTables(p, db);
  ASSERT_EQ(out.table(1).num_rows(), 1u);
  EXPECT_EQ(out.table(1).row(0).tuple, (Tuple{C(7), C(8)}));
}

// Regression for the deleted ad-hoc canonicalizer: datalog_ctable.cc used to
// carry its own AtomSet machinery (sort, dedup, drop trivially-true atoms;
// subset comparison for subsumption). The interner's canonicalization must
// agree with it wherever the old machinery was defined, and strictly extend
// it through equality congruence.
TEST(DatalogCTableTest, InternerSubsumesDeletedAtomSetCanonicalizer) {
  auto old_canonicalize = [](const Conjunction& c) {
    std::vector<CondAtom> atoms;
    for (const CondAtom& a : c.atoms()) {
      if (!IsTriviallyTrue(a)) atoms.push_back(a);
    }
    std::sort(atoms.begin(), atoms.end());
    atoms.erase(std::unique(atoms.begin(), atoms.end()), atoms.end());
    return atoms;
  };

  ConditionInterner& interner = ConditionInterner::Global();
  std::mt19937 rng(20260726);
  for (int round = 0; round < 300; ++round) {
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/1, /*num_rows=*/2, /*num_constants=*/3, /*num_variables=*/3,
        /*num_local_atoms=*/3);
    // Inequality-only conditions: exactly the fragment where the old
    // machinery was canonical. The interner must produce the same atom set.
    options.equality_probability = 0.0;
    CTable t = RandomCTable(options, rng);
    for (const CRow& row : t.rows()) {
      std::vector<CondAtom> expected = old_canonicalize(row.local());
      bool expect_false = std::any_of(expected.begin(), expected.end(),
                                      IsTriviallyFalse);
      ConjId id = row.LocalId(interner);
      if (expect_false) {
        EXPECT_EQ(id, ConditionInterner::kFalseConj) << row.local().ToString();
        continue;
      }
      EXPECT_EQ(interner.Resolve(id).atoms(), expected)
          << row.local().ToString();
    }

    // Old subset subsumption must be honored by the interner's implication
    // (which additionally sees congruence consequences the subset test
    // missed).
    const Conjunction& a = t.row(0).local();
    const Conjunction& b = t.row(1).local();
    Conjunction both = Conjunction::And(a, b);
    if (both.Satisfiable()) {
      EXPECT_TRUE(
          interner.Implies(interner.Intern(both), interner.Intern(a)));
      EXPECT_TRUE(
          interner.Implies(interner.Intern(both), interner.Intern(b)));
    }
  }
}

// Property: rep(conditioned fixpoint) == fixpoint of each world.
class DatalogCTablePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DatalogCTablePropertyTest, RepresentsFixpointOfEveryWorld) {
  std::mt19937 rng(GetParam());
  RandomCTableOptions options =
      testutil::SmallCTableOptions(/*arity=*/2, /*num_rows=*/3,
          /*num_constants=*/3, /*num_variables=*/2,
          /*num_local_atoms=*/GetParam() % 2,
          /*num_global_atoms=*/GetParam() % 2);
  CTable t = RandomCTable(options, rng);
  CDatabase db{t};
  DatalogProgram tc = TransitiveClosure();
  CDatabase image = DatalogOnCTables(tc, db);

  // For every satisfying valuation: sigma(image) must equal the fixpoint of
  // sigma(db), component-wise.
  WorldEnumOptions wopts;
  bool all_match = true;
  ForEachSatisfyingValuation(db, wopts, [&](const Valuation& v) {
    Instance world = v.Apply(db);
    Instance expected = SemiNaiveEval(tc, world);
    Instance got = v.Apply(image);
    if (got != expected) {
      all_match = false;
      return false;
    }
    return true;
  });
  EXPECT_TRUE(all_match) << t.ToString() << image.table(1).ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DatalogCTablePropertyTest,
                         ::testing::Range(1, 25));

TEST(DatalogCTableTest, MismatchedBaseTableContributesNoRows) {
  // A base table whose arity differs from its extensional predicate's is
  // skipped at seeding, in all build modes: the join would read a narrower
  // row past its end, and a wider row does not fit the predicate's table.
  // The full fixpoint and the demand path both see an empty edge relation.
  DatalogProgram tc = TransitiveClosure();
  for (int arity : {1, 3}) {
    SCOPED_TRACE("table arity " + std::to_string(arity));
    CTable edges(arity);
    edges.AddRow(Tuple(static_cast<size_t>(arity), C(1)));
    edges.AddRow(Tuple(static_cast<size_t>(arity), V(0)));
    CDatabase db{edges};
    CDatabase out = DatalogOnCTables(tc, db);
    ASSERT_EQ(out.num_tables(), 2u);
    EXPECT_EQ(out.table(0).num_rows(), 0u);
    EXPECT_EQ(out.table(1).num_rows(), 0u);
    CTable answers =
        DatalogQueryOnCTables(tc, db, 1, {ConstId{1}, std::nullopt});
    EXPECT_EQ(answers.num_rows(), 0u);
  }
}

TEST(DatalogCTableTest, SeedRejectsBadPredicateOrWidth) {
  // The public seeding and inspection entry points check the predicate id
  // and the row width in all build modes: a bad call changes nothing and
  // exports an empty arity-0 table.
  DatalogProgram tc = TransitiveClosure();
  ConditionedFixpoint fix(tc);
  const ConjId t = ConditionInterner::kTrueConj;
  EXPECT_FALSE(fix.Seed(7, Tuple{C(1), C(2)}, t));
  EXPECT_FALSE(fix.Seed(-1, Tuple{C(1), C(2)}, t));
  EXPECT_FALSE(fix.Seed(0, Tuple{C(1)}, t));
  EXPECT_FALSE(fix.Seed(0, Tuple{C(1), C(2), C(3)}, t));
  fix.SeedTable(7, CTable::FromRelation(Relation(2, {{1, 2}})));
  for (int bad : {7, -1}) {
    CTable exported = fix.Export(bad);
    EXPECT_EQ(exported.arity(), 0);
    EXPECT_EQ(exported.num_rows(), 0u);
  }
  EXPECT_EQ(fix.Export(0).num_rows(), 0u);
  EXPECT_EQ(fix.stats().derived_rows, 0u);
  // Well-formed seeds still go through.
  EXPECT_TRUE(fix.Seed(0, Tuple{C(1), C(2)}, t));
  EXPECT_TRUE(fix.Seed(0, Tuple{C(2), C(3)}, t));
  fix.FireGroundRules();
  fix.Run();
  EXPECT_EQ(fix.Export(1).num_rows(), 3u);
}

TEST(DatalogCTableTest, ResetReturnsLiveIntensionalRowsAndReseedRederives) {
  // Reset drops every row and reports how many intensional ones were live:
  // tc's three paths and its ground fact, not the two edges. Seeding the
  // edges again, re-firing the ground facts and running lands on the export
  // from before the reset, the ground fact included, on both backends. The
  // cumulative stats survive the reset, and the rerun does the first run's
  // work once more.
  DatalogProgram tc = TransitiveClosure();
  DatalogRule fact_rule;
  fact_rule.head = {1, Tuple{C(8), C(9)}};
  tc.AddRule(fact_rule);
  const CTable edges = CTable::FromRelation(Relation(2, {{1, 2}, {2, 3}}));
  for (ConditionBackendKind kind : {ConditionBackendKind::kConjunctions,
                                    ConditionBackendKind::kDecisionDiagrams}) {
    SCOPED_TRACE(kind == ConditionBackendKind::kConjunctions ? "antichain"
                                                              : "dd");
    DatalogCTableOptions options;
    options.condition_backend = kind;
    ConditionedFixpoint fix(tc, options);
    fix.SeedTable(0, edges);
    fix.FireGroundRules();
    fix.Run();
    const std::vector<std::string> before =
        testutil::CanonicalRows(fix.Export(1));
    ASSERT_EQ(before.size(), 4u);
    const size_t derived = fix.stats().derived_rows;
    EXPECT_EQ(fix.Reset(), 4u);
    EXPECT_EQ(fix.Export(0).num_rows(), 0u);
    EXPECT_EQ(fix.Export(1).num_rows(), 0u);
    EXPECT_EQ(fix.stats().derived_rows, derived);
    fix.SeedTable(0, edges);
    fix.FireGroundRules();
    fix.Run();
    EXPECT_EQ(testutil::CanonicalRows(fix.Export(1)), before);
    EXPECT_EQ(testutil::CanonicalRows(fix.Export(0)),
              testutil::CanonicalRows(edges));
    EXPECT_EQ(fix.stats().derived_rows, 2 * derived);
  }
}

TEST(DatalogCTableTest, QueryOnNegativeGoalIsEmpty) {
  // The goal predicate is checked in all build modes: a goal that names no
  // predicate of the program has no answers, an empty table as wide as the
  // bindings. Regression: the goal restriction read the fixpoint's tables
  // at index -1.
  DatalogProgram tc = TransitiveClosure();
  CDatabase db(CTable::FromRelation(Relation(2, {{1, 2}, {2, 3}})));
  ConditionedFixpointStats stats;
  stats.rounds = 5;
  CTable answers =
      DatalogQueryOnCTables(tc, db, -1, {ConstId{1}, std::nullopt}, &stats);
  EXPECT_EQ(answers.arity(), 2);
  EXPECT_EQ(answers.num_rows(), 0u);
  EXPECT_EQ(stats.rounds, 0u);
}

TEST(DatalogCTableTest, QueryOnOutOfRangeGoalIsEmpty) {
  // A goal past the last predicate answers with no rows, whatever the
  // bindings' width. Regression: the rewrite looked the goal's arity up out
  // of range (an assert, or std::out_of_range in NDEBUG builds).
  DatalogProgram tc = TransitiveClosure();
  CDatabase db(CTable::FromRelation(Relation(2, {{1, 2}, {2, 3}})));
  for (int goal : {2, 7}) {
    SCOPED_TRACE("goal " + std::to_string(goal));
    CTable answers = DatalogQueryOnCTables(tc, db, goal, {std::nullopt});
    EXPECT_EQ(answers.arity(), 1);
    EXPECT_EQ(answers.num_rows(), 0u);
  }
  // The valid goal still answers.
  EXPECT_EQ(DatalogQueryOnCTables(tc, db, 1, {ConstId{1}, std::nullopt})
                .num_rows(),
            2u);
}

using testutil::CanonicalRows;

/// `rows` added to a fresh table in the order `order` gives.
CTable InOrder(int arity, const std::vector<CRow>& rows,
               const std::vector<size_t>& order) {
  CTable t(arity);
  for (size_t i : order) t.AddRow(rows[i]);
  return t;
}

TEST(RestrictTableToGoalTest, NonGroundRowCoversGroundRowForcedOntoIt) {
  // (0, x1) | true covers (0, 5) | x1 = 5: wherever the instance holds, the
  // general row denotes the same fact. A ground row is covered from the
  // non-ground list, and a non-ground row's kill scan reaches the ground
  // buckets — in either insertion order.
  ConditionInterner& interner = ConditionInterner::Global();
  std::vector<CRow> rows = {
      CRow{Tuple{C(0), V(1)}, Conjunction{}},
      CRow{Tuple{C(0), C(5)}, Conjunction{Eq(V(1), C(5))}},
  };
  for (const std::vector<size_t>& order :
       {std::vector<size_t>{0, 1}, std::vector<size_t>{1, 0}}) {
    CTable out = RestrictTableToGoal(InOrder(2, rows, order),
                                     {ConstId{0}, std::nullopt},
                                     ConditionInterner::kTrueConj, interner);
    ASSERT_EQ(out.num_rows(), 1u) << out.ToString();
    EXPECT_EQ(out.row(0).tuple, (Tuple{C(0), V(1)}));
    EXPECT_TRUE(out.row(0).local().IsTautology());
  }
}

TEST(RestrictTableToGoalTest, GroundRowNeverCoversNonGroundRow) {
  // (0, 5) | true and (0, x1) | x1 != 7: the ground row's constant cannot
  // be forced onto the unforced null, and the general row's condition is
  // not implied by true — neither covers the other, in either order.
  ConditionInterner& interner = ConditionInterner::Global();
  std::vector<CRow> rows = {
      CRow{Tuple{C(0), C(5)}, Conjunction{}},
      CRow{Tuple{C(0), V(1)}, Conjunction{Neq(V(1), C(7))}},
  };
  for (const std::vector<size_t>& order :
       {std::vector<size_t>{0, 1}, std::vector<size_t>{1, 0}}) {
    CTable out = RestrictTableToGoal(InOrder(2, rows, order),
                                     {std::nullopt, std::nullopt},
                                     ConditionInterner::kTrueConj, interner);
    EXPECT_EQ(out.num_rows(), 2u) << out.ToString();
    EXPECT_EQ(CanonicalRows(out), CanonicalRows(InOrder(2, rows, {0, 1})));
  }
}

TEST(RestrictTableToGoalTest, SameTupleDuplicatesCollapse) {
  // Duplicates, a stronger condition on the same tuple, and a null the
  // condition forces onto that tuple (resolved to (0, 5) before the
  // antichain sees it) all collapse into the one weakest row — whichever
  // arrives first.
  ConditionInterner& interner = ConditionInterner::Global();
  std::vector<CRow> rows = {
      CRow{Tuple{C(0), C(5)}, Conjunction{Eq(V(2), C(1))}},
      CRow{Tuple{C(0), C(5)}, Conjunction{}},
      CRow{Tuple{C(0), C(5)}, Conjunction{}},
      CRow{Tuple{C(0), V(1)}, Conjunction{Eq(V(1), C(5))}},
  };
  std::vector<size_t> order = {0, 1, 2, 3};
  do {
    CTable out = RestrictTableToGoal(InOrder(2, rows, order),
                                     {ConstId{0}, std::nullopt},
                                     ConditionInterner::kTrueConj, interner);
    ASSERT_EQ(out.num_rows(), 1u) << out.ToString();
    EXPECT_EQ(out.row(0).tuple, (Tuple{C(0), C(5)}));
    EXPECT_TRUE(out.row(0).local().IsTautology());
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(RestrictTableToGoalTest, ShuffledInputYieldsIdenticalTable) {
  // The covering antichain is canonical: any input order restricts to the
  // same rows (tuples and condition ids), only their order follows the
  // input's.
  ConditionInterner& interner = ConditionInterner::Global();
  std::mt19937 rng(20261017);
  for (int round = 0; round < 60; ++round) {
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/8, /*num_constants=*/3,
        /*num_variables=*/3, /*num_local_atoms=*/2);
    CTable t = RandomCTable(options, rng);
    std::vector<std::optional<ConstId>> bindings = {std::nullopt,
                                                    std::nullopt};
    if (round % 2 == 1) bindings[0] = ConstId{round % 3};
    CTable reference = RestrictTableToGoal(
        t, bindings, ConditionInterner::kTrueConj, interner);
    std::vector<size_t> order(t.num_rows());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (int shuffle = 0; shuffle < 4; ++shuffle) {
      std::shuffle(order.begin(), order.end(), rng);
      CTable out = RestrictTableToGoal(InOrder(2, t.rows(), order), bindings,
                                       ConditionInterner::kTrueConj, interner);
      EXPECT_EQ(CanonicalRows(out), CanonicalRows(reference))
          << t.ToString();
    }
  }
}

/// A chain 0 -> 1 -> ... -> n whose every `gap`-th edge runs through the
/// one shared null x0 (i -> x0 -> i + 1), under the global x0 != 0: the
/// serving benchmark's table in miniature. tc rows that reach a gap carry
/// x0 = k, and every probe on a ground node also returns the wildcard
/// (x0, i + 1) rows, which that condition rules out.
CDatabase SharedNullChain(int n, int gap) {
  CTable t(2);
  for (int i = 0; i < n; ++i) {
    if (i % gap == gap - 1) {
      t.AddRow(Tuple{C(i), V(0)});
      t.AddRow(Tuple{V(0), C(i + 1)});
    } else {
      t.AddRow(Tuple{C(i), C(i + 1)});
    }
  }
  t.SetGlobal(Conjunction{Neq(V(0), C(0))});
  return CDatabase{t};
}

TEST(DatalogCTableTest, ForcedNullClashesAreCutAsUnsatisfiableBranches) {
  // Derived rows carry x0 = k, then meet the wildcard (x0, .) rows: each
  // such candidate is an unsatisfiable branch. The fixpoint and the goal
  // query must represent every world on both backends, and on the
  // antichain backend, where the join loop decides these clashes from the
  // accumulated condition's canonical form, the branch counters must read
  // exactly what the interner path counted. The right-linear closure
  // derives its demand through the wildcard rows, so its clashes are
  // demand that can never hold.
  DatalogProgram right_linear({2, 2}, /*num_edb=*/1);
  DatalogRule base;
  base.head = {1, Tuple{V(100), V(101)}};
  base.body = {{0, Tuple{V(100), V(101)}}};
  right_linear.AddRule(base);
  DatalogRule step;
  step.head = {1, Tuple{V(100), V(102)}};
  step.body = {{0, Tuple{V(100), V(101)}}, {1, Tuple{V(101), V(102)}}};
  right_linear.AddRule(step);
  struct Case {
    const char* name;
    DatalogProgram program;
    size_t pruned, goal_pruned, goal_demand_pruned;  // the interner path's
  };
  const Case cases[] = {
      {"left-linear", TransitiveClosure(), 57, 5, 0},
      {"right-linear", right_linear, 103, 1597, 5},
  };
  ConditionInterner& interner = ConditionInterner::Global();
  CDatabase db = SharedNullChain(12, 3);
  const std::vector<std::optional<ConstId>> bindings = {ConstId{0},
                                                        std::nullopt};
  for (const Case& c : cases) {
    for (ConditionBackendKind kind :
         {ConditionBackendKind::kConjunctions,
          ConditionBackendKind::kDecisionDiagrams}) {
      const bool antichain = kind == ConditionBackendKind::kConjunctions;
      SCOPED_TRACE(std::string(c.name) + (antichain ? ", antichain" : ", dd"));
      DatalogCTableOptions options;
      options.condition_backend = kind;
      ConditionedFixpointStats stats;
      CDatabase image = DatalogOnCTables(c.program, db, &stats, options);
      EXPECT_TRUE(
          testutil::RepresentsFixpointOfEveryWorld(c.program, db, image))
          << image.table(1).ToString();
      ConditionedFixpointStats goal_stats;
      CTable answers = DatalogQueryOnCTables(c.program, db, 1, bindings,
                                             &goal_stats, options);
      EXPECT_EQ(CanonicalRows(answers),
                CanonicalRows(RestrictTableToGoal(
                    image.table(1), bindings, db.CombinedGlobalId(interner),
                    interner)));
      if (antichain) {
        EXPECT_EQ(stats.pruned_branches, c.pruned);
        EXPECT_EQ(goal_stats.pruned_branches, c.goal_pruned);
        EXPECT_EQ(goal_stats.demand_pruned, c.goal_demand_pruned);
      }
    }
  }
}

TEST(DatalogCTableTest, RecursiveStratumAdmitsUnconditionalRowsFirst) {
  // The chain 0 -> 1 -> 2 -> 3 -> 4 plus the edge (0, x0): the null hop
  // derives tc(0, 3) :: x0 = 2 and tc(0, 4) :: x0 = 3 in round 2, before the
  // chain derives both tuples unconditionally. A recursive stratum admits
  // every unconditional row before any conditional one, so those two die
  // as subsumed before admission and no admitted row is ever killed or
  // widened: 5 seeds plus the 11 tc rows, all unconditional.
  CTable t(2);
  for (int i = 0; i < 4; ++i) t.AddRow(Tuple{C(i), C(i + 1)});
  t.AddRow(Tuple{C(0), V(0)});
  const CDatabase db{t};
  for (ConditionBackendKind kind : {ConditionBackendKind::kConjunctions,
                                    ConditionBackendKind::kDecisionDiagrams}) {
    SCOPED_TRACE(kind == ConditionBackendKind::kConjunctions ? "antichain"
                                                             : "dd");
    DatalogCTableOptions options;
    options.condition_backend = kind;
    ConditionedFixpointStats stats;
    CDatabase out = DatalogOnCTables(TransitiveClosure(), db, &stats, options);
    EXPECT_EQ(out.table(1).num_rows(), 11u);
    for (const CRow& row : out.table(1).rows()) {
      EXPECT_TRUE(row.local().IsTautology()) << ToString(row.tuple);
    }
    EXPECT_EQ(stats.derived_rows, 5u + 11u);
    EXPECT_TRUE(
        testutil::RepresentsFixpointOfEveryWorld(TransitiveClosure(), db, out));
  }
}

/// A chain 0 -> 1 -> 2 -> x0 and 3 -> 4 -> x1, 5 -> 6 -> 7 -> x0 under the
/// global x0 != 1: which nodes 0 reaches depends on where x0 and x1 land,
/// so tc(0, 7) holds under nine conjunctions and the tc_bf helper table of
/// the rewritten tc(0, 7) goal holds 16 rows.
CDatabase ForkedNullChain() {
  CTable t(2);
  t.AddRow(Tuple{C(0), C(1)});
  t.AddRow(Tuple{C(1), C(2)});
  t.AddRow(Tuple{C(2), V(0)});
  t.AddRow(Tuple{C(3), C(4)});
  t.AddRow(Tuple{C(4), V(1)});
  t.AddRow(Tuple{C(5), C(6)});
  t.AddRow(Tuple{C(6), C(7)});
  t.AddRow(Tuple{C(7), V(0)});
  t.SetGlobal(Conjunction{Neq(V(0), C(1))});
  return CDatabase{t};
}

DatalogCTableOptions DDOn(ConditionInterner& interner) {
  DatalogCTableOptions options;
  options.interner = &interner;
  options.condition_backend = ConditionBackendKind::kDecisionDiagrams;
  return options;
}

TEST(DatalogCTableTest, BoundGoalExportsOnlyTheGoalTable) {
  // tc(0, 7) binds both positions, so its rewrite derives an adorned tc_bf
  // helper table of every node 0 reaches, and only the goal table leaves
  // the fixpoint. Rows and every stat are pinned per backend, at the values
  // of the evaluation that exported every table and restricted the goal's,
  // except one: on diagrams that export also interned the helper table's
  // DNF paths, and interner_conjunctions read 25 there.
  const std::vector<std::optional<ConstId>> bindings = {ConstId{0},
                                                        ConstId{7}};
  const std::vector<std::string> rows = {
      "(0, 7) :: 3 = x0 AND 5 = x1", "(0, 7) :: 3 = x0 AND 6 = x1",
      "(0, 7) :: 3 = x0 AND 7 = x1", "(0, 7) :: 4 = x0 AND 5 = x1",
      "(0, 7) :: 4 = x0 AND 6 = x1", "(0, 7) :: 4 = x0 AND 7 = x1",
      "(0, 7) :: 5 = x0",            "(0, 7) :: 6 = x0",
      "(0, 7) :: 7 = x0"};
  struct Case {
    ConditionBackendKind kind;
    size_t derived, subsumed, duplicate, pruned, delta, conjunctions, probes,
        hits;
  };
  const Case cases[] = {
      {ConditionBackendKind::kConjunctions, 35, 21, 2, 15, 17, 32, 48, 70},
      {ConditionBackendKind::kDecisionDiagrams, 29, 22, 1, 6, 14, 24, 26, 42},
  };
  CDatabase db = ForkedNullChain();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.kind == ConditionBackendKind::kConjunctions ? "antichain"
                                                               : "dd");
    ConditionInterner interner;
    DatalogCTableOptions options;
    options.interner = &interner;
    options.condition_backend = c.kind;
    ConditionedFixpointStats stats;
    CTable answers = DatalogQueryOnCTables(TransitiveClosure(), db, 1,
                                           bindings, &stats, options);
    EXPECT_EQ(CanonicalRows(answers), rows);
    EXPECT_EQ(stats.rounds, 11u);
    EXPECT_EQ(stats.strata, 3u);
    EXPECT_EQ(stats.dead_rules_skipped, 0u);
    EXPECT_EQ(stats.derived_rows, c.derived);
    EXPECT_EQ(stats.subsumed_rows, c.subsumed);
    EXPECT_EQ(stats.unsatisfiable_rows, 0u);
    EXPECT_EQ(stats.duplicate_rows, c.duplicate);
    EXPECT_EQ(stats.pruned_branches, c.pruned);
    EXPECT_EQ(stats.delta_rows, c.delta);
    EXPECT_EQ(stats.interner_conjunctions, c.conjunctions);
    EXPECT_EQ(stats.index_builds, 5u);
    EXPECT_EQ(stats.index_extends, 0u);
    EXPECT_EQ(stats.index_probes, c.probes);
    EXPECT_EQ(stats.index_hits, c.hits);
    EXPECT_EQ(stats.magic_facts, 2u);
    EXPECT_EQ(stats.rules_adorned, 4u);
    EXPECT_EQ(stats.magic_rules, 3u);
    EXPECT_EQ(stats.rules_pruned, 0u);
    EXPECT_EQ(stats.demand_pruned, 0u);
    EXPECT_FALSE(stats.budget_exhausted);

    MagicRewriteResult rewrite =
        MagicRewrite(TransitiveClosure(), {1, bindings});
    EXPECT_EQ(DatalogOnCTables(rewrite.program, db, nullptr, options)
                  .table(2)
                  .num_rows(),
              16u)
        << "predicate 2 is the adorned tc_bf helper\n"
        << rewrite.program.ToString();
  }
}

TEST(DatalogCTableTest, RepeatedDDGoalBuildsNoNewNode) {
  // Every diagram fixpoint on an interner runs on the interner's one
  // manager, so the same goal asked again finds every diagram the first
  // call built: the manager gains no node, and the rows are the same.
  ConditionInterner interner;
  const DatalogCTableOptions options = DDOn(interner);
  CDatabase db = ForkedNullChain();
  for (const std::vector<std::optional<ConstId>>& bindings :
       {std::vector<std::optional<ConstId>>{ConstId{0}, std::nullopt},
        std::vector<std::optional<ConstId>>{ConstId{0}, ConstId{7}}}) {
    CTable first = DatalogQueryOnCTables(TransitiveClosure(), db, 1, bindings,
                                         nullptr, options);
    const size_t nodes = interner.DDManager()->num_nodes();
    EXPECT_GT(nodes, 0u);
    CTable second = DatalogQueryOnCTables(TransitiveClosure(), db, 1,
                                          bindings, nullptr, options);
    EXPECT_EQ(interner.DDManager()->num_nodes(), nodes);
    EXPECT_EQ(CanonicalRows(second), CanonicalRows(first));
  }
}

TEST(DatalogCTableTest, ClearStartsAnEmptyDDManager) {
  // A diagram fixpoint runs on the interner's manager. Clear() ends it: the
  // next fixpoint starts on an empty manager, and answers as a fresh
  // interner does. A fixpoint built before the Clear() holds the old
  // manager until it is destroyed, after the Clear() (a use after free
  // under ASan otherwise).
  ConditionInterner interner;
  const DatalogCTableOptions options = DDOn(interner);
  const DatalogProgram tc = TransitiveClosure();
  CDatabase db = ForkedNullChain();
  auto before = std::make_unique<ConditionedFixpoint>(tc, options);
  before->SetGlobal(db.CombinedGlobalId(interner));
  before->SeedTable(0, db.table(0));
  before->Run();
  const ConditionBackend* old_manager = &before->backend();
  EXPECT_EQ(old_manager, interner.DDManager().get());
  EXPECT_EQ(MakeConditionBackend(ConditionBackendKind::kDecisionDiagrams,
                                 interner)
                .get(),
            old_manager);
  EXPECT_GT(interner.DDManager()->num_nodes(), 0u);

  interner.Clear();
  EXPECT_NE(interner.DDManager().get(), old_manager);
  EXPECT_EQ(interner.DDManager()->num_nodes(), 0u);
  before.reset();

  const std::vector<std::optional<ConstId>> bindings = {ConstId{0},
                                                        std::nullopt};
  CTable answers =
      DatalogQueryOnCTables(tc, db, 1, bindings, nullptr, options);
  ConditionInterner cold;
  EXPECT_EQ(CanonicalRows(answers),
            CanonicalRows(DatalogQueryOnCTables(tc, db, 1, bindings, nullptr,
                                                DDOn(cold))));
}

}  // namespace
}  // namespace pw
