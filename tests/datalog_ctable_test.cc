// Tests for the conditioned DATALOG fixpoint on c-tables: its result must
// represent exactly the pointwise DATALOG image of the input's worlds.

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <string>

#include "ilalgebra/datalog_ctable.h"
#include "datalog/eval.h"
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
  // and the row width in all build modes: a bad call changes nothing.
  DatalogProgram tc = TransitiveClosure();
  ConditionedFixpoint fix(tc);
  const ConjId t = ConditionInterner::kTrueConj;
  EXPECT_FALSE(fix.Seed(7, Tuple{C(1), C(2)}, t));
  EXPECT_FALSE(fix.Seed(-1, Tuple{C(1), C(2)}, t));
  EXPECT_FALSE(fix.Seed(0, Tuple{C(1)}, t));
  EXPECT_FALSE(fix.Seed(0, Tuple{C(1), C(2), C(3)}, t));
  fix.SeedTable(7, CTable::FromRelation(Relation(2, {{1, 2}})));
  fix.ClearPredicate(7);
  fix.ClearPredicate(-1);
  EXPECT_EQ(fix.NumLiveRows(7), 0u);
  EXPECT_EQ(fix.NumLiveRows(-1), 0u);
  EXPECT_EQ(fix.NumLiveRows(0), 0u);
  EXPECT_EQ(fix.stats().derived_rows, 0u);
  // Well-formed seeds still go through.
  EXPECT_TRUE(fix.Seed(0, Tuple{C(1), C(2)}, t));
  EXPECT_TRUE(fix.Seed(0, Tuple{C(2), C(3)}, t));
  fix.FireGroundRules();
  fix.Run();
  EXPECT_EQ(fix.NumLiveRows(1), 3u);
}

#ifdef NDEBUG
TEST(DatalogCTableTest, RunConeRejectsWrongSizeMask) {
  // RunCone indexes its cone mask by predicate id, so the size check must
  // hold in release builds too: a mask that is not num_predicates long
  // makes the call a no-op. (Debug builds assert instead, so this only runs
  // under NDEBUG.)
  DatalogProgram tc = TransitiveClosure();
  ConditionedFixpoint fix(tc);
  fix.SeedTable(0, CTable::FromRelation(Relation(2, {{1, 2}, {2, 3}})));
  fix.FireGroundRules();
  fix.Run();
  ASSERT_EQ(fix.NumLiveRows(1), 3u);
  fix.ClearPredicate(1);
  const size_t rounds = fix.stats().rounds;
  fix.RunCone(std::vector<bool>(tc.num_predicates() + 1, true));
  EXPECT_EQ(fix.NumLiveRows(1), 0u);
  EXPECT_EQ(fix.stats().rounds, rounds);
  // The well-formed mask re-derives the cleared predicate.
  fix.RunCone({false, true});
  EXPECT_EQ(fix.NumLiveRows(1), 3u);
}
#endif

}  // namespace
}  // namespace pw
