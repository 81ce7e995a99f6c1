// Tests for the uniqueness problem UNIQ (Theorem 3.2): the PTIME g-table
// algorithm, the PTIME positive-existential-view-of-e-tables algorithm, the
// general search, and randomized cross-validation.

#include <gtest/gtest.h>

#include <random>

#include "decision/uniqueness.h"
#include "ra/eval.h"
#include "tables/world_enum.h"
#include "test_util.h"
#include "workload/random_gen.h"

namespace pw {
namespace {

TEST(UniqGTablesTest, GroundTableUniqueIffEqual) {
  CDatabase db(CTable::FromRelation(Relation(1, {{1}, {2}})));
  EXPECT_EQ(UniqGTables(db, Instance({Relation(1, {{1}, {2}})})), true);
  EXPECT_EQ(UniqGTables(db, Instance({Relation(1, {{1}})})), false);
}

TEST(UniqGTablesTest, ForcedVariableSubstituted) {
  CTable t(1);
  t.AddRow(Tuple{V(0)});
  t.AddRow(Tuple{C(2)});
  t.SetGlobal(Conjunction{Eq(V(0), C(1))});
  CDatabase db{t};
  EXPECT_EQ(UniqGTables(db, Instance({Relation(1, {{1}, {2}})})), true);
}

TEST(UniqGTablesTest, FreeVariableNeverUnique) {
  CTable t(1);
  t.AddRow(Tuple{V(0)});
  CDatabase db{t};
  EXPECT_EQ(UniqGTables(db, Instance({Relation(1, {{1}})})), false);
}

TEST(UniqGTablesTest, VariableOnlyInConditionIsIrrelevant) {
  CTable t(1);
  t.AddRow(Tuple{C(1)});
  t.SetGlobal(Conjunction{Neq(V(5), C(2))});
  CDatabase db{t};
  EXPECT_EQ(UniqGTables(db, Instance({Relation(1, {{1}})})), true);
}

TEST(UniqGTablesTest, UnsatisfiableGlobalNotUnique) {
  CTable t(1);
  t.AddRow(Tuple{C(1)});
  t.SetGlobal(Conjunction{FalseAtom()});
  CDatabase db{t};
  EXPECT_EQ(UniqGTables(db, Instance({Relation(1, {{1}})})), false);
}

TEST(UniqGTablesTest, CollapsingDuplicatesStillEqual) {
  // {(x), (1)} with x = 1 forced: matrix collapses to {1}.
  CTable t(1);
  t.AddRow(Tuple{V(0)});
  t.AddRow(Tuple{C(1)});
  t.SetGlobal(Conjunction{Eq(V(0), C(1))});
  CDatabase db{t};
  EXPECT_EQ(UniqGTables(db, Instance({Relation(1, {{1}})})), true);
}

TEST(UniqGTablesTest, NotApplicableWithLocalConditions) {
  CTable t(1);
  t.AddRow(Tuple{C(1)}, Conjunction{Eq(V(0), C(1))});
  CDatabase db{t};
  EXPECT_FALSE(UniqGTables(db, Instance({Relation(1, {{1}})})).has_value());
}

TEST(UniqPosExistentialViewTest, SelectionCollapsesWorlds) {
  // T0 = {(1, x)}; q = pi_0(sigma_{c0=1}(R)): image is always {(1)}.
  CTable t(2);
  t.AddRow(Tuple{C(1), V(0)});
  CDatabase db{t};
  RaQuery q = {RaExpr::ProjectCols(
      RaExpr::Select(RaExpr::Rel(0, 2),
                     {SelectAtom::Eq(ColOrConst::Col(0),
                                     ColOrConst::Const(1))}),
      {0})};
  auto result = UniqPosExistentialView(q, db, Instance({Relation(1, {{1}})}));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(*result);
}

TEST(UniqPosExistentialViewTest, VariableInOutputNotUnique) {
  CTable t(2);
  t.AddRow(Tuple{C(1), V(0)});
  CDatabase db{t};
  RaQuery q = {RaExpr::Rel(0, 2)};
  auto result =
      UniqPosExistentialView(q, db, Instance({Relation(2, {{1, 5}})}));
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(*result);
}

TEST(UniqPosExistentialViewTest, SelectOnVariableNotCertainNotUnique) {
  // q = sigma_{c1=5}(R) on {(1, x)}: worlds {} and {(1,5)} — not unique.
  CTable t(2);
  t.AddRow(Tuple{C(1), V(0)});
  CDatabase db{t};
  RaQuery q = {RaExpr::Select(
      RaExpr::Rel(0, 2),
      {SelectAtom::Eq(ColOrConst::Col(1), ColOrConst::Const(5))})};
  auto result =
      UniqPosExistentialView(q, db, Instance({Relation(2, {{1, 5}})}));
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(*result);
}

TEST(UniqPosExistentialViewTest, FrozenNullsAvoidTheQuerysConstants) {
  // q = pi_0(sigma_{c1=c}(R)) on {(4, y)}: the image is {(4)} when y = c
  // and empty otherwise — not unique. With c = 5, the constant just above
  // the instance's and the table's, a step (alpha) that froze y without
  // avoiding the query's constants made (4) look certain; c = 6 is the
  // control.
  for (ConstId c : {ConstId{5}, ConstId{6}}) {
    CTable t(2);
    t.AddRow(Tuple{C(4), V(0)});
    CDatabase db{t};
    RaQuery q = {RaExpr::ProjectCols(
        RaExpr::Select(RaExpr::Rel(0, 2),
                       {SelectAtom::Eq(ColOrConst::Col(1),
                                       ColOrConst::Const(c))}),
        {0})};
    Instance i({Relation(1, {{4}})});
    EXPECT_FALSE(UniquenessSearch(View::Ra(q), db, i)) << "c = " << c;
    EXPECT_EQ(UniqPosExistentialView(q, db, i), false) << "c = " << c;
    EXPECT_FALSE(Uniqueness(View::Ra(q), db, i)) << "c = " << c;
  }
}

TEST(UniqPosExistentialViewTest, RejectsNeqQueries) {
  CDatabase db{CTable(1)};
  RaQuery q = {RaExpr::Select(
      RaExpr::Rel(0, 1),
      {SelectAtom::Neq(ColOrConst::Col(0), ColOrConst::Const(1))})};
  EXPECT_FALSE(
      UniqPosExistentialView(q, db, Instance(std::vector<int>{1}))
          .has_value());
}

TEST(UniqPosExistentialViewTest, RejectsCTables) {
  CTable t(1);
  t.AddRow(Tuple{C(1)}, Conjunction{Eq(V(0), C(1))});
  CDatabase db{t};
  RaQuery q = {RaExpr::Rel(0, 1)};
  EXPECT_FALSE(UniqPosExistentialView(q, db, Instance({Relation(1, {{1}})}))
                   .has_value());
}

TEST(UniquenessSearchTest, CTableTautologyCondition) {
  // Rows (1) with local u = 1 and (1) with local u != 1: exactly one is
  // always on, so rep = {{(1)}} — unique.
  CTable t(1);
  t.AddRow(Tuple{C(1)}, Conjunction{Eq(V(0), C(1))});
  t.AddRow(Tuple{C(1)}, Conjunction{Neq(V(0), C(1))});
  CDatabase db{t};
  EXPECT_TRUE(
      UniquenessSearch(View::Identity(), db, Instance({Relation(1, {{1}})})));
}

TEST(UniquenessSearchTest, CTableNonTautologyCondition) {
  // Single row (1) with local u = 1: the empty world also exists.
  CTable t(1);
  t.AddRow(Tuple{C(1)}, Conjunction{Eq(V(0), C(1))});
  CDatabase db{t};
  EXPECT_FALSE(
      UniquenessSearch(View::Identity(), db, Instance({Relation(1, {{1}})})));
}

TEST(UniquenessSearchTest, EmptyRepNeverUnique) {
  CTable t(1);
  t.AddRow(Tuple{C(1)});
  t.SetGlobal(Conjunction{FalseAtom()});
  CDatabase db{t};
  EXPECT_FALSE(
      UniquenessSearch(View::Identity(), db, Instance({Relation(1, {{1}})})));
}

TEST(UniquenessSearchTest, MustAlsoBeMember) {
  // rep(T) = {{(2)}} is a singleton, but not {I} for I = {(3)}.
  CDatabase db(CTable::FromRelation(Relation(1, {{2}})));
  EXPECT_FALSE(
      UniquenessSearch(View::Identity(), db, Instance({Relation(1, {{3}})})));
  EXPECT_TRUE(
      UniquenessSearch(View::Identity(), db, Instance({Relation(1, {{2}})})));
}

// --- Randomized cross-validation ------------------------------------------

/// Oracle: enumerate all worlds (with I's constants in Delta) and check the
/// set is exactly {I}.
bool UniqueOracle(const View& view, const CDatabase& db, const Instance& i) {
  WorldEnumOptions options;
  options.extra_constants = i.Constants();
  bool any = false;
  bool all_equal = true;
  ForEachWorld(db, options, [&](const Instance& world, const Valuation&) {
    any = true;
    if (view.Eval(world) != i) {
      all_equal = false;
      return false;
    }
    return true;
  });
  return any && all_equal;
}

class UniquenessPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(UniquenessPropertyTest, SearchAgreesWithOracle) {
  std::mt19937 rng(GetParam());
  RandomCTableOptions options = testutil::SmallCTableOptions(
      /*arity=*/1, /*num_rows=*/3, /*num_constants=*/2, /*num_variables=*/2,
      /*num_local_atoms=*/1, /*num_global_atoms=*/GetParam() % 2);
  CTable t = RandomCTable(options, rng);
  CDatabase db{t};

  // Test uniqueness against each enumerated world and one random instance.
  std::vector<Instance> candidates = EnumerateWorlds(db);
  candidates.push_back(Instance({RandomRelation(1, 2, 3, rng)}));
  for (const Instance& i : candidates) {
    EXPECT_EQ(UniquenessSearch(View::Identity(), db, i),
              UniqueOracle(View::Identity(), db, i))
        << t.ToString() << i.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UniquenessPropertyTest,
                         ::testing::Range(1, 31));

TEST(UniqAgreementTest, GTableFastPathAgreesWithSearch) {
  std::mt19937 rng(55);
  for (int round = 0; round < 30; ++round) {
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/1, /*num_rows=*/2, /*num_constants=*/2, /*num_variables=*/2,
        /*num_local_atoms=*/0, /*num_global_atoms=*/round % 3);
    CTable t = RandomCTable(options, rng);
    CDatabase db{t};
    Instance candidate({RandomRelation(1, 2, 3, rng)});
    auto fast = UniqGTables(db, candidate);
    ASSERT_TRUE(fast.has_value());
    EXPECT_EQ(*fast, UniqueOracle(View::Identity(), db, candidate))
        << t.ToString() << candidate.ToString();
  }
}

TEST(UniqAgreementTest, PosExistentialFastPathAgreesWithOracle) {
  std::mt19937 rng(77);
  RaQuery q = {RaExpr::ProjectCols(
      RaExpr::Select(RaExpr::Rel(0, 2),
                     {SelectAtom::Eq(ColOrConst::Col(0),
                                     ColOrConst::Const(1))}),
      {1})};
  View view = View::Ra(q);
  for (int round = 0; round < 30; ++round) {
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/3, /*num_constants=*/2, /*num_variables=*/2);
    CTable t = RandomCTable(options, rng);
    if (t.Kind() > TableKind::kETable) continue;
    CDatabase db{t};
    Instance candidate({RandomRelation(1, 2, 3, rng)});
    auto fast = UniqPosExistentialView(q, db, candidate);
    ASSERT_TRUE(fast.has_value());
    EXPECT_EQ(*fast, UniqueOracle(view, db, candidate))
        << t.ToString() << candidate.ToString();
  }
}

}  // namespace
}  // namespace pw
