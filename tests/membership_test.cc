// Tests for the membership problem MEMB (Theorem 3.1): the PTIME matching
// algorithm on Codd-tables, the general backtracking search, view
// membership, and randomized cross-validation against world enumeration.

#include <gtest/gtest.h>

#include <random>

#include "decision/membership.h"
#include "tables/world_enum.h"
#include "test_util.h"
#include "workload/random_gen.h"

namespace pw {
namespace {

// --- Fig. 3 of the paper --------------------------------------------------

TEST(MembershipCoddTest, PaperFig3Example) {
  // I0 = {112, 323, 145, 123}, T = {(x1,1,x2), (x3,2,3), (1,x4,x5),
  // (1,2,3), (1,2,x6)} — the paper's example answers yes.
  CDatabase db{testutil::PaperFig3Table()};
  Instance i0 = testutil::PaperFig3Instance();
  auto result = MembershipCoddTables(db, i0);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(*result);
  EXPECT_TRUE(MembershipSearch(db, i0));  // general search agrees
}

TEST(MembershipCoddTest, RowWithNoCompatibleFactFails) {
  CTable t(2);
  t.AddRow(Tuple{C(1), V(0)});
  t.AddRow(Tuple{C(9), V(1)});  // nothing in I0 starts with 9
  CDatabase db{t};
  Instance i0({Relation(2, {{1, 5}})});
  EXPECT_EQ(MembershipCoddTables(db, i0), false);
}

TEST(MembershipCoddTest, MoreFactsThanRowsFails) {
  CTable t(1);
  t.AddRow(Tuple{V(0)});
  CDatabase db{t};
  Instance i0({Relation(1, {{1}, {2}})});
  EXPECT_EQ(MembershipCoddTables(db, i0), false);
}

TEST(MembershipCoddTest, RowsCanShareAFact) {
  CTable t(1);
  t.AddRow(Tuple{V(0)});
  t.AddRow(Tuple{V(1)});
  t.AddRow(Tuple{C(3)});
  CDatabase db{t};
  EXPECT_EQ(MembershipCoddTables(db, Instance({Relation(1, {{3}})})), true);
  EXPECT_EQ(MembershipCoddTables(db, Instance({Relation(1, {{3}, {4}})})),
            true);
  EXPECT_EQ(
      MembershipCoddTables(db, Instance({Relation(1, {{3}, {4}, {5}})})),
      true);
  EXPECT_EQ(
      MembershipCoddTables(db, Instance({Relation(1, {{4}, {5}, {6}})})),
      false);  // constant row 3 must land in I0
}

TEST(MembershipCoddTest, EmptyTableOnlyMatchesEmptyInstance) {
  CDatabase db{CTable(2)};
  EXPECT_EQ(MembershipCoddTables(db, Instance(std::vector<int>{2})), true);
  EXPECT_EQ(MembershipCoddTables(db, Instance({Relation(2, {{1, 2}})})),
            false);
}

TEST(MembershipCoddTest, NotApplicableToETables) {
  CTable t(2);
  t.AddRow(Tuple{V(0), V(0)});
  CDatabase db{t};
  EXPECT_FALSE(MembershipCoddTables(db, Instance({Relation(2, {{1, 1}})}))
                   .has_value());
}

TEST(MembershipCoddTest, NotApplicableAcrossTables) {
  CTable a(1);
  a.AddRow(Tuple{V(0)});
  CTable b(1);
  b.AddRow(Tuple{V(0)});
  CDatabase db;
  db.AddTable(a);
  db.AddTable(b);
  EXPECT_FALSE(MembershipCoddTables(
                   db, Instance({Relation(1, {{1}}), Relation(1, {{1}})}))
                   .has_value());
}

TEST(MembershipCoddTest, ShapeMismatchIsNotMember) {
  CDatabase db{CTable(2)};
  EXPECT_EQ(MembershipCoddTables(db, Instance({Relation(3)})), false);
  EXPECT_EQ(MembershipCoddTables(db, Instance({})), false);
}

TEST(MembershipSearchTest, ETableRepeatedVariableForcesEquality) {
  CTable t(2);
  t.AddRow(Tuple{V(0), V(0)});
  CDatabase db{t};
  EXPECT_TRUE(MembershipSearch(db, Instance({Relation(2, {{4, 4}})})));
  EXPECT_FALSE(MembershipSearch(db, Instance({Relation(2, {{4, 5}})})));
}

TEST(MembershipSearchTest, CrossRowVariableSharing) {
  // T = {(x, 1), (2, x)}: worlds {(c,1),(2,c)}.
  CTable t(2);
  t.AddRow(Tuple{V(0), C(1)});
  t.AddRow(Tuple{C(2), V(0)});
  CDatabase db{t};
  EXPECT_TRUE(MembershipSearch(db, Instance({Relation(2, {{7, 1}, {2, 7}})})));
  EXPECT_FALSE(
      MembershipSearch(db, Instance({Relation(2, {{7, 1}, {2, 8}})})));
  // x = 2, giving facts (2,1) and (2,2).
  EXPECT_TRUE(MembershipSearch(db, Instance({Relation(2, {{2, 1}, {2, 2}})})));
}

TEST(MembershipSearchTest, GlobalInequalityBlocks) {
  CTable t(1);
  t.AddRow(Tuple{V(0)});
  t.SetGlobal(Conjunction{Neq(V(0), C(3))});
  CDatabase db{t};
  EXPECT_FALSE(MembershipSearch(db, Instance({Relation(1, {{3}})})));
  EXPECT_TRUE(MembershipSearch(db, Instance({Relation(1, {{4}})})));
}

TEST(MembershipSearchTest, UnsatisfiableGlobalHasNoMembers) {
  CTable t(1);
  t.AddRow(Tuple{C(1)});
  t.SetGlobal(Conjunction{FalseAtom()});
  CDatabase db{t};
  EXPECT_FALSE(MembershipSearch(db, Instance({Relation(1, {{1}})})));
  EXPECT_FALSE(MembershipSearch(db, Instance(std::vector<int>{1})));
}

TEST(MembershipSearchTest, LocalConditionSuppressionAllowsEmptyWorld) {
  CTable t(1);
  t.AddRow(Tuple{C(1)}, Conjunction{Eq(V(0), C(5))});
  CDatabase db{t};
  EXPECT_TRUE(MembershipSearch(db, Instance(std::vector<int>{1})));
  EXPECT_TRUE(MembershipSearch(db, Instance({Relation(1, {{1}})})));
  EXPECT_FALSE(MembershipSearch(db, Instance({Relation(1, {{2}})})));
}

TEST(MembershipSearchTest, SuppressionInteractsWithOtherRows) {
  // Row (x) with local x != 1 and row (1): worlds {1} (x = 1 suppressing
  // row 0, or x -> 1 impossible... x=1 makes row 0 off) and {c, 1}.
  CTable t(1);
  t.AddRow(Tuple{V(0)}, Conjunction{Neq(V(0), C(1))});
  t.AddRow(Tuple{C(1)});
  CDatabase db{t};
  EXPECT_TRUE(MembershipSearch(db, Instance({Relation(1, {{1}})})));
  EXPECT_TRUE(MembershipSearch(db, Instance({Relation(1, {{1}, {2}})})));
  EXPECT_FALSE(MembershipSearch(db, Instance({Relation(1, {{2}})})));
}

TEST(MembershipSearchTest, TupleMustLandInsideInstanceWhenOn) {
  // Ground row (7) with local condition x = 1: if x = 1 the world contains
  // 7. So {1} requires x != 1.
  CTable t(1);
  t.AddRow(Tuple{C(7)}, Conjunction{Eq(V(0), C(1))});
  t.AddRow(Tuple{V(0)});
  CDatabase db{t};
  // I0 = {1}: row 1 maps x -> 1, but then local of row 0 fires and 7 would
  // appear. Contradiction: not a member.
  EXPECT_FALSE(MembershipSearch(db, Instance({Relation(1, {{1}})})));
  // I0 = {2}: x -> 2, row 0 suppressed. Member.
  EXPECT_TRUE(MembershipSearch(db, Instance({Relation(1, {{2}})})));
  // I0 = {1, 7}: x -> 1, both rows land inside. Member.
  EXPECT_TRUE(MembershipSearch(db, Instance({Relation(1, {{1}, {7}})})));
}

TEST(MembershipViewTest, IdentityDispatches) {
  CTable t(1);
  t.AddRow(Tuple{V(0)});
  CDatabase db{t};
  EXPECT_TRUE(
      MembershipInView(View::Identity(), db, Instance({Relation(1, {{5}})})));
}

TEST(MembershipViewTest, PositiveExistentialViewViaImage) {
  // q = pi_0(sigma_{c1=3}(R)) on T = {(x, y)}: q(rep) = all {} or {c}...
  CTable t(2);
  t.AddRow(Tuple{V(0), V(1)});
  CDatabase db{t};
  RaExpr q = RaExpr::ProjectCols(
      RaExpr::Select(RaExpr::Rel(0, 2),
                     {SelectAtom::Eq(ColOrConst::Col(1),
                                     ColOrConst::Const(3))}),
      {0});
  View view = View::Ra({q});
  EXPECT_TRUE(MembershipInView(view, db, Instance({Relation(1, {{5}})})));
  EXPECT_TRUE(MembershipInView(view, db, Instance(std::vector<int>{1})));
  EXPECT_FALSE(
      MembershipInView(view, db, Instance({Relation(1, {{5}, {6}})})));
}

TEST(MembershipViewTest, FirstOrderViewViaEnumeration) {
  // q = R - {(1)} on T = {(x)}: q(rep) = {{}} union {{c}: c != 1}.
  CTable t(1);
  t.AddRow(Tuple{V(0)});
  CDatabase db{t};
  RaExpr q = RaExpr::Diff(RaExpr::Rel(0, 1),
                          RaExpr::ConstRel(Relation(1, {{1}})));
  View view = View::Ra({q});
  EXPECT_TRUE(MembershipInView(view, db, Instance(std::vector<int>{1})));
  EXPECT_TRUE(MembershipInView(view, db, Instance({Relation(1, {{2}})})));
  EXPECT_FALSE(MembershipInView(view, db, Instance({Relation(1, {{1}})})));
}

// --- Randomized cross-validation against the enumeration oracle ----------

class MembershipPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MembershipPropertyTest, SearchAgreesWithEnumeration) {
  std::mt19937 rng(GetParam());
  RandomCTableOptions options = testutil::SmallCTableOptions(
      /*arity=*/2, /*num_rows=*/3, /*num_constants=*/3, /*num_variables=*/3,
      /*num_local_atoms=*/(GetParam() % 2 == 0) ? 1 : 0,
      /*num_global_atoms=*/GetParam() % 3);
  CTable t = RandomCTable(options, rng);
  CDatabase db{t};

  // Candidate instances: every enumerated world (must be members) plus a
  // few random instances (checked against the enumeration).
  std::vector<Instance> worlds = EnumerateWorlds(db);
  for (const Instance& w : worlds) {
    EXPECT_TRUE(MembershipSearch(db, w)) << t.ToString() << w.ToString();
  }
  for (int round = 0; round < 6; ++round) {
    Instance candidate({RandomRelation(2, 2, 4, rng)});
    EXPECT_EQ(MembershipSearch(db, candidate), testutil::IsWorld(db, candidate))
        << t.ToString() << candidate.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MembershipPropertyTest,
                         ::testing::Range(1, 31));

TEST(MembershipAgreementTest, CoddAlgorithmAgreesWithSearchOnRandom) {
  std::mt19937 rng(101);
  for (int round = 0; round < 30; ++round) {
    // Large variable pool: repeats are unlikely, tables are Codd-ish.
    RandomCTableOptions options = testutil::CoddishCTableOptions(
        /*arity=*/2, /*num_rows=*/4, /*num_constants=*/3,
        /*num_variables=*/100);
    CTable t = RandomCTable(options, rng);
    CDatabase db{t};
    Instance candidate({RandomRelation(2, 3, 4, rng)});
    auto fast = MembershipCoddTables(db, candidate);
    if (!fast.has_value()) continue;  // repeated variable by chance
    EXPECT_EQ(*fast, MembershipSearch(db, candidate))
        << t.ToString() << candidate.ToString();
  }
}

}  // namespace
}  // namespace pw
