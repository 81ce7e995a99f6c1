// Tests for the containment problem CONT (Theorems 4.1, 4.2): freezing,
// the PTIME/NP/coNP special cases, the general Pi-2-p search, and
// randomized cross-validation against a two-level enumeration oracle.

#include <gtest/gtest.h>

#include <random>

#include "decision/complexity_map.h"
#include "decision/containment.h"
#include "decision/membership.h"
#include "tables/world_enum.h"
#include "test_util.h"
#include "workload/random_gen.h"

namespace pw {
namespace {

TEST(FreezeTest, DistinctFreshConstantsPerVariable) {
  CTable t(2);
  t.AddRow(Tuple{V(0), V(1)});
  t.AddRow(Tuple{V(2), C(1)});
  CDatabase db{t};
  Instance k0 = Freeze(db, {});
  ASSERT_EQ(k0.relation(0).size(), 2u);
  auto consts = k0.Constants();
  EXPECT_EQ(consts.size(), 4u);  // 1 + three distinct fresh
  // The nulls sit above `avoid` too, from the reported first null on.
  ConstId first_null = 0;
  k0 = Freeze(db, {7}, &first_null);
  EXPECT_EQ(first_null, 8u);
  EXPECT_EQ(k0.Constants(), (std::vector<ConstId>{1, 8, 9, 10}));
}

TEST(FreezeTest, ForcedEqualitiesRespected) {
  CTable t(2);
  t.AddRow(Tuple{V(0), V(1)});
  t.SetGlobal(Conjunction{Eq(V(0), V(1))});
  CDatabase db{t};
  Instance k0 = Freeze(db, {});
  const Fact& f = *k0.relation(0).begin();
  EXPECT_EQ(f[0], f[1]);
}

TEST(FreezeTest, ForcedConstantsRespected) {
  CTable t(1);
  t.AddRow(Tuple{V(0)});
  t.SetGlobal(Conjunction{Eq(V(0), C(9))});
  CDatabase db{t};
  EXPECT_EQ(Freeze(db, {}).relation(0), Relation(1, {{9}}));
}

TEST(FreezeTest, FrozenInstanceIsAMember) {
  std::mt19937 rng(42);
  for (int round = 0; round < 20; ++round) {
    RandomCTableOptions options =
        testutil::SmallCTableOptions(/*arity=*/2, /*num_rows=*/3,
            /*num_constants=*/2, /*num_variables=*/3, /*num_local_atoms=*/0,
            /*num_global_atoms=*/1);
    options.equality_probability = 0.3;
    CTable t = RandomCTable(options, rng);
    if (t.Kind() > TableKind::kGTable) continue;
    CDatabase db{t};
    if (RepIsEmpty(db)) continue;
    Instance k0 = Freeze(db, {});
    EXPECT_TRUE(MembershipSearch(db, k0)) << t.ToString() << k0.ToString();
  }
}

TEST(ContCoddTest, SubsetOfMoreGeneralTable) {
  // {(1, 2)} contained in {(x, y)}.
  CDatabase lhs(CTable::FromRelation(Relation(2, {{1, 2}})));
  CTable general(2);
  general.AddRow(Tuple{V(0), V(1)});
  CDatabase rhs{general};
  EXPECT_EQ(ContGTablesInCoddTables(lhs, rhs), true);
  // And not vice versa: rep(rhs) has worlds like {(3, 4)}.
  EXPECT_EQ(ContGTablesInCoddTables(rhs, lhs), false);
}

TEST(ContCoddTest, SpecializationIsContainment) {
  // T0 = {(x, 1)} contained in T = {(y, z)}.
  CTable t0(2);
  t0.AddRow(Tuple{V(0), C(1)});
  CTable t(2);
  t.AddRow(Tuple{V(1), V(2)});
  EXPECT_EQ(ContGTablesInCoddTables(CDatabase{t0}, CDatabase{t}), true);
  EXPECT_EQ(ContGTablesInCoddTables(CDatabase{t}, CDatabase{t0}), false);
}

TEST(ContCoddTest, RowCountsMatter) {
  // T0 = {(x), (y)} (worlds of size 1 or 2) vs T = {(z)} (size 1 only).
  CTable t0(1);
  t0.AddRow(Tuple{V(0)});
  t0.AddRow(Tuple{V(1)});
  CTable t(1);
  t.AddRow(Tuple{V(2)});
  EXPECT_EQ(ContGTablesInCoddTables(CDatabase{t0}, CDatabase{t}), false);
  EXPECT_EQ(ContGTablesInCoddTables(CDatabase{t}, CDatabase{t0}), true);
}

TEST(ContCoddTest, EmptyLhsRepIsContained) {
  CTable t0(1);
  t0.AddRow(Tuple{C(1)});
  t0.SetGlobal(Conjunction{FalseAtom()});
  CTable t(1);
  t.AddRow(Tuple{C(9)});
  EXPECT_EQ(ContGTablesInCoddTables(CDatabase{t0}, CDatabase{t}), true);
}

TEST(ContCoddTest, GTableLhsUsesNormalization) {
  // T0 = {(x, y)} with x = y contained in T = {(z, z)}? rhs is an e-table,
  // not Codd — so this routes to the e-table procedure instead.
  CTable t0(2);
  t0.AddRow(Tuple{V(0), V(1)});
  t0.SetGlobal(Conjunction{Eq(V(0), V(1))});
  CTable t(2);
  t.AddRow(Tuple{V(2), V(2)});
  EXPECT_FALSE(ContGTablesInCoddTables(CDatabase{t0}, CDatabase{t})
                   .has_value());
  EXPECT_EQ(ContGTablesInETables(CDatabase{t0}, CDatabase{t}), true);
  // Without the equality, lhs has worlds (a, b) with a != b: not contained.
  CTable t1(2);
  t1.AddRow(Tuple{V(0), V(1)});
  EXPECT_EQ(ContGTablesInETables(CDatabase{t1}, CDatabase{t}), false);
}

TEST(ContViewInCoddTest, ViewImagesContained) {
  // lhs = {(x)}, view q = pi_{0,0}: images {(c, c)}; rhs = {(y, y)}?? rhs
  // must be Codd: {(y, z)} contains all images.
  CTable t0(1);
  t0.AddRow(Tuple{V(0)});
  View q = View::Ra({RaExpr::ProjectCols(RaExpr::Rel(0, 1), {0, 0})});
  CTable rhs_wide(2);
  rhs_wide.AddRow(Tuple{V(1), V(2)});
  EXPECT_EQ(ContViewInCoddTables(q, CDatabase{t0}, CDatabase{rhs_wide}),
            true);
  // rhs = {(1, y)} does not contain image {(2, 2)}.
  CTable rhs_narrow(2);
  rhs_narrow.AddRow(Tuple{C(1), V(3)});
  EXPECT_EQ(ContViewInCoddTables(q, CDatabase{t0}, CDatabase{rhs_narrow}),
            false);
}

TEST(ContainmentSearchTest, ITableRhsNeedsSearch) {
  // T0 = {(x)} vs T = {(y)} with y != 1: world {(1)} is not contained.
  CTable t0(1);
  t0.AddRow(Tuple{V(0)});
  CTable t(1);
  t.AddRow(Tuple{V(1)});
  t.SetGlobal(Conjunction{Neq(V(1), C(1))});
  EXPECT_FALSE(ContainmentSearch(View::Identity(), CDatabase{t0},
                                 View::Identity(), CDatabase{t}));
  EXPECT_TRUE(ContainmentSearch(View::Identity(), CDatabase{t},
                                View::Identity(), CDatabase{t0}));
}

TEST(ContainmentSearchTest, FreezingWouldBeWrongForITableRhs) {
  // Classic trap: T0 = {(x)}, T = {(y)} with global y != 1. The freeze of
  // T0 (a fresh constant) IS a member of rep(T), yet containment fails —
  // which is exactly why Theorem 4.2(1) is Pi-2-p-hard. Verify our search
  // does not fall into the trap.
  CTable t0(1);
  t0.AddRow(Tuple{V(0)});
  CTable t(1);
  t.AddRow(Tuple{V(1)});
  t.SetGlobal(Conjunction{Neq(V(1), C(1))});
  CDatabase lhs{t0}, rhs{t};
  Instance k0 = Freeze(lhs, rhs.Constants());
  EXPECT_TRUE(MembershipSearch(rhs, k0));  // freezing alone says "yes"
  EXPECT_FALSE(Containment(View::Identity(), lhs, View::Identity(), rhs));
}

TEST(ContainmentDispatcherTest, MatchesSearchOnRandomGTablePairs) {
  std::mt19937 rng(7);
  for (int round = 0; round < 25; ++round) {
    RandomCTableOptions options =
        testutil::SmallCTableOptions(/*arity=*/1, /*num_rows=*/2,
            /*num_constants=*/2, /*num_variables=*/2, /*num_local_atoms=*/0,
            /*num_global_atoms=*/round % 2);
    options.equality_probability = 0.4;
    CTable a = RandomCTable(options, rng);
    options.num_global_atoms = 0;
    CTable b = RandomCTable(options, rng);
    CDatabase lhs{a}, rhs{b};
    bool dispatched =
        Containment(View::Identity(), lhs, View::Identity(), rhs);
    bool searched = ContainmentSearch(View::Identity(), lhs,
                                      View::Identity(), rhs);
    EXPECT_EQ(dispatched, searched) << a.ToString() << "\nvs\n"
                                    << b.ToString();
  }
}

TEST(ComplexityMapTest, Fig2SpotChecks) {
  using C = ComplexityClass;
  // The landmark cells of Fig. 2.
  EXPECT_EQ(ContainmentComplexity(RepKind::kInstance, RepKind::kInstance),
            C::kPTime);
  EXPECT_EQ(ContainmentComplexity(RepKind::kGTable, RepKind::kCoddTable),
            C::kPTime);  // Thm 4.1(3)
  EXPECT_EQ(ContainmentComplexity(RepKind::kGTable, RepKind::kETable),
            C::kNp);  // Thm 4.1(2)
  EXPECT_EQ(ContainmentComplexity(RepKind::kCoddTable, RepKind::kITable),
            C::kPi2p);  // Thm 4.2(1): the striking cell
  EXPECT_EQ(ContainmentComplexity(RepKind::kView, RepKind::kCoddTable),
            C::kCoNp);  // Thm 4.1(1) + 4.2(4)
  EXPECT_EQ(ContainmentComplexity(RepKind::kCTable, RepKind::kETable),
            C::kPi2p);  // Thm 4.2(3)
  EXPECT_EQ(ContainmentComplexity(RepKind::kCoddTable, RepKind::kView),
            C::kPi2p);  // Thm 4.2(2)
  EXPECT_EQ(ContainmentComplexity(RepKind::kInstance, RepKind::kETable),
            C::kNp);  // MEMB e-table, Thm 3.1(2)
  EXPECT_EQ(ContainmentComplexity(RepKind::kInstance, RepKind::kCoddTable),
            C::kPTime);  // Thm 3.1(1)
}

TEST(ComplexityMapTest, RepKindOfDatabases) {
  CDatabase ground(CTable::FromRelation(Relation(1, {{1}})));
  EXPECT_EQ(RepKindOf(ground), RepKind::kInstance);
  CTable codd(1);
  codd.AddRow(Tuple{V(0)});
  EXPECT_EQ(RepKindOf(CDatabase{codd}), RepKind::kCoddTable);
  CTable itab(1);
  itab.AddRow(Tuple{V(0)});
  itab.SetGlobal(Conjunction{Neq(V(0), C(1))});
  EXPECT_EQ(RepKindOf(CDatabase{itab}), RepKind::kITable);
}

TEST(ComplexityMapTest, OtherProblemClassifications) {
  using C = ComplexityClass;
  EXPECT_EQ(MembershipComplexity(RepKind::kCoddTable), C::kPTime);
  EXPECT_EQ(MembershipComplexity(RepKind::kETable), C::kNp);
  EXPECT_EQ(UniquenessComplexity(RepKind::kGTable), C::kPTime);
  EXPECT_EQ(UniquenessComplexity(RepKind::kCTable), C::kCoNp);
  EXPECT_EQ(PossibilityUnboundedComplexity(RepKind::kCoddTable), C::kPTime);
  EXPECT_EQ(PossibilityUnboundedComplexity(RepKind::kITable), C::kNp);
  EXPECT_EQ(
      PossibilityBoundedComplexity(QueryFragment::kPositiveExistential),
      C::kPTime);
  EXPECT_EQ(PossibilityBoundedComplexity(QueryFragment::kDatalog), C::kNp);
  EXPECT_EQ(CertaintyComplexity(QueryFragment::kDatalog, RepKind::kGTable),
            C::kPTime);
  EXPECT_EQ(CertaintyComplexity(QueryFragment::kFirstOrder,
                                RepKind::kCoddTable),
            C::kCoNp);
}

// --- Randomized cross-validation ------------------------------------------

/// Oracle: for every lhs world, scan rhs worlds for an equal one.
bool ContainmentOracle(const CDatabase& lhs, const CDatabase& rhs) {
  WorldEnumOptions lopts;
  lopts.extra_constants = rhs.Constants();
  bool contained = true;
  ForEachWorld(lhs, lopts, [&](const Instance& lw, const Valuation&) {
    WorldEnumOptions ropts;
    ropts.extra_constants = lw.Constants();
    for (ConstId c : lhs.Constants()) ropts.extra_constants.push_back(c);
    bool found = false;
    ForEachWorld(rhs, ropts, [&](const Instance& rw, const Valuation&) {
      if (lw == rw) {
        found = true;
        return false;
      }
      return true;
    });
    if (!found) {
      contained = false;
      return false;
    }
    return true;
  });
  return contained;
}

class ContainmentPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ContainmentPropertyTest, SearchAgreesWithOracle) {
  std::mt19937 rng(GetParam());
  RandomCTableOptions options =
      testutil::SmallCTableOptions(/*arity=*/1, /*num_rows=*/2,
          /*num_constants=*/2, /*num_variables=*/2,
          /*num_local_atoms=*/GetParam() % 2,
          /*num_global_atoms=*/GetParam() % 2);
  CTable a = RandomCTable(options, rng);
  CTable b = RandomCTable(options, rng);
  CDatabase lhs{a}, rhs{b};
  EXPECT_EQ(
      ContainmentSearch(View::Identity(), lhs, View::Identity(), rhs),
      ContainmentOracle(lhs, rhs))
      << a.ToString() << "\nvs\n" << b.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContainmentPropertyTest,
                         ::testing::Range(1, 31));

}  // namespace
}  // namespace pw
