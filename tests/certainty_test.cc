// Tests for the certainty problems CERT(k, q) / CERT(*, q) (Theorem 5.3):
// the PTIME DATALOG-on-g-tables algorithm, the coNP search, the
// factwise reduction of Proposition 2.1(6), and cross-validation.

#include <gtest/gtest.h>

#include <random>

#include "decision/certainty.h"
#include "tables/world_enum.h"
#include "test_util.h"
#include "workload/random_gen.h"

namespace pw {
namespace {

DatalogProgram TransitiveClosure() {
  DatalogProgram p({2, 2}, /*num_edb=*/1);
  DatalogRule base;
  base.head = {1, Tuple{V(0), V(1)}};
  base.body = {{0, Tuple{V(0), V(1)}}};
  p.AddRule(base);
  DatalogRule step;
  step.head = {1, Tuple{V(0), V(2)}};
  step.body = {{1, Tuple{V(0), V(1)}}, {0, Tuple{V(1), V(2)}}};
  p.AddRule(step);
  return p;
}

TEST(CertDatalogTest, CertainPathThroughNull) {
  CTable t(2);
  t.AddRow(Tuple{C(1), V(0)});
  t.AddRow(Tuple{V(0), C(3)});
  CDatabase db{t};
  View q = View::Datalog(TransitiveClosure(), {1});
  EXPECT_EQ(CertDatalogGTables(q, db, {{0, {1, 3}}}), true);
  EXPECT_EQ(CertDatalogGTables(q, db, {{0, {1, 2}}}), false);
}

TEST(CertDatalogTest, IdentityViewOnGTable) {
  // The identity is not the DATALOG front end's case: Certainty decides it
  // on the database itself, one certain-fact implication per fact.
  CTable t(1);
  t.AddRow(Tuple{C(1)});
  t.AddRow(Tuple{V(0)});
  CDatabase db{t};
  EXPECT_FALSE(
      CertDatalogGTables(View::Identity(), db, {{0, {1}}}).has_value());
  EXPECT_TRUE(Certainty(View::Identity(), db, {{0, {1}}}));
  EXPECT_FALSE(Certainty(View::Identity(), db, {{0, {2}}}));
}

TEST(CertDatalogTest, EmptyRepVacuouslyCertain) {
  CTable t(2);
  t.AddRow(Tuple{C(1), C(2)});
  t.SetGlobal(Conjunction{FalseAtom()});
  CDatabase db{t};
  View q = View::Datalog(TransitiveClosure(), {1});
  EXPECT_EQ(CertDatalogGTables(q, db, {{0, {9, 9}}}), true);
  EXPECT_FALSE(
      CertDatalogGTables(View::Identity(), db, {{0, {9, 9}}}).has_value());
  EXPECT_TRUE(Certainty(View::Identity(), db, {{0, {9, 9}}}));
  EXPECT_TRUE(Certainty(View::Identity(), db, {{3, {9}}}));
}

TEST(CertDatalogTest, NullsAvoidTheProgramsConstants) {
  // q(x) :- e(x, c) over {e(4, y)}: q(4) holds only in the worlds where
  // y = c, so it is not certain. With c = 5, the constant just above the
  // database's, a frozen null that ignored the program's constants became
  // 5 and made q(4) look certain; c = 6 is the control.
  for (ConstId c : {ConstId{5}, ConstId{6}}) {
    DatalogProgram p({2, 1}, /*num_edb=*/1);
    DatalogRule rule;
    rule.head = {1, Tuple{V(0)}};
    rule.body = {{0, Tuple{V(0), C(c)}}};
    p.AddRule(rule);
    View q = View::Datalog(p, {1});
    CTable t(2);
    t.AddRow(Tuple{C(4), V(0)});
    CDatabase db{t};
    std::vector<LocatedFact> pattern = {{0, Fact{4}}};
    EXPECT_FALSE(CertaintySearch(q, db, pattern)) << "c = " << c;
    EXPECT_EQ(CertDatalogGTables(q, db, pattern), false) << "c = " << c;
    EXPECT_FALSE(Certainty(q, db, pattern)) << "c = " << c;
  }
}

TEST(CertDatalogTest, RejectsCTables) {
  CTable t(2);
  t.AddRow(Tuple{C(1), C(2)}, Conjunction{Eq(V(0), C(1))});
  CDatabase db{t};
  View q = View::Datalog(TransitiveClosure(), {1});
  EXPECT_FALSE(CertDatalogGTables(q, db, {{0, {1, 2}}}).has_value());
}

TEST(CertaintySearchTest, CTableConditionalFact) {
  // Row (1) with local u = 1 and row (1) with local u != 1: (1) is certain.
  CTable t(1);
  t.AddRow(Tuple{C(1)}, Conjunction{Eq(V(0), C(1))});
  t.AddRow(Tuple{C(1)}, Conjunction{Neq(V(0), C(1))});
  CDatabase db{t};
  EXPECT_TRUE(CertaintySearch(View::Identity(), db, {{0, {1}}}));

  // A single conditioned row is not certain.
  CTable t2(1);
  t2.AddRow(Tuple{C(1)}, Conjunction{Eq(V(0), C(1))});
  CDatabase db2{t2};
  EXPECT_FALSE(CertaintySearch(View::Identity(), db2, {{0, {1}}}));
}

TEST(CertaintyDispatcherTest, CTableImagePathAgreesWithSearch) {
  CTable t(1);
  t.AddRow(Tuple{C(1)}, Conjunction{Eq(V(0), C(1))});
  t.AddRow(Tuple{C(1)}, Conjunction{Neq(V(0), C(1))});
  CDatabase db{t};
  EXPECT_TRUE(Certainty(View::Identity(), db, {{0, {1}}}));
  EXPECT_FALSE(Certainty(View::Identity(), db, {{0, {2}}}));
}

TEST(CertaintyTest, CertaintyImpliesPossibilityNotConverse) {
  CTable t(1);
  t.AddRow(Tuple{V(0)});
  t.AddRow(Tuple{C(1)});
  CDatabase db{t};
  // (1) certain; (2) possible (x -> 2) but not certain.
  EXPECT_TRUE(Certainty(View::Identity(), db, {{0, {1}}}));
  EXPECT_FALSE(Certainty(View::Identity(), db, {{0, {2}}}));
}

TEST(CertaintyTest, FactwiseReductionAgrees) {
  // Proposition 2.1(6): CERT(k, q) is k rounds of CERT(1, q).
  std::mt19937 rng(31);
  for (int round = 0; round < 20; ++round) {
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/1, /*num_rows=*/3, /*num_constants=*/2, /*num_variables=*/2,
        /*num_local_atoms=*/1);
    CTable t = RandomCTable(options, rng);
    CDatabase db{t};
    std::vector<LocatedFact> pattern = {{0, {0}}, {0, {1}}};
    bool factwise = true;
    for (const LocatedFact& lf : pattern) {
      factwise = factwise && Certainty(View::Identity(), db, {lf});
    }
    EXPECT_EQ(Certainty(View::Identity(), db, pattern), factwise)
        << t.ToString();
  }
}

// --- Randomized cross-validation ------------------------------------------

bool CertainOracle(const View& view, const CDatabase& db,
                   const std::vector<LocatedFact>& pattern) {
  WorldEnumOptions options;
  for (const LocatedFact& lf : pattern) {
    for (ConstId c : lf.fact) options.extra_constants.push_back(c);
  }
  bool certain = true;
  ForEachWorld(db, options, [&](const Instance& world, const Valuation&) {
    if (!ContainsAll(view.Eval(world), pattern)) {
      certain = false;
      return false;
    }
    return true;
  });
  return certain;
}

class CertaintyPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CertaintyPropertyTest, DispatcherAgreesWithOracle) {
  std::mt19937 rng(GetParam());
  RandomCTableOptions options = testutil::SmallCTableOptions(
      /*arity=*/2, /*num_rows=*/3, /*num_constants=*/3, /*num_variables=*/3,
      /*num_local_atoms=*/GetParam() % 2, /*num_global_atoms=*/GetParam() % 2);
  CTable t = RandomCTable(options, rng);
  CDatabase db{t};

  std::uniform_int_distribution<int> c(0, 3);
  for (int round = 0; round < 6; ++round) {
    std::vector<LocatedFact> pattern = {{0, Fact{c(rng), c(rng)}}};
    EXPECT_EQ(Certainty(View::Identity(), db, pattern),
              CertainOracle(View::Identity(), db, pattern))
        << t.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CertaintyPropertyTest,
                         ::testing::Range(1, 31));

TEST(CertDatalogAgreementTest, FastPathAgreesWithOracleOnGTables) {
  std::mt19937 rng(303);
  View q = View::Datalog(TransitiveClosure(), {1});
  for (int round = 0; round < 20; ++round) {
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/3, /*num_constants=*/3, /*num_variables=*/2,
        /*num_local_atoms=*/0, /*num_global_atoms=*/round % 2);
    CTable t = RandomCTable(options, rng);
    CDatabase db{t};
    if (RepIsEmpty(db)) continue;
    std::uniform_int_distribution<int> c(0, 2);
    std::vector<LocatedFact> pattern = {{0, Fact{c(rng), c(rng)}}};
    auto fast = CertDatalogGTables(q, db, pattern);
    ASSERT_TRUE(fast.has_value());
    EXPECT_EQ(*fast, CertainOracle(q, db, pattern)) << t.ToString();
  }
}

}  // namespace
}  // namespace pw
