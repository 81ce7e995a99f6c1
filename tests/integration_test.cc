// Integration tests: cross-module consistency of the whole pipeline —
// parse -> query -> minimize -> decide — and the semantic relationships the
// paper states between the decision problems.

#include <gtest/gtest.h>

#include <random>

#include "decision/answer_sets.h"
#include "decision/certainty.h"
#include "decision/containment.h"
#include "decision/membership.h"
#include "decision/possibility.h"
#include "decision/uniqueness.h"
#include "ilalgebra/ctable_eval.h"
#include "tables/text_format.h"
#include "tables/updates.h"
#include "tables/world_enum.h"
#include "test_util.h"
#include "workload/random_gen.h"

namespace pw {
namespace {

CTable SmallRandom(int seed) {
  std::mt19937 rng(seed);
  RandomCTableOptions options =
      testutil::SmallCTableOptions(/*arity=*/2, /*num_rows=*/3,
          /*num_constants=*/3, /*num_variables=*/2,
          /*num_local_atoms=*/seed % 2, /*num_global_atoms=*/seed % 2);
  return RandomCTable(options, rng);
}

class CrossProcedureTest : public ::testing::TestWithParam<int> {};

TEST_P(CrossProcedureTest, EveryEnumeratedWorldIsAMember) {
  CDatabase db{SmallRandom(GetParam())};
  for (const Instance& w : EnumerateWorlds(db)) {
    EXPECT_TRUE(Membership(db, w));
  }
}

TEST_P(CrossProcedureTest, CertainImpliesPossible) {
  CDatabase db{SmallRandom(GetParam())};
  if (RepIsEmpty(db)) return;
  for (ConstId a = 0; a < 3; ++a) {
    for (ConstId b = 0; b < 3; ++b) {
      std::vector<LocatedFact> p = {{0, Fact{a, b}}};
      if (Certainty(View::Identity(), db, p)) {
        EXPECT_TRUE(Possibility(View::Identity(), db, p));
      }
    }
  }
}

TEST_P(CrossProcedureTest, AnswerSetsMatchPointQueries) {
  CDatabase db{SmallRandom(GetParam())};
  if (RepIsEmpty(db)) return;
  Instance possible = PossibleAnswers(View::Identity(), db);
  Instance certain = CertainAnswers(View::Identity(), db);
  std::vector<ConstId> dom = db.Constants();
  for (ConstId a : dom) {
    for (ConstId b : dom) {
      std::vector<LocatedFact> p = {{0, Fact{a, b}}};
      EXPECT_EQ(possible.relation(0).Contains(Fact{a, b}),
                Possibility(View::Identity(), db, p));
      EXPECT_EQ(certain.relation(0).Contains(Fact{a, b}),
                Certainty(View::Identity(), db, p));
    }
  }
}

TEST_P(CrossProcedureTest, UniquenessMeansOneWorld) {
  CDatabase db{SmallRandom(GetParam())};
  auto worlds = EnumerateWorlds(db);
  if (worlds.size() == 1) {
    EXPECT_TRUE(Uniqueness(View::Identity(), db, worlds[0]));
  }
  if (worlds.size() > 1) {
    for (const Instance& w : worlds) {
      EXPECT_FALSE(Uniqueness(View::Identity(), db, w));
    }
  }
}

TEST_P(CrossProcedureTest, SelfContainmentAlwaysHolds) {
  CDatabase db{SmallRandom(GetParam())};
  EXPECT_TRUE(Containment(View::Identity(), db, View::Identity(), db));
}

TEST_P(CrossProcedureTest, MinimizationInvisibleToDecisions) {
  CTable t = SmallRandom(GetParam());
  CDatabase before{t};
  CDatabase after{t.Minimized()};
  for (ConstId a = 0; a < 3; ++a) {
    std::vector<LocatedFact> p = {{0, Fact{a, (a + 1) % 3}}};
    EXPECT_EQ(Possibility(View::Identity(), before, p),
              Possibility(View::Identity(), after, p));
    EXPECT_EQ(Certainty(View::Identity(), before, p),
              Certainty(View::Identity(), after, p));
  }
}

TEST_P(CrossProcedureTest, DeleteMakesFactImpossible) {
  CTable t = SmallRandom(GetParam());
  Fact f{1, 2};
  DeleteFactInPlace(t, f);
  CDatabase db{t};
  EXPECT_FALSE(Possibility(View::Identity(), db, {{0, f}}));
}

TEST_P(CrossProcedureTest, InsertMakesFactCertain) {
  CTable t = SmallRandom(GetParam());
  Fact f{1, 2};
  InsertFactInPlace(t, f);
  CDatabase db{t};
  if (RepIsEmpty(db)) return;
  EXPECT_TRUE(Certainty(View::Identity(), db, {{0, f}}));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossProcedureTest, ::testing::Range(1, 21));

TEST(PipelineTest, ParseQueryDecide) {
  // A parsed incomplete database, queried through the IL algebra, decided
  // with the dispatchers — the full user-facing pipeline.
  SymbolTable sym;
  auto parsed = ParseCDatabase(
      "# supplier database with an unknown city\n"
      "table arity 2\n"
      "global ?city != paris\n"
      "row acme london\n"
      "row initech ?city\n"
      "table arity 2\n"
      "row acme bolts\n"
      "row initech nuts\n",
      &sym);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  CDatabase db = *parsed.database;

  // q: suppliers located in london joined with their parts.
  ConstId london = *sym.Lookup("london");
  RaExpr suppliers = RaExpr::Rel(0, 2);
  RaExpr parts = RaExpr::Rel(1, 2);
  RaExpr q = RaExpr::ProjectCols(
      RaExpr::Select(RaExpr::Product(suppliers, parts),
                     {SelectAtom::Eq(ColOrConst::Col(1),
                                     ColOrConst::Const(london)),
                      SelectAtom::Eq(ColOrConst::Col(0),
                                     ColOrConst::Col(2))}),
      {0, 3});
  View view = View::Ra({q});

  ConstId acme = *sym.Lookup("acme");
  ConstId initech = *sym.Lookup("initech");
  ConstId bolts = *sym.Lookup("bolts");
  ConstId nuts = *sym.Lookup("nuts");

  // acme-bolts is certain; initech-nuts only possible (city unknown but
  // not paris).
  EXPECT_TRUE(Certainty(view, db, {{0, {acme, bolts}}}));
  EXPECT_TRUE(Possibility(view, db, {{0, {initech, nuts}}}));
  EXPECT_FALSE(Certainty(view, db, {{0, {initech, nuts}}}));

  // The image c-table agrees with the answer sets.
  Instance possible = PossibleAnswers(view, db);
  EXPECT_TRUE(possible.relation(0).Contains(Fact{acme, bolts}));
  EXPECT_TRUE(possible.relation(0).Contains(Fact{initech, nuts}));
  Instance certain = CertainAnswers(view, db);
  EXPECT_TRUE(certain.relation(0).Contains(Fact{acme, bolts}));
  EXPECT_FALSE(certain.relation(0).Contains(Fact{initech, nuts}));
}

TEST(PipelineTest, ViewContainmentBetweenQueries) {
  // A more selective query's worlds are contained in a less selective
  // one's.
  CTable t(2);
  t.AddRow(Tuple{C(1), V(0)});
  t.AddRow(Tuple{C(2), V(1)});
  CDatabase db{t};
  View narrow = View::Ra({RaExpr::Select(
      RaExpr::Rel(0, 2),
      {SelectAtom::Eq(ColOrConst::Col(0), ColOrConst::Const(1))})});
  View wide = View::Ra({RaExpr::Rel(0, 2)});
  // Each narrow world is a subset of the corresponding wide world, but
  // containment asks for world-set inclusion: narrow worlds {(1,c)} are
  // also wide worlds only if some valuation produces exactly them — false
  // here (wide always has two facts). Check both directions honestly.
  EXPECT_FALSE(
      Containment(narrow, db, wide, db));
  // And a view is always contained in itself.
  EXPECT_TRUE(Containment(narrow, db, narrow, db));
}

}  // namespace
}  // namespace pw
