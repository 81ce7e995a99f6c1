// Tests for the View abstraction, and for the two "is there a world such
// that" questions the decision layer answers with implications instead of
// world enumeration: some world differs from I (UniquenessSearch) and some
// world misses a fact (CertainFactInTable).

#include <gtest/gtest.h>

#include "datalog/eval.h"
#include "datalog/ivm.h"
#include "decision/answer_sets.h"
#include "decision/certainty.h"
#include "decision/containment.h"
#include "decision/membership.h"
#include "decision/possibility.h"
#include "decision/uniqueness.h"
#include "decision/view.h"
#include "ilalgebra/datalog_ctable.h"
#include "tables/ctable.h"
#include "tables/text_format.h"

namespace pw {
namespace {

TEST(ViewTest, IdentityEval) {
  Instance i({Relation(1, {{1}})});
  EXPECT_EQ(View::Identity().Eval(i), i);
  EXPECT_TRUE(View::Identity().is_identity());
  EXPECT_TRUE(View::Identity().IsPositiveExistential());
}

TEST(ViewTest, RaEvalAndFragment) {
  View q = View::Ra({RaExpr::ProjectCols(RaExpr::Rel(0, 2), {1})});
  Instance i({Relation(2, {{1, 2}, {3, 4}})});
  EXPECT_EQ(q.Eval(i).relation(0), Relation(1, {{2}, {4}}));
  EXPECT_TRUE(q.IsPositiveExistential());
  View diff = View::Ra(
      {RaExpr::Diff(RaExpr::Rel(0, 1), RaExpr::ConstRel(Relation(1, {{1}})))});
  EXPECT_FALSE(diff.IsPositiveExistential(/*allow_neq=*/true));
}

TEST(ViewTest, DatalogEvalProjectsOutputs) {
  DatalogProgram p({1, 1}, 1);
  DatalogRule copy;
  copy.head = {1, Tuple{V(0)}};
  copy.body = {{0, Tuple{V(0)}}};
  p.AddRule(copy);
  View q = View::Datalog(p, {1});
  Instance i({Relation(1, {{7}})});
  Instance out = q.Eval(i);
  EXPECT_EQ(out.num_relations(), 1u);
  EXPECT_EQ(out.relation(0), Relation(1, {{7}}));
  EXPECT_FALSE(q.IsPositiveExistential());
}

TEST(ViewTest, ConstantsCollected) {
  View q = View::Ra({RaExpr::Project(
      RaExpr::Select(RaExpr::Rel(0, 2),
                     {SelectAtom::Eq(ColOrConst::Col(0),
                                     ColOrConst::Const(42))}),
      {ColOrConst::Const(7)})});
  EXPECT_EQ(q.Constants(), (std::vector<ConstId>{7, 42}));
  EXPECT_TRUE(View::Identity().Constants().empty());

  DatalogProgram p({1, 1}, 1);
  DatalogRule r;
  r.head = {1, Tuple{V(0)}};
  r.body = {{0, Tuple{V(0)}}, {0, Tuple{C(9)}}};
  p.AddRule(r);
  EXPECT_EQ(View::Datalog(p, {1}).Constants(), (std::vector<ConstId>{9}));
}

TEST(ViewTest, ConstRelConstantsCollected) {
  View q = View::Ra({RaExpr::ConstRel(Relation(1, {{5}, {6}}))});
  EXPECT_EQ(q.Constants(), (std::vector<ConstId>{5, 6}));
}

TEST(ViewTest, RelationReferenceThatDoesNotFitReadsEmpty) {
  // Rel(3, 2) names no table of this one-table database and Rel(0, 3) gives
  // its table another arity. Either reads as an empty relation in every
  // world, in every build mode (decision/view.h); before, the world search
  // read past the instance's relations. So does an expression whose columns
  // do not fit its input (RaExpr::fits): a select or projection column past
  // the input's arity, or a union of two arities. Before, only asserts
  // checked those (a select not at all), and NDEBUG builds read past tuple
  // ends or built an image of rows narrower than its arity.
  CTable t(2);
  t.AddRow(Tuple{C(1), V(0)});
  CDatabase db{t};
  const RaExpr rel = RaExpr::Rel(0, 2);
  for (const RaExpr& ref :
       {RaExpr::Rel(3, 2), RaExpr::Rel(0, 3),
        RaExpr::Select(rel, {SelectAtom::Eq(ColOrConst::Col(5),
                                            ColOrConst::Const(1))}),
        RaExpr::ProjectCols(rel, {0, 7}),
        RaExpr::Union(rel, RaExpr::ProjectCols(rel, {0}))}) {
    View view = View::Ra({ref});
    const int arity = ref.arity();
    const Fact fact(static_cast<size_t>(arity), 1);
    Instance empty({Relation(arity)});
    EXPECT_FALSE(Possibility(view, db, {{0, fact}})) << view.ToString();
    EXPECT_FALSE(Certainty(view, db, {{0, fact}})) << view.ToString();
    EXPECT_TRUE(MembershipInView(view, db, empty)) << view.ToString();
    Instance one_fact({Relation(arity, {fact})});
    EXPECT_FALSE(MembershipInView(view, db, one_fact)) << view.ToString();
    EXPECT_TRUE(Uniqueness(view, db, empty)) << view.ToString();
    EXPECT_TRUE(Containment(view, db, View::Identity(),
                            CDatabase{CTable(arity)}))
        << view.ToString();
  }
  // Beside a reference that fits, the one that does not adds nothing.
  View both = View::Ra({RaExpr::Union(RaExpr::Rel(0, 2), RaExpr::Rel(3, 2))});
  EXPECT_TRUE(Possibility(both, db, {{0, Fact{1, 5}}}));
  EXPECT_FALSE(Certainty(both, db, {{0, Fact{1, 5}}}));
}

TEST(ViewTest, DatalogProgramThatDoesNotFitReadsEmpty) {
  // q(x, y) :- e0(x, y), e1(y, x) over the one-table database {(1, x0)}:
  // e1 names no table, so it is empty in every world, in every build mode
  // (decision/view.h), and so is q. Before, the complete-information
  // fixpoint read past the instance's relations, through the CERT
  // dispatcher's g-table path and through the world search.
  DatalogProgram program({2, 2, 2}, /*num_edb=*/2);
  DatalogRule rule;
  rule.head = {2, Tuple{V(0), V(1)}};
  rule.body = {{0, Tuple{V(0), V(1)}}, {1, Tuple{V(1), V(0)}}};
  program.AddRule(rule);
  CTable e0(2);
  e0.AddRow(Tuple{C(1), V(0)});
  View view = View::Datalog(program, {2});
  const std::vector<LocatedFact> fact = {{0, Fact{1, 2}}};
  Instance empty({Relation(2)});
  for (const CDatabase& db :
       {CDatabase{e0}, CDatabase(std::vector<CTable>{e0, CTable(3)})}) {
    EXPECT_FALSE(Certainty(view, db, fact)) << FormatCDatabase(db);
    EXPECT_FALSE(CertaintySearch(view, db, fact)) << FormatCDatabase(db);
    EXPECT_FALSE(Possibility(view, db, fact)) << FormatCDatabase(db);
    EXPECT_FALSE(PossibilitySearch(view, db, fact)) << FormatCDatabase(db);
    EXPECT_TRUE(MembershipInView(view, db, empty)) << FormatCDatabase(db);
    EXPECT_TRUE(Uniqueness(view, db, empty)) << FormatCDatabase(db);
  }
  // e1 as a ternary table whose first two columns would make q(1, 2)
  // certain: at another arity than the program's, it is empty too.
  CTable ground(2);
  ground.AddRow(Tuple{C(1), C(2)});
  CTable ternary(3);
  ternary.AddRow(Tuple{C(2), C(1), C(5)});
  CDatabase misfit(std::vector<CTable>{ground, ternary});
  EXPECT_FALSE(Certainty(view, misfit, fact));
  EXPECT_FALSE(Possibility(view, misfit, fact));
  EXPECT_FALSE(PossibilitySearch(view, misfit, fact));
  // An output predicate that the program lacks is an empty relation of
  // arity 0.
  View missing = View::Datalog(program, {7});
  for (const Fact& f : {Fact{1, 2}, Fact{}}) {
    EXPECT_FALSE(Certainty(missing, misfit, {{0, f}}));
    EXPECT_FALSE(CertaintySearch(missing, misfit, {{0, f}}));
    EXPECT_FALSE(Possibility(missing, misfit, {{0, f}}));
    EXPECT_FALSE(PossibilitySearch(missing, misfit, {{0, f}}));
  }
  EXPECT_TRUE(MembershipInView(missing, misfit, Instance({Relation(0)})));
  EXPECT_FALSE(MembershipInView(missing, misfit, empty));
}

TEST(ViewTest, RuleWhoseAtomsDoNotFitDerivesNothing) {
  // q(x, y) :- e0(x, y, z) with e0 binary: the body atom is wider than its
  // predicate. Both evaluators indexed table rows by the atom's argument
  // count, so every entry point below read past the end of a row. Now a rule
  // fires only if its head and every body atom fit (decision/view.h), in
  // every build mode; the other misfits — a narrower atom, a head of the
  // wrong width, a predicate the program lacks — derive nothing either.
  DatalogAtom fit_body{0, Tuple{V(0), V(1)}};
  DatalogAtom fit_head{1, Tuple{V(0), V(1)}};
  const std::vector<DatalogRule> misfits = {
      {fit_head, {{0, Tuple{V(0), V(1), V(2)}}}},
      {fit_head, {{0, Tuple{V(0)}}, fit_body}},
      {{1, Tuple{V(0)}}, {fit_body}},
      {fit_head, {{5, Tuple{V(0), V(1)}}}},
      {{5, Tuple{V(0), V(1)}}, {fit_body}},
  };
  CTable ground(2);
  ground.AddRow(Tuple{C(1), C(2)});
  CTable table = ground;
  table.AddRow(Tuple{C(1), V(0)});
  const std::vector<LocatedFact> fact = {{0, Fact{1, 2}}};
  for (size_t k = 0; k < misfits.size(); ++k) {
    SCOPED_TRACE("misfit rule " + std::to_string(k));
    DatalogProgram program({2, 2}, /*num_edb=*/1);
    program.AddRule(misfits[k]);
    View view = View::Datalog(program, {1});
    EXPECT_FALSE(PossibilitySearch(view, CDatabase{table}, fact));
    EXPECT_FALSE(Possibility(view, CDatabase{table}, fact));
    EXPECT_FALSE(Certainty(view, CDatabase{ground}, fact));
    EXPECT_EQ(DatalogOnCTables(program, CDatabase{table}).table(1).num_rows(),
              0u);
    EXPECT_EQ(DatalogQueryOnCTables(program, CDatabase{table}, 1,
                                    {ConstId{1}, std::nullopt})
                  .num_rows(),
              0u);
    MaterializedView full(program, CDatabase{table});
    full.Insert(0, Fact{3, 4});
    EXPECT_EQ(full.Materialized().table(1).num_rows(), 0u);

    // Beside a rule that fits, the misfit changes nothing.
    program.AddRule({fit_head, {fit_body}});
    View with_fit = View::Datalog(program, {1});
    EXPECT_TRUE(Certainty(with_fit, CDatabase{ground}, fact));
    EXPECT_TRUE(Possibility(with_fit, CDatabase{table}, fact));
    EXPECT_EQ(DatalogOnCTables(program, CDatabase{table}).table(1).num_rows(),
              2u);
  }

  // Rules whose atoms fit but that are malformed all the same: an
  // extensional head, a head variable no body atom binds, and a ground rule
  // whose head has a variable. Before, the evaluators disagreed on the
  // first (q(x, y) :- f(x, y) with f(x, y) :- e(x, y): NaiveEval,
  // DatalogOnCTables and PossibleAnswers derived q(1, 2), SemiNaiveEval,
  // DatalogQueryOnCTables and Possibility did not), and SemiNaiveEval,
  // PossibilitySearch and Certainty threw std::out_of_range on the other two
  // while Possibility answered yes through a null row. Now none fits, and
  // every evaluator derives nothing from it.
  struct Malformed {
    const char* shape;
    std::vector<int> arities;  // predicate 0 is e, the last one is q
    size_t num_edb;
    std::vector<DatalogRule> rules;
  };
  const std::vector<Malformed> malformed = {
      {"extensional head",
       {2, 2, 2},
       2,
       {{{2, Tuple{V(0), V(1)}}, {{1, Tuple{V(0), V(1)}}}},
        {{1, Tuple{V(0), V(1)}}, {{0, Tuple{V(0), V(1)}}}}}},
      {"unbound head variable",
       {1, 2},
       1,
       {{{1, Tuple{V(0), V(1)}}, {{0, Tuple{V(0)}}}}}},
      {"ground rule with a variable head",
       {2, 2},
       1,
       {{{1, Tuple{V(0), C(2)}}, {}}}},
  };
  for (const Malformed& m : malformed) {
    SCOPED_TRACE(m.shape);
    DatalogProgram program(m.arities, m.num_edb);
    for (const DatalogRule& rule : m.rules) program.AddRule(rule);
    const int q = static_cast<int>(m.arities.size()) - 1;
    const Fact e_fact = m.arities[0] == 1 ? Fact{1} : Fact{1, 2};
    CTable e(m.arities[0]);
    e.AddRow(ToTuple(e_fact));
    const CDatabase db{e};
    const Instance edb({Relation(m.arities[0], {e_fact})});
    const View view = View::Datalog(program, {q});
    auto evaluate = [&] {
      EXPECT_TRUE(NaiveEval(program, edb).relation(q).empty());
      EXPECT_TRUE(SemiNaiveEval(program, edb).relation(q).empty());
      EXPECT_EQ(DatalogOnCTables(program, db).table(q).num_rows(), 0u);
      EXPECT_EQ(DatalogQueryOnCTables(program, db, q,
                                      {ConstId{1}, std::nullopt})
                    .num_rows(),
                0u);
      EXPECT_TRUE(PossibleAnswers(view, db).relation(0).empty());
      EXPECT_FALSE(Possibility(view, db, fact));
      EXPECT_FALSE(PossibilitySearch(view, db, fact));
      EXPECT_FALSE(Certainty(view, db, fact));
    };
    EXPECT_NO_THROW(evaluate());
  }
}

// Some world differs from I: for an I in rep(database), UniquenessSearch is
// exactly "no world other than I".

TEST(WorldCspTest, ExistsWorldOtherThanDetectsExtraFact) {
  // Row (x): every singleton is a world, so another world always exists.
  CTable t(1);
  t.AddRow(Tuple{V(0)});
  EXPECT_FALSE(UniquenessSearch(View::Identity(), CDatabase{t},
                                Instance({Relation(1, {{1}})})));
}

TEST(WorldCspTest, ExistsWorldOtherThanGroundSingleton) {
  CTable t(1);
  t.AddRow(Tuple{C(1)});
  Instance one({Relation(1, {{1}})});
  EXPECT_TRUE(UniquenessSearch(View::Identity(), CDatabase{t}, one));
  // Beside a conditioned row, {(1)} is still a world (x = 1), but (x) can
  // also land outside it.
  t.AddRow(Tuple{V(0)}, Conjunction{Neq(V(0), C(2))});
  ASSERT_TRUE(Membership(CDatabase{t}, one));
  EXPECT_FALSE(UniquenessSearch(View::Identity(), CDatabase{t}, one));
  // With x pinned to 1 by the global, (x) always lands on (1).
  t.SetGlobal(Conjunction{Eq(V(0), C(1))});
  ASSERT_TRUE(Membership(CDatabase{t}, one));
  EXPECT_TRUE(UniquenessSearch(View::Identity(), CDatabase{t}, one));
}

TEST(WorldCspTest, ExistsWorldOtherThanViaMissingFact) {
  // Row (1) :: u = 1: the empty world differs from {(1)}.
  CTable t(1);
  t.AddRow(Tuple{C(1)}, Conjunction{Eq(V(0), C(1))});
  EXPECT_FALSE(UniquenessSearch(View::Identity(), CDatabase{t},
                                Instance({Relation(1, {{1}})})));
  // Row (1) :: u = 1 beside (1) :: u != 1: (1) is never missing.
  t.AddRow(Tuple{C(1)}, Conjunction{Neq(V(0), C(1))});
  EXPECT_TRUE(UniquenessSearch(View::Identity(), CDatabase{t},
                               Instance({Relation(1, {{1}})})));
}

TEST(WorldCspTest, ShapeMismatchCountsAsDifferent) {
  // An instance of another shape is no world at all: Membership rejects it
  // before the other-world check runs.
  CTable t(1);
  t.AddRow(Tuple{C(1)});
  CDatabase db{t};
  EXPECT_FALSE(UniquenessSearch(View::Identity(), db, Instance({Relation(2)})));
  EXPECT_FALSE(UniquenessSearch(View::Identity(), db, Instance({})));
  // Two tables, and a member instance that differs from a world only in the
  // second: (y) :: y != 1 can be on, or off (y = 1).
  CTable s(1);
  s.AddRow(Tuple{V(1)}, Conjunction{Neq(V(1), C(1))});
  CDatabase two;
  two.AddTable(t);
  two.AddTable(s);
  Instance member({Relation(1, {{1}}), Relation(1)});
  ASSERT_TRUE(Membership(two, member));
  EXPECT_FALSE(UniquenessSearch(View::Identity(), two, member));
  // Forcing y = 1 leaves the one world {(1)}, {}.
  s.SetGlobal(Conjunction{Eq(V(1), C(1))});
  CDatabase forced;
  forced.AddTable(t);
  forced.AddTable(s);
  ASSERT_TRUE(Membership(forced, member));
  EXPECT_TRUE(UniquenessSearch(View::Identity(), forced, member));
}

// Some world misses a fact: CertainFactInTable. (Differential family 9
// checks it, and both backends' algebra, against every world.)

/// CertainFactInTable under the table's own global condition.
bool IsCertain(const CTable& t, const Fact& fact) {
  ConditionInterner interner;
  return CertainFactInTable(t, fact, t.GlobalId(interner), interner);
}

TEST(WorldCspTest, MissingFactBasics) {
  CTable t(1);
  t.AddRow(Tuple{C(1)});
  t.AddRow(Tuple{V(0)}, Conjunction{Neq(V(0), C(2))});
  // (1) is produced by the ground row in every world.
  EXPECT_TRUE(IsCertain(t, Fact{1}));
  // (3) is missed whenever x != 3.
  EXPECT_FALSE(IsCertain(t, Fact{3}));
  // (2): the conditioned row can never produce it (x != 2), and the ground
  // row is 1 — always missing.
  EXPECT_FALSE(IsCertain(t, Fact{2}));
  // A fact of another arity is in no world.
  EXPECT_FALSE(IsCertain(t, Fact{1, 1}));
}

TEST(WorldCspTest, MissingFactEmptyRep) {
  CTable t(1);
  t.AddRow(Tuple{C(1)});
  t.SetGlobal(Conjunction{FalseAtom()});
  EXPECT_TRUE(IsCertain(t, Fact{2}));
}

TEST(WorldCspTest, MissingFactForcedCoverThroughGlobal) {
  // Row (x) with global x = 4: (4) never missing, (5) always missing.
  CTable t(1);
  t.AddRow(Tuple{V(0)});
  t.SetGlobal(Conjunction{Eq(V(0), C(4))});
  EXPECT_TRUE(IsCertain(t, Fact{4}));
  EXPECT_FALSE(IsCertain(t, Fact{5}));
  // Rows (x) :: x = 1 and (1) :: x != 1 cover (1) only together.
  CTable split(1);
  split.AddRow(Tuple{V(0)}, Conjunction{Eq(V(0), C(1))});
  split.AddRow(Tuple{C(1)}, Conjunction{Neq(V(0), C(1))});
  EXPECT_TRUE(IsCertain(split, Fact{1}));
}

}  // namespace
}  // namespace pw
