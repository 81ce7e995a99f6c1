// Tests for incremental view maintenance (datalog/ivm.h): a MaterializedView
// must stay *identical* — same tuples, same interned condition ids — to
// recomputing its fixpoint from scratch on the updated base, across inserts,
// conditional inserts, deletes that change nothing, and deletes that reset
// the fixpoint and re-derive it from the base; demand views must keep
// serving exactly DatalogQueryOnCTables' answers. The randomized
// cross-strategy families live in differential_test.cc; these are the
// targeted behaviors and the stats that pin the incremental paths on. Test
// names keep "cone" for the delete path (`IvmStats::cone_rebuilds`).

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "condition/interner.h"
#include "datalog/ivm.h"
#include "ilalgebra/datalog_ctable.h"
#include "tables/updates.h"
#include "test_util.h"

namespace pw {
namespace {

using testutil::CanonicalRows;

bool HasTuple(const CTable& t, const Tuple& want) {
  for (const CRow& row : t.rows()) {
    if (row.tuple == want) return true;
  }
  return false;
}

/// Asserts the view's maintained state equals a from-scratch fixpoint of its
/// evaluated program over its current base.
void ExpectMatchesRecompute(const MaterializedView& view) {
  CDatabase live = view.Materialized();
  CDatabase scratch =
      DatalogOnCTables(view.evaluated_program(), view.base());
  ASSERT_EQ(live.num_tables(), scratch.num_tables());
  for (size_t p = 0; p < live.num_tables(); ++p) {
    EXPECT_EQ(CanonicalRows(live.table(p)), CanonicalRows(scratch.table(p)))
        << "view diverged from recompute on predicate " << p;
  }
}

/// Transitive closure: pred 0 = edge (EDB), pred 1 = tc (IDB).
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

CDatabase Chain(int n) {
  CTable edges(2);
  for (int i = 0; i + 1 < n; ++i) {
    edges.AddRow(Tuple{C(i), C(i + 1)});
  }
  return CDatabase{std::move(edges)};
}

TEST(IvmTest, InsertExtendsClosureIncrementally) {
  MaterializedView view(TransitiveClosure(), Chain(4));
  ExpectMatchesRecompute(view);

  view.Insert(0, Fact{3, 4});  // extend the chain
  ExpectMatchesRecompute(view);
  view.Insert(0, Fact{9, 0});  // new component head reaching everything
  ExpectMatchesRecompute(view);

  EXPECT_EQ(view.stats().updates_applied, 2u);
  EXPECT_EQ(view.stats().inserts_seeded, 2u);
  EXPECT_EQ(view.stats().cone_rebuilds, 0u);
}

TEST(IvmTest, DuplicateInsertIsFree) {
  MaterializedView view(TransitiveClosure(), Chain(4));
  size_t derived_before = view.stats().fixpoint.derived_rows;
  view.Insert(0, Fact{0, 1});  // already present
  EXPECT_EQ(view.stats().inserts_seeded, 0u);
  EXPECT_EQ(view.stats().fixpoint.derived_rows, derived_before);
  ExpectMatchesRecompute(view);
}

TEST(IvmTest, InsertsExtendIndexesWithoutRebuilding) {
  // The insertion path must keep extending the fixpoint's cached body-atom
  // indexes: a stream of inserts may add index extends but never another
  // build of an existing index. The first insert is a warm-up — its
  // delta-first firing probes one bound-column subset (tc on its second
  // position) the initial materialization never needed, building that index
  // once; every later insert must only extend.
  MaterializedView view(TransitiveClosure(), Chain(6));
  view.Insert(0, Fact{5, 6});
  size_t builds_after_first = view.stats().fixpoint.index_builds;
  for (int i = 6; i < 10; ++i) {
    view.Insert(0, Fact{i, i + 1});
  }
  EXPECT_EQ(view.stats().fixpoint.index_builds, builds_after_first);
  EXPECT_GT(view.stats().fixpoint.index_extends, 0u);
  ExpectMatchesRecompute(view);
}

TEST(IvmTest, DeleteOfUnmatchableFactIsFree) {
  MaterializedView view(TransitiveClosure(), Chain(4));
  size_t derived_before = view.stats().fixpoint.derived_rows;
  view.Delete(0, Fact{7, 7});  // matches no row
  EXPECT_EQ(view.stats().deletes_covered, 0u);
  EXPECT_EQ(view.stats().cone_rebuilds, 0u);
  EXPECT_EQ(view.stats().fixpoint.derived_rows, derived_before);
  ExpectMatchesRecompute(view);
}

TEST(IvmTest, DeleteOfGroundEdgeRebuildsCone) {
  MaterializedView view(TransitiveClosure(), Chain(5));
  // The reset drops every live tc row, and only those: the edges are
  // reseeded, not re-derived.
  const size_t tc_rows = view.Materialized().table(1).num_rows();
  ASSERT_EQ(tc_rows, 10u);
  view.Delete(0, Fact{2, 3});  // cuts the chain: closure shrinks
  EXPECT_EQ(view.stats().cone_rebuilds, 1u);
  EXPECT_EQ(view.stats().rows_overdeleted, tc_rows);
  ExpectMatchesRecompute(view);
  // tc must have lost every path across the cut.
  EXPECT_FALSE(HasTuple(view.Materialized().table(1), Tuple{C(0), C(4)}));
}

TEST(IvmTest, DeleteThroughUnsatisfiableRowRebuildsCone) {
  // A base row whose condition cannot hold under the global condition was
  // never seeded into the fixpoint. Deleting through it still rewrites the
  // base table (the row's guarded copies all die against the global, so it
  // is removed), and every delete that changes its table resets the
  // fixpoint and re-derives it: one rebuild, which lands on the recomputed
  // state.
  CTable edges(2);
  edges.AddRow(Tuple{V(0), V(1)}, Conjunction{Neq(V(3), C(1))});
  edges.AddRow(Tuple{C(0), C(1)});
  edges.SetGlobal(Conjunction{Eq(V(3), C(1))});
  MaterializedView view(TransitiveClosure(), CDatabase{std::move(edges)});
  view.Delete(0, Fact{5, 5});  // matches only the unsatisfiable row
  EXPECT_EQ(view.base().table(0).num_rows(), 1u);
  EXPECT_EQ(view.stats().cone_rebuilds, 1u);
  EXPECT_EQ(view.stats().deletes_covered, 0u);
  ExpectMatchesRecompute(view);
}

TEST(IvmTest, DeleteWhoseGuardsCollapseChangesNothing) {
  // Rows ((x,1), x != 3) and ((x,1), x = 5). Deleting (3,1) guards each row
  // with x != 3, which its own condition already implies: both guards
  // collapse onto their rows' conditions, so the delete rewrites no row and
  // returns before touching the fixpoint — no rebuild, no new derivations.
  CTable edges(2);
  edges.AddRow(Tuple{V(0), C(1)}, Conjunction{Neq(V(0), C(3))});
  edges.AddRow(Tuple{V(0), C(1)}, Conjunction{Eq(V(0), C(5))});
  MaterializedView view(TransitiveClosure(), CDatabase{std::move(edges)});
  size_t derived_before = view.stats().fixpoint.derived_rows;
  view.Delete(0, Fact{3, 1});
  EXPECT_EQ(view.stats().updates_applied, 1u);
  EXPECT_EQ(view.stats().cone_rebuilds, 0u);
  EXPECT_EQ(view.stats().fixpoint.derived_rows, derived_before);
  ExpectMatchesRecompute(view);
}

TEST(IvmTest, ConditionalInsertSeedsConditionedRow) {
  MaterializedView view(TransitiveClosure(), Chain(3));
  EXPECT_TRUE(view.InsertIf(0, Fact{2, 0}, Conjunction{Eq(V(7), C(1))}));
  ExpectMatchesRecompute(view);
  // The cycle exists only in worlds with v7 = 1; tc(0,0) must carry it.
  EXPECT_TRUE(HasTuple(view.Materialized().table(1), Tuple{C(0), C(0)}));
}

TEST(IvmTest, UnsatisfiableConditionalInsertIsRejected) {
  CTable edges(2);
  edges.AddRow(Tuple{C(0), C(1)});
  edges.SetGlobal(Conjunction{Eq(V(3), C(1))});
  MaterializedView view(TransitiveClosure(), CDatabase{std::move(edges)});
  size_t rows_before = view.base().table(0).num_rows();
  EXPECT_FALSE(view.InsertIf(0, Fact{1, 0}, Conjunction{Neq(V(3), C(1))}));
  EXPECT_EQ(view.base().table(0).num_rows(), rows_before);
  ExpectMatchesRecompute(view);
}

TEST(IvmTest, GroundRuleFactsSurviveConeRebuild) {
  // A ground-fact rule beside a rule over the edges: the reset drops tc
  // wholesale, so the re-derivation must re-fire empty-body rules or lose
  // the fact.
  DatalogProgram p({2, 2}, /*num_edb=*/1);
  DatalogRule fact_rule;
  fact_rule.head = {1, Tuple{C(8), C(8)}};
  p.AddRule(fact_rule);
  DatalogRule base;
  base.head = {1, Tuple{V(100), V(101)}};
  base.body = {{0, Tuple{V(100), V(101)}}};
  p.AddRule(base);
  MaterializedView view(p, Chain(4));
  view.Delete(0, Fact{1, 2});
  EXPECT_EQ(view.stats().cone_rebuilds, 1u);
  ExpectMatchesRecompute(view);
  EXPECT_TRUE(HasTuple(view.Materialized().table(1), Tuple{C(8), C(8)}));
}

TEST(IvmTest, RuleJoiningThroughConeGroundFactSurvivesEmptyRebuild) {
  // P(8,8). ; P(x,y) :- edge(x,y). ; Q(x,y) :- P(x,y). Deleting the only
  // edge leaves the rebuild's first semi-naive round with nothing to derive
  // from the base table, so the re-fired ground fact must already sit
  // inside the first delta window — fired after the windows are
  // snapshotted, it never becomes a delta and Q loses every row joining
  // through it (a past ordering regression of the cone rebuild).
  DatalogProgram p({2, 2, 2}, /*num_edb=*/1);
  DatalogRule fact_rule;
  fact_rule.head = {1, Tuple{C(8), C(8)}};
  p.AddRule(fact_rule);
  DatalogRule base;
  base.head = {1, Tuple{V(100), V(101)}};
  base.body = {{0, Tuple{V(100), V(101)}}};
  p.AddRule(base);
  DatalogRule through;
  through.head = {2, Tuple{V(100), V(101)}};
  through.body = {{1, Tuple{V(100), V(101)}}};
  p.AddRule(through);
  MaterializedView view(p, Chain(2));  // a single edge (0,1)
  view.Delete(0, Fact{0, 1});          // base now empty
  EXPECT_EQ(view.stats().cone_rebuilds, 1u);
  ExpectMatchesRecompute(view);
  EXPECT_TRUE(HasTuple(view.Materialized().table(2), Tuple{C(8), C(8)}));
}

TEST(IvmTest, ConeRuleOverAnUntouchedTableRederivesOnDelete) {
  // P(x,y) :- e0(x,y). ; P(x,y) :- e1(x,y). ; Q(x,z) :- P(x,y), e1(y,z).
  // Deleting from e0 resets the fixpoint, and P's rule over e1 must read
  // every e1 row again although e1 was not touched: the reset drops every
  // consumed mark with the rows and e1 is reseeded, or P loses (2,3) and
  // (3,x0), and Q loses (2,x0).
  DatalogProgram p({2, 2, 2, 2}, /*num_edb=*/2);  // e0, e1, P, Q
  DatalogRule from_e0;
  from_e0.head = {2, Tuple{V(100), V(101)}};
  from_e0.body = {{0, Tuple{V(100), V(101)}}};
  p.AddRule(from_e0);
  DatalogRule from_e1;
  from_e1.head = {2, Tuple{V(100), V(101)}};
  from_e1.body = {{1, Tuple{V(100), V(101)}}};
  p.AddRule(from_e1);
  DatalogRule join;
  join.head = {3, Tuple{V(100), V(102)}};
  join.body = {{2, Tuple{V(100), V(101)}}, {1, Tuple{V(101), V(102)}}};
  p.AddRule(join);
  CTable e0(2);
  e0.AddRow(Tuple{C(0), C(1)});
  e0.AddRow(Tuple{C(1), C(2)});
  CTable e1(2);
  e1.AddRow(Tuple{C(2), C(3)});
  e1.AddRow(Tuple{C(3), V(0)});
  MaterializedView view(p, CDatabase(std::vector<CTable>{e0, e1}));
  view.Delete(0, Fact{0, 1});
  EXPECT_EQ(view.stats().cone_rebuilds, 1u);
  ExpectMatchesRecompute(view);
  CDatabase live = view.Materialized();
  EXPECT_TRUE(HasTuple(live.table(2), Tuple{C(2), C(3)}));
  EXPECT_TRUE(HasTuple(live.table(3), Tuple{C(1), C(3)}));
}

#ifdef NDEBUG
TEST(IvmTest, OutOfRangePredicateUpdateIsNoOp) {
  // The public update API must range-check unconditionally: in release
  // builds the asserts are compiled out, and an out-of-range predicate
  // would otherwise index the base and fixpoint state out of bounds.
  // (Debug builds assert instead, so this only runs under NDEBUG.)
  MaterializedView view(TransitiveClosure(), Chain(3));
  view.Insert(-1, Fact{0, 1});
  view.Insert(5, Fact{0, 1});
  EXPECT_FALSE(view.InsertIf(1, Fact{0, 1}, Conjunction{}));  // IDB pred
  view.Delete(7, Fact{0, 1});
  EXPECT_EQ(view.stats().updates_applied, 0u);
  ExpectMatchesRecompute(view);
}

TEST(IvmTest, WrongArityUpdateIsNoOp) {
  // Same contract for a fact whose size is not the base table's arity: it
  // must neither reach the base table nor be seeded into the fixpoint.
  // (Debug builds assert instead, so this only runs under NDEBUG.)
  MaterializedView view(TransitiveClosure(), Chain(3));
  view.Insert(0, Fact{2, 3, 4});
  EXPECT_FALSE(view.InsertIf(0, Fact{2, 3, 4}, Conjunction{}));
  view.Delete(0, Fact{0, 1, 2});  // its first two values match edge (0,1)
  EXPECT_EQ(view.stats().updates_applied, 0u);
  EXPECT_EQ(view.base().table(0).num_rows(), 2u);
  ExpectMatchesRecompute(view);
}
#endif

TEST(IvmTest, MismatchedBaseTableContributesNoRows) {
  // A base table whose arity differs from its extensional predicate's
  // contributes no rows, in all build modes. Updates that fit the table
  // (ValidUpdate checks the table's own arity) still change the base, but
  // the fixpoint rejects their unfit rows at seeding, so the full and the
  // demand view stay empty.
  DatalogProgram tc = TransitiveClosure();
  CTable narrow(1);
  narrow.AddRow(Tuple{C(0)});
  narrow.AddRow(Tuple{V(0)});
  MaterializedView view(tc, CDatabase{narrow});
  MaterializedView demand(tc, CDatabase{narrow},
                          DatalogGoal{1, {ConstId{0}, std::nullopt}});
  for (MaterializedView* v : {&view, &demand}) {
    v->Insert(0, Fact{1});
    EXPECT_TRUE(v->InsertIf(0, Fact{2}, Conjunction{Neq(V(0), C(2))}));
    v->Delete(0, Fact{0});
    EXPECT_EQ(v->stats().updates_applied, 3u);
  }
  CDatabase live = view.Materialized();
  EXPECT_EQ(live.table(0).num_rows(), 0u);
  EXPECT_EQ(live.table(1).num_rows(), 0u);
  EXPECT_EQ(demand.Answers().num_rows(), 0u);
  ExpectMatchesRecompute(view);
  ExpectMatchesRecompute(demand);
}

TEST(IvmTest, VariableRowDeleteStaysIdentical) {
  // Guarded copies produced by deleting through a variable row must seed
  // forward (or rebuild) to exactly the recompute state — the original
  // conditioned-update bug class.
  CTable edges(2);
  edges.AddRow(Tuple{V(0), V(1)});
  edges.AddRow(Tuple{C(1), C(2)});
  MaterializedView view(TransitiveClosure(), CDatabase{std::move(edges)});
  view.Delete(0, Fact{1, 2});
  ExpectMatchesRecompute(view);
  view.Delete(0, Fact{2, 2});
  ExpectMatchesRecompute(view);
}

TEST(IvmTest, DemandViewServesGoalAnswersUnderUpdates) {
  DatalogProgram tc = TransitiveClosure();
  std::vector<std::optional<ConstId>> bindings{ConstId{0}, std::nullopt};
  DatalogGoal goal{1, bindings};
  MaterializedView view(tc, Chain(4), goal);
  ASSERT_TRUE(view.is_demand_view());

  auto check = [&]() {
    CTable live = view.Answers();
    CTable scratch = DatalogQueryOnCTables(tc, view.base(), 1, bindings);
    EXPECT_EQ(CanonicalRows(live), CanonicalRows(scratch));
  };
  check();
  view.Insert(0, Fact{3, 4});
  check();
  view.Delete(0, Fact{1, 2});
  EXPECT_EQ(view.stats().cone_rebuilds, 1u);
  check();
  view.Insert(0, Fact{1, 2});
  check();
}

TEST(IvmTest, IncrementalBeatsRecomputeOnDerivedRowWork) {
  // The point of the exercise: maintaining a chain's closure across an
  // insert stream must derive far fewer rows than recomputing each time.
  const int n = 12;
  MaterializedView view(TransitiveClosure(), Chain(n));
  size_t init_derived = view.stats().fixpoint.derived_rows;
  size_t recompute_derived = 0;
  for (int i = n - 1; i < n + 3; ++i) {
    view.Insert(0, Fact{i, i + 1});
    ConditionedFixpointStats s;
    DatalogOnCTables(view.evaluated_program(), view.base(), &s);
    recompute_derived += s.derived_rows;
  }
  size_t incremental_derived =
      view.stats().fixpoint.derived_rows - init_derived;
  EXPECT_LT(incremental_derived * 2, recompute_derived);
  ExpectMatchesRecompute(view);
}

TEST(IvmTest, DemandViewOnOutOfRangeGoalHasNoAnswers) {
  // The goal predicate is checked in all build modes: a demand view whose
  // goal names no predicate of the program demands nothing. It still
  // maintains its base, and answers with no rows. Regression: the rewrite
  // looked the goal's arity up out of range and threw from the constructor.
  DatalogProgram tc = TransitiveClosure();
  for (int pred : {7, -1}) {
    SCOPED_TRACE("goal " + std::to_string(pred));
    MaterializedView view(tc, Chain(4),
                          DatalogGoal{pred, {ConstId{0}, std::nullopt}});
    EXPECT_TRUE(view.is_demand_view());
    CTable answers = view.Answers();
    EXPECT_EQ(answers.arity(), 2);
    EXPECT_EQ(answers.num_rows(), 0u);
    view.Insert(0, Fact{3, 4});
    EXPECT_EQ(view.Answers().num_rows(), 0u);
    EXPECT_EQ(view.base().table(0).num_rows(), 4u);
  }
}

TEST(IvmTest, GoalOfAnotherWidthHasNoAnswers) {
  // A goal whose bindings are not exactly as wide as its predicate matches
  // no row, in all build modes: DatalogQueryOnCTables, a demand view's
  // Answers() and RestrictTableToGoal over the full fixpoint each answer an
  // empty table as wide as the bindings, the first two with the global
  // attached. Regression: each path answered a two-column table; bindings
  // (1, ?, 5) and (?, ?, 5) read 0 rows on the demand path but 2 and 3
  // through the restricted full fixpoint, and (1) read tc(1,?)'s 2 rows on
  // all three. Such a goal demands nothing, so the demand view maintains
  // the rule-free program. Regression: all three rewrites emitted rules,
  // and the view's fixpoint derived 2 rows for (1).
  DatalogProgram tc = TransitiveClosure();
  CTable edges = CTable::FromRelation(Relation(2, {{1, 2}, {2, 3}}));
  edges.SetGlobal(Conjunction{Neq(V(0), C(4))});
  CDatabase db{edges};
  ConditionInterner& interner = ConditionInterner::Global();
  const CTable full = DatalogOnCTables(tc, db).table(1);
  using Bindings = std::vector<std::optional<ConstId>>;
  const std::vector<Bindings> cases = {
      {ConstId{1}, std::nullopt, ConstId{5}},
      {std::nullopt, std::nullopt, ConstId{5}},
      {ConstId{1}}};
  for (size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    const Bindings& bindings = cases[c];
    MaterializedView view(tc, db, DatalogGoal{1, bindings});
    const CTable query = DatalogQueryOnCTables(tc, db, 1, bindings);
    const CTable answers = view.Answers();
    const CTable restricted = RestrictTableToGoal(
        full, bindings, db.CombinedGlobalId(interner), interner);
    for (const CTable* t : {&query, &answers, &restricted}) {
      EXPECT_EQ(t->arity(), static_cast<int>(bindings.size()));
      EXPECT_EQ(t->num_rows(), 0u);
    }
    EXPECT_EQ(query.global(), db.CombinedGlobal());
    EXPECT_EQ(answers.global(), db.CombinedGlobal());
    EXPECT_TRUE(view.evaluated_program().rules().empty());
    EXPECT_EQ(view.Materialized().table(1).num_rows(), 0u);
  }
}

TEST(IvmTest, FullViewHasNoAnswers) {
  // Answers() serves a demand view's goal; a full view has none, so it
  // answers with an empty table in all build modes. Regression: the goal
  // was checked only by an assert, and NDEBUG builds threw from Export(-1).
  MaterializedView view(TransitiveClosure(), Chain(4));
  ASSERT_FALSE(view.is_demand_view());
  CTable answers = view.Answers();
  EXPECT_EQ(answers.num_rows(), 0u);
  EXPECT_EQ(view.Materialized().table(1).num_rows(), 6u);
}

TEST(IvmTest, DDViewBetweenDDGoalsAnswersAsOnFreshInterners) {
  // A diagram view and one-shot diagram goals on one interner run on the
  // interner's one manager: each goal finds the view's diagrams, and each
  // update the goals'. Interleaved there, every answer must equal the same
  // operation's on an interner of its own: the view's against a twin view
  // that no goal shares, each goal's against a fresh interner's.
  const DatalogProgram tc = TransitiveClosure();
  CTable edges(2);
  edges.AddRow(Tuple{C(0), C(1)});
  edges.AddRow(Tuple{C(1), C(2)});
  edges.AddRow(Tuple{C(2), V(0)});
  edges.AddRow(Tuple{C(3), C(4)});
  edges.AddRow(Tuple{C(4), V(1)});
  edges.AddRow(Tuple{C(5), C(6)});
  edges.AddRow(Tuple{V(0), C(5)});
  edges.SetGlobal(Conjunction{Neq(V(0), C(1))});
  const CDatabase base{std::move(edges)};

  ConditionInterner shared;
  ConditionInterner own;
  MaterializedViewOptions on_shared;
  on_shared.eval.interner = &shared;
  on_shared.eval.condition_backend = ConditionBackendKind::kDecisionDiagrams;
  MaterializedViewOptions on_own = on_shared;
  on_own.eval.interner = &own;
  MaterializedView view(tc, base, on_shared);
  MaterializedView twin(tc, base, on_own);

  auto check = [&](const std::string& step) {
    SCOPED_TRACE(step);
    EXPECT_EQ(CanonicalRows(view.Materialized().table(1)),
              CanonicalRows(twin.Materialized().table(1)));
    for (const std::vector<std::optional<ConstId>>& bindings :
         {std::vector<std::optional<ConstId>>{ConstId{0}, std::nullopt},
          std::vector<std::optional<ConstId>>{ConstId{0}, ConstId{6}},
          std::vector<std::optional<ConstId>>{std::nullopt, ConstId{5}}}) {
      DatalogCTableOptions goal = on_shared.eval;
      CTable answers =
          DatalogQueryOnCTables(tc, view.base(), 1, bindings, nullptr, goal);
      ConditionInterner fresh;
      goal.interner = &fresh;
      EXPECT_EQ(CanonicalRows(answers),
                CanonicalRows(DatalogQueryOnCTables(tc, view.base(), 1,
                                                    bindings, nullptr, goal)));
    }
  };
  check("initial");
  struct Update {
    bool insert;
    Fact fact;
  };
  const Update updates[] = {{true, {2, 3}},  {false, {1, 2}}, {true, {1, 2}},
                            {false, {2, 3}}, {false, {4, 6}}, {true, {6, 0}},
                            {false, {2, 5}}, {false, {6, 0}}};
  for (const Update& u : updates) {
    for (MaterializedView* v : {&view, &twin}) {
      if (u.insert) {
        v->Insert(0, u.fact);
      } else {
        v->Delete(0, u.fact);
      }
    }
    check(std::string(u.insert ? "insert " : "delete ") + ToString(u.fact));
  }
  EXPECT_GT(view.stats().cone_rebuilds, 0u);
  EXPECT_GT(view.stats().inserts_seeded, 0u);
}

}  // namespace
}  // namespace pw
