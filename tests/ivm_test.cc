// Tests for incremental view maintenance (datalog/ivm.h): a MaterializedView
// must stay *identical* — same tuples, same interned condition ids — to
// recomputing its fixpoint from scratch on the updated base, across inserts,
// conditional inserts, covered deletes, and cone-rebuild deletes; demand
// views must keep serving exactly DatalogQueryOnCTables' answers. The
// randomized cross-strategy families live in differential_test.cc; these are
// the targeted behaviors and the stats that pin the incremental paths on.

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

/// Rows rendered canonically (tuple + interner-canonical local condition),
/// sorted — the "identical up to row order" comparison key.
std::vector<std::string> Canon(const CTable& t) {
  ConditionInterner& interner = ConditionInterner::Global();
  std::vector<std::string> out;
  for (const CRow& row : t.rows()) {
    out.push_back(ToString(row.tuple) + " :: " +
                  interner.Resolve(row.LocalId(interner)).ToString());
  }
  std::sort(out.begin(), out.end());
  return out;
}

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
    EXPECT_EQ(Canon(live.table(p)), Canon(scratch.table(p)))
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
  view.Delete(0, Fact{2, 3});  // cuts the chain: closure shrinks
  EXPECT_EQ(view.stats().cone_rebuilds, 1u);
  EXPECT_GT(view.stats().rows_overdeleted, 0u);
  ExpectMatchesRecompute(view);
  // tc must have lost every path across the cut.
  EXPECT_FALSE(HasTuple(view.Materialized().table(1), Tuple{C(0), C(4)}));
}

TEST(IvmTest, CoveredDeleteViaUnsatisfiableRemovedRow) {
  // A base row whose condition cannot hold under the global condition was
  // never seeded into the fixpoint; deleting through it rewrites the base
  // table but leaves no live trace to repair — the covered fast path, no
  // over-deletion.
  CTable edges(2);
  edges.AddRow(Tuple{V(0), V(1)}, Conjunction{Neq(V(3), C(1))});
  edges.AddRow(Tuple{C(0), C(1)});
  edges.SetGlobal(Conjunction{Eq(V(3), C(1))});
  MaterializedView view(TransitiveClosure(), CDatabase{std::move(edges)});
  view.Delete(0, Fact{5, 5});  // matches only the unsatisfiable row
  EXPECT_EQ(view.stats().deletes_covered, 1u);
  EXPECT_EQ(view.stats().cone_rebuilds, 0u);
  ExpectMatchesRecompute(view);
}

TEST(IvmTest, CoveredDeleteViaKeptSubsumingRow) {
  // Rows ((x,1), x != 3) and ((x,1), x = 5): the second is subsumed at seed
  // time (x = 5 implies x != 3), so it has no live trace. Deleting (3,1)
  // leaves the first row unchanged (its guard x != 3 collapses onto its own
  // condition, so it is kept) and rewrites only the subsumed row — whose
  // removal the kept row covers. Fast path, no new derivations.
  CTable edges(2);
  edges.AddRow(Tuple{V(0), C(1)}, Conjunction{Neq(V(0), C(3))});
  edges.AddRow(Tuple{V(0), C(1)}, Conjunction{Eq(V(0), C(5))});
  MaterializedView view(TransitiveClosure(), CDatabase{std::move(edges)});
  size_t derived_before = view.stats().fixpoint.derived_rows;
  view.Delete(0, Fact{3, 1});
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
  // A ground-fact rule whose head is inside the deletion cone: the rebuild
  // clears tc wholesale, so it must re-fire empty-body rules or lose the
  // fact.
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
  // through it (the RunCone ordering regression).
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
    EXPECT_EQ(Canon(live), Canon(scratch));
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
    DatalogOnCTables(view.program(), view.base(), &s);
    recompute_derived += s.derived_rows;
  }
  size_t incremental_derived =
      view.stats().fixpoint.derived_rows - init_derived;
  EXPECT_LT(incremental_derived * 2, recompute_derived);
  ExpectMatchesRecompute(view);
}

}  // namespace
}  // namespace pw
