// Unit and property tests for the Imielinski–Lipski algebra: the result of
// evaluating a positive existential query on a c-table must represent
// exactly the pointwise image of the input's worlds.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>

#include "ilalgebra/ctable_eval.h"
#include "ra/eval.h"
#include "tables/snapshot.h"
#include "tables/world_enum.h"
#include "test_util.h"
#include "workload/random_gen.h"

namespace pw {
namespace {

TEST(IlAlgebraTest, RelCopiesRows) {
  CTable t(2);
  t.AddRow(Tuple{C(1), V(0)});
  CDatabase db{t};
  auto out = EvalOnCTables(RaExpr::Rel(0, 2), db);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->row(0).tuple, (Tuple{C(1), V(0)}));
}

TEST(IlAlgebraTest, SelectOnVariableBecomesLocalCondition) {
  CTable t(2);
  t.AddRow(Tuple{C(1), V(0)});
  CDatabase db{t};
  RaExpr e = RaExpr::Select(
      RaExpr::Rel(0, 2),
      {SelectAtom::Eq(ColOrConst::Col(1), ColOrConst::Const(5))});
  auto out = EvalOnCTables(e, db);
  ASSERT_TRUE(out.has_value());
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->row(0).local().atoms()[0], Eq(V(0), C(5)));
}

TEST(IlAlgebraTest, SelectOnConstantsResolvesImmediately) {
  CTable t(2);
  t.AddRow(Tuple{C(1), C(2)});
  t.AddRow(Tuple{C(3), C(2)});
  CDatabase db{t};
  RaExpr e = RaExpr::Select(
      RaExpr::Rel(0, 2),
      {SelectAtom::Eq(ColOrConst::Col(0), ColOrConst::Const(1))});
  auto out = EvalOnCTables(e, db);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->num_rows(), 1u);  // mismatching row dropped outright
  EXPECT_TRUE(out->row(0).local().IsTautology());
}

TEST(IlAlgebraTest, ProductConjoinsLocals) {
  CTable t(1);
  t.AddRow(Tuple{V(0)}, Conjunction{Eq(V(0), C(1))});
  t.AddRow(Tuple{V(1)}, Conjunction{Neq(V(1), C(2))});
  CDatabase db{t};
  auto out = EvalOnCTables(RaExpr::Product(RaExpr::Rel(0, 1),
                                           RaExpr::Rel(0, 1)),
                           db);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->num_rows(), 4u);
  EXPECT_EQ(out->row(1).local().size(), 2u);  // (row0, row1) pair
}

TEST(IlAlgebraTest, DiffIsRejected) {
  CDatabase db{CTable(1)};
  EXPECT_FALSE(EvalOnCTables(RaExpr::Diff(RaExpr::Rel(0, 1),
                                          RaExpr::Rel(0, 1)),
                             db)
                   .has_value());
}

// --- Hash-join fusion -----------------------------------------------------

/// Two joinable conditioned tables: edges with a null endpoint and a local
/// condition in the mix, so ground buckets, the wildcard list, and condition
/// accumulation are all exercised.
CDatabase JoinableTables() {
  CTable l(2);
  l.AddRow(Tuple{C(1), C(2)});
  l.AddRow(Tuple{C(2), C(3)});
  l.AddRow(Tuple{C(3), V(0)}, Conjunction{Neq(V(0), C(1))});
  CTable r(2);
  r.AddRow(Tuple{C(2), C(5)});
  r.AddRow(Tuple{V(1), C(6)});
  r.AddRow(Tuple{C(9), C(7)}, Conjunction{Eq(V(1), C(9))});
  return CDatabase(std::vector<CTable>{l, r});
}

/// The per-world oracle: rep(q^(db)) must equal q applied to every world of
/// rep(db).
void ExpectRepresentsImage(const RaExpr& q, const CDatabase& db) {
  auto image = EvalQueryOnCTables({q}, db);
  ASSERT_TRUE(image.has_value());
  std::vector<ConstId> extra = db.Constants();
  for (ConstId c : image->table(0).Constants()) extra.push_back(c);
  EXPECT_EQ(testutil::CanonicalWorlds(*image, extra),
            testutil::CanonicalImageWorlds({q}, db, extra))
      << q.ToString();
}

TEST(IlAlgebraTest, HashJoinIsOutputIdenticalToNestedLoop) {
  CDatabase db = JoinableTables();
  RaExpr q = RaExpr::Join(RaExpr::Rel(0, 2), RaExpr::Rel(1, 2), {{1, 0}});
  CTableEvalStats stats;
  CTableEvalOptions options;
  options.stats = &stats;
  auto a = EvalOnCTables(q, db, options);
  auto b = testutil::NestedLoopImage(q, db);
  ASSERT_TRUE(a.has_value() && b.has_value());
  // The join ran as one planned, keyed step; the paper's rules with a plain
  // product loop give the same rows in the same order.
  EXPECT_EQ(stats.planned_joins, 1u);
  EXPECT_EQ(stats.hash_joins, 1u);
  EXPECT_EQ(*a, *b);
  EXPECT_GT(a->num_rows(), 0u);
  ExpectRepresentsImage(q, db);
}

TEST(IlAlgebraTest, HashJoinProbesIndexAndSkipsMismatches) {
  CDatabase db = JoinableTables();
  RaExpr q = RaExpr::Join(RaExpr::Rel(0, 2), RaExpr::Rel(1, 2), {{1, 0}});
  CTableEvalStats stats;
  CTableEvalOptions options;
  options.stats = &stats;
  ASSERT_TRUE(EvalOnCTables(q, db, options).has_value());
  EXPECT_EQ(stats.hash_joins, 1u);
  EXPECT_EQ(stats.index_builds, 1u);
  // Left rows (2,·) and (·,3) probe ground keys; (3, x0) has a null key and
  // falls back to the scan.
  EXPECT_EQ(stats.index_probes, 2u);
  EXPECT_EQ(stats.scan_pairs, 3u);
  // Each ground probe hits the wildcard row (x1, 6) plus at most one ground
  // bucket row — strictly fewer than the 2x3 = 6 pairs a nested loop walks.
  EXPECT_LT(stats.index_hits, 4u);

  // The build side was a relation ref: its index lives on the CTable and is
  // reused by the next query instead of being rebuilt.
  CTableEvalStats again;
  options.stats = &again;
  ASSERT_TRUE(EvalOnCTables(q, db, options).has_value());
  EXPECT_EQ(again.index_builds, 0u);
  EXPECT_EQ(again.hash_joins, 1u);
}

TEST(IlAlgebraTest, HashJoinPushesSelectionsIntoSides) {
  // sigma_{l.0 = 1 AND l.1 = r.0}(L x R): the left-only atom drops left rows
  // (2,3) and (3,x0) before any pairing.
  CDatabase db = JoinableTables();
  RaExpr q = RaExpr::Select(
      RaExpr::Product(RaExpr::Rel(0, 2), RaExpr::Rel(1, 2)),
      {SelectAtom::Eq(ColOrConst::Col(0), ColOrConst::Const(1)),
       SelectAtom::Eq(ColOrConst::Col(1), ColOrConst::Col(2))});
  CTableEvalStats stats;
  CTableEvalOptions options;
  options.stats = &stats;
  auto out = EvalOnCTables(q, db, options);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(stats.hash_joins, 1u);
  EXPECT_GE(stats.pushdown_dropped_rows, 2u);

  auto reference = testutil::NestedLoopImage(q, db);
  ASSERT_TRUE(reference.has_value());
  EXPECT_EQ(*out, *reference);
  ExpectRepresentsImage(q, db);
}

// --- N-ary planned joins --------------------------------------------------

/// Three joinable tables for chain joins a.1 = b.0, b.1 = c.0.
CDatabase ThreeChainTables() {
  CTable a(2);
  a.AddRow(Tuple{C(1), C(2)});
  a.AddRow(Tuple{C(2), C(3)});
  a.AddRow(Tuple{C(3), V(0)}, Conjunction{Neq(V(0), C(1))});
  CTable b(2);
  b.AddRow(Tuple{C(2), C(4)});
  b.AddRow(Tuple{V(1), C(5)});
  b.AddRow(Tuple{C(3), C(4)});
  CTable c(2);
  c.AddRow(Tuple{C(4), C(8)});
  c.AddRow(Tuple{C(5), V(2)});
  return CDatabase(std::vector<CTable>{a, b, c});
}

TEST(IlAlgebraTest, TernaryJoinPlansAllLeavesAndMatchesNestedLoop) {
  // select over product(product(a, b), c) — the shape the binary fusion
  // never fused. The planner must fuse all three leaves; the output must be
  // identical to the nested loops and represent the per-world image.
  CDatabase db = ThreeChainTables();
  RaExpr prod = RaExpr::Product(
      RaExpr::Product(RaExpr::Rel(0, 2), RaExpr::Rel(1, 2)),
      RaExpr::Rel(2, 2));
  RaExpr q = RaExpr::Select(
      prod, {SelectAtom::Eq(ColOrConst::Col(1), ColOrConst::Col(2)),
             SelectAtom::Eq(ColOrConst::Col(3), ColOrConst::Col(4))});
  CTableEvalOptions planned;
  CTableEvalStats stats;
  planned.stats = &stats;
  auto p = EvalOnCTables(q, db, planned);
  auto n = testutil::NestedLoopImage(q, db);
  ASSERT_TRUE(p.has_value() && n.has_value());
  EXPECT_EQ(*p, *n);
  EXPECT_GT(p->num_rows(), 0u);
  // Plan shape: one 3-leaf plan, two keyed join steps.
  EXPECT_EQ(stats.planned_joins, 1u);
  EXPECT_EQ(stats.planned_join_leaves, 3u);
  EXPECT_EQ(stats.hash_joins, 2u);
  ExpectRepresentsImage(q, db);
}

TEST(IlAlgebraTest, NestedSelectionsAndProjectionPrefixesFuse) {
  // select(select(product)) and select above a projection of a product —
  // both silently fell back to nested loops before the planner; now they
  // must fuse and stay output-identical.
  CDatabase db = JoinableTables();
  RaExpr join_then_filter = RaExpr::Select(
      RaExpr::Select(RaExpr::Product(RaExpr::Rel(0, 2), RaExpr::Rel(1, 2)),
                     {SelectAtom::Eq(ColOrConst::Col(1), ColOrConst::Col(2))}),
      {SelectAtom::Neq(ColOrConst::Col(0), ColOrConst::Const(2))});
  RaExpr over_projection = RaExpr::Select(
      RaExpr::ProjectCols(
          RaExpr::Product(RaExpr::Rel(0, 2), RaExpr::Rel(1, 2)), {3, 0, 2}),
      {SelectAtom::Eq(ColOrConst::Col(1), ColOrConst::Col(2))});
  for (const RaExpr& q : {join_then_filter, over_projection}) {
    CTableEvalOptions planned;
    CTableEvalStats stats;
    planned.stats = &stats;
    auto p = EvalOnCTables(q, db, planned);
    auto n = testutil::NestedLoopImage(q, db);
    ASSERT_TRUE(p.has_value() && n.has_value());
    EXPECT_EQ(*p, *n) << q.ToString();
    EXPECT_EQ(stats.planned_joins, 1u) << q.ToString();
    EXPECT_EQ(stats.planned_join_leaves, 2u) << q.ToString();
    ExpectRepresentsImage(q, db);
  }
}

TEST(IlAlgebraTest, PlannerSinksProjectionsAndCountsPushdown) {
  // Projecting the chain join down to its first column leaves the last leaf
  // column unneeded (not an output, not in a conjunct): the plan sinks it.
  CDatabase db = ThreeChainTables();
  RaExpr prod = RaExpr::Product(
      RaExpr::Product(RaExpr::Rel(0, 2), RaExpr::Rel(1, 2)),
      RaExpr::Rel(2, 2));
  RaExpr sel = RaExpr::Select(
      prod, {SelectAtom::Eq(ColOrConst::Col(1), ColOrConst::Col(2)),
             SelectAtom::Eq(ColOrConst::Col(3), ColOrConst::Col(4)),
             SelectAtom::Eq(ColOrConst::Col(0), ColOrConst::Const(1))});
  RaExpr q = RaExpr::ProjectCols(sel, {0});
  CTableEvalStats stats;
  CTableEvalOptions planned;
  planned.stats = &stats;
  auto p = EvalOnCTables(q, db, planned);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(stats.planned_joins, 1u);
  EXPECT_EQ(stats.conjuncts_pushed, 1u);   // the a.0 = 1 filter
  EXPECT_EQ(stats.projections_sunk, 1u);   // column 5 (c.1) never needed
  EXPECT_GE(stats.pushdown_dropped_rows, 2u);  // a rows (2,3) and (3,x0)
  auto n = testutil::NestedLoopImage(q, db);
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(*p, *n);
  ExpectRepresentsImage(q, db);
}

// --- Interned-id seeding through the operators ----------------------------

TEST(IlAlgebraTest, InternedEvalSeedsOutputIdCaches) {
  // After an interned evaluation through union/project/join, every output
  // row's condition id (and the table's global id) must already be cached:
  // asking for them again costs zero Intern() calls.
  ConditionInterner interner;
  CTable t(2);
  t.AddRow(Tuple{C(1), V(0)}, Conjunction{Neq(V(0), C(2))});
  t.AddRow(Tuple{V(1), C(3)});
  CTable t2 = t;
  t2.SetGlobal(Conjunction{Neq(V(1), C(4))});
  CDatabase db(std::vector<CTable>{t, t2});

  RaExpr r = RaExpr::Rel(0, 2);
  RaExpr q = RaExpr::Union(
      RaExpr::ProjectCols(RaExpr::Join(r, RaExpr::Rel(1, 2), {{1, 0}}),
                          {0, 3}),
      RaExpr::Project(r, {ColOrConst::Col(1), ColOrConst::Col(0)}));

  CTableEvalOptions options;
  options.interner = &interner;
  auto out = EvalQueryOnCTables({q}, db, options);
  ASSERT_TRUE(out.has_value());
  ASSERT_GT(out->table(0).num_rows(), 0u);

  uint64_t interns_before = interner.stats().intern_calls;
  for (const CRow& row : out->table(0).rows()) row.LocalId(interner);
  out->table(0).GlobalId(interner);
  EXPECT_EQ(interner.stats().intern_calls, interns_before);
}

TEST(IlAlgebraTest, QueryCarriesGlobalCondition) {
  CTable t(1);
  t.AddRow(Tuple{V(0)});
  t.SetGlobal(Conjunction{Neq(V(0), C(1))});
  CDatabase db{t};
  auto out = EvalQueryOnCTables({RaExpr::Rel(0, 1)}, db);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->CombinedGlobal().size(), 1u);
}

TEST(IlAlgebraTest, RelationReferenceMustFitTheDatabase) {
  // A reference naming no table, or a table of another arity, is rejected
  // in every build mode instead of reading past the table's storage.
  CTable t(2);
  t.AddRow(Tuple{C(1), C(2)});
  t.AddRow(Tuple{C(2), V(0)});
  CDatabase db{t};
  EXPECT_FALSE(EvalQueryOnCTables({RaExpr::Rel(3, 2)}, db).has_value());
  EXPECT_FALSE(EvalOnCTables(RaExpr::Rel(3, 2), db).has_value());
  EXPECT_FALSE(EvalQueryOnCTables({RaExpr::Rel(0, 3)}, db).has_value());
  // Inside a planned join, and below an operator that does not plan.
  RaExpr join = RaExpr::Join(RaExpr::Rel(0, 3), RaExpr::Rel(0, 3), {{2, 0}});
  EXPECT_FALSE(EvalOnCTables(join, db).has_value());
  EXPECT_FALSE(EvalQueryOnCTables({RaExpr::Rel(0, 2), join}, db).has_value());
  EXPECT_FALSE(
      EvalOnCTables(RaExpr::Union(RaExpr::Rel(0, 2), RaExpr::Rel(1, 2)), db)
          .has_value());
  // A fitting reference still evaluates.
  auto image = EvalQueryOnCTables({RaExpr::Rel(0, 2)}, db);
  ASSERT_TRUE(image.has_value());
  EXPECT_EQ(image->table(0).num_rows(), 2u);
}

TEST(IlAlgebraTest, ColumnsMustFitTheirInput) {
  // A select or projection column at or past its input's arity, and a
  // union of two arities, are rejected in every build mode. Before, only
  // asserts checked them (a select not at all): in an NDEBUG build the
  // planner and the world evaluator read past tuple ends, and the union's
  // image held rows narrower than its arity.
  CTable t(2);
  t.AddRow(Tuple{C(1), C(2)});
  t.AddRow(Tuple{C(2), V(0)});
  CDatabase db{t};
  const Instance world({Relation(2, {{1, 2}, {2, 3}})});
  const RaExpr rel = RaExpr::Rel(0, 2);
  const RaExpr select = RaExpr::Select(
      rel, {SelectAtom::Eq(ColOrConst::Col(5), ColOrConst::Const(1))});
  const RaExpr project = RaExpr::ProjectCols(rel, {0, 7});
  const RaExpr union_of_arities =
      RaExpr::Union(rel, RaExpr::ProjectCols(rel, {0}));
  for (const RaExpr& misfit :
       {select, project, union_of_arities,
        RaExpr::Product(rel, select)}) {
    EXPECT_FALSE(EvalOnCTables(misfit, db).has_value()) << misfit.ToString();
    EXPECT_FALSE(EvalQueryOnCTables({rel, misfit}, db).has_value())
        << misfit.ToString();
    EXPECT_EQ(Eval(misfit, world), Relation(misfit.arity()))
        << misfit.ToString();
  }
  // The same shapes with columns that fit still evaluate.
  const RaExpr fits = RaExpr::Union(
      RaExpr::Select(rel, {SelectAtom::Eq(ColOrConst::Col(1),
                                          ColOrConst::Const(2))}),
      RaExpr::ProjectCols(rel, {1, 0}));
  EXPECT_EQ(Eval(fits, world), Relation(2, {{1, 2}, {2, 1}, {3, 2}}));
  ASSERT_TRUE(EvalOnCTables(fits, db).has_value());
}

/// What EvalQueryOnCTables builds in slot `slot` for a bare reference to
/// table k when it copies: the copy EvalOnCTables makes, plus the combined
/// global in slot 0.
CTable CopiedImageSlot(const CDatabase& db, size_t k, size_t slot) {
  CTable copy = *EvalOnCTables(RaExpr::Rel(k, db.table(k).arity()), db);
  if (slot == 0) copy.SetGlobal(db.CombinedGlobal());
  return copy;
}

TEST(IlAlgebraTest, BareRelationImageSharesQualifyingTables) {
  // The shape of a served database: an edge chain through a shared null
  // under a global inequality, and a ground label table with no global.
  CTable edges(2);
  edges.AddRow(Tuple{C(0), C(1)});
  edges.AddRow(Tuple{C(1), V(0)});
  edges.AddRow(Tuple{V(0), C(2)});
  edges.AddRow(Tuple{C(2), C(3)}, Conjunction{Neq(V(0), C(3))});
  edges.SetGlobal(Conjunction{Neq(V(0), C(0))});
  CTable labels(2);
  for (int i = 0; i < 4; ++i) labels.AddRow(Tuple{C(i), C(10 + i)});
  const RaQuery identity = {RaExpr::Rel(0, 2), RaExpr::Rel(1, 2)};

  // Every slot's copy would equal its table: both slots share.
  {
    CDatabase db(std::vector<CTable>{edges, labels});
    auto image = EvalQueryOnCTables(identity, db);
    ASSERT_TRUE(image.has_value());
    for (size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(&image->table(i), &db.table(i)) << "slot " << i;
      EXPECT_EQ(image->table(i), CopiedImageSlot(db, i, i)) << "slot " << i;
    }
  }

  // Each case where the copy differs from the table: the slot is a copy,
  // equal to what copying builds.
  auto expect_copied = [&](const CDatabase& db, size_t slot,
                           const char* why) {
    auto image = EvalQueryOnCTables(identity, db);
    ASSERT_TRUE(image.has_value()) << why;
    EXPECT_NE(&image->table(slot), &db.table(slot)) << why;
    EXPECT_EQ(image->table(slot), CopiedImageSlot(db, slot, slot)) << why;
  };
  {
    CTable unsat = labels;
    unsat.AddRow(Tuple{C(9), V(1)},
                 Conjunction{Eq(V(1), C(1)), Neq(V(1), C(1))});
    CDatabase db(std::vector<CTable>{edges, unsat});
    expect_copied(db, 1, "a row whose local is unsatisfiable");
  }
  {
    CTable redundant = labels;
    redundant.AddRow(Tuple{C(9), V(1)},
                     Conjunction{Neq(V(1), C(1)), Neq(V(1), C(1))});
    CDatabase db(std::vector<CTable>{edges, redundant});
    expect_copied(db, 1, "a satisfiable local not in canonical form");
  }
  {
    CTable trivial = labels;
    trivial.AddRow(Tuple{C(9), V(1)}, Conjunction{Eq(V(1), V(1))});
    CDatabase db(std::vector<CTable>{edges, trivial});
    expect_copied(db, 1, "a local that is true but not the empty conjunction");
  }
  {
    CTable guarded = labels;
    guarded.SetGlobal(Conjunction{Neq(V(0), C(5))});
    CDatabase db(std::vector<CTable>{edges, guarded});
    expect_copied(db, 0, "slot 0 carries both tables' globals");
    expect_copied(db, 1, "slot 1 carries no global");
  }

  // An image of a snapshot holds the frozen table itself and can outlive
  // the snapshot; writing through it clones instead of thawing the table.
  ConditionInterner interner;
  std::optional<CDatabase> image;
  std::optional<CDatabase> other;
  {
    VersionedCDatabase versioned(CDatabase(std::vector<CTable>{edges, labels}),
                                 interner);
    VersionedCDatabase::Snapshot snap = versioned.Read();
    CTableEvalOptions options{.interner = &interner};
    image = EvalQueryOnCTables(identity, snap.db, options);
    other = EvalQueryOnCTables(identity, snap.db, options);
    ASSERT_TRUE(image.has_value() && other.has_value());
    EXPECT_EQ(&image->table(1), &snap.db.table(1));
  }
  const CTable& frozen = other->table(1);
  ASSERT_EQ(&image->table(1), &frozen);
  ASSERT_TRUE(frozen.frozen());
  const CTable before = frozen;
  CTable& writable = image->mutable_table(1);
  EXPECT_NE(&writable, &frozen);
  EXPECT_FALSE(writable.frozen());
  writable.AddRow(Tuple{C(8), C(9)});
  EXPECT_EQ(image->table(1).num_rows(), before.num_rows() + 1);
  EXPECT_EQ(frozen, before);  // the old table is unchanged
  EXPECT_TRUE(frozen.frozen());
  // `other` is now the frozen table's only owner, and it still clones.
  CTable& clone = other->mutable_table(1);
  EXPECT_FALSE(clone.frozen());
  EXPECT_EQ(clone, before);
}

// --- The representation-system property, randomized ----------------------
// (Canonical world rendering and the per-world oracle live in test_util.h;
// tests/differential_test.cc runs the same identity at scale over random
// queries.)

class IlAlgebraPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(IlAlgebraPropertyTest, ImageRepresentsQueryOfWorlds) {
  using testutil::CanonicalImageWorlds;
  using testutil::CanonicalWorlds;
  std::mt19937 rng(GetParam());
  RandomCTableOptions options = testutil::SmallCTableOptions(
      /*arity=*/2, /*num_rows=*/3, /*num_constants=*/2, /*num_variables=*/2,
      /*num_local_atoms=*/1, /*num_global_atoms=*/1);
  CTable t = RandomCTable(options, rng);
  CDatabase db{t};

  // A representative positive existential query exercising every operator:
  // pi_{0, const}(sigma_{c0 = c1}(R)) union pi_{1,0}(R x R restricted).
  RaExpr r = RaExpr::Rel(0, 2);
  RaExpr q = RaExpr::Union(
      RaExpr::Project(
          RaExpr::Select(r, {SelectAtom::Eq(ColOrConst::Col(0),
                                            ColOrConst::Col(1))}),
          {ColOrConst::Col(0), ColOrConst::Const(7)}),
      RaExpr::ProjectCols(
          RaExpr::Select(RaExpr::Product(r, r),
                         {SelectAtom::Neq(ColOrConst::Col(1),
                                          ColOrConst::Col(2))}),
          {0, 3}));

  auto image = EvalQueryOnCTables({q}, db);
  ASSERT_TRUE(image.has_value());

  // rep(image) == q(rep(db)), compared world-by-world over a shared Delta.
  // (Both sides use the same variables, so the same Delta' representatives
  // arise on both sides.)
  std::vector<ConstId> extra = image->Constants();
  for (ConstId c : db.Constants()) extra.push_back(c);
  extra.push_back(7);
  EXPECT_EQ(CanonicalWorlds(*image, extra),
            CanonicalImageWorlds({q}, db, extra))
      << t.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, IlAlgebraPropertyTest,
                         ::testing::Range(1, 25));

}  // namespace
}  // namespace pw
