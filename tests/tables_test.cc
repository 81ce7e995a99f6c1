// Unit tests for tables/: c-tables, kind classification, valuations and
// possible-world enumeration, including the paper's Fig. 1 examples.

#include <gtest/gtest.h>

#include <algorithm>

#include "tables/ctable.h"
#include "tables/valuation.h"
#include "tables/world_enum.h"

namespace pw {
namespace {

// --- Fig. 1 of the paper -------------------------------------------------
// Variables: x=0, y=1, z=2, v=3.
constexpr VarId kX = 0, kY = 1, kZ = 2, kV = 3;

CTable Fig1TableTa() {
  CTable t(3);
  t.AddRow(Tuple{C(0), C(1), V(kX)});
  t.AddRow(Tuple{V(kY), V(kZ), C(1)});
  t.AddRow(Tuple{C(2), C(0), V(kV)});
  return t;
}

CTable Fig1ETableTb() {
  CTable t(3);
  t.AddRow(Tuple{C(0), C(1), V(kX)});
  t.AddRow(Tuple{V(kX), V(kZ), C(1)});
  t.AddRow(Tuple{C(2), C(0), V(kZ)});
  return t;
}

CTable Fig1ITableTc() {
  CTable t = Fig1TableTa();
  t.SetGlobal(Conjunction{Neq(V(kX), C(0)), Neq(V(kY), V(kZ))});
  return t;
}

CTable Fig1GTableTd() {
  CTable t = Fig1ETableTb();
  t.SetGlobal(Conjunction{Neq(V(kX), V(kZ))});
  return t;
}

CTable Fig1CTableTe() {
  CTable t(2);
  t.SetGlobal(Conjunction{Neq(V(kX), C(1)), Neq(V(kY), C(2))});
  t.AddRow(Tuple{C(0), C(1)}, Conjunction{Eq(V(kZ), V(kZ))});  // z = z: true
  t.AddRow(Tuple{C(0), V(kX)}, Conjunction{Eq(V(kY), C(0))});
  t.AddRow(Tuple{V(kY), V(kX)}, Conjunction{Neq(V(kX), V(kY))});
  return t;
}

TEST(CTableKindTest, Fig1Classification) {
  EXPECT_EQ(Fig1TableTa().Kind(), TableKind::kCoddTable);
  EXPECT_EQ(Fig1ETableTb().Kind(), TableKind::kETable);
  EXPECT_EQ(Fig1ITableTc().Kind(), TableKind::kITable);
  EXPECT_EQ(Fig1GTableTd().Kind(), TableKind::kGTable);
  EXPECT_EQ(Fig1CTableTe().Kind(), TableKind::kCTable);
}

TEST(CTableKindTest, EqualityGlobalIsGTable) {
  CTable t(1);
  t.AddRow(Tuple{V(0)});
  t.SetGlobal(Conjunction{Eq(V(0), C(1))});
  EXPECT_EQ(t.Kind(), TableKind::kGTable);
}

TEST(CTableKindTest, TrivialConditionsDoNotUpgrade) {
  CTable t(1);
  t.AddRow(Tuple{V(0)}, Conjunction{Eq(C(1), C(1))});
  t.SetGlobal(Conjunction{Eq(C(2), C(2))});
  EXPECT_EQ(t.Kind(), TableKind::kCoddTable);
}

TEST(CTableTest, VariablesAndConstantsCollected) {
  CTable t = Fig1CTableTe();
  EXPECT_EQ(t.Variables(), (std::vector<VarId>{kX, kY, kZ}));
  auto consts = t.Constants();
  EXPECT_TRUE(std::count(consts.begin(), consts.end(), 0));
  EXPECT_TRUE(std::count(consts.begin(), consts.end(), 1));
  EXPECT_TRUE(std::count(consts.begin(), consts.end(), 2));
}

TEST(CTableTest, FromRelationIsGround) {
  CTable t = CTable::FromRelation(Relation(2, {{1, 2}, {3, 4}}));
  EXPECT_TRUE(t.IsGround());
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.Kind(), TableKind::kCoddTable);
}

TEST(CTableTest, SubstituteRewritesTuplesAndConditions) {
  CTable t(1);
  t.AddRow(Tuple{V(0)}, Conjunction{Eq(V(1), C(2))});
  t.SetGlobal(Conjunction{Neq(V(0), V(1))});
  std::unordered_map<VarId, Term> sub{{0, Term::Const(7)}};
  CTable s = t.Substitute(sub);
  EXPECT_EQ(s.row(0).tuple[0], Term::Const(7));
  EXPECT_EQ(s.global().atoms()[0], Neq(C(7), V(1)));
}

TEST(CTableTest, NormalizedIncorporatesEqualities) {
  CTable t(2);
  t.AddRow(Tuple{V(0), V(1)});
  t.SetGlobal(Conjunction{Eq(V(0), C(5)), Eq(V(1), V(0)), Neq(V(2), C(1))});
  CTable n = t.Normalized();
  EXPECT_EQ(n.row(0).tuple, (Tuple{C(5), C(5)}));
  // Only the inequality survives.
  ASSERT_EQ(n.global().size(), 1u);
  EXPECT_FALSE(n.global().atoms()[0].is_equality);
}

TEST(CTableTest, NormalizedUnsatisfiableGlobalMarked) {
  CTable t(1);
  t.AddRow(Tuple{V(0)});
  t.SetGlobal(Conjunction{Eq(V(0), C(1)), Eq(V(0), C(2))});
  EXPECT_FALSE(t.Normalized().global().Satisfiable());
}

TEST(CTableTest, FrozenTablePinsItsIdCaches) {
  // Freezing warms the caches for one interner (A) and pins them: another
  // interner (B) gets its own id for the same canonical conjunction,
  // interned afresh on every call, and A's ids stay stamp hits. A copy of
  // the frozen table is not pinned and caches again.
  ConditionInterner a;
  ConditionInterner b;
  CTable t(2);
  t.AddRow(Tuple{C(1), V(0)}, Conjunction{Neq(V(0), C(2)), Eq(V(1), V(0))});
  t.SetGlobal(Conjunction{Neq(V(1), C(3))});
  t.PrepareForSharing(a);
  ASSERT_TRUE(t.frozen());
  const CRow& row = t.row(0);
  const ConjId a_local = row.LocalId(a);
  const ConjId a_global = t.GlobalId(a);

  // B hands out its ids in another order than A, so they differ from A's.
  b.Intern(Conjunction{Eq(V(7), C(7))});
  const ConjId b_global = b.Intern(t.global());
  const ConjId b_local = b.Intern(row.local());
  ASSERT_NE(b_local, a_local);
  ASSERT_NE(b_global, a_global);
  for (int call = 0; call < 2; ++call) {
    uint64_t b_calls = b.stats().intern_calls;
    EXPECT_EQ(row.LocalId(b), b_local);
    EXPECT_EQ(t.GlobalId(b), b_global);
    EXPECT_EQ(b.stats().intern_calls, b_calls + 2) << "call " << call;
  }
  EXPECT_EQ(b.Resolve(b_local), a.Resolve(a_local));
  EXPECT_EQ(b.Resolve(b_global), a.Resolve(a_global));

  uint64_t a_calls = a.stats().intern_calls;
  EXPECT_EQ(row.LocalId(a), a_local);
  EXPECT_EQ(t.GlobalId(a), a_global);
  EXPECT_EQ(a.stats().intern_calls, a_calls);

  CTable copy = t;
  EXPECT_FALSE(copy.frozen());
  uint64_t b_calls = b.stats().intern_calls;
  EXPECT_EQ(copy.row(0).LocalId(b), b_local);
  EXPECT_EQ(copy.GlobalId(b), b_global);
  EXPECT_EQ(copy.row(0).LocalId(b), b_local);
  EXPECT_EQ(copy.GlobalId(b), b_global);
  EXPECT_EQ(b.stats().intern_calls, b_calls + 2);
}

TEST(CDatabaseTest, KindUpgradesOnSharedVariables) {
  CTable a(1);
  a.AddRow(Tuple{V(0)});
  CTable b(1);
  b.AddRow(Tuple{V(0)});
  CDatabase db;
  db.AddTable(a);
  db.AddTable(b);
  EXPECT_EQ(db.Kind(), TableKind::kETable);

  CTable c(1);
  c.AddRow(Tuple{V(1)});
  CDatabase db2;
  db2.AddTable(a);
  db2.AddTable(c);
  EXPECT_EQ(db2.Kind(), TableKind::kCoddTable);
}

TEST(CDatabaseTest, FromInstanceRoundTrip) {
  Instance i({Relation(1, {{1}}), Relation(2, {{1, 2}})});
  CDatabase db = CDatabase::FromInstance(i);
  EXPECT_EQ(db.num_tables(), 2u);
  Valuation empty;
  EXPECT_EQ(empty.Apply(db), i);
}

TEST(ValuationTest, Fig1ExampleValuation) {
  // sigma: x -> 2, y -> 3, z -> 0, v -> 5 (Example 2.1 of the paper).
  Valuation sigma;
  sigma.Set(kX, 2);
  sigma.Set(kY, 3);
  sigma.Set(kZ, 0);
  sigma.Set(kV, 5);

  EXPECT_EQ(sigma.Apply(Fig1TableTa()),
            Relation(3, {{0, 1, 2}, {3, 0, 1}, {2, 0, 5}}));
  EXPECT_EQ(sigma.Apply(Fig1ETableTb()),
            Relation(3, {{0, 1, 2}, {2, 0, 1}, {2, 0, 0}}));
}

TEST(ValuationTest, SatisfiesConditions) {
  Valuation sigma;
  sigma.Set(0, 1);
  sigma.Set(1, 2);
  EXPECT_TRUE(sigma.Satisfies(Neq(V(0), V(1))));
  EXPECT_FALSE(sigma.Satisfies(Eq(V(0), V(1))));
  EXPECT_TRUE(sigma.Satisfies(Conjunction{Eq(V(0), C(1)), Neq(V(1), C(3))}));
}

TEST(ValuationTest, LocalConditionsFilterRows) {
  CTable te = Fig1CTableTe();
  // x -> 0, y -> 0, z -> 9: rows 1 and 2 on (y = 0), row 3 off (x == y).
  Valuation sigma;
  sigma.Set(kX, 0);
  sigma.Set(kY, 0);
  sigma.Set(kZ, 9);
  EXPECT_EQ(sigma.Apply(te), Relation(2, {{0, 1}, {0, 0}}));
}

TEST(WorldEnumTest, GroundTableHasOneWorld) {
  CDatabase db(CTable::FromRelation(Relation(1, {{1}, {2}})));
  auto worlds = EnumerateWorlds(db);
  ASSERT_EQ(worlds.size(), 1u);
  EXPECT_EQ(worlds[0].relation(0), Relation(1, {{1}, {2}}));
}

TEST(WorldEnumTest, SingleVariableWorldsUpToRenaming) {
  CTable t(1);
  t.AddRow(Tuple{C(1)});
  t.AddRow(Tuple{V(0)});
  CDatabase db{t};
  // x -> 1 gives {1}; x -> fresh gives {1, fresh}: two classes.
  EXPECT_EQ(CountDistinctWorlds(db), 2u);
}

TEST(WorldEnumTest, RepeatedVariableCorrelation) {
  CTable t(2);
  t.AddRow(Tuple{V(0), V(0)});
  CDatabase db{t};
  auto worlds = EnumerateWorlds(db);
  ASSERT_EQ(worlds.size(), 1u);  // always a single (c, c) fact
  const Relation& r = worlds[0].relation(0);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ((*r.begin())[0], (*r.begin())[1]);
}

TEST(WorldEnumTest, GlobalConditionFilters) {
  CTable t(1);
  t.AddRow(Tuple{V(0)});
  t.SetGlobal(Conjunction{Eq(V(0), C(3))});
  CDatabase db{t};
  auto worlds = EnumerateWorlds(db);
  ASSERT_EQ(worlds.size(), 1u);
  EXPECT_EQ(worlds[0].relation(0), Relation(1, {{3}}));
}

TEST(WorldEnumTest, UnsatisfiableGlobalYieldsNoWorlds) {
  CTable t(1);
  t.AddRow(Tuple{V(0)});
  t.SetGlobal(Conjunction{Eq(V(0), C(1)), Eq(V(0), C(2))});
  CDatabase db{t};
  EXPECT_TRUE(RepIsEmpty(db));
  EXPECT_EQ(CountDistinctWorlds(db), 0u);
}

TEST(WorldEnumTest, LocalConditionsProduceSubsetWorlds) {
  // Row (1) with local x = 1: worlds {} and {(1)}.
  CTable t(1);
  t.AddRow(Tuple{C(1)}, Conjunction{Eq(V(0), C(1))});
  CDatabase db{t};
  auto worlds = EnumerateWorlds(db);
  ASSERT_EQ(worlds.size(), 2u);
}

TEST(WorldEnumTest, TwoVariablesTwoConstantsCount) {
  // T = {(x), (y)} over empty Delta: worlds up to renaming: {a} (x=y) and
  // {a, b} (x != y).
  CTable t(1);
  t.AddRow(Tuple{V(0)});
  t.AddRow(Tuple{V(1)});
  CDatabase db{t};
  EXPECT_EQ(CountDistinctWorlds(db), 2u);
}

TEST(WorldEnumTest, ExtraConstantsWidenDelta) {
  CTable t(1);
  t.AddRow(Tuple{V(0)});
  CDatabase db{t};
  WorldEnumOptions options;
  options.extra_constants = {8, 9};
  // Worlds up to renaming: {8}, {9}, {fresh}.
  EXPECT_EQ(CountDistinctWorlds(db, options), 3u);
}

TEST(WorldEnumTest, MaxValuationsStopsEarly) {
  CTable t(1);
  t.AddRow(Tuple{V(0)});
  t.AddRow(Tuple{V(1)});
  CDatabase db{t};
  WorldEnumOptions options;
  options.max_valuations = 1;
  int seen = 0;
  bool complete = ForEachWorld(db, options,
                               [&seen](const Instance&, const Valuation&) {
                                 ++seen;
                                 return true;
                               });
  EXPECT_FALSE(complete);
  EXPECT_EQ(seen, 1);
}

TEST(WorldEnumTest, EarlyStopByCallback) {
  CTable t(1);
  t.AddRow(Tuple{V(0)});
  CDatabase db{t};
  int seen = 0;
  bool complete = ForEachSatisfyingValuation(
      db, {}, [&seen](const Valuation&) {
        ++seen;
        return false;
      });
  EXPECT_FALSE(complete);
  EXPECT_EQ(seen, 1);
}

TEST(WorldEnumTest, FreshConstantsAvoidCollisions) {
  CTable t(1);
  t.AddRow(Tuple{C(10)});
  CDatabase db{t};
  auto fresh = FreshConstants(db, {42}, 3);
  ASSERT_EQ(fresh.size(), 3u);
  for (ConstId c : fresh) {
    EXPECT_GT(c, 42);
    EXPECT_GT(c, 10);
  }
}

TEST(WorldEnumTest, Fig1CTableWorldsAgreeWithPaperExample) {
  // The paper lists (0,1),(3,2) and (0,1) [from sigma with y=0] as example
  // members of rep(Te). Verify both appear among enumerated worlds with
  // suitable extra constants.
  CDatabase db{Fig1CTableTe()};
  WorldEnumOptions options;
  options.extra_constants = {3};
  auto worlds = EnumerateWorlds(db, options);
  Instance i1({Relation(2, {{0, 1}, {3, 2}})});
  Instance i2({Relation(2, {{0, 1}})});
  EXPECT_NE(std::find(worlds.begin(), worlds.end(), i1), worlds.end());
  EXPECT_NE(std::find(worlds.begin(), worlds.end(), i2), worlds.end());
}

}  // namespace
}  // namespace pw
