// Tests for c-table updates: pointwise world semantics of insert / delete.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "tables/updates.h"
#include "tables/world_enum.h"
#include "test_util.h"
#include "workload/random_gen.h"

namespace pw {
namespace {

TEST(UpdatesTest, InsertAddsFactToEveryWorld) {
  CTable t(1);
  t.AddRow(Tuple{V(0)});
  InsertFactInPlace(t, Fact{9});
  for (const Instance& w : EnumerateWorlds(CDatabase{t})) {
    EXPECT_TRUE(w.relation(0).Contains(Fact{9}));
  }
}

TEST(UpdatesTest, DeleteRemovesGroundRow) {
  CTable t(1);
  t.AddRow(Tuple{C(1)});
  t.AddRow(Tuple{C(2)});
  DeleteFactInPlace(t, Fact{1});
  auto worlds = EnumerateWorlds(CDatabase{t});
  ASSERT_EQ(worlds.size(), 1u);
  EXPECT_EQ(worlds[0].relation(0), Relation(1, {{2}}));
}

TEST(UpdatesTest, DeleteGuardsVariableRow) {
  CTable t(1);
  t.AddRow(Tuple{V(0)});
  DeleteFactInPlace(t, Fact{5});
  // Worlds: {c} for c != 5, and {} (when x = 5).
  for (const Instance& w : EnumerateWorlds(CDatabase{t}, {{5}, 0})) {
    EXPECT_FALSE(w.relation(0).Contains(Fact{5}));
  }
}

TEST(UpdatesTest, DeleteKeepsNonMatchingRowsUnguarded) {
  CTable t(2);
  t.AddRow(Tuple{C(1), V(0)});
  DeleteFactInPlace(t, Fact{2, 2});
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_TRUE(t.row(0).local().IsTautology());
}

TEST(UpdatesTest, DeleteExpandsMatchableRows) {
  CTable t(2);
  t.AddRow(Tuple{V(0), V(1)});
  DeleteFactInPlace(t, Fact{1, 2});
  EXPECT_EQ(t.num_rows(), 2u);  // one guard per position
}

TEST(UpdatesTest, ConditionalInsert) {
  CTable t(1);
  t.AddRow(Tuple{C(1)});
  EXPECT_TRUE(InsertFactIfInPlace(t, Fact{9}, Conjunction{Eq(V(5), C(0))}));
  auto worlds = EnumerateWorlds(CDatabase{t});
  bool with = false, without = false;
  for (const Instance& w : worlds) {
    (w.relation(0).Contains(Fact{9}) ? with : without) = true;
  }
  EXPECT_TRUE(with);
  EXPECT_TRUE(without);
}

class UpdatesPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(UpdatesPropertyTest, PointwiseSemantics) {
  std::mt19937 rng(GetParam());
  RandomCTableOptions options =
      testutil::SmallCTableOptions(/*arity=*/2, /*num_rows=*/3,
          /*num_constants=*/3, /*num_variables=*/2,
          /*num_local_atoms=*/GetParam() % 2);
  CTable t = RandomCTable(options, rng);
  std::uniform_int_distribution<int> c(0, 2);
  Fact f{c(rng), c(rng)};

  // For every valuation: the updated tables' world must equal the plain
  // world with f added / removed.
  CTable ins = t;
  InsertFactInPlace(ins, f);
  CTable del = t;
  DeleteFactInPlace(del, f);
  WorldEnumOptions wopts;
  wopts.extra_constants = {static_cast<ConstId>(f[0]),
                           static_cast<ConstId>(f[1])};
  bool ok = true;
  ForEachSatisfyingValuation(CDatabase{t}, wopts, [&](const Valuation& v) {
    Relation base = v.Apply(t);
    Relation with = base;
    with.Insert(f);
    Relation without(2);
    for (const Fact& g : base) {
      if (g != f) without.Insert(g);
    }
    if (v.Apply(ins) != with || v.Apply(del) != without) {
      ok = false;
      return false;
    }
    return true;
  });
  EXPECT_TRUE(ok) << t.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpdatesPropertyTest, ::testing::Range(1, 25));

// --- Guard pruning (the interned delete path) --------------------------------

TEST(UpdatesTest, DeleteDedupesCollapsedSiblingGuards) {
  // Deleting (1,1) from the row (x,x): the per-position expansion emits the
  // guard x != 1 once per position — identical conditions. Only one copy
  // survives.
  CTable t(2);
  t.AddRow(Tuple{V(0), V(0)});
  DeleteFactInPlace(t, Fact{1, 1});
  EXPECT_EQ(t.num_rows(), 1u);
  for (const Instance& w : EnumerateWorlds(CDatabase{t}, {{1}, 0})) {
    EXPECT_FALSE(w.relation(0).Contains(Fact{1, 1}));
  }
}

TEST(UpdatesTest, DeleteDropsGuardsUnsatisfiableWithRowCondition) {
  // Row ((x,y), x = 1): deleting (1,2) can only escape through y != 2 — the
  // position-0 guard x != 1 contradicts the row's own condition and holds
  // in no world.
  CTable t(2);
  t.AddRow(Tuple{V(0), V(1)}, Conjunction{Eq(V(0), C(1))});
  DeleteFactInPlace(t, Fact{1, 2});
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_TRUE(t.row(0).local().Implies(Neq(V(1), C(2))));
}

TEST(UpdatesTest, DeleteDropsGuardsUnsatisfiableWithGlobalCondition) {
  // The same pruning through the *global* condition: with x forced to 1
  // globally, the guard x != 1 survives in no world.
  CTable t(2);
  t.AddRow(Tuple{V(0), V(1)});
  t.SetGlobal(Conjunction{Eq(V(0), C(1))});
  DeleteFactInPlace(t, Fact{1, 2});
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_TRUE(t.row(0).local().Implies(Neq(V(1), C(2))));
}

TEST(UpdatesTest, DeleteKeepsRowWhoseGuardCollapses) {
  // Row ((x,1), x != 3): deleting (3,1) adds nothing the row's condition
  // does not already say, so the row passes through unchanged — and a
  // repeat of the delete is a no-op at the row level (idempotence over
  // rep() strengthens to idempotence over the row set).
  CTable t(2);
  t.AddRow(Tuple{V(0), C(1)}, Conjunction{Neq(V(0), C(3))});
  const std::string before = t.row(0).local().ToString();
  for (int pass = 0; pass < 2; ++pass) {
    EXPECT_FALSE(DeleteFactInPlace(t, Fact{3, 1}).changed);
    ASSERT_EQ(t.num_rows(), 1u);
    EXPECT_EQ(t.row(0).local().ToString(), before);
  }
}

TEST(UpdatesTest, RepeatedDeleteIsIdempotentOnRowSet) {
  // Deleting the same fact twice through a variable row: the second pass
  // rewrites each guarded copy into itself (its guard is already part of
  // its condition), so the row set is unchanged — the naive expansion
  // instead re-expands every copy per position.
  ConditionInterner& interner = ConditionInterner::Global();
  CTable t(2);
  t.AddRow(Tuple{V(0), V(1)});
  DeleteFactInPlace(t, Fact{1, 2});
  CTable once = t;
  EXPECT_FALSE(DeleteFactInPlace(t, Fact{1, 2}).changed);
  ASSERT_EQ(t.num_rows(), once.num_rows());
  for (size_t i = 0; i < once.num_rows(); ++i) {
    EXPECT_EQ(t.row(i).LocalId(interner), once.row(i).LocalId(interner));
  }
}

// --- Edge cases --------------------------------------------------------------

TEST(UpdatesTest, ArityZeroInsertAndDelete) {
  // A 0-ary table holds at most the empty fact: insertion makes it certain,
  // deletion of the empty fact empties every world (no position can differ,
  // so no guarded copy survives).
  CTable t(0);
  InsertFactInPlace(t, Fact{});
  ASSERT_EQ(t.num_rows(), 1u);
  DeleteFactInPlace(t, Fact{});
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST(UpdatesTest, DeleteMatchedOnlyThroughGlobalForcedEquality) {
  // The row is (x,2) and the global forces x = 1: the only world value of
  // the row is (1,2), so deleting (1,2) must empty the table's rep — the
  // guard x != 1 dies against the global, and y != 2 is trivially false.
  CTable t(2);
  t.AddRow(Tuple{V(0), C(2)});
  t.SetGlobal(Conjunction{Eq(V(0), C(1))});
  DeleteFactInPlace(t, Fact{1, 2});
  EXPECT_EQ(t.num_rows(), 0u);
  for (const Instance& w : EnumerateWorlds(CDatabase{t})) {
    EXPECT_EQ(w.relation(0).size(), 0u);
  }
}

TEST(UpdatesTest, InsertFactIfUnsatisfiableConditionAddsNothing) {
  CTable t(1);
  t.AddRow(Tuple{C(1)});
  t.SetGlobal(Conjunction{Eq(V(0), C(1))});
  // The condition contradicts the global: the fact would join no world.
  EXPECT_FALSE(InsertFactIfInPlace(t, Fact{9}, Conjunction{Neq(V(0), C(1))}));
  EXPECT_EQ(t.num_rows(), 1u);
  for (const Instance& w : EnumerateWorlds(CDatabase{t})) {
    EXPECT_FALSE(w.relation(0).Contains(Fact{9}));
  }
}

// --- Delta reporting and cache preservation ----------------------------------

TEST(UpdatesTest, InPlaceDeleteReportsRowLevelDelta) {
  CTable t(2);
  t.AddRow(Tuple{C(1), C(2)});   // removed outright (ground match)
  t.AddRow(Tuple{C(3), V(0)});   // kept: position 0 can never match
  t.AddRow(Tuple{V(1), V(2)});   // rewritten into guarded copies
  DeleteDelta delta = DeleteFactInPlace(t, Fact{1, 2});
  EXPECT_TRUE(delta.changed);
  EXPECT_EQ(delta.removed.size(), 2u);
  EXPECT_EQ(delta.added.size(), 2u);  // one guard per position of (x,y)
  EXPECT_EQ(t.num_rows(), 3u);        // kept + 2 guarded copies
}

TEST(UpdatesTest, InPlaceDeleteMovesUntouchedRows) {
  // 1,000 ground rows (i, 5) with the null row (x0, 5) at position 600.
  // Deleting (300, 5) drops one ground row and rewrites the null row; every
  // other row is moved into the rewritten table, not copied.
  constexpr int kGround = 1000;
  constexpr size_t kNullAt = 600;
  CTable t(2);
  for (int i = 0; i < kGround; ++i) {
    if (static_cast<size_t>(i) == kNullAt) t.AddRow(Tuple{V(0), C(5)});
    t.AddRow(Tuple{C(i), C(5)});
  }
  std::vector<const Term*> storage;
  for (const CRow& row : t.rows()) storage.push_back(row.tuple.data());

  DeleteDelta delta = DeleteFactInPlace(t, Fact{300, 5});
  EXPECT_TRUE(delta.changed);
  ASSERT_EQ(t.num_rows(), static_cast<size_t>(kGround));
  ASSERT_EQ(delta.removed.size(), 2u);
  EXPECT_EQ(delta.removed[0].tuple, (Tuple{C(300), C(5)}));
  EXPECT_EQ(delta.removed[1].tuple, (Tuple{V(0), C(5)}));
  ASSERT_EQ(delta.added.size(), 1u);

  // Today's order: the ground row is gone, and the guarded copy sits where
  // the null row was (one position earlier, after the removed row).
  const size_t guarded_at = kNullAt - 1;
  EXPECT_EQ(t.row(guarded_at).tuple, (Tuple{V(0), C(5)}));
  EXPECT_EQ(t.row(guarded_at).local(), (Conjunction{Neq(V(0), C(300))}));
  EXPECT_EQ(t.row(guarded_at), delta.added[0]);

  // Every other row is one of the 999 untouched ground rows (i, 5), found
  // by its tuple, and it moved over with its tuple storage.
  std::vector<bool> seen(kGround, false);
  for (size_t k = 0; k < t.num_rows(); ++k) {
    if (k == guarded_at) continue;
    const Tuple& tuple = t.row(k).tuple;
    ASSERT_TRUE(tuple[0].is_constant()) << "position " << k;
    const size_t i = static_cast<size_t>(tuple[0].constant());
    ASSERT_LT(i, seen.size()) << "position " << k;
    EXPECT_NE(i, 300u) << "position " << k;
    EXPECT_FALSE(seen[i]) << "position " << k;
    seen[i] = true;
    EXPECT_EQ(tuple, (Tuple{C(static_cast<int>(i)), C(5)}));
    const size_t old = i < kNullAt ? i : i + 1;  // position before the delete
    EXPECT_EQ(tuple.data(), storage[old]) << "position " << k;
  }
}

TEST(UpdatesTest, InPlaceDeleteOfUnmatchableFactPreservesIndexCache) {
  // No row can match: the delete must not touch the table, so a cached
  // tuple index stays valid (no rebuild, no extend).
  CTable t(2);
  t.AddRow(Tuple{C(1), C(2)});
  t.AddRow(Tuple{C(3), C(4)});
  bool built = false, extended = false;
  t.Index({0}, &built, &extended);
  ASSERT_TRUE(built);
  DeleteDelta delta = DeleteFactInPlace(t, Fact{9, 9});
  EXPECT_FALSE(delta.changed);
  t.Index({0}, &built, &extended);
  EXPECT_FALSE(built);
  EXPECT_FALSE(extended);
}

TEST(UpdatesTest, InPlaceInsertExtendsIndexCacheInsteadOfRebuilding) {
  // The append path must extend the cached index by the new row, never
  // rebuild it — the regression the incremental maintenance layer pins on.
  CTable t(2);
  t.AddRow(Tuple{C(1), C(2)});
  bool built = false, extended = false;
  t.Index({0}, &built, &extended);
  ASSERT_TRUE(built);
  InsertFactInPlace(t, Fact{3, 4});
  const TupleIndex& index = t.Index({0}, &built, &extended);
  EXPECT_FALSE(built);
  EXPECT_TRUE(extended);
  EXPECT_EQ(index.num_rows_indexed(), 2u);
}

TEST(UpdatesTest, InPlaceRewritingDeleteRebuildsIndexCache) {
  // A delete that rewrites rows replaces the storage wholesale: the cached
  // index must rebuild (stale row ids would otherwise survive).
  CTable t(2);
  t.AddRow(Tuple{V(0), V(1)});
  t.AddRow(Tuple{C(1), C(2)});
  bool built = false, extended = false;
  t.Index({0}, &built, &extended);
  ASSERT_TRUE(built);
  DeleteDelta delta = DeleteFactInPlace(t, Fact{1, 2});
  EXPECT_TRUE(delta.changed);
  const TupleIndex& index = t.Index({0}, &built, &extended);
  EXPECT_TRUE(built);
  EXPECT_EQ(index.num_rows_indexed(), t.num_rows());
}

#ifdef NDEBUG
TEST(UpdatesTest, WrongArityFactLeavesTableUntouched) {
  // Every update entry point checks the fact's size unconditionally: in
  // release builds the asserts are compiled out, and a wrong-size fact
  // would otherwise be appended as a malformed row or matched on a prefix.
  // (Debug builds assert instead, so this only runs under NDEBUG.)
  CTable t(2);
  t.AddRow(Tuple{C(1), C(2)});
  t.AddRow(Tuple{V(0), C(3)});
  const CTable before = t;
  const Fact wide{1, 2, 3};  // its first two values match the row (1,2)
  const Fact narrow{1};

  InsertFactInPlace(t, wide);
  InsertFactInPlace(t, narrow);
  EXPECT_FALSE(InsertFactIfInPlace(t, wide, Conjunction{}));
  EXPECT_FALSE(DeleteFactInPlace(t, wide).changed);
  EXPECT_EQ(t, before);
}
#endif

}  // namespace
}  // namespace pw
