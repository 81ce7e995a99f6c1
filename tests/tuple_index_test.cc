// Tests for the shared tuple-index layer (tables/tuple_index.h): ground
// buckets vs the wildcard list, ordered candidate enumeration, the lazy
// cache lifecycle, and the per-CTable cached index.

#include <gtest/gtest.h>

#include <vector>

#include "tables/ctable.h"
#include "tables/tuple_index.h"
#include "test_util.h"

namespace pw {
namespace {

TEST(TupleIndexTest, ProbesGroundRowsByKey) {
  TupleIndex index({0});
  index.Add(Tuple{C(1), C(2)}, 0);
  index.Add(Tuple{C(1), C(3)}, 1);
  index.Add(Tuple{C(2), C(4)}, 2);
  EXPECT_EQ(index.Probe(Tuple{C(1)}), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(index.Probe(Tuple{C(2)}), (std::vector<size_t>{2}));
  EXPECT_TRUE(index.Probe(Tuple{C(5)}).empty());
  EXPECT_TRUE(index.wildcard().empty());
}

TEST(TupleIndexTest, VariableInIndexedPositionGoesToWildcard) {
  // A null at an indexed column matches any key under a condition, so the
  // row must be a candidate of every probe.
  TupleIndex index({1});
  index.Add(Tuple{C(1), C(2)}, 0);
  index.Add(Tuple{C(1), V(0)}, 1);
  index.Add(Tuple{V(3), C(2)}, 2);  // variable in a non-indexed column: fine
  EXPECT_EQ(index.wildcard(), (std::vector<size_t>{1}));
  EXPECT_EQ(index.Probe(Tuple{C(2)}), (std::vector<size_t>{0, 2}));
  EXPECT_EQ(index.Candidates(Tuple{C(2)}, 0, 3),
            (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(index.Candidates(Tuple{C(9)}, 0, 3), (std::vector<size_t>{1}));
}

TEST(TupleIndexTest, CandidatesClipToRangeAscending) {
  TupleIndex index({0});
  for (size_t i = 0; i < 6; ++i) {
    // Even ids ground on key 7, odd ids wildcard.
    index.Add(i % 2 == 0 ? Tuple{C(7)} : Tuple{V(0)}, i);
  }
  EXPECT_EQ(index.Candidates(Tuple{C(7)}, 0, 6),
            (std::vector<size_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(index.Candidates(Tuple{C(7)}, 2, 5),
            (std::vector<size_t>{2, 3, 4}));
  EXPECT_EQ(index.Candidates(Tuple{C(8)}, 1, 4), (std::vector<size_t>{1, 3}));
}

TEST(TupleIndexTest, PrefixGroundRowsPruneOnTheirPrefix) {
  // Per-column wildcard granularity: a row ground on a prefix of the
  // indexed columns is filed under that prefix, so probes whose key prefix
  // differs never revisit it — only prefix-matching rows and rows with no
  // ground prefix stay candidates of every compatible probe.
  TupleIndex index({0, 1});
  index.Add(Tuple{C(1), C(2)}, 0);  // fully ground
  index.Add(Tuple{C(1), V(0)}, 1);  // ground prefix (1)
  index.Add(Tuple{C(2), V(1)}, 2);  // ground prefix (2)
  index.Add(Tuple{V(2), C(5)}, 3);  // no ground prefix
  EXPECT_EQ(index.wildcard(), (std::vector<size_t>{1, 2, 3}));
  EXPECT_EQ(index.Candidates(Tuple{C(1), C(2)}, 0, 4),
            (std::vector<size_t>{0, 1, 3}));
  EXPECT_EQ(index.Candidates(Tuple{C(1), C(9)}, 0, 4),
            (std::vector<size_t>{1, 3}));
  EXPECT_EQ(index.Candidates(Tuple{C(2), C(9)}, 0, 4),
            (std::vector<size_t>{2, 3}));
  EXPECT_EQ(index.Candidates(Tuple{C(3), C(9)}, 0, 4),
            (std::vector<size_t>{3}));
}

TEST(TupleIndexTest, PrefixGranularityStopsAtFirstVariable) {
  // Only the prefix before the first variable prunes: a ground column
  // *after* a variable cannot (the variable may take any value, and rows
  // are filed by their first variable position).
  TupleIndex index({0, 1, 2});
  index.Add(Tuple{C(1), V(0), C(2)}, 0);  // level 1, prefix (1)
  index.Add(Tuple{C(1), V(0), C(3)}, 1);  // level 1, prefix (1)
  EXPECT_EQ(index.Candidates(Tuple{C(1), C(7), C(2)}, 0, 2),
            (std::vector<size_t>{0, 1}));
  EXPECT_TRUE(index.Candidates(Tuple{C(2), C(7), C(2)}, 0, 2).empty());
}

TEST(TupleIndexTest, PrefixCandidatesClipToRangeAscending) {
  TupleIndex index({0, 1});
  for (size_t i = 0; i < 8; ++i) {
    // Cycle: ground on (7, 1), prefix-ground on (7), prefix-ground on (8),
    // prefix-less wildcard.
    switch (i % 4) {
      case 0: index.Add(Tuple{C(7), C(1)}, i); break;
      case 1: index.Add(Tuple{C(7), V(0)}, i); break;
      case 2: index.Add(Tuple{C(8), V(0)}, i); break;
      default: index.Add(Tuple{V(1), C(1)}, i); break;
    }
  }
  EXPECT_EQ(index.Candidates(Tuple{C(7), C(1)}, 0, 8),
            (std::vector<size_t>{0, 1, 3, 4, 5, 7}));
  EXPECT_EQ(index.Candidates(Tuple{C(7), C(1)}, 2, 6),
            (std::vector<size_t>{3, 4, 5}));
  EXPECT_EQ(index.Candidates(Tuple{C(8), C(9)}, 0, 8),
            (std::vector<size_t>{2, 3, 6, 7}));
}

TEST(TupleIndexTest, MultiColumnKeys) {
  TupleIndex index({0, 2});
  index.Add(Tuple{C(1), C(9), C(2)}, 0);
  index.Add(Tuple{C(1), C(8), C(2)}, 1);
  index.Add(Tuple{C(1), C(9), C(3)}, 2);
  EXPECT_EQ(index.Probe(Tuple{C(1), C(2)}), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(index.Probe(Tuple{C(1), C(3)}), (std::vector<size_t>{2}));
}

TEST(TupleIndexTest, IsGroundKey) {
  EXPECT_TRUE(TupleIndex::IsGroundKey(Tuple{C(1), C(2)}));
  EXPECT_TRUE(TupleIndex::IsGroundKey(Tuple{}));
  EXPECT_FALSE(TupleIndex::IsGroundKey(Tuple{C(1), V(0)}));
}

TEST(TupleIndexCacheTest, BuildsLazilyAndExtendsOnAppend) {
  std::vector<Tuple> rows = {Tuple{C(1), C(2)}, Tuple{C(1), C(3)}};
  auto tuple_of = [&rows](size_t i) -> const Tuple& { return rows[i]; };

  TupleIndexCache cache;
  const TupleIndex& index = cache.Get({0}, rows.size(), tuple_of);
  EXPECT_EQ(cache.stats().builds, 1u);
  EXPECT_EQ(index.num_rows_indexed(), 2u);

  // Same columns, unchanged rows: reused outright.
  cache.Get({0}, rows.size(), tuple_of);
  EXPECT_EQ(cache.stats().builds, 1u);
  EXPECT_EQ(cache.stats().rows_indexed, 2u);

  // Appended rows extend the same index in place — counted as an extend,
  // never as a (re)build, so build counters cannot double-count a mid-query
  // catch-up.
  rows.push_back(Tuple{C(1), C(4)});
  const TupleIndex& extended = cache.Get({0}, rows.size(), tuple_of);
  EXPECT_EQ(&extended, &index);
  EXPECT_EQ(cache.stats().builds, 1u);
  EXPECT_EQ(cache.stats().extends, 1u);
  EXPECT_EQ(extended.num_rows_indexed(), 3u);
  EXPECT_EQ(extended.Probe(Tuple{C(1)}), (std::vector<size_t>{0, 1, 2}));

  // A no-op Get (nothing appended) is neither a build nor an extend.
  cache.Get({0}, rows.size(), tuple_of);
  EXPECT_EQ(cache.stats().builds, 1u);
  EXPECT_EQ(cache.stats().extends, 1u);

  // A second column subset is a second index (a build, not an extend).
  cache.Get({1}, rows.size(), tuple_of);
  EXPECT_EQ(cache.num_indexes(), 2u);
  EXPECT_EQ(cache.stats().builds, 2u);
  EXPECT_EQ(cache.stats().extends, 1u);
}

TEST(TupleIndexCacheTest, ClearRebuilds) {
  std::vector<Tuple> rows = {Tuple{C(1)}, Tuple{C(2)}};
  auto tuple_of = [&rows](size_t i) -> const Tuple& { return rows[i]; };

  TupleIndexCache cache;
  cache.Get({0}, rows.size(), tuple_of);
  // The owner replaced its rows wholesale, as many as before, and cleared
  // the cache: the index must be rebuilt, not served stale — and the
  // rebuild is one build, not a build plus an extend for the re-indexed
  // rows.
  rows = {Tuple{C(9)}, Tuple{C(8)}};
  cache.Clear();
  EXPECT_EQ(cache.num_indexes(), 0u);
  const TupleIndex& rebuilt = cache.Get({0}, rows.size(), tuple_of);
  EXPECT_EQ(cache.stats().builds, 2u);
  EXPECT_EQ(cache.stats().extends, 0u);
  EXPECT_EQ(rebuilt.num_rows_indexed(), 2u);
  EXPECT_EQ(rebuilt.Probe(Tuple{C(9)}), (std::vector<size_t>{0}));
  EXPECT_TRUE(rebuilt.Probe(Tuple{C(1)}).empty());
}

TEST(TupleIndexCacheTest, ShrinkWithoutClearRebuilds) {
  // An owner that dropped rows without clearing the cache (say, it cleared
  // and partially regrew its storage): extending would hand out stale row
  // ids past the new end, so the cache must rebuild from scratch.
  std::vector<Tuple> rows = {Tuple{C(1)}, Tuple{C(2)}, Tuple{C(3)}};
  auto tuple_of = [&rows](size_t i) -> const Tuple& { return rows[i]; };

  TupleIndexCache cache;
  cache.Get({0}, rows.size(), tuple_of);
  EXPECT_EQ(cache.stats().builds, 1u);

  rows = {Tuple{C(5)}};
  const TupleIndex& rebuilt = cache.Get({0}, rows.size(), tuple_of);
  EXPECT_EQ(cache.stats().builds, 2u);
  EXPECT_EQ(cache.stats().extends, 0u);
  EXPECT_EQ(rebuilt.num_rows_indexed(), 1u);
  EXPECT_EQ(rebuilt.Probe(Tuple{C(5)}), (std::vector<size_t>{0}));
  EXPECT_TRUE(rebuilt.Probe(Tuple{C(2)}).empty());
}

TEST(CTableIndexTest, ReplaceRowsRebuildsIndexes) {
  // ReplaceRows swaps the storage wholesale and clears the cache: indexes
  // must rebuild over the replacement rows.
  CTable t = testutil::MakeTable(2,
      std::vector<Tuple>{{C(1), C(2)}, {C(1), C(3)}});
  bool built = false, extended = false;
  t.Index({0}, &built, &extended);
  ASSERT_TRUE(built);

  std::vector<CRow> replacement;
  replacement.emplace_back(Tuple{C(7), C(8)});
  t.ReplaceRows(std::move(replacement));
  const TupleIndex& index = t.Index({0}, &built, &extended);
  EXPECT_TRUE(built);
  EXPECT_FALSE(extended);
  EXPECT_EQ(index.num_rows_indexed(), 1u);
  EXPECT_EQ(index.Probe(Tuple{C(7)}), (std::vector<size_t>{0}));
  EXPECT_TRUE(index.Probe(Tuple{C(1)}).empty());
}

TEST(CTableIndexTest, BuiltOnceAndReusedAcrossQueries) {
  CTable t = testutil::MakeTable(
      2, std::vector<Tuple>{{C(1), C(2)}, {C(2), C(3)}, {V(0), C(3)}});
  bool built = false;
  const TupleIndex& index = t.Index({0}, &built);
  EXPECT_TRUE(built);
  EXPECT_EQ(index.Probe(Tuple{C(2)}), (std::vector<size_t>{1}));
  EXPECT_EQ(index.wildcard(), (std::vector<size_t>{2}));

  const TupleIndex& again = t.Index({0}, &built);
  EXPECT_FALSE(built);
  EXPECT_EQ(&again, &index);
}

TEST(CTableIndexTest, AppendExtendsInPlace) {
  CTable t = testutil::MakeTable(2, std::vector<Tuple>{{C(1), C(2)}});
  bool built = false;
  bool extended = false;
  t.Index({0}, &built, &extended);
  EXPECT_TRUE(built);
  EXPECT_FALSE(extended);  // a fresh build is not also an extend
  t.AddRow(Tuple{C(1), C(9)});
  const TupleIndex& index = t.Index({0}, &built, &extended);
  EXPECT_FALSE(built);  // caught up incrementally, not rebuilt
  EXPECT_TRUE(extended);
  EXPECT_EQ(index.num_rows_indexed(), 2u);
  EXPECT_EQ(index.Probe(Tuple{C(1)}), (std::vector<size_t>{0, 1}));
  // Asking again with nothing appended reports neither.
  t.Index({0}, &built, &extended);
  EXPECT_FALSE(built);
  EXPECT_FALSE(extended);
}

TEST(CTableIndexTest, CopiesRebuildTheirOwnIndexes) {
  CTable t = testutil::MakeTable(2, std::vector<Tuple>{{C(1), C(2)}});
  t.Index({0});
  CTable copy = t;
  copy.AddRow(Tuple{C(1), C(3)});
  bool built = false;
  const TupleIndex& index = copy.Index({0}, &built);
  EXPECT_TRUE(built);  // the copy starts with no cache of its own
  EXPECT_EQ(index.Probe(Tuple{C(1)}), (std::vector<size_t>{0, 1}));
  // The original's index is untouched by the copy's growth.
  EXPECT_EQ(t.Index({0}).num_rows_indexed(), 1u);
}

TEST(CTableIndexTest, NormalizedTableIndexesItsOwnRows) {
  // Normalized() replaces rows wholesale (substituting forced equalities);
  // its table must index the substituted tuples, not the originals.
  CTable t = testutil::MakeTable(1, std::vector<Tuple>{{V(0)}, {C(2)}});
  t.SetGlobal(Conjunction{Eq(V(0), C(1))});
  t.Index({0});  // heat the original's cache
  CTable normalized = t.Normalized();
  const TupleIndex& index = normalized.Index({0});
  EXPECT_TRUE(index.wildcard().empty());
  EXPECT_EQ(index.Probe(Tuple{C(1)}), (std::vector<size_t>{0}));
}

}  // namespace
}  // namespace pw
