// EXTENSION — hash joins over the shared tuple-index layer.
//
// The Imielinski–Lipski algebra spends its time in joins: Theorem 5.2(1)'s
// PTIME bound hides a |T1| x |T2| pair loop per product. This bench
// measures the planned join execution (ilalgebra/join_plan.h,
// tables/tuple_index.h, ilalgebra/ctable_eval.cc) as ungated smoke runs:
//
//   *_HashJoin     a binary equi-join, on ground rows and on null-laden rows
//                  (nulls at a join column land in the index's per-column
//                  wildcard levels and prefix-matching probes must revisit
//                  them);
//   *_PlannedJoin  the n-ary planner (greedy reordering + projection sink
//                  over row-id combos) on a 4-way chain join whose written
//                  order is pessimal — the selective filter sits on the
//                  LAST relation, so a left-deep evaluation would
//                  materialize large intermediates the planner never
//                  builds.
//
// Build sides are relation refs, so across iterations the probes hit each
// CTable's cached index — the steady-state of repeated queries over a live
// table.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_util.h"
#include "ilalgebra/ctable_eval.h"
#include "tables/ctable.h"

namespace pw {
namespace {

/// L = chain edges (i, i+1), R = successor edges (i+1, i+2); join L.1 = R.0.
/// Every `null_gap`-th R row carries a fresh null at the join column.
CDatabase JoinInput(int n, int null_gap) {
  CTable l(2);
  CTable r(2);
  for (int i = 0; i < n; ++i) {
    l.AddRow(Tuple{C(i), C(i + 1)});
    if (null_gap > 0 && i % null_gap == null_gap - 1) {
      r.AddRow(Tuple{V(i), C(i + 2)});
    } else {
      r.AddRow(Tuple{C(i + 1), C(i + 2)});
    }
  }
  return CDatabase(std::vector<CTable>{std::move(l), std::move(r)});
}

void RunJoin(benchmark::State& state, const CDatabase& db, const char* label) {
  RaExpr q = RaExpr::Join(RaExpr::Rel(0, 2), RaExpr::Rel(1, 2), {{1, 0}});
  CTableEvalStats stats;
  size_t rows = 0;
  for (auto _ : state) {
    stats = {};
    CTableEvalOptions options;
    options.stats = &stats;
    auto out = EvalOnCTables(q, db, options);
    rows = out->num_rows();
    benchmark::DoNotOptimize(out);
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["probes"] = static_cast<double>(stats.index_probes);
  state.counters["hits"] = static_cast<double>(stats.index_hits);
  state.counters["join_pairs"] = static_cast<double>(stats.join_pairs);
  state.counters["scan_pairs"] = static_cast<double>(stats.scan_pairs);
  state.SetLabel(label);
}

void BM_EquiJoin_Ground_Interned_HashJoin(benchmark::State& state) {
  CDatabase db = JoinInput(static_cast<int>(state.range(0)), /*null_gap=*/0);
  RunJoin(state, db, "ground equi-join, interned hash join");
}
BENCHMARK(BM_EquiJoin_Ground_Interned_HashJoin)
    ->RangeMultiplier(2)
    ->Range(64, 512)
    ->Unit(benchmark::kMicrosecond);

// Nulls at the build side's join column: every probe revisits the wildcard
// rows (their matches carry equality conditions), so the index prunes less
// and the interner carries more distinct conditions.
void BM_EquiJoin_Nulls_Interned_HashJoin(benchmark::State& state) {
  CDatabase db = JoinInput(static_cast<int>(state.range(0)), /*null_gap=*/16);
  RunJoin(state, db, "null-laden equi-join, interned hash join");
}
BENCHMARK(BM_EquiJoin_Nulls_Interned_HashJoin)
    ->RangeMultiplier(2)
    ->Range(64, 256)
    ->Unit(benchmark::kMicrosecond);

// --- N-ary planner -----------------------------------------------------------

/// 4-way chain join a.1 = b.0, b.1 = c.0, c.1 = d.0 over fan-out-8 edges
/// (each join value is shared by n/m = 8 rows per side), with the selective
/// filter d.1 = const on the LAST relation in written order. Executed
/// left-deep as written, Join(Join(Join(a,b),c),d) would materialize ~8n
/// rows for a |><| b and ~64n for (a |><| b) |><| c before meeting the
/// 1-row filtered d. The n-ary planner pushes the filter into d, seeds the
/// greedy order there, and walks the chain backwards over row-id
/// combinations — a few hundred probes, no intermediate materialization.
CDatabase Chain4Input(int n) {
  int m = std::max(1, n / 8);
  CTable a(2);
  CTable b(2);
  CTable c(2);
  CTable d(2);
  for (int i = 0; i < n; ++i) {
    int v = i % m;
    a.AddRow(Tuple{C(100000 + i), C(v)});
    b.AddRow(Tuple{C(v), C(m + v)});
    c.AddRow(Tuple{C(m + v), C(2 * m + v)});
    d.AddRow(Tuple{C(2 * m + v), C(3 * m + i)});
  }
  return CDatabase(std::vector<CTable>{std::move(a), std::move(b),
                                       std::move(c), std::move(d)});
}

RaExpr Chain4Query(int n) {
  int m = std::max(1, n / 8);
  RaExpr j = RaExpr::Join(
      RaExpr::Join(
          RaExpr::Join(RaExpr::Rel(0, 2), RaExpr::Rel(1, 2), {{1, 0}}),
          RaExpr::Rel(2, 2), {{3, 0}}),
      RaExpr::Rel(3, 2), {{5, 0}});
  return RaExpr::Select(
      j, {SelectAtom::Eq(ColOrConst::Col(7), ColOrConst::Const(3 * m))});
}

void BM_Chain4_SelectiveTail_Interned_PlannedJoin(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  CDatabase db = Chain4Input(n);
  RaExpr q = Chain4Query(n);
  CTableEvalStats stats;
  size_t rows = 0;
  for (auto _ : state) {
    stats = {};
    CTableEvalOptions options;
    options.stats = &stats;
    auto out = EvalOnCTables(q, db, options);
    rows = out->num_rows();
    benchmark::DoNotOptimize(out);
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["plans"] = static_cast<double>(stats.planned_joins);
  state.counters["steps"] = static_cast<double>(stats.hash_joins);
  state.counters["probes"] = static_cast<double>(stats.index_probes);
  state.counters["join_pairs"] = static_cast<double>(stats.join_pairs);
  state.counters["sunk"] = static_cast<double>(stats.projections_sunk);
  state.SetLabel("4-way chain, selective tail, interned n-ary planner");
}
BENCHMARK(BM_Chain4_SelectiveTail_Interned_PlannedJoin)
    ->RangeMultiplier(2)
    ->Range(64, 512)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace pw

int main(int argc, char** argv) {
  pw::benchutil::Header(
      "EXTENSION: planned joins on c-tables via the tuple-index layer",
      "Equality selections over products executed as planned hash joins "
      "(conjunct pushdown, greedy n-ary ordering, projection sink), on "
      "ground and null-laden wide joins and a 4-way chain join.");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
