// EXTENSION — conditioned DATALOG on c-tables.
//
// The paper observes (Section 5, discussion of Theorem 5.2) that positive
// existential views embed into c-tables without exponential growth, while
// "this growth may be unavoidable for first order and DATALOG queries".
// This bench measures exactly that: the conditioned transitive-closure
// fixpoint on null-laden chains, reporting rows derived, subsumption and
// duplicate-suppression work.
//
// The *_SemiNaive, *_PointQuery_Magic and *_StratumSched benchmarks are
// ungated smoke runs of the fixpoint, the magic-set point query and the
// stratum schedule. The SharedNullChain workload repeats the same few
// conditions across rows, which is where interning (memoized And, duplicate
// ids) pays off most. Two pairs are gated in CI on the JSON output
// (tools/check_bench_regression.py): *_Incremental / *_Recompute measures
// incremental view maintenance — an update stream folded into a maintained
// MaterializedView against rerunning the fixpoint from scratch after every
// update — and *_DDBackend / *_Antichain the condition backends on the
// condition-diversity sweep.

#include <benchmark/benchmark.h>

#include <optional>

#include "bench_util.h"
#include "datalog/eval.h"
#include "datalog/ivm.h"
#include "ilalgebra/datalog_ctable.h"
#include "tables/ctable.h"
#include "tables/updates.h"

namespace pw {
namespace {

DatalogProgram TransitiveClosure() {
  DatalogProgram p({2, 2}, 1);
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

/// Chain 0 -> 1 -> ... -> n where every `gap`-th edge goes through a null.
/// With `shared` the same null is reused for every gap (repeated
/// conditions); otherwise each gap gets a fresh null (condition diversity).
CDatabase NullChain(int n, int gap, bool shared = false) {
  CTable t(2);
  for (int i = 0; i < n; ++i) {
    if (gap > 0 && i % gap == gap - 1) {
      VarId null = shared ? 0 : i;
      t.AddRow(Tuple{C(i), V(null)});
      t.AddRow(Tuple{V(null), C(i + 1)});
    } else {
      t.AddRow(Tuple{C(i), C(i + 1)});
    }
  }
  return CDatabase{t};
}

void RunFixpoint(benchmark::State& state, const CDatabase& db,
                 const char* label) {
  DatalogProgram tc = TransitiveClosure();
  ConditionedFixpointStats stats;
  for (auto _ : state) {
    CDatabase out = DatalogOnCTables(tc, db, &stats);
    benchmark::DoNotOptimize(out);
  }
  state.counters["rows"] = static_cast<double>(stats.derived_rows);
  state.counters["subsumed"] = static_cast<double>(stats.subsumed_rows);
  state.counters["dups"] = static_cast<double>(stats.duplicate_rows);
  state.counters["rounds"] = static_cast<double>(stats.rounds);
  state.counters["probes"] = static_cast<double>(stats.index_probes);
  state.counters["hits"] = static_cast<double>(stats.index_hits);
  state.SetLabel(label);
}

void BM_ConditionedTC_GroundChain_SemiNaive(benchmark::State& state) {
  CDatabase db = NullChain(static_cast<int>(state.range(0)), /*gap=*/0);
  RunFixpoint(state, db, "ground chain, semi-naive interned");
}
BENCHMARK(BM_ConditionedTC_GroundChain_SemiNaive)
    ->DenseRange(8, 32, 8)
    ->Unit(benchmark::kMicrosecond);

// Lineage growth is exponential in the number of nulls (every pair of null
// endpoints yields conditional cross-paths); this bench stays at the smoke
// sizes. The un-capped diversity sweep lives in the
// *_NullChainDiversity_DDBackend / _Antichain pair below, where the
// decision-diagram backend keeps the large sizes tractable.
void BM_ConditionedTC_NullChain_SemiNaive(benchmark::State& state) {
  CDatabase db = NullChain(static_cast<int>(state.range(0)), /*gap=*/3);
  RunFixpoint(state, db, "null chain, semi-naive interned");
}
BENCHMARK(BM_ConditionedTC_NullChain_SemiNaive)
    ->DenseRange(6, 9, 3)
    ->Unit(benchmark::kMicrosecond);

// Demand-driven (magic-set) point query: who does node 0 reach? The
// magic-set rewrite (DatalogQueryOnCTables) derives only the O(n)
// demand-reachable transitive-closure facts, not all O(n^2) of them.
void BM_ConditionedTC_PointQuery_Magic(benchmark::State& state) {
  CDatabase db = NullChain(static_cast<int>(state.range(0)), /*gap=*/0);
  DatalogProgram tc = TransitiveClosure();
  std::vector<std::optional<ConstId>> bindings{ConstId{0}, std::nullopt};
  ConditionedFixpointStats stats;
  for (auto _ : state) {
    CTable out = DatalogQueryOnCTables(tc, db, /*goal=*/1, bindings, &stats);
    benchmark::DoNotOptimize(out);
  }
  state.counters["rows"] = static_cast<double>(stats.derived_rows);
  state.counters["rounds"] = static_cast<double>(stats.rounds);
  state.counters["magic_facts"] = static_cast<double>(stats.magic_facts);
  state.counters["rules_adorned"] = static_cast<double>(stats.rules_adorned);
  state.counters["demand_pruned"] = static_cast<double>(stats.demand_pruned);
  state.SetLabel("tc(0, ?) on a ground chain, magic-set demand evaluation");
}
BENCHMARK(BM_ConditionedTC_PointQuery_Magic)
    ->DenseRange(64, 256, 64)
    ->Unit(benchmark::kMicrosecond);

// Live updates: a stream of edge insertions extending the chain, with a
// delete + reinsert of an existing edge every 24th step. The incremental
// side maintains one MaterializedView (datalog/ivm.h): each insertion seeds
// the converged semi-naive state and resumes, so the cost tracks the
// insertion's derivation cone; each deletion over-deletes and re-derives
// its cone. The recompute side applies the same
// updates to the base table and reruns the full fixpoint from scratch after
// every one. Both sides pay the initial materialization inside the timed
// region. Paired as *_Incremental / *_Recompute for the CI gate — the
// maintained view must stay well under the 2x budget (expected >= 5x faster
// at the smoke sizes).
void RunUpdateStream(benchmark::State& state, bool incremental,
                     const char* label) {
  const int n = static_cast<int>(state.range(0));
  DatalogProgram tc = TransitiveClosure();
  size_t derived = 0;
  size_t rebuilds = 0;
  for (auto _ : state) {
    CDatabase db = NullChain(n, /*gap=*/0);
    if (incremental) {
      MaterializedView view(tc, db);
      for (int u = 0; u < n; ++u) {
        if (u % 24 == 23) {
          Fact edge{u, u + 1};
          view.Delete(0, edge);
          view.Insert(0, edge);
        } else {
          view.Insert(0, {n + u, n + u + 1});
        }
      }
      benchmark::DoNotOptimize(view);
      IvmStats stats = view.stats();
      derived = stats.fixpoint.derived_rows;
      rebuilds = stats.cone_rebuilds;
    } else {
      CTable base = db.table(0);
      derived = 0;
      for (int u = 0; u < n; ++u) {
        if (u % 24 == 23) {
          Fact edge{u, u + 1};
          DeleteFactInPlace(base, edge);
          InsertFactInPlace(base, edge);
        } else {
          InsertFactInPlace(base, {n + u, n + u + 1});
        }
        ConditionedFixpointStats stats;
        CDatabase out = DatalogOnCTables(tc, CDatabase{base}, &stats);
        benchmark::DoNotOptimize(out);
        derived += stats.derived_rows;
      }
    }
  }
  state.counters["rows"] = static_cast<double>(derived);
  if (incremental) {
    state.counters["rebuilds"] = static_cast<double>(rebuilds);
  }
  state.SetLabel(label);
}

void BM_ConditionedTC_UpdateStream_Incremental(benchmark::State& state) {
  RunUpdateStream(state, /*incremental=*/true,
                  "edge-update stream, maintained view (IVM)");
}
BENCHMARK(BM_ConditionedTC_UpdateStream_Incremental)
    ->DenseRange(32, 64, 32)
    ->Unit(benchmark::kMicrosecond);

void BM_ConditionedTC_UpdateStream_Recompute(benchmark::State& state) {
  RunUpdateStream(state, /*incremental=*/false,
                  "edge-update stream, full recompute per update");
}
BENCHMARK(BM_ConditionedTC_UpdateStream_Recompute)
    ->DenseRange(32, 64, 32)
    ->Unit(benchmark::kMicrosecond);

// The antichain blowup, head-on: with a fresh null every gap, the lineage of
// a far-reachable tuple is a disjunction over exponentially many equality
// patterns, and the conjunctive backend keeps each disjunct as its own
// antichain row. The decision-diagram backend keeps ONE row per tuple whose
// condition is a hash-consed diagram, so And/Or stay polynomial in diagram
// size and the sweep runs un-capped past the sizes the *_NullChain bench
// above must stop at. Each iteration evaluates against a fresh private
// interner (and so the interner's fresh diagram manager) and a freshly built
// base table, so both sides start cold — the comparison is backend vs
// backend, not warm memo tables or a warm diagram manager vs a cold one. Paired as *_DDBackend / *_Antichain for the CI gate with a
// tightened 1.2x budget — DD must never lose the low-diversity sizes by
// more than 1.2x, and must beat the antichain by >= 5x at the largest size
// (tools/check_bench_regression.py enforces both).
void RunDiversitySweep(benchmark::State& state, ConditionBackendKind backend,
                       const char* label) {
  const int n = static_cast<int>(state.range(0));
  DatalogProgram tc = TransitiveClosure();
  ConditionedFixpointStats stats;
  for (auto _ : state) {
    ConditionInterner interner;
    CDatabase db = NullChain(n, /*gap=*/3);
    DatalogCTableOptions options;
    options.interner = &interner;
    options.condition_backend = backend;
    CDatabase out = DatalogOnCTables(tc, db, &stats, options);
    benchmark::DoNotOptimize(out);
  }
  state.counters["rows"] = static_cast<double>(stats.derived_rows);
  state.counters["subsumed"] = static_cast<double>(stats.subsumed_rows);
  state.counters["rounds"] = static_cast<double>(stats.rounds);
  state.SetLabel(label);
}

void BM_ConditionedTC_NullChainDiversity_DDBackend(benchmark::State& state) {
  RunDiversitySweep(state, ConditionBackendKind::kDecisionDiagrams,
                    "null chain, semi-naive, decision diagrams");
}
BENCHMARK(BM_ConditionedTC_NullChainDiversity_DDBackend)
    ->DenseRange(6, 12, 3)
    ->Unit(benchmark::kMicrosecond);

void BM_ConditionedTC_NullChainDiversity_Antichain(benchmark::State& state) {
  RunDiversitySweep(state, ConditionBackendKind::kConjunctions,
                    "null chain, semi-naive, antichain rows");
}
BENCHMARK(BM_ConditionedTC_NullChainDiversity_Antichain)
    ->DenseRange(6, 12, 3)
    ->Unit(benchmark::kMicrosecond);

// Stratum scheduling on a layered multi-SCC program: transitive closure at
// the bottom (the only recursive SCC), then a cascade of nonrecursive join
// layers, plus a dead rule guarded by a rule-less predicate. The stratum
// schedule evaluates SCCs in topological order — delta rounds confined to
// the bottom SCC, one pass per nonrecursive layer, the dead rule skipped
// outright.
DatalogProgram LayeredCascade() {
  constexpr int kLayers = 6;
  // Predicates: 0 = edge (EDB), 1 = tc (recursive), 2..1+kLayers the
  // nonrecursive cascade, 2+kLayers = barren (no rules; bodies naming it
  // are dead).
  const int barren = 2 + kLayers;
  DatalogProgram p(std::vector<int>(static_cast<size_t>(barren) + 1, 2), 1);
  DatalogRule base;
  base.head = {1, Tuple{V(100), V(101)}};
  base.body = {{0, Tuple{V(100), V(101)}}};
  p.AddRule(base);
  DatalogRule step;
  step.head = {1, Tuple{V(100), V(102)}};
  step.body = {{1, Tuple{V(100), V(101)}}, {0, Tuple{V(101), V(102)}}};
  p.AddRule(step);
  for (int l = 0; l < kLayers; ++l) {
    const int head = 2 + l;
    DatalogRule copy;
    copy.head = {head, Tuple{V(100), V(101)}};
    copy.body = {{head - 1, Tuple{V(100), V(101)}}};
    p.AddRule(copy);
    DatalogRule join;
    join.head = {head, Tuple{V(100), V(102)}};
    join.body = {{head - 1, Tuple{V(100), V(101)}},
                 {0, Tuple{V(101), V(102)}}};
    p.AddRule(join);
  }
  DatalogRule dead;
  dead.head = {2 + kLayers - 1, Tuple{V(100), V(101)}};
  dead.body = {{1, Tuple{V(100), V(101)}}, {barren, Tuple{V(100), V(101)}}};
  p.AddRule(dead);
  return p;
}

void BM_ConditionedLayers_Cascade_StratumSched(benchmark::State& state) {
  CDatabase db = NullChain(static_cast<int>(state.range(0)), /*gap=*/0);
  DatalogProgram cascade = LayeredCascade();
  ConditionedFixpointStats stats;
  for (auto _ : state) {
    CDatabase out = DatalogOnCTables(cascade, db, &stats);
    benchmark::DoNotOptimize(out);
  }
  state.counters["rows"] = static_cast<double>(stats.derived_rows);
  state.counters["rounds"] = static_cast<double>(stats.rounds);
  state.counters["strata"] = static_cast<double>(stats.strata);
  state.counters["dead_skipped"] =
      static_cast<double>(stats.dead_rules_skipped);
  state.SetLabel("layered cascade, SCC-scheduled semi-naive");
}
BENCHMARK(BM_ConditionedLayers_Cascade_StratumSched)
    ->DenseRange(8, 24, 8)
    ->Unit(benchmark::kMicrosecond);

// One shared null across every gap: the same handful of conditions recurs in
// every derivation, so the memoized And/Implies caches and the (tuple, id)
// duplicate check carry the load.
void BM_ConditionedTC_SharedNullChain_SemiNaive(benchmark::State& state) {
  CDatabase db =
      NullChain(static_cast<int>(state.range(0)), /*gap=*/3, /*shared=*/true);
  RunFixpoint(state, db, "shared-null chain, semi-naive interned");
}
BENCHMARK(BM_ConditionedTC_SharedNullChain_SemiNaive)
    ->DenseRange(8, 24, 8)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace pw

int main(int argc, char** argv) {
  pw::benchutil::Header(
      "EXTENSION: conditioned DATALOG fixpoint on c-tables",
      "The paper: c-table images of DATALOG queries exist but 'this growth "
      "may be unavoidable'. Semi-naive interned evaluation on ground, "
      "null-laden, and shared-null chains under conditioned transitive "
      "closure, plus point queries, view maintenance and the condition "
      "backends.");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
