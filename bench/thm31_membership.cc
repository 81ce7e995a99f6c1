// THM 3.1 — the membership problem.
//
//   (1) PTIME on Codd-tables via bipartite matching, 16 to 4096 rows. The
//       table is a Codd-table by construction (a fresh variable per
//       variable cell), so every size times the matching; a cell whose
//       front end declines or misses the planted member errors out.
//   (2,3) NP-complete on e-tables / i-tables: the 3-colorability reduction;
//       exact search scales exponentially on hard (non-colorable) inputs.
//   (4) NP-complete for a fixed positive existential view of tables.
// Every reduction cell cross-checks against the brute-force coloring solver
// and reports agreement as a counter.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "decision/membership.h"
#include "reductions/colorability.h"
#include "solvers/graph_color.h"
#include "workload/random_gen.h"

namespace pw {
namespace {

// (1) PTIME: random Codd-table and a random world of it.
void BM_Thm31_CoddMembership_PTIME(benchmark::State& state) {
  auto rng = benchutil::Rng(7);
  int rows = static_cast<int>(state.range(0));
  CDatabase db{benchutil::RandomCoddTable(3, rows, 8, rng)};
  Instance member({benchutil::RandomWorldOf(db.table(0), 8, rng)});
  if (MembershipCoddTables(db, member) != true) {
    state.SkipWithError("the matching front end declined or missed a member");
    return;
  }
  for (auto _ : state) {
    auto r = MembershipCoddTables(db, member);
    benchmark::DoNotOptimize(r);
  }
  state.counters["is_member"] = 1;
  state.SetLabel("Thm 3.1(1): matching, PTIME");
}
BENCHMARK(BM_Thm31_CoddMembership_PTIME)
    ->RangeMultiplier(4)
    ->Range(16, 4096)
    ->Unit(benchmark::kMicrosecond);

// (2) NP on e-tables: 3-colorability reduction, planted-colorable ("yes")
// and random ("mixed") graphs.
void BM_Thm31_ETableMembership_NP(benchmark::State& state) {
  auto rng = benchutil::Rng(11 + static_cast<uint32_t>(state.range(0)));
  int nodes = static_cast<int>(state.range(0));
  Graph g = RandomGraph(nodes, 0.5, rng);
  MembershipInstance inst = ColorabilityToETableMembership(g);
  bool expected = IsThreeColorable(g);
  bool got = expected;
  for (auto _ : state) {
    got = MembershipSearch(inst.database, inst.instance);
    benchmark::DoNotOptimize(got);
  }
  state.counters["agrees_with_coloring_solver"] = (got == expected) ? 1 : 0;
  state.SetLabel("Thm 3.1(2): e-table, NP-complete");
}
BENCHMARK(BM_Thm31_ETableMembership_NP)
    ->DenseRange(4, 12, 2)
    ->Unit(benchmark::kMicrosecond);

// (3) NP on i-tables: same reduction family.
void BM_Thm31_ITableMembership_NP(benchmark::State& state) {
  auto rng = benchutil::Rng(13 + static_cast<uint32_t>(state.range(0)));
  int nodes = static_cast<int>(state.range(0));
  Graph g = RandomGraph(nodes, 0.5, rng);
  MembershipInstance inst = ColorabilityToITableMembership(g);
  bool expected = IsThreeColorable(g);
  bool got = expected;
  for (auto _ : state) {
    got = MembershipSearch(inst.database, inst.instance);
    benchmark::DoNotOptimize(got);
  }
  state.counters["agrees_with_coloring_solver"] = (got == expected) ? 1 : 0;
  state.SetLabel("Thm 3.1(3): i-table, NP-complete");
}
BENCHMARK(BM_Thm31_ITableMembership_NP)
    ->DenseRange(4, 12, 2)
    ->Unit(benchmark::kMicrosecond);

// (4) NP for a fixed positive existential view of tables. Colorable
// instances only (refutation explodes; that is the lower bound's point).
void BM_Thm31_ViewMembership_NP(benchmark::State& state) {
  auto rng = benchutil::Rng(17 + static_cast<uint32_t>(state.range(0)));
  int nodes = static_cast<int>(state.range(0));
  Graph g = RandomThreeColorableGraph(nodes, 0.6, rng);
  if (g.num_edges() == 0) g.AddEdge(0, 1);
  MembershipInstance inst = ColorabilityToViewMembership(g);
  bool expected = IsThreeColorable(g);
  bool got = expected;
  for (auto _ : state) {
    got = MembershipInView(inst.view, inst.database, inst.instance);
    benchmark::DoNotOptimize(got);
  }
  state.counters["agrees_with_coloring_solver"] = (got == expected) ? 1 : 0;
  state.SetLabel("Thm 3.1(4): pos. existential view, NP-complete");
}
BENCHMARK(BM_Thm31_ViewMembership_NP)
    ->DenseRange(3, 7)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pw

int main(int argc, char** argv) {
  pw::benchutil::Header(
      "THM 3.1: the membership problem MEMB",
      "Claim: PTIME for Codd-tables (bipartite matching); NP-complete for "
      "e-tables, i-tables, and positive existential views of tables "
      "(3-colorability). PTIME series scales polynomially to 4096 rows; the "
      "NP series' exact search grows exponentially in the graph size.");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
