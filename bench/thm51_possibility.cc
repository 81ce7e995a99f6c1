// THM 5.1 — unbounded possibility.
//
//   (1) PTIME on Codd-tables via bipartite matching, 16 to 4096 rows. The
//       table is a Codd-table by construction and the pattern is half of
//       one of its worlds; a cell whose front end declines or finds the
//       pattern impossible errors out.
//   (2) NP-complete on e-tables, (3) on i-tables: the 3CNF-satisfiability
//       reductions, cross-checked against DPLL.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "decision/possibility.h"
#include "reductions/satisfiability.h"
#include "solvers/sat.h"
#include "workload/random_gen.h"

namespace pw {
namespace {

// (1) PTIME.
void BM_Thm51_CoddPossibility_PTIME(benchmark::State& state) {
  auto rng = benchutil::Rng(51);
  int rows = static_cast<int>(state.range(0));
  CDatabase db{benchutil::RandomCoddTable(2, rows, 8, rng)};
  Relation pattern(2);
  bool keep = true;
  for (const Fact& f : benchutil::RandomWorldOf(db.table(0), 8, rng)) {
    if (keep) pattern.Insert(f);
    keep = !keep;
  }
  Instance possible({pattern});
  if (PossUnboundedCoddTables(db, possible) != true) {
    state.SkipWithError("the matching front end declined or missed a world");
    return;
  }
  for (auto _ : state) {
    auto r = PossUnboundedCoddTables(db, possible);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel("Thm 5.1(1): matching, PTIME");
}
BENCHMARK(BM_Thm51_CoddPossibility_PTIME)
    ->RangeMultiplier(4)
    ->Range(16, 4096)
    ->Unit(benchmark::kMicrosecond);

// (2) NP on e-tables: 3CNF near the satisfiability threshold.
void BM_Thm51_ETablePossibility_NP(benchmark::State& state) {
  auto rng = benchutil::Rng(53 + static_cast<uint32_t>(state.range(0)));
  int vars = static_cast<int>(state.range(0));
  ClausalFormula cnf = RandomClausalFormula(vars, 4 * vars, 3, rng);
  UnboundedPossibilityInstance inst = SatToETablePossibility(cnf);
  bool expected = IsSatisfiable(cnf);
  bool got = expected;
  for (auto _ : state) {
    got = PossibilityUnbounded(View::Identity(), inst.database, inst.pattern);
    benchmark::DoNotOptimize(got);
  }
  state.counters["agrees_with_sat_solver"] = (got == expected) ? 1 : 0;
  state.SetLabel("Thm 5.1(2): e-table, NP-complete");
}
BENCHMARK(BM_Thm51_ETablePossibility_NP)
    ->DenseRange(3, 9, 2)
    ->Unit(benchmark::kMicrosecond);

// (3) NP on i-tables.
void BM_Thm51_ITablePossibility_NP(benchmark::State& state) {
  auto rng = benchutil::Rng(59 + static_cast<uint32_t>(state.range(0)));
  int vars = static_cast<int>(state.range(0));
  ClausalFormula cnf = RandomClausalFormula(vars, 4 * vars, 3, rng);
  UnboundedPossibilityInstance inst = SatToITablePossibility(cnf);
  bool expected = IsSatisfiable(cnf);
  bool got = expected;
  for (auto _ : state) {
    got = PossibilityUnbounded(View::Identity(), inst.database, inst.pattern);
    benchmark::DoNotOptimize(got);
  }
  state.counters["agrees_with_sat_solver"] = (got == expected) ? 1 : 0;
  state.SetLabel("Thm 5.1(3): i-table, NP-complete");
}
BENCHMARK(BM_Thm51_ITablePossibility_NP)
    ->DenseRange(3, 9, 2)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace pw

int main(int argc, char** argv) {
  pw::benchutil::Header(
      "THM 5.1: unbounded possibility POSS(*, -)",
      "Claim: PTIME on Codd-tables (matching saturating the pattern); "
      "NP-complete already for a single e-table or i-table "
      "(3CNF satisfiability).");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
