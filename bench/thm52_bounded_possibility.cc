// THM 5.2 — bounded possibility.
//
//   (1) PTIME for fixed k, positive existential q on c-tables, via the
//       Imielinski–Lipski image: polynomial scaling in the c-table size,
//       with the pattern size k as the (fixed) exponent.
//   (2) NP-complete for a fixed first order query on Codd-tables
//       (3DNF non-tautology), and
//   (3) NP-complete for a fixed DATALOG query on Codd-tables
//       (3CNF satisfiability through the Fig. 12 gadget graph).

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "decision/possibility.h"
#include "ilalgebra/ctable_eval.h"
#include "reductions/datalog_gadget.h"
#include "reductions/tautology.h"
#include "solvers/dnf_tautology.h"
#include "solvers/sat.h"
#include "workload/random_gen.h"

namespace pw {
namespace {

// (1) PTIME in the table size for fixed k.
void BM_Thm52_BoundedPosExist_TableSweep(benchmark::State& state) {
  auto rng = benchutil::Rng(61);
  int rows = static_cast<int>(state.range(0));
  RandomCTableOptions options;
  options.arity = 2;
  options.num_rows = rows;
  options.num_constants = 6;
  options.num_variables = rows / 2 + 1;
  options.num_local_atoms = 1;
  options.num_global_atoms = 2;
  options.equality_probability = 0.2;
  CTable t = RandomCTable(options, rng);
  CDatabase db{t};
  RaQuery q = {RaExpr::ProjectCols(
      RaExpr::Select(RaExpr::Rel(0, 2),
                     {SelectAtom::Neq(ColOrConst::Col(0),
                                      ColOrConst::Col(1))}),
      {0, 1})};
  std::vector<LocatedFact> pattern = {{0, {0, 1}}, {0, {2, 3}}};
  for (auto _ : state) {
    auto r = PossBoundedPosExistential(q, db, pattern);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel("Thm 5.2(1): k = 2 fixed, sweep |T|, PTIME");
}
BENCHMARK(BM_Thm52_BoundedPosExist_TableSweep)
    ->RangeMultiplier(4)
    ->Range(16, 4096)
    ->Unit(benchmark::kMicrosecond);

// (1') the exponent: sweep k at fixed table size.
void BM_Thm52_BoundedPosExist_PatternSweep(benchmark::State& state) {
  auto rng = benchutil::Rng(67);
  int k = static_cast<int>(state.range(0));
  RandomCTableOptions options;
  options.arity = 2;
  options.num_rows = 48;
  options.num_constants = 6;
  options.num_variables = 16;
  options.num_local_atoms = 1;
  CTable t = RandomCTable(options, rng);
  CDatabase db{t};
  RaQuery q = {RaExpr::Rel(0, 2)};
  std::uniform_int_distribution<int> c(0, 5);
  std::vector<LocatedFact> pattern;
  for (int i = 0; i < k; ++i) pattern.push_back({0, Fact{c(rng), c(rng)}});
  for (auto _ : state) {
    auto r = PossBoundedPosExistential(q, db, pattern);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel("Thm 5.2(1): sweep k at |T| = 48");
}
BENCHMARK(BM_Thm52_BoundedPosExist_PatternSweep)
    ->DenseRange(1, 4)
    ->Unit(benchmark::kMicrosecond);

// (1'') The engine behind (1), isolated: the Imielinski–Lipski image over
// interned conditions. The self-join product conjoins |T|^2 pairs of local
// conditions drawn from a small pool, so conditions repeat heavily — the
// workload the interner's pairwise And cache and canonicalization are built
// for (and_hit_rate reports how often the cache answers).

CDatabase RepeatedConditionDb(int rows, std::mt19937& rng) {
  RandomCTableOptions options;
  options.arity = 2;
  options.num_rows = rows;
  options.num_constants = 3;   // small pools: local conditions repeat
  options.num_variables = 4;
  options.num_local_atoms = 2;
  options.num_global_atoms = 1;
  options.equality_probability = 0.3;
  return CDatabase{RandomCTable(options, rng)};
}

RaQuery SelfJoinQuery() {
  return {RaExpr::ProjectCols(
      RaExpr::Select(RaExpr::Product(RaExpr::Rel(0, 2), RaExpr::Rel(0, 2)),
                     {SelectAtom::Eq(ColOrConst::Col(1), ColOrConst::Col(2))}),
      {0, 3})};
}

void BM_Thm52_Image_InternedPath(benchmark::State& state) {
  auto rng = benchutil::Rng(79);
  CDatabase db = RepeatedConditionDb(static_cast<int>(state.range(0)), rng);
  RaQuery q = SelfJoinQuery();
  CTableEvalOptions options;  // default: global interner
  // Reset the cumulative counters so and_hit_rate reflects only this
  // range's iterations (the cache contents themselves stay warm, as in a
  // long-running process).
  ConditionInterner::Global().ResetStats();
  for (auto _ : state) {
    auto image = EvalQueryOnCTables(q, db, options);
    benchmark::DoNotOptimize(image);
  }
  const auto& stats = ConditionInterner::Global().stats();
  state.counters["and_hit_rate"] =
      stats.and_calls == 0
          ? 0.0
          : static_cast<double>(stats.and_hits) / stats.and_calls;
  state.SetLabel("IL image, interned + memoized path");
}
BENCHMARK(BM_Thm52_Image_InternedPath)
    ->RangeMultiplier(4)
    ->Range(16, 256)
    ->Unit(benchmark::kMicrosecond);

// (2) NP for a fixed first order query (3DNF non-tautology).
void BM_Thm52_FirstOrderPossibility_NP(benchmark::State& state) {
  auto rng = benchutil::Rng(71 + static_cast<uint32_t>(state.range(0)));
  int clauses = static_cast<int>(state.range(0));
  ClausalFormula dnf = RandomClausalFormula(3, clauses, 3, rng);
  TautologyFoInstance inst = TautologyToFirstOrderCertainty(dnf);
  bool expected = !IsDnfTautology(dnf);
  bool got = expected;
  for (auto _ : state) {
    got = PossibilitySearch(inst.possible_view, inst.database, inst.pattern);
    benchmark::DoNotOptimize(got);
  }
  state.counters["agrees_with_dnf_solver"] = (got == expected) ? 1 : 0;
  state.SetLabel("Thm 5.2(2): first order view, NP-complete");
}
BENCHMARK(BM_Thm52_FirstOrderPossibility_NP)
    ->DenseRange(1, 2)
    ->Unit(benchmark::kMillisecond);

// (3) NP for a fixed DATALOG query (gadget graph of Fig. 12).
void BM_Thm52_DatalogPossibility_NP(benchmark::State& state) {
  auto rng = benchutil::Rng(73 + static_cast<uint32_t>(state.range(0)));
  int vars = static_cast<int>(state.range(0));
  ClausalFormula cnf = RandomClausalFormula(vars, vars + 1, 3, rng);
  DatalogPossibilityInstance inst = SatToDatalogPossibility(cnf);
  bool expected = IsSatisfiable(cnf);
  bool got = expected;
  for (auto _ : state) {
    got = PossibilitySearch(inst.view, inst.database, inst.pattern);
    benchmark::DoNotOptimize(got);
  }
  state.counters["agrees_with_sat_solver"] = (got == expected) ? 1 : 0;
  state.SetLabel("Thm 5.2(3): DATALOG view, NP-complete");
}
BENCHMARK(BM_Thm52_DatalogPossibility_NP)
    ->DenseRange(2, 4)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pw

int main(int argc, char** argv) {
  pw::benchutil::Header(
      "THM 5.2: bounded possibility POSS(k, q)",
      "Claim: PTIME for positive existential q on c-tables for fixed k "
      "(c-tables are a representation system, [10]); NP-complete already "
      "for POSS(1, q) when q is first order or DATALOG, on Codd-tables.");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
