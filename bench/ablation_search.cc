// ABLATION — design choices inside the exact decision procedures.
//
//   (a) MembershipSearch (its row and fact clauses on ChoiceCnf, the
//       decision layer's one search, condition/backend.h) on 3-colorability
//       e-table membership (Theorem 3.1(2)) instances — an ungated smoke run.
//   (b) DATALOG evaluation: semi-naive versus naive fixpoint.
//   (c) Bounded possibility: the Imielinski–Lipski image algorithm
//       (Theorem 5.2(1)) versus raw valuation enumeration.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "datalog/eval.h"
#include "decision/membership.h"
#include "decision/possibility.h"
#include "reductions/colorability.h"
#include "tables/world_enum.h"
#include "workload/random_gen.h"

namespace pw {
namespace {

MembershipInstance ColorInstance(int nodes, uint32_t seed) {
  auto rng = benchutil::Rng(seed);
  Graph g = RandomThreeColorableGraph(nodes, 0.5, rng);
  if (g.num_edges() == 0) g.AddEdge(0, 1);
  return ColorabilityToETableMembership(g);
}

void BM_Ablation_Membership(benchmark::State& state) {
  int nodes = static_cast<int>(state.range(0));
  MembershipInstance inst = ColorInstance(nodes, 7 + nodes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MembershipSearch(inst.database, inst.instance));
  }
}
BENCHMARK(BM_Ablation_Membership)
    ->Arg(6)
    ->Arg(8)
    ->Arg(10)
    ->Unit(benchmark::kMicrosecond);

void BM_Ablation_DatalogEval(benchmark::State& state) {
  auto rng = benchutil::Rng(19);
  int facts = static_cast<int>(state.range(0));
  bool seminaive = state.range(1) == 1;
  DatalogProgram tc({2, 2}, 1);
  DatalogRule base;
  base.head = {1, Tuple{V(0), V(1)}};
  base.body = {{0, Tuple{V(0), V(1)}}};
  tc.AddRule(base);
  DatalogRule step;
  step.head = {1, Tuple{V(0), V(2)}};
  step.body = {{1, Tuple{V(0), V(1)}}, {0, Tuple{V(1), V(2)}}};
  tc.AddRule(step);
  Instance edb({RandomRelation(2, facts, facts / 2 + 2, rng)});
  for (auto _ : state) {
    Instance out = seminaive ? SemiNaiveEval(tc, edb) : NaiveEval(tc, edb);
    benchmark::DoNotOptimize(out);
  }
  state.SetLabel(seminaive ? "semi-naive" : "naive");
}
BENCHMARK(BM_Ablation_DatalogEval)
    ->ArgsProduct({{32, 128, 512}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

void BM_Ablation_BoundedPossibility(benchmark::State& state) {
  auto rng = benchutil::Rng(23);
  int rows = static_cast<int>(state.range(0));
  bool use_image = state.range(1) == 1;
  RandomCTableOptions options;
  options.arity = 2;
  options.num_rows = rows;
  options.num_constants = 4;
  options.num_variables = rows / 3 + 1;
  options.num_local_atoms = 1;
  CTable t = RandomCTable(options, rng);
  CDatabase db{t};
  RaQuery id = {RaExpr::Rel(0, 2)};
  std::vector<LocatedFact> pattern = {{0, {0, 1}}, {0, {2, 3}}};
  for (auto _ : state) {
    if (use_image) {
      benchmark::DoNotOptimize(PossBoundedPosExistential(id, db, pattern));
    } else {
      benchmark::DoNotOptimize(
          PossibilitySearch(View::Identity(), db, pattern));
    }
  }
  state.SetLabel(use_image ? "IL image (Thm 5.2(1))" : "world enumeration");
}
BENCHMARK(BM_Ablation_BoundedPossibility)
    ->ArgsProduct({{4, 8, 12}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace pw

int main(int argc, char** argv) {
  pw::benchutil::Header(
      "ABLATION: algorithmic design choices",
      "The membership search on 3-colorability instances; semi-naive vs "
      "naive DATALOG; the IL-image bounded possibility algorithm vs raw "
      "world enumeration.");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
