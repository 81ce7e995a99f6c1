// THM 5.3 — certainty.
//
//   (1) PTIME for DATALOG queries on g-tables: the matrix is evaluated as
//       if complete ([10, 17]); scales to thousands of rows with recursion.
//   (2) coNP-complete for a fixed first order query on a Codd-table
//       (3DNF tautology).
//   (3) coNP-complete already for the identity on a c-table.
// Also demonstrates Prop. 2.1(6): CERT(*) via k rounds of CERT(1).

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "decision/certainty.h"
#include "reductions/tautology.h"
#include "solvers/dnf_tautology.h"
#include "workload/random_gen.h"

namespace pw {
namespace {

DatalogProgram TransitiveClosure() {
  DatalogProgram p({2, 2}, /*num_edb=*/1);
  DatalogRule base;
  base.head = {1, Tuple{V(0), V(1)}};
  base.body = {{0, Tuple{V(0), V(1)}}};
  p.AddRule(base);
  DatalogRule step;
  step.head = {1, Tuple{V(0), V(2)}};
  step.body = {{1, Tuple{V(0), V(1)}}, {0, Tuple{V(1), V(2)}}};
  p.AddRule(step);
  return p;
}

// (1) PTIME: certain transitive closure over a chain with nulls.
void BM_Thm53_DatalogCertainty_PTIME(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  // Chain 0 -> 1 -> ... -> n with every third edge target a null.
  CTable t(2);
  for (int i = 0; i < n; ++i) {
    if (i % 3 == 2) {
      t.AddRow(Tuple{C(i), V(i)});
    } else {
      t.AddRow(Tuple{C(i), C(i + 1)});
    }
  }
  CDatabase db{t};
  View q = View::Datalog(TransitiveClosure(), {1});
  std::vector<LocatedFact> pattern = {{0, Fact{0, 1}}};
  bool got = false;
  for (auto _ : state) {
    auto r = CertDatalogGTables(q, db, pattern);
    got = r.value_or(false);
    benchmark::DoNotOptimize(r);
  }
  state.counters["certain"] = got ? 1 : 0;
  state.SetLabel("Thm 5.3(1): DATALOG on g-tables, PTIME");
}
BENCHMARK(BM_Thm53_DatalogCertainty_PTIME)
    ->RangeMultiplier(4)
    ->Range(16, 1024)
    ->Unit(benchmark::kMicrosecond);

// (2) coNP: first order query on a Codd-table (3DNF tautology).
void BM_Thm53_FirstOrderCertainty_CoNP(benchmark::State& state) {
  auto rng = benchutil::Rng(81 + static_cast<uint32_t>(state.range(0)));
  int clauses = static_cast<int>(state.range(0));
  ClausalFormula dnf = RandomClausalFormula(3, clauses, 3, rng);
  TautologyFoInstance inst = TautologyToFirstOrderCertainty(dnf);
  bool expected = IsDnfTautology(dnf);
  bool got = expected;
  for (auto _ : state) {
    got = CertaintySearch(inst.certain_view, inst.database, inst.pattern);
    benchmark::DoNotOptimize(got);
  }
  state.counters["agrees_with_dnf_solver"] = (got == expected) ? 1 : 0;
  state.SetLabel("Thm 5.3(2): first order on a table, coNP-complete");
}
BENCHMARK(BM_Thm53_FirstOrderCertainty_CoNP)
    ->DenseRange(1, 2)
    ->Unit(benchmark::kMillisecond);

// (3) coNP: identity on c-tables (through the certain-fact implication).
void BM_Thm53_CTableCertainty_CoNP(benchmark::State& state) {
  auto rng = benchutil::Rng(83 + static_cast<uint32_t>(state.range(0)));
  int vars = static_cast<int>(state.range(0));
  // The 3DNF-tautology c-table of Thm 3.2(3): (1) is certain iff tautology.
  ClausalFormula dnf = RandomClausalFormula(vars, 2 * vars, 3, rng);
  UniquenessInstance u = TautologyToCTableUniqueness(dnf);
  std::vector<LocatedFact> pattern = {{0, Fact{1}}};
  bool expected = IsDnfTautology(dnf);
  bool got = expected;
  for (auto _ : state) {
    got = Certainty(View::Identity(), u.database, pattern);
    benchmark::DoNotOptimize(got);
  }
  state.counters["agrees_with_dnf_solver"] = (got == expected) ? 1 : 0;
  state.SetLabel("Thm 5.3(3): identity on c-table, coNP-complete");
}
BENCHMARK(BM_Thm53_CTableCertainty_CoNP)
    ->DenseRange(4, 16, 4)
    ->Unit(benchmark::kMicrosecond);

// The Proposition 2.1(6) reduction: CERT(k, q) by k rounds of CERT(1, q).
bool CertaintyFactwise(const View& view, const CDatabase& database,
                       const std::vector<LocatedFact>& pattern) {
  for (const LocatedFact& lf : pattern) {
    if (!Certainty(view, database, {lf})) return false;
  }
  return true;
}

// Prop 2.1(6): CERT(*) == k rounds of CERT(1).
void BM_Thm53_FactwiseEquivalence(benchmark::State& state) {
  auto rng = benchutil::Rng(89);
  int k = static_cast<int>(state.range(0));
  CTable t(2);
  for (int i = 0; i < 32; ++i) {
    t.AddRow(Tuple{C(i % 6), (i % 4 == 0) ? Term::Var(i) : C((i + 1) % 6)});
  }
  CDatabase db{t};
  std::uniform_int_distribution<int> c(0, 5);
  std::vector<LocatedFact> pattern;
  for (int i = 0; i < k; ++i) pattern.push_back({0, Fact{c(rng), c(rng)}});
  bool agree = true;
  for (auto _ : state) {
    bool direct = Certainty(View::Identity(), db, pattern);
    bool factwise = CertaintyFactwise(View::Identity(), db, pattern);
    agree = agree && (direct == factwise);
    benchmark::DoNotOptimize(direct);
  }
  state.counters["factwise_agrees"] = agree ? 1 : 0;
  state.SetLabel("Prop 2.1(6): CERT(*) == iterated CERT(1)");
}
BENCHMARK(BM_Thm53_FactwiseEquivalence)
    ->DenseRange(1, 8, 7)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace pw

int main(int argc, char** argv) {
  pw::benchutil::Header(
      "THM 5.3: certainty CERT",
      "Claim: PTIME for DATALOG on g-tables (evaluate the matrix as if "
      "complete); coNP-complete for a first order query on a Codd-table and "
      "for c-tables; CERT(*) reduces to iterated CERT(1) (Prop 2.1(6)).");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
