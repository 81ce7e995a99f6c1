// Shared helpers for the pworlds benchmark harness.
//
// Every bench binary prints a short reproduction header (what the paper
// claims, what we verify) before handing control to google-benchmark, so the
// saved bench output doubles as the EXPERIMENTS.md evidence.

#ifndef PW_BENCH_BENCH_UTIL_H_
#define PW_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <random>
#include <string>

#include "tables/ctable.h"

namespace pw::benchutil {

inline void Header(const char* id, const char* claim) {
  std::printf("=== %s ===\n%s\n", id, claim);
}

inline void Line(const std::string& s) { std::printf("%s\n", s.c_str()); }

inline std::mt19937 Rng(uint32_t seed) { return std::mt19937(seed); }

/// A random Codd-table at every size: each cell is, with probability 0.4, a
/// variable that no other cell holds, else a constant of
/// [0, num_constants).
inline CTable RandomCoddTable(int arity, int num_rows, int num_constants,
                              std::mt19937& rng) {
  std::bernoulli_distribution is_var(0.4);
  std::uniform_int_distribution<ConstId> constant(0, num_constants - 1);
  CTable table(arity);
  VarId next_var = 0;
  for (int r = 0; r < num_rows; ++r) {
    Tuple tuple;
    for (int i = 0; i < arity; ++i) {
      tuple.push_back(is_var(rng) ? Term::Var(next_var++)
                                  : Term::Const(constant(rng)));
    }
    table.AddRow(std::move(tuple));
  }
  return table;
}

/// The world of `table` that sends every variable to a constant of
/// [0, num_constants).
inline Relation RandomWorldOf(const CTable& table, int num_constants,
                              std::mt19937& rng) {
  std::uniform_int_distribution<ConstId> constant(0, num_constants - 1);
  Relation world(table.arity());
  for (const CRow& row : table.rows()) {
    Fact fact;
    for (const Term& t : row.tuple) {
      fact.push_back(t.is_constant() ? t.constant() : constant(rng));
    }
    world.Insert(fact);
  }
  return world;
}

}  // namespace pw::benchutil

#endif  // PW_BENCH_BENCH_UTIL_H_
