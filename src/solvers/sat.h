// CNF satisfiability. The default engine is an iterative trail-based CDCL —
// two-watched-literal propagation, 1UIP conflict analysis with clause
// learning, non-chronological backjumping, VSIDS-style activity decay, Luby
// restarts, and an assumptions interface for incremental solving — that logs
// a DRAT-style clausal proof on UNSAT so every verdict can be re-verified by
// the independent checker in solvers/proof.h. The seed recursive DPLL
// survives behind SatOptions{.use_cdcl = false} as the differential
// baseline and as the denominator of the CI gate's CDCL speedup floor.
// Reference oracle for the NP-hardness reductions (Theorems 3.1, 5.1, 5.2).

#ifndef PW_SOLVERS_SAT_H_
#define PW_SOLVERS_SAT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "solvers/cnf.h"
#include "solvers/proof.h"

namespace pw {

struct SatOptions {
  /// false routes through the seed recursive DPLL (no proofs, no learning,
  /// recursion depth scales with the variable count) — kept as the
  /// differential baseline.
  bool use_cdcl = true;
};

struct SatStats {
  int64_t decisions = 0;
  int64_t propagations = 0;
  int64_t conflicts = 0;
  int64_t restarts = 0;
  int64_t learned_clauses = 0;
  int64_t learned_literals = 0;
};

struct SatResult {
  bool sat = false;
  /// Total assignment over the solver's variables when sat.
  std::vector<bool> model;
  /// DRAT-style derivation when !sat on the CDCL engine: checkable via
  /// CheckUnsatProof against the clauses the caller added, under the
  /// assumptions of the failing Solve call.
  DratProof proof;
  /// When !sat under assumptions: a subset of the assumptions that is
  /// already unsatisfiable with the clause set (the failed-assumption core).
  std::vector<Literal> core;
  SatStats stats;

  SatCertificate Certificate() const {
    return SatCertificate{sat, model, proof};
  }
};

/// An incremental CNF solver: add clauses and variables freely between Solve
/// calls; learned clauses and variable activities persist, so repeated
/// solves under changing assumptions (the CEGAR loop in qbf.cc, the
/// decision-procedure callers) pay for the shared structure once.
class SatSolver {
 public:
  explicit SatSolver(SatOptions options = {});
  ~SatSolver();
  SatSolver(SatSolver&&) noexcept;
  SatSolver& operator=(SatSolver&&) noexcept;

  /// Introduces a fresh variable and returns its index.
  int NewVar();
  /// Grows the variable space to at least `num_vars`.
  void EnsureVars(int num_vars);
  int num_vars() const;

  void AddClause(const Clause& clause);
  /// Adds every clause of `formula` and grows to its variable count.
  void AddFormula(const ClausalFormula& formula);

  SatResult Solve() { return SolveUnderAssumptions({}); }
  /// Solves the current clause set with `assumptions` fixed as unit
  /// decisions. On UNSAT the result carries a failed-assumption core and a
  /// proof refuting the assumptions; on SAT the model satisfies them.
  SatResult SolveUnderAssumptions(const std::vector<Literal>& assumptions);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// One-shot solve of `formula`.
SatResult SolveCnf(const ClausalFormula& formula, const SatOptions& options = {});

/// One-shot solve of `formula` under `assumptions`.
SatResult SolveCnfUnderAssumptions(const ClausalFormula& formula,
                                   const std::vector<Literal>& assumptions,
                                   const SatOptions& options = {});

/// Returns a satisfying assignment of the CNF `formula`, or std::nullopt if
/// unsatisfiable.
std::optional<std::vector<bool>> SolveSat(const ClausalFormula& formula);

/// Convenience: satisfiability only.
bool IsSatisfiable(const ClausalFormula& formula);

}  // namespace pw

#endif  // PW_SOLVERS_SAT_H_
