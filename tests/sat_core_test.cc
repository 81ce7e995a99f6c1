// The CDCL solver core: unit tests, the regression shapes for the seed
// solver's latent bugs (recursion-depth hazard, the num_forall >= 64 shift),
// the assumptions interface, certificate round-trips through the independent
// checker, and randomized differentials CDCL vs. seed DPLL vs. brute-force
// enumeration. Every randomized case replays via PW_DIFF_SEED, e.g.
//
//   PW_DIFF_SEED=9102 ctest -R SatDifferential --output-on-failure

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "reductions/sat_encode.h"
#include "solvers/cnf.h"
#include "solvers/dnf_tautology.h"
#include "solvers/graph.h"
#include "solvers/graph_color.h"
#include "solvers/proof.h"
#include "solvers/qbf.h"
#include "solvers/sat.h"
#include "test_util.h"
#include "workload/random_gen.h"

namespace pw {
namespace {

/// Ground-truth satisfiability by exhaustive enumeration (num_vars <= 20).
bool BruteForceSat(const ClausalFormula& formula) {
  EXPECT_LE(formula.num_vars, 20);
  std::vector<bool> assignment(formula.num_vars);
  for (uint64_t mask = 0; mask < (uint64_t{1} << formula.num_vars); ++mask) {
    for (int i = 0; i < formula.num_vars; ++i) {
      assignment[i] = ((mask >> i) & 1) != 0;
    }
    if (formula.EvalCnf(assignment)) return true;
  }
  return false;
}

/// The universal prefix of `x` as assumption literals.
std::vector<Literal> UniversalAssumptions(const std::vector<bool>& x) {
  std::vector<Literal> assumptions;
  assumptions.reserve(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    assumptions.push_back({static_cast<int>(i), !x[i]});
  }
  return assumptions;
}

/// Solves with both engines, cross-checks them, verifies the CDCL
/// certificate with the independent checker, and returns the shared verdict.
bool SolveCheckedBothEngines(const ClausalFormula& formula) {
  SatResult cdcl = SolveCnf(formula);
  SatResult dpll = SolveCnf(formula, SatOptions{.use_cdcl = false});
  EXPECT_EQ(cdcl.sat, dpll.sat) << formula.ToString(/*as_cnf=*/true);
  if (cdcl.sat) {
    EXPECT_TRUE(formula.EvalCnf(cdcl.model));
    EXPECT_TRUE(formula.EvalCnf(dpll.model));
  }
  std::string error;
  EXPECT_TRUE(VerifyCertificate(formula, {}, cdcl.Certificate(), &error))
      << error;
  return cdcl.sat;
}

// --- CDCL basics ------------------------------------------------------------

TEST(CdclTest, EmptyFormulaIsSat) {
  ClausalFormula f;
  f.num_vars = 3;
  SatResult result = SolveCnf(f);
  EXPECT_TRUE(result.sat);
  EXPECT_EQ(result.model.size(), 3u);
  EXPECT_TRUE(VerifyCertificate(f, {}, result.Certificate()));
}

TEST(CdclTest, EmptyClauseIsUnsat) {
  ClausalFormula f;
  f.num_vars = 2;
  f.clauses.push_back({});
  SatResult result = SolveCnf(f);
  EXPECT_FALSE(result.sat);
  EXPECT_TRUE(VerifyCertificate(f, {}, result.Certificate()));
}

TEST(CdclTest, UnitPropagationChain) {
  // x0, x0 -> x1, x1 -> x2: forced model 111.
  ClausalFormula f;
  f.num_vars = 3;
  f.clauses = {{Literal::Pos(0)},
               {Literal::Neg(0), Literal::Pos(1)},
               {Literal::Neg(1), Literal::Pos(2)}};
  SatResult result = SolveCnf(f);
  ASSERT_TRUE(result.sat);
  EXPECT_EQ(result.model, std::vector<bool>({true, true, true}));
}

TEST(CdclTest, ContradictoryUnitsAreUnsatWithCheckableProof) {
  ClausalFormula f;
  f.num_vars = 1;
  f.clauses = {{Literal::Pos(0)}, {Literal::Neg(0)}};
  SatResult result = SolveCnf(f);
  ASSERT_FALSE(result.sat);
  std::string error;
  EXPECT_TRUE(CheckUnsatProof(f, {}, result.proof, &error)) << error;
}

TEST(CdclTest, PaperFig5CnfAgreesWithSeedSolver) {
  EXPECT_TRUE(SolveCheckedBothEngines(PaperFig5Cnf()));
}

TEST(CdclTest, ConflictDrivenInstanceNeedsLearning) {
  // PHP(4, 3): forces real conflict analysis, not just propagation.
  ClausalFormula f = PigeonholeCnf(3);
  SatResult result = SolveCnf(f);
  ASSERT_FALSE(result.sat);
  EXPECT_GT(result.stats.conflicts, 0);
  EXPECT_GT(result.stats.learned_clauses, 0);
  std::string error;
  EXPECT_TRUE(CheckUnsatProof(f, {}, result.proof, &error)) << error;
}

TEST(CdclTest, LegacySolveSatApiStillWorks) {
  auto model = SolveSat(PaperFig5Cnf());
  ASSERT_TRUE(model.has_value());
  EXPECT_EQ(model->size(), 5u);
  EXPECT_TRUE(PaperFig5Cnf().EvalCnf(*model));
  EXPECT_TRUE(IsSatisfiable(PaperFig5Cnf()));
  EXPECT_FALSE(IsSatisfiable(PigeonholeCnf(2)));
}

// --- Regression: recursion-depth hazard in the seed DPLL --------------------

TEST(DeepInstanceTest, DecisionLadderOnBothEngines) {
  // Small enough for the recursive baseline's stack, large enough to verify
  // both engines walk the same satisfiable ladder.
  ClausalFormula f = DecisionLadderCnf(2000);
  EXPECT_TRUE(SolveCheckedBothEngines(f));
}

TEST(DeepInstanceTest, HugeDecisionLadderIsIterative) {
  // 300k variables with no unit clause anywhere: the seed DPLL recursed once
  // per decision and overflowed the stack at this depth. The trail-based
  // loop must handle it outright.
  ClausalFormula f = DecisionLadderCnf(300'000);
  SatResult result = SolveCnf(f);
  ASSERT_TRUE(result.sat);
  EXPECT_TRUE(f.EvalCnf(result.model));
}

TEST(DeepInstanceTest, ScrambledImplicationChainOnBothEngines) {
  ClausalFormula f = ScrambledImplicationChainCnf(2000);
  EXPECT_FALSE(SolveCheckedBothEngines(f));
}

TEST(DeepInstanceTest, HugeScrambledChainUnsatWithCheckableProof) {
  ClausalFormula f = ScrambledImplicationChainCnf(200'000);
  SatResult result = SolveCnf(f);
  ASSERT_FALSE(result.sat);
  std::string error;
  EXPECT_TRUE(CheckUnsatProof(f, {}, result.proof, &error)) << error;
}

// --- The assumptions interface ----------------------------------------------

TEST(AssumptionsTest, IncrementalSolvesReuseOneSolver) {
  SatSolver solver;
  solver.EnsureVars(3);
  solver.AddClause({Literal::Pos(0), Literal::Pos(1)});
  solver.AddClause({Literal::Neg(0), Literal::Pos(2)});

  SatResult under_not_x1 = solver.SolveUnderAssumptions({Literal::Neg(1)});
  ASSERT_TRUE(under_not_x1.sat);
  EXPECT_TRUE(under_not_x1.model[0]);
  EXPECT_FALSE(under_not_x1.model[1]);
  EXPECT_TRUE(under_not_x1.model[2]);

  SatResult under_not_x2 = solver.SolveUnderAssumptions({Literal::Neg(2)});
  ASSERT_TRUE(under_not_x2.sat);
  EXPECT_FALSE(under_not_x2.model[0]);
  EXPECT_TRUE(under_not_x2.model[1]);
  EXPECT_FALSE(under_not_x2.model[2]);
}

TEST(AssumptionsTest, ConflictingAssumptionsYieldCoreAndProof) {
  SatSolver solver;
  solver.EnsureVars(2);
  solver.AddClause({Literal::Pos(0), Literal::Pos(1)});
  std::vector<Literal> assumptions = {Literal::Pos(0), Literal::Neg(0)};
  SatResult result = solver.SolveUnderAssumptions(assumptions);
  ASSERT_FALSE(result.sat);
  ASSERT_FALSE(result.core.empty());
  for (const Literal& lit : result.core) {
    EXPECT_NE(std::find(assumptions.begin(), assumptions.end(), lit),
              assumptions.end());
  }
  ClausalFormula f;
  f.num_vars = 2;
  f.clauses = {{Literal::Pos(0), Literal::Pos(1)}};
  std::string error;
  EXPECT_TRUE(CheckUnsatProof(f, assumptions, result.proof, &error)) << error;
}

TEST(AssumptionsTest, CoreExcludesIrrelevantAssumptions) {
  // x0 -> x1 -> x2 with assumptions {x5, x0, -x2}: the failed core must name
  // x0 and -x2 but not the unconstrained x5.
  ClausalFormula f;
  f.num_vars = 6;
  f.clauses = {{Literal::Neg(0), Literal::Pos(1)},
               {Literal::Neg(1), Literal::Pos(2)}};
  std::vector<Literal> assumptions = {Literal::Pos(5), Literal::Pos(0),
                                      Literal::Neg(2)};
  SatResult result = SolveCnfUnderAssumptions(f, assumptions);
  ASSERT_FALSE(result.sat);
  ASSERT_FALSE(result.core.empty());
  for (const Literal& lit : result.core) {
    EXPECT_NE(lit.var, 5) << "core names the irrelevant assumption x5";
    EXPECT_NE(std::find(assumptions.begin(), assumptions.end(), lit),
              assumptions.end());
  }
  // Semantic check: the formula plus the core as units is unsatisfiable.
  ClausalFormula with_core = f;
  for (const Literal& lit : result.core) with_core.clauses.push_back({lit});
  EXPECT_FALSE(BruteForceSat(with_core));
  std::string error;
  EXPECT_TRUE(CheckUnsatProof(f, assumptions, result.proof, &error)) << error;
}

TEST(AssumptionsTest, AddClauseBetweenSolvesNarrowsModels) {
  SatSolver solver;
  solver.EnsureVars(2);
  solver.AddClause({Literal::Pos(0), Literal::Pos(1)});
  ASSERT_TRUE(solver.Solve().sat);

  solver.AddClause({Literal::Neg(0)});
  SatResult narrowed = solver.Solve();
  ASSERT_TRUE(narrowed.sat);
  EXPECT_FALSE(narrowed.model[0]);
  EXPECT_TRUE(narrowed.model[1]);

  solver.AddClause({Literal::Neg(1)});
  SatResult unsat = solver.Solve();
  ASSERT_FALSE(unsat.sat);
  ClausalFormula f;
  f.num_vars = 2;
  f.clauses = {{Literal::Pos(0), Literal::Pos(1)},
               {Literal::Neg(0)},
               {Literal::Neg(1)}};
  std::string error;
  EXPECT_TRUE(CheckUnsatProof(f, {}, unsat.proof, &error)) << error;
}

TEST(AssumptionsTest, AssumptionOnFreshVariableGrowsSolver) {
  SatSolver solver;
  solver.AddClause({Literal::Pos(0)});
  SatResult result = solver.SolveUnderAssumptions({Literal::Neg(7)});
  ASSERT_TRUE(result.sat);
  ASSERT_GE(solver.num_vars(), 8);
  EXPECT_TRUE(result.model[0]);
  EXPECT_FALSE(result.model[7]);
}

// --- The independent checker rejects bad certificates -----------------------

TEST(ProofCheckerTest, RejectsNonRupClause) {
  ClausalFormula f;
  f.num_vars = 2;
  f.clauses = {{Literal::Pos(0)}};
  DratProof bogus;
  bogus.added = {{Literal::Pos(1)}, {}};  // x1 is not a consequence
  std::string error;
  EXPECT_FALSE(CheckUnsatProof(f, {}, bogus, &error));
  EXPECT_FALSE(error.empty());
}

TEST(ProofCheckerTest, RejectsProofOfSatisfiableFormula) {
  ClausalFormula f;
  f.num_vars = 2;
  f.clauses = {{Literal::Pos(0), Literal::Pos(1)}};
  DratProof empty_proof;
  EXPECT_FALSE(CheckUnsatProof(f, {}, empty_proof));
}

TEST(ProofCheckerTest, RejectsFalsifyingModel) {
  ClausalFormula f = PaperFig5Cnf();
  SatResult result = SolveCnf(f);
  ASSERT_TRUE(result.sat);
  std::vector<bool> corrupted = result.model;
  // Find a flip that actually falsifies the formula.
  bool falsified = false;
  for (size_t i = 0; i < corrupted.size() && !falsified; ++i) {
    corrupted[i] = !corrupted[i];
    falsified = !f.EvalCnf(corrupted);
    if (!falsified) corrupted[i] = !corrupted[i];
  }
  ASSERT_TRUE(falsified);
  std::string error;
  EXPECT_FALSE(CheckModel(f, corrupted, &error));
  EXPECT_FALSE(error.empty());
}

TEST(ProofCheckerTest, RejectsCertificateViolatingAssumptions) {
  ClausalFormula f;
  f.num_vars = 1;
  f.clauses = {};
  SatCertificate cert;
  cert.sat = true;
  cert.model = {false};
  EXPECT_TRUE(VerifyCertificate(f, {}, cert));
  EXPECT_FALSE(VerifyCertificate(f, {Literal::Pos(0)}, cert));
}

TEST(ProofCheckerTest, TamperedLearnedClauseIsRejected) {
  ClausalFormula f = PigeonholeCnf(3);
  SatResult result = SolveCnf(f);
  ASSERT_FALSE(result.sat);
  ASSERT_FALSE(result.proof.added.empty());
  // Replace the first learned clause with an unsupported unit over a fresh
  // variable: RUP verification of that step must fail.
  DratProof tampered = result.proof;
  tampered.added.front() = {Literal::Pos(f.num_vars - 1)};
  ClausalFormula widened = f;
  std::string error;
  bool tampered_ok = CheckUnsatProof(widened, {}, tampered, &error);
  // Either the tampered step is caught outright, or (if that unit happened
  // to be RUP) the rest of the derivation no longer matters; the genuine
  // proof must still verify.
  EXPECT_TRUE(CheckUnsatProof(f, {}, result.proof));
  if (tampered_ok) {
    GTEST_SKIP() << "tampered unit was coincidentally RUP for this instance";
  }
  EXPECT_FALSE(error.empty());
}

// --- DNF tautology with certificates ----------------------------------------

TEST(DnfCertificateTest, TautologyCarriesUnsatProofOfComplement) {
  // x0 OR -x0 as 1-term-wide DNF.
  ClausalFormula dnf;
  dnf.num_vars = 1;
  dnf.clauses = {{Literal::Pos(0)}, {Literal::Neg(0)}};
  TautologyVerdict verdict = CheckDnfTautology(dnf);
  EXPECT_TRUE(verdict.is_tautology);
  EXPECT_FALSE(verdict.counterexample.has_value());
  std::string error;
  EXPECT_TRUE(
      VerifyCertificate(DnfComplementCnf(dnf), {}, verdict.certificate, &error))
      << error;
}

TEST(DnfCertificateTest, NonTautologyCarriesCounterexample) {
  ClausalFormula dnf = PaperFig5Dnf();
  TautologyVerdict verdict = CheckDnfTautology(dnf);
  ASSERT_FALSE(verdict.is_tautology);
  ASSERT_TRUE(verdict.counterexample.has_value());
  EXPECT_FALSE(dnf.EvalDnf(*verdict.counterexample));
  EXPECT_TRUE(
      VerifyCertificate(DnfComplementCnf(dnf), {}, verdict.certificate));
}

TEST(DnfCertificateTest, EmptyDnfIsNotATautology) {
  ClausalFormula dnf;
  dnf.num_vars = 2;
  TautologyVerdict verdict = CheckDnfTautology(dnf);
  EXPECT_FALSE(verdict.is_tautology);
  ASSERT_TRUE(verdict.counterexample.has_value());
  EXPECT_FALSE(dnf.EvalDnf(*verdict.counterexample));
}

// --- Regression: the num_forall >= 64 shift in the enumeration baseline -----

TEST(QbfGuardTest, EnumerationRejectsSixtyFourUniversals) {
  // Pre-fix this executed `1 << 64` (undefined behavior); now it must come
  // back as a structured rejection naming the limit.
  ForallExistsCnf instance;
  instance.num_forall = 64;
  instance.formula.num_vars = 64;
  QbfOptions options;
  options.use_cegar = false;
  QbfResult result = SolveForallExistsCertified(instance, options);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("num_forall must be < 64"), std::string::npos)
      << result.error;
}

TEST(QbfGuardTest, MalformedQuantifierSplitIsRejected) {
  ForallExistsCnf instance;
  instance.num_forall = 5;
  instance.formula.num_vars = 3;
  QbfResult result = SolveForallExistsCertified(instance);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("malformed"), std::string::npos) << result.error;
}

// --- QBF: the CEGAR engine ---------------------------------------------------

TEST(QbfCegarTest, FindsCounterexampleBeyondEnumerationLimit) {
  // 70 universals, one existential y (var 70), clauses (-x0 v y) and
  // (-x0 v -y): exactly the universal assignments with x0 = 1 fail. The
  // enumeration baseline rejects this size outright; CEGAR needs two
  // candidates and one refinement.
  ForallExistsCnf instance;
  instance.num_forall = 70;
  instance.formula.num_vars = 71;
  instance.formula.clauses = {{Literal::Neg(0), Literal::Pos(70)},
                              {Literal::Neg(0), Literal::Neg(70)}};
  QbfResult result = SolveForallExistsCertified(instance);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_FALSE(result.holds);
  ASSERT_TRUE(result.counterexample.has_value());
  EXPECT_TRUE((*result.counterexample)[0]);
  EXPECT_LE(result.candidates, 4);
  std::string error;
  EXPECT_TRUE(VerifyCertificate(instance.formula,
                                UniversalAssumptions(*result.counterexample),
                                result.certificate, &error))
      << error;
}

TEST(QbfCegarTest, HoldsWithPureExistentialWitness) {
  // 80 universals that never occur: the single witness y = 1 repairs every
  // universal assignment, so CEGAR concludes after one candidate.
  ForallExistsCnf instance;
  instance.num_forall = 80;
  instance.formula.num_vars = 81;
  instance.formula.clauses = {{Literal::Pos(80)}};
  QbfResult result = SolveForallExistsCertified(instance);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.holds);
  EXPECT_EQ(result.candidates, 1);
  EXPECT_EQ(result.refinements, 0);
}

TEST(QbfCegarTest, PaperFig5ForallExistsMatchesLegacyApi) {
  ForallExistsCnf instance = PaperFig5ForallExists();
  QbfResult cegar = SolveForallExistsCertified(instance);
  ASSERT_TRUE(cegar.ok);
  QbfOptions brute;
  brute.use_cegar = false;
  QbfResult enumerated = SolveForallExistsCertified(instance, brute);
  ASSERT_TRUE(enumerated.ok);
  EXPECT_EQ(cegar.holds, enumerated.holds);
  EXPECT_EQ(cegar.holds, SolveForallExists(instance));
}

// --- Reduction-shaped stress corpus -----------------------------------------

TEST(SatEncodeTest, ColoringCnfMatchesBacktrackingOracle) {
  std::mt19937 rng(20260808);
  for (int round = 0; round < 20; ++round) {
    // Mixed bag: planted 3-colorable graphs and dense random graphs.
    Graph g = RandomThreeColorableGraph(8, 0.5, rng);
    if (round % 2 == 1) {
      // Densify: extra random edges can break 3-colorability.
      std::uniform_int_distribution<int> node(0, g.num_nodes() - 1);
      for (int e = 0; e < 6; ++e) {
        int a = node(rng);
        int b = node(rng);
        if (a != b) g.AddEdge(a, b);
      }
    }
    ClausalFormula cnf = GraphColoringToCnf(g, 3);
    SatResult result = SolveCnf(cnf);
    EXPECT_EQ(result.sat, IsThreeColorable(g)) << g.ToString();
    if (result.sat) {
      std::vector<int> coloring = DecodeColoring(g, 3, result.model);
      for (const auto& [a, b] : g.edges()) {
        EXPECT_NE(coloring[a], coloring[b]) << g.ToString();
      }
    } else {
      std::string error;
      EXPECT_TRUE(CheckUnsatProof(cnf, {}, result.proof, &error)) << error;
    }
  }
}

TEST(SatEncodeTest, CompleteGraphNeedsAsManyColorsAsNodes) {
  Graph k4(4);
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) k4.AddEdge(a, b);
  }
  EXPECT_FALSE(SolveCnf(GraphColoringToCnf(k4, 3)).sat);
  SatResult with_four = SolveCnf(GraphColoringToCnf(k4, 4));
  ASSERT_TRUE(with_four.sat);
  std::vector<int> coloring = DecodeColoring(k4, 4, with_four.model);
  std::sort(coloring.begin(), coloring.end());
  EXPECT_EQ(coloring, std::vector<int>({0, 1, 2, 3}));
}

TEST(SatEncodeTest, SelfLoopIsNeverColorable) {
  Graph g(2);
  g.AddEdge(0, 0);
  EXPECT_FALSE(SolveCnf(GraphColoringToCnf(g, 3)).sat);
  EXPECT_FALSE(IsThreeColorable(g));
}

TEST(SatEncodeTest, PigeonholeFamilyIsUnsatWithCheckableProofs) {
  for (int holes = 1; holes <= 4; ++holes) {
    ClausalFormula f = PigeonholeCnf(holes);
    SatResult result = SolveCnf(f);
    ASSERT_FALSE(result.sat) << "PHP(" << holes + 1 << ", " << holes << ")";
    std::string error;
    EXPECT_TRUE(CheckUnsatProof(f, {}, result.proof, &error))
        << "PHP(" << holes + 1 << ", " << holes << "): " << error;
  }
}

TEST(SatEncodeTest, ChainShapesHaveExpectedVerdicts) {
  EXPECT_FALSE(SolveCheckedBothEngines(ScrambledImplicationChainCnf(50)));
  EXPECT_TRUE(SolveCheckedBothEngines(DecisionLadderCnf(50)));
}

// --- Randomized differentials -----------------------------------------------

class SatDifferentialTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(SatDifferentialTest, CdclVsDpllVsBruteForce) {
  unsigned seed = GetParam();
  PW_DIFF_CASE(seed);
  std::mt19937 rng(seed);
  // Mostly small instances (exhaustively checkable fast), a few at the
  // 20-variable enumeration ceiling.
  int num_vars = 4 + static_cast<int>(seed % 11);
  if (seed % 7 == 0) num_vars = 20;
  int num_clauses = 2 + static_cast<int>(rng() % (3 * num_vars));
  int width = 2 + static_cast<int>(rng() % 3);
  ClausalFormula f = RandomClausalFormula(num_vars, num_clauses, width, rng);

  SatResult cdcl = SolveCnf(f);
  SatResult dpll = SolveCnf(f, SatOptions{.use_cdcl = false});
  bool truth = BruteForceSat(f);
  EXPECT_EQ(cdcl.sat, truth) << f.ToString(/*as_cnf=*/true);
  EXPECT_EQ(dpll.sat, truth) << f.ToString(/*as_cnf=*/true);
  if (truth) {
    EXPECT_TRUE(f.EvalCnf(cdcl.model));
    EXPECT_TRUE(f.EvalCnf(dpll.model));
  }
  std::string error;
  EXPECT_TRUE(VerifyCertificate(f, {}, cdcl.Certificate(), &error))
      << error << "\n"
      << f.ToString(/*as_cnf=*/true);
}

TEST_P(SatDifferentialTest, AssumptionSolveAgreesWithUnitClauses) {
  unsigned seed = GetParam();
  PW_DIFF_CASE(seed);
  std::mt19937 rng(seed ^ 0x5a5a5a5au);
  int num_vars = 4 + static_cast<int>(seed % 9);
  ClausalFormula f = RandomClausalFormula(num_vars, 2 * num_vars, 3, rng);
  // Random assumptions over a prefix of the variables.
  std::vector<Literal> assumptions;
  for (int v = 0; v < num_vars / 2; ++v) {
    if (rng() % 2 == 0) assumptions.push_back({v, rng() % 2 == 0});
  }
  SatResult assumed = SolveCnfUnderAssumptions(f, assumptions);
  ClausalFormula with_units = f;
  for (const Literal& lit : assumptions) with_units.clauses.push_back({lit});
  EXPECT_EQ(assumed.sat, BruteForceSat(with_units))
      << with_units.ToString(/*as_cnf=*/true);
  std::string error;
  EXPECT_TRUE(
      VerifyCertificate(f, assumptions, assumed.Certificate(), &error))
      << error;
  if (!assumed.sat) {
    // The failed core must itself refute the formula.
    ClausalFormula with_core = f;
    for (const Literal& lit : assumed.core) with_core.clauses.push_back({lit});
    EXPECT_FALSE(BruteForceSat(with_core));
  }
}

TEST_P(SatDifferentialTest, CegarVsEnumerationOnRandomQbf) {
  unsigned seed = GetParam();
  PW_DIFF_CASE(seed);
  std::mt19937 rng(seed ^ 0xc3c3c3c3u);
  int num_forall = 2 + static_cast<int>(seed % 4);
  int num_exists = 2 + static_cast<int>(rng() % 4);
  int num_clauses = 3 + static_cast<int>(rng() % 8);
  ForallExistsCnf instance =
      RandomForallExists(num_forall, num_exists, num_clauses, rng);

  QbfResult cegar = SolveForallExistsCertified(instance);
  ASSERT_TRUE(cegar.ok) << cegar.error;
  QbfOptions brute;
  brute.use_cegar = false;
  QbfResult enumerated = SolveForallExistsCertified(instance, brute);
  ASSERT_TRUE(enumerated.ok) << enumerated.error;
  EXPECT_EQ(cegar.holds, enumerated.holds);
  if (!cegar.holds) {
    ASSERT_TRUE(cegar.counterexample.has_value());
    std::string error;
    EXPECT_TRUE(VerifyCertificate(instance.formula,
                                  UniversalAssumptions(*cegar.counterexample),
                                  cegar.certificate, &error))
        << error;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatDifferentialTest,
                         ::testing::Range(9100u, 9140u));

}  // namespace
}  // namespace pw
