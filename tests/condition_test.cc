// Unit tests for condition/: atoms, conjunctions, the revertible binding
// environment, the atom-CNF solver and boolean formulas.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "condition/atom.h"
#include "condition/atom_cnf.h"
#include "condition/binding_env.h"
#include "condition/conjunction.h"
#include "condition/formula.h"
#include "core/tuple.h"

namespace pw {
namespace {

TEST(AtomTest, NormalizationMakesEqSymmetric) {
  EXPECT_EQ(Eq(V(1), V(2)), Eq(V(2), V(1)));
  EXPECT_EQ(Neq(V(1), C(3)), Neq(C(3), V(1)));
}

TEST(AtomTest, TrivialityChecks) {
  EXPECT_TRUE(IsTriviallyTrue(Eq(C(1), C(1))));
  EXPECT_TRUE(IsTriviallyTrue(Eq(V(1), V(1))));
  EXPECT_TRUE(IsTriviallyTrue(Neq(C(1), C(2))));
  EXPECT_TRUE(IsTriviallyFalse(Eq(C(1), C(2))));
  EXPECT_TRUE(IsTriviallyFalse(Neq(V(1), V(1))));
  EXPECT_FALSE(IsTriviallyTrue(Eq(V(1), C(2))));
  EXPECT_FALSE(IsTriviallyFalse(Eq(V(1), C(2))));
}

TEST(AtomTest, TrueAndFalseAtoms) {
  EXPECT_TRUE(IsTriviallyTrue(TrueAtom()));
  EXPECT_TRUE(IsTriviallyFalse(FalseAtom()));
}

TEST(AtomTest, NegateFlips) {
  CondAtom a = Eq(V(1), C(2));
  EXPECT_FALSE(Negate(a).is_equality);
  EXPECT_EQ(Negate(Negate(a)), a);
}

TEST(AtomTest, VariablesDeduplicated) {
  EXPECT_EQ(AtomVariables(Eq(V(3), V(3))), (std::vector<VarId>{3}));
  EXPECT_EQ(AtomVariables(Eq(V(1), V(2))).size(), 2u);
  EXPECT_TRUE(AtomVariables(Eq(C(1), C(2))).empty());
}

TEST(ConjunctionTest, EmptyIsTautologyAndSatisfiable) {
  Conjunction c;
  EXPECT_TRUE(c.IsTautology());
  EXPECT_TRUE(c.Satisfiable());
}

TEST(ConjunctionTest, SatisfiabilityOverInfiniteDomain) {
  // x != y, x != 1, y != 1 is satisfiable (pick fresh constants).
  Conjunction c{Neq(V(0), V(1)), Neq(V(0), C(1)), Neq(V(1), C(1))};
  EXPECT_TRUE(c.Satisfiable());
}

TEST(ConjunctionTest, EqualityChainConflict) {
  Conjunction c{Eq(V(0), C(1)), Eq(V(0), V(1)), Eq(V(1), C(2))};
  EXPECT_FALSE(c.Satisfiable());
}

TEST(ConjunctionTest, DisequalityWithinClassConflict) {
  Conjunction c{Eq(V(0), V(1)), Neq(V(0), V(1))};
  EXPECT_FALSE(c.Satisfiable());
}

TEST(ConjunctionTest, ImpliesTransitiveEquality) {
  Conjunction c{Eq(V(0), V(1)), Eq(V(1), V(2))};
  EXPECT_TRUE(c.Implies(Eq(V(0), V(2))));
  EXPECT_FALSE(c.Implies(Eq(V(0), C(5))));
}

TEST(ConjunctionTest, ImpliesDisequalityViaConstants) {
  Conjunction c{Eq(V(0), C(1)), Eq(V(1), C(2))};
  EXPECT_TRUE(c.Implies(Neq(V(0), V(1))));
}

TEST(ConjunctionTest, UnsatisfiableImpliesEverything) {
  Conjunction c{FalseAtom()};
  EXPECT_TRUE(c.Implies(Eq(V(0), C(7))));
}

TEST(ConjunctionTest, ForcedConstants) {
  Conjunction c{Eq(V(0), C(3)), Eq(V(1), V(0)), Neq(V(2), C(9))};
  auto forced = c.ForcedConstants();
  EXPECT_EQ(forced.at(0), 3);
  EXPECT_EQ(forced.at(1), 3);
  EXPECT_EQ(forced.count(2), 0u);
}

TEST(ConjunctionTest, CanonicalSubstitution) {
  Conjunction c{Eq(V(2), V(5)), Eq(V(7), C(4))};
  auto canon = c.CanonicalSubstitution();
  EXPECT_EQ(canon.at(5), Term::Var(2));
  EXPECT_EQ(canon.at(2), Term::Var(2));
  EXPECT_EQ(canon.at(7), Term::Const(4));
}

TEST(ConjunctionTest, SubstituteRewritesAtoms) {
  Conjunction c{Eq(V(0), V(1)), Neq(V(1), C(3))};
  std::unordered_map<VarId, Term> sub{{1, Term::Const(3)}};
  Conjunction d = c.Substitute(sub);
  EXPECT_EQ(d.atoms()[0], Eq(V(0), C(3)));
  EXPECT_TRUE(IsTriviallyFalse(d.atoms()[1]));
}

TEST(ConjunctionTest, SimplifiedDropsTrivial) {
  Conjunction c{Eq(C(1), C(1)), Neq(V(0), C(2)), Eq(V(3), V(3))};
  EXPECT_EQ(c.Simplified().size(), 1u);
}

TEST(ConjunctionTest, VariablesAndConstants) {
  Conjunction c{Eq(V(4), C(9)), Neq(V(1), V(4))};
  EXPECT_EQ(c.Variables(), (std::vector<VarId>{1, 4}));
  EXPECT_EQ(c.Constants(), (std::vector<ConstId>{9}));
}

TEST(BindingEnvTest, EqualityPropagatesConstants) {
  BindingEnv env;
  EXPECT_TRUE(env.AssertEqual(V(0), V(1)));
  EXPECT_TRUE(env.AssertEqual(V(1), C(5)));
  EXPECT_EQ(env.ValueOf(V(0)), 5);
}

TEST(BindingEnvTest, DistinctConstantsConflict) {
  BindingEnv env;
  EXPECT_TRUE(env.AssertEqual(V(0), C(1)));
  EXPECT_FALSE(env.AssertEqual(V(0), C(2)));
}

TEST(BindingEnvTest, DisequalityBlocksMerge) {
  BindingEnv env;
  EXPECT_TRUE(env.AssertNotEqual(V(0), V(1)));
  EXPECT_FALSE(env.AssertEqual(V(0), V(1)));
}

TEST(BindingEnvTest, MergeBlocksDisequality) {
  BindingEnv env;
  EXPECT_TRUE(env.AssertEqual(V(0), V(1)));
  EXPECT_FALSE(env.AssertNotEqual(V(0), V(1)));
}

TEST(BindingEnvTest, TransitiveDisequalityConflict) {
  BindingEnv env;
  EXPECT_TRUE(env.AssertNotEqual(V(0), V(1)));
  EXPECT_TRUE(env.AssertEqual(V(0), V(2)));
  EXPECT_FALSE(env.AssertEqual(V(2), V(1)));
}

TEST(BindingEnvTest, RevertRestoresState) {
  BindingEnv env;
  size_t mark = env.Mark();
  EXPECT_TRUE(env.AssertEqual(V(0), C(1)));
  EXPECT_EQ(env.ValueOf(V(0)), 1);
  env.Revert(mark);
  EXPECT_EQ(env.ValueOf(V(0)), std::nullopt);
  EXPECT_TRUE(env.AssertEqual(V(0), C(2)));  // no stale conflict
}

TEST(BindingEnvTest, RevertRestoresDisequalities) {
  BindingEnv env;
  size_t mark = env.Mark();
  EXPECT_TRUE(env.AssertNotEqual(V(0), V(1)));
  env.Revert(mark);
  EXPECT_TRUE(env.AssertEqual(V(0), V(1)));
}

TEST(BindingEnvTest, NestedRevert) {
  BindingEnv env;
  EXPECT_TRUE(env.AssertEqual(V(0), V(1)));
  size_t mark = env.Mark();
  EXPECT_TRUE(env.AssertEqual(V(1), C(7)));
  EXPECT_TRUE(env.AssertNotEqual(V(2), C(7)));
  env.Revert(mark);
  EXPECT_TRUE(env.SameClass(V(0), V(1)));
  EXPECT_EQ(env.ValueOf(V(1)), std::nullopt);
  EXPECT_TRUE(env.AssertEqual(V(2), C(7)));
}

TEST(BindingEnvTest, CanEqualIsNonMutating) {
  BindingEnv env;
  EXPECT_TRUE(env.AssertNotEqual(V(0), V(1)));
  EXPECT_FALSE(env.CanEqual(V(0), V(1)));
  EXPECT_TRUE(env.CanEqual(V(0), V(2)));
  EXPECT_FALSE(env.SameClass(V(0), V(2)));  // unchanged
}

TEST(BindingEnvTest, DistinctConstantsNeverRecordDiseq) {
  BindingEnv env;
  EXPECT_TRUE(env.AssertNotEqual(C(1), C(2)));
  EXPECT_EQ(env.NumDisequalities(), 0u);
}

TEST(BindingEnvTest, AssertConjunction) {
  BindingEnv env;
  EXPECT_TRUE(env.Assert(Conjunction{Eq(V(0), V(1)), Neq(V(1), C(4))}));
  EXPECT_FALSE(env.AssertEqual(V(0), C(4)));
}

// Reference model for BindingEnv: the live atoms as a plain list, closed
// from scratch by relabeling — no union-find, no trail.
struct NaiveAtom {
  size_t lhs;  // indexes into the term pool
  size_t rhs;
  bool is_equality;
};

struct NaiveClosure {
  std::vector<size_t> label;  // equal labels = same class
  bool satisfiable = true;
};

NaiveClosure CloseNaively(const std::vector<Term>& pool,
                          const std::vector<NaiveAtom>& atoms) {
  NaiveClosure out;
  out.label.resize(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) out.label[i] = i;
  for (const NaiveAtom& a : atoms) {
    if (!a.is_equality) continue;
    size_t from = out.label[a.rhs];
    size_t to = out.label[a.lhs];
    for (size_t& l : out.label) {
      if (l == from) l = to;
    }
  }
  for (size_t i = 0; i < pool.size(); ++i) {
    for (size_t j = i + 1; j < pool.size(); ++j) {
      if (out.label[i] == out.label[j] && pool[i].is_constant() &&
          pool[j].is_constant() && pool[i] != pool[j]) {
        out.satisfiable = false;
      }
    }
  }
  for (const NaiveAtom& a : atoms) {
    if (!a.is_equality && out.label[a.lhs] == out.label[a.rhs]) {
      out.satisfiable = false;
    }
  }
  return out;
}

TEST(BindingEnvTest, RandomAssertRevertMatchesNaiveClosure) {
  // 34 variables and 10 constants, with the extreme ids of both kinds.
  std::vector<Term> pool;
  for (VarId v = 0; v < 33; ++v) pool.push_back(V(v));
  pool.push_back(V(INT32_MAX));
  for (ConstId c : {0, 1, 2, 3, 4, 5, 6, 7, 8, INT32_MAX}) pool.push_back(C(c));

  for (uint32_t seed : {5u, 77u, 2024u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937 rng(seed);
    std::uniform_int_distribution<size_t> pick(0, pool.size() - 1);
    std::uniform_int_distribution<int> action(0, 9);
    BindingEnv env;
    std::vector<NaiveAtom> atoms;
    // Open marks: the env's mark and the live-atom count it corresponds to.
    // Every step runs with at least one mark open, so the env's tables grow
    // under open marks.
    std::vector<std::pair<size_t, size_t>> marks;
    size_t peak_terms = 0;  // most distinct terms in the live atoms at once

    for (int step = 0; step < 250; ++step) {
      int a = action(rng);
      if (a == 0 || marks.empty()) {
        marks.emplace_back(env.Mark(), atoms.size());
      }
      if (a <= 7) {
        // Assert one random atom under its own mark; a refused atom is
        // reverted, as the BindingEnv contract asks of callers.
        NaiveAtom atom{pick(rng), pick(rng), a % 2 == 0};
        std::vector<NaiveAtom> with = atoms;
        with.push_back(atom);
        bool expected = CloseNaively(pool, with).satisfiable;
        size_t mark = env.Mark();
        bool ok = atom.is_equality
                      ? env.AssertEqual(pool[atom.lhs], pool[atom.rhs])
                      : env.AssertNotEqual(pool[atom.lhs], pool[atom.rhs]);
        ASSERT_EQ(ok, expected) << "step " << step;
        if (ok) {
          atoms.push_back(atom);
        } else {
          env.Revert(mark);
        }
      } else if (a == 8) {
        // Revert to a random open mark, closing it and every later one.
        std::uniform_int_distribution<size_t> which(0, marks.size() - 1);
        size_t m = which(rng);
        env.Revert(marks[m].first);
        atoms.resize(marks[m].second);
        marks.resize(m);
      }

      // Recompute the closure of the live atoms; a = b can be added iff it
      // joins no two classes bound to different constants or separated by
      // a live disequality.
      NaiveClosure closure = CloseNaively(pool, atoms);
      ASSERT_TRUE(closure.satisfiable);
      const size_t n = pool.size();
      std::vector<bool> live(n);
      for (const NaiveAtom& atom : atoms) {
        live[atom.lhs] = live[atom.rhs] = true;
      }
      peak_terms = std::max<size_t>(
          peak_terms, std::count(live.begin(), live.end(), true));
      std::vector<std::optional<ConstId>> class_const(n);
      for (size_t j = 0; j < n; ++j) {
        if (pool[j].is_constant()) {
          class_const[closure.label[j]] = pool[j].constant();
        }
      }
      std::vector<std::vector<bool>> separated(n, std::vector<bool>(n));
      for (const NaiveAtom& atom : atoms) {
        if (atom.is_equality) continue;
        size_t l = closure.label[atom.lhs];
        size_t r = closure.label[atom.rhs];
        separated[l][r] = separated[r][l] = true;
      }
      for (size_t i = 0; i < n; ++i) {
        size_t li = closure.label[i];
        std::optional<ConstId> value = class_const[li];
        ASSERT_EQ(env.ValueOf(pool[i]), value)
            << "step " << step << " term " << ToString(pool[i]);
        for (size_t j = 0; j < n; ++j) {
          size_t lj = closure.label[j];
          ASSERT_EQ(env.SameClass(pool[i], pool[j]), li == lj)
              << "step " << step << " terms " << ToString(pool[i]) << ", "
              << ToString(pool[j]);
          bool clash = class_const[li] && class_const[lj] &&
                       *class_const[li] != *class_const[lj];
          bool can_equal = li == lj || (!clash && !separated[li][lj]);
          ASSERT_EQ(env.CanEqual(pool[i], pool[j]), can_equal)
              << "step " << step << " terms " << ToString(pool[i]) << ", "
              << ToString(pool[j]);
        }
      }
    }
    // Past 32 live terms the term table has grown from 16 to 128 slots.
    EXPECT_GT(peak_terms, 32u);
  }
}

TEST(AtomCnfTest, EmptyCnfIsSatisfiable) {
  BindingEnv env;
  EXPECT_TRUE(SolveAtomCnf(env, {}));
}

TEST(AtomCnfTest, UnitClausesPropagate) {
  BindingEnv env;
  std::vector<AtomClause> clauses = {{Eq(V(0), C(1))}, {Eq(V(0), C(2))}};
  EXPECT_FALSE(SolveAtomCnf(env, clauses));
}

TEST(AtomCnfTest, BranchingFindsSolution) {
  BindingEnv env;
  // (x=1 or x=2) and (x!=1) -> x=2.
  std::vector<AtomClause> clauses = {{Eq(V(0), C(1)), Eq(V(0), C(2))},
                                     {Neq(V(0), C(1))}};
  EXPECT_TRUE(SolveAtomCnf(env, clauses));
}

TEST(AtomCnfTest, RespectsPreAssertedEnv) {
  BindingEnv env;
  ASSERT_TRUE(env.AssertEqual(V(0), C(1)));
  EXPECT_FALSE(SolveAtomCnf(env, {{Neq(V(0), C(1))}}));
  EXPECT_TRUE(SolveAtomCnf(env, {{Eq(V(0), C(1))}}));
}

TEST(AtomCnfTest, EnvRestoredAfterSolve) {
  BindingEnv env;
  EXPECT_TRUE(SolveAtomCnf(env, {{Eq(V(0), C(1))}}));
  EXPECT_EQ(env.ValueOf(V(0)), std::nullopt);
}

TEST(AtomCnfTest, TriviallyTrueAtomSatisfiesClause) {
  BindingEnv env;
  EXPECT_TRUE(SolveAtomCnf(env, {{Eq(C(1), C(1)), Eq(V(0), C(9))}}));
  EXPECT_FALSE(SolveAtomCnf(env, {{Eq(C(1), C(2))}}));
}

TEST(FormulaTest, TrueFalseAtoms) {
  EXPECT_TRUE(Formula::True().is_true());
  EXPECT_TRUE(Formula::False().is_false());
  EXPECT_TRUE(Formula::MakeAtom(Eq(C(1), C(1))).is_true());
  EXPECT_TRUE(Formula::MakeAtom(Eq(C(1), C(2))).is_false());
}

TEST(FormulaTest, AndOrShortCircuit) {
  Formula atom = Formula::MakeAtom(Eq(V(0), C(1)));
  EXPECT_TRUE(Formula::And(atom, Formula::False()).is_false());
  EXPECT_TRUE(Formula::Or(atom, Formula::True()).is_true());
}

TEST(FormulaTest, DnfOfConjunction) {
  Conjunction c{Eq(V(0), C(1)), Neq(V(1), C(2))};
  auto dnf = Formula::FromConjunction(c).ToDnf();
  ASSERT_EQ(dnf.size(), 1u);
  EXPECT_EQ(dnf[0].size(), 2u);
}

TEST(FormulaTest, DnfDistributesAndOverOr) {
  Formula f = Formula::And(
      Formula::Or(Formula::MakeAtom(Eq(V(0), C(1))),
                  Formula::MakeAtom(Eq(V(0), C(2)))),
      Formula::Or(Formula::MakeAtom(Eq(V(1), C(3))),
                  Formula::MakeAtom(Eq(V(1), C(4)))));
  EXPECT_EQ(f.ToDnf().size(), 4u);
}

TEST(FormulaTest, SatisfiabilityThroughDnf) {
  Formula unsat = Formula::And(Formula::MakeAtom(Eq(V(0), C(1))),
                               Formula::MakeAtom(Eq(V(0), C(2))));
  EXPECT_FALSE(unsat.Satisfiable());
  Formula sat = Formula::Or(unsat, Formula::MakeAtom(Eq(V(1), C(1))));
  EXPECT_TRUE(sat.Satisfiable());
}

TEST(FormulaTest, VariablesCollected) {
  Formula f = Formula::And(Formula::MakeAtom(Eq(V(3), C(1))),
                           Formula::MakeAtom(Neq(V(1), V(3))));
  EXPECT_EQ(f.Variables(), (std::vector<VarId>{1, 3}));
}

}  // namespace
}  // namespace pw
