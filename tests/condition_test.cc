// Unit tests for condition/: atoms, conjunctions, the revertible binding
// environment, the decision layer's one search (ChoiceCnf) and
// ConjImpliesDisjunction, which runs on it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "condition/atom.h"
#include "condition/backend.h"
#include "condition/binding_env.h"
#include "condition/conjunction.h"
#include "condition/interner.h"
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

  // A 60-variable chain asserted from the highest variable down: the
  // representative is the least variable, whatever the union order.
  Conjunction chain;
  for (VarId v = 59; v > 0; --v) chain.Add(Eq(V(v), V(v - 1)));
  canon = chain.CanonicalSubstitution();
  ASSERT_EQ(canon.size(), 60u);
  for (VarId v = 0; v < 60; ++v) EXPECT_EQ(canon.at(v), Term::Var(0)) << v;

  // The same chain bound to a constant at its far end: every variable maps
  // to the constant.
  chain.Add(Eq(V(59), C(8)));
  canon = chain.CanonicalSubstitution();
  ASSERT_EQ(canon.size(), 60u);
  for (VarId v = 0; v < 60; ++v) EXPECT_EQ(canon.at(v), Term::Const(8)) << v;

  // Disequalities merge no classes: each variable is its own
  // representative.
  Conjunction apart{Neq(V(9), V(3)), Neq(V(3), V(6)), Neq(V(6), C(1))};
  canon = apart.CanonicalSubstitution();
  ASSERT_EQ(canon.size(), 3u);
  for (VarId v : {3, 6, 9}) EXPECT_EQ(canon.at(v), Term::Var(v));
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

TEST(BindingEnvTest, EntailsExactlyWhatTheNegationContradicts) {
  // An atom is entailed iff asserting its negation fails: over the infinite
  // domain BindingEnv decides both completely (see the naive-closure test).
  std::vector<Term> pool = {V(0), V(1), V(2), V(3), C(1), C(2), C(3)};
  for (uint32_t seed : {3u, 41u, 977u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937 rng(seed);
    std::uniform_int_distribution<size_t> pick(0, pool.size() - 1);
    BindingEnv env;
    for (int step = 0; step < 12; ++step) {
      CondAtom atom = step % 2 == 0 ? Eq(pool[pick(rng)], pool[pick(rng)])
                                    : Neq(pool[pick(rng)], pool[pick(rng)]);
      size_t mark = env.Mark();
      if (!env.AssertAtom(atom)) env.Revert(mark);
      for (Term a : pool) {
        for (Term b : pool) {
          for (const CondAtom& probe : {Eq(a, b), Neq(a, b)}) {
            size_t before = env.Mark();
            bool contradicts = !env.AssertAtom(Negate(probe));
            env.Revert(before);
            EXPECT_EQ(env.Entails(probe), contradicts)
                << "step " << step << ": " << ToString(probe);
          }
        }
      }
    }
  }
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

// ConjImpliesDisjunction, on ChoiceCnf: lhs implies d1 OR ... OR dk iff no
// valuation of lhs falsifies one atom of every di, i.e. iff the CNF
// (NOT d1) AND ... AND (NOT dk) has no model consistent with lhs. Each case
// below states the CNF it searches.

/// ConjImpliesDisjunction over conjunctions interned into `interner`.
bool ImpliesAny(ConditionInterner& interner, const Conjunction& lhs,
                const std::vector<Conjunction>& disjuncts) {
  std::vector<ConjId> ids;
  for (const Conjunction& d : disjuncts) ids.push_back(interner.Intern(d));
  return ConjImpliesDisjunction(interner, interner.Intern(lhs), ids);
}

bool ImpliesAny(const Conjunction& lhs,
                const std::vector<Conjunction>& disjuncts) {
  ConditionInterner interner;
  return ImpliesAny(interner, lhs, disjuncts);
}

TEST(AtomCnfTest, EmptyCnfIsSatisfiable) {
  // No disjunct: the empty CNF has a model, so true implies nothing.
  EXPECT_FALSE(ImpliesAny(Conjunction(), {}));
  EXPECT_TRUE(ImpliesAny(Conjunction{FalseAtom()}, {}));
}

TEST(AtomCnfTest, UnitClausesPropagate) {
  // CNF (x = 1) AND (x = 2) has no model: true -> x != 1 OR x != 2.
  EXPECT_TRUE(ImpliesAny(Conjunction(), {Conjunction{Neq(V(0), C(1))},
                                         Conjunction{Neq(V(0), C(2))}}));
}

TEST(AtomCnfTest, BranchingFindsSolution) {
  // CNF (x = 1 OR x = 2) AND (x != 1) has the model x = 2, so true does not
  // imply (x != 1 AND x != 2) OR x = 1.
  EXPECT_FALSE(ImpliesAny(Conjunction(),
                          {Conjunction{Neq(V(0), C(1)), Neq(V(0), C(2))},
                           Conjunction{Eq(V(0), C(1))}}));
  // Adding (x != 2) as a clause, i.e. the disjunct x = 2, leaves none.
  EXPECT_TRUE(ImpliesAny(Conjunction(),
                         {Conjunction{Neq(V(0), C(1)), Neq(V(0), C(2))},
                          Conjunction{Eq(V(0), C(1))},
                          Conjunction{Eq(V(0), C(2))}}));
}

TEST(AtomCnfTest, RespectsPreAssertedEnv) {
  // CNF (x != 1 OR y != 2) AND (y = 2): the model y = 2, x != 1 exists, but
  // not under lhs x = 1.
  std::vector<Conjunction> disjuncts = {
      Conjunction{Eq(V(0), C(1)), Eq(V(1), C(2))},
      Conjunction{Neq(V(1), C(2))}};
  EXPECT_FALSE(ImpliesAny(Conjunction(), disjuncts));
  EXPECT_TRUE(ImpliesAny(Conjunction{Eq(V(0), C(1))}, disjuncts));
}

TEST(AtomCnfTest, EnvRestoredAfterSolve) {
  // The first search binds x = 1 on its way to a model; the second, on the
  // same interner, still finds x = 2 for (x != 1) AND (x != 3).
  ConditionInterner interner;
  EXPECT_FALSE(ImpliesAny(interner, Conjunction(),
                          {Conjunction{Neq(V(0), C(1))},
                           Conjunction{Neq(V(0), C(1)), Eq(V(1), C(4))}}));
  EXPECT_FALSE(ImpliesAny(interner, Conjunction(),
                          {Conjunction{Eq(V(0), C(1))},
                           Conjunction{Eq(V(0), C(3))}}));
}

TEST(AtomCnfTest, OnlyAClauseThatHoldsIsSkipped) {
  // CNF (x = y) AND (z != 5) AND (x != y OR z = 5): the first two clauses
  // make both atoms of the third false, so there is no model, and
  // true -> x != y OR z = 5 OR (x = y AND z != 5) holds. The third clause is
  // reached with x, y and z all mentioned, and neither of its atoms holds.
  EXPECT_TRUE(ImpliesAny(Conjunction(),
                         {Conjunction{Neq(V(0), V(1))},
                          Conjunction{Eq(V(2), C(5))},
                          Conjunction{Eq(V(0), V(1)), Neq(V(2), C(5))}}));
  // Mirrored, under lhs x = w: (x != y) AND (z != 5) AND (x = y OR z = 5).
  EXPECT_TRUE(ImpliesAny(Conjunction{Eq(V(0), V(3))},
                         {Conjunction{Eq(V(0), V(1))},
                          Conjunction{Eq(V(2), C(5))},
                          Conjunction{Neq(V(0), V(1)), Neq(V(2), C(5))}}));
  // The same with constants: (y = 3) AND (x = 2) AND (x != 2 OR y != 3),
  // also under lhs x != 1, which records a disequality on x.
  std::vector<Conjunction> disjuncts = {
      Conjunction{Neq(V(1), C(3))}, Conjunction{Neq(V(0), C(2))},
      Conjunction{Eq(V(0), C(2)), Eq(V(1), C(3))}};
  EXPECT_TRUE(ImpliesAny(Conjunction(), disjuncts));
  EXPECT_TRUE(ImpliesAny(Conjunction{Neq(V(0), C(1))}, disjuncts));
  // Dropping the disjunct x != 2 leaves the model y = 3, x != 2, in which the
  // third clause already holds (through lhs) when the search reaches it.
  disjuncts.erase(disjuncts.begin() + 1);
  EXPECT_FALSE(ImpliesAny(Conjunction{Neq(V(0), C(2))}, disjuncts));
}

TEST(AtomCnfTest, TriviallyTrueAtomSatisfiesClause) {
  // The clause (1 = 1 OR x = 9) is its disjunct 1 != 1 AND x != 9, which is
  // false and drops out; the clause (1 = 2) is the disjunct 1 != 2, which is
  // true and makes every implication hold.
  EXPECT_FALSE(ImpliesAny(Conjunction(),
                          {Conjunction{Neq(C(1), C(1)), Neq(V(0), C(9))}}));
  EXPECT_TRUE(ImpliesAny(Conjunction{Eq(V(0), C(5))},
                         {Conjunction{Neq(C(1), C(2))},
                          Conjunction{Eq(V(0), C(6))}}));
}

// ChoiceCnf: is there a choice of one alternative per clause that holds
// together with the base? Each clause below lists its alternatives, each a
// conjunction.
using Clause = std::vector<Conjunction>;

/// Builds `clauses` over `base` into `cnf` and solves; false as soon as the
/// build reports the problem unsatisfiable.
bool SolveChoices(ChoiceCnf& cnf, const Conjunction& base,
                  const std::vector<Clause>& clauses) {
  cnf.Clear();
  if (!cnf.AddBase(base)) return false;
  for (const Clause& clause : clauses) {
    for (const Conjunction& alternative : clause) {
      cnf.AddAtoms(alternative);
      if (cnf.EndAlternative()) break;
    }
    if (!cnf.EndClause()) return false;
  }
  return cnf.Solve();
}

bool SolveChoices(const Conjunction& base, const std::vector<Clause>& clauses) {
  ChoiceCnf cnf;
  return SolveChoices(cnf, base, clauses);
}

TEST(ChoiceCnfTest, AlternativesOfSeveralAtoms) {
  // (x = 1 AND y = 2  OR  x = 2 AND y = 3) AND (y = 3 AND z = 1  OR  y = 1):
  // only x = 2, y = 3, z = 1 satisfies both.
  std::vector<Clause> clauses = {
      {Conjunction{Eq(V(0), C(1)), Eq(V(1), C(2))},
       Conjunction{Eq(V(0), C(2)), Eq(V(1), C(3))}},
      {Conjunction{Eq(V(1), C(3)), Eq(V(2), C(1))},
       Conjunction{Eq(V(1), C(1))}}};
  EXPECT_TRUE(SolveChoices(Conjunction(), clauses));
  // A third clause (x = 1 OR z = 2) rules that choice out, and the first
  // alternative of the first clause fails the second clause.
  clauses.push_back({Conjunction{Eq(V(0), C(1))}, Conjunction{Eq(V(2), C(2))}});
  EXPECT_FALSE(SolveChoices(Conjunction(), clauses));
  // The first two clauses have no choice under the base z != 1 either, and
  // keep theirs under the base y = w.
  EXPECT_FALSE(SolveChoices(Conjunction{Neq(V(2), C(1))},
                            {clauses[0], clauses[1]}));
  EXPECT_TRUE(SolveChoices(Conjunction{Eq(V(1), V(3))},
                           {clauses[0], clauses[1]}));
}

TEST(ChoiceCnfTest, BacktracksThroughEveryClause) {
  // Three pairwise distinct variables over two values have no choice; over
  // three values they have one.
  Conjunction distinct{Neq(V(0), V(1)), Neq(V(0), V(2)), Neq(V(1), V(2))};
  auto values = [](int n) {
    std::vector<Clause> clauses(3);
    for (VarId x = 0; x < 3; ++x) {
      for (ConstId c = 1; c <= static_cast<ConstId>(n); ++c) {
        clauses[x].push_back(Conjunction{Eq(V(x), C(c))});
      }
    }
    return clauses;
  };
  EXPECT_FALSE(SolveChoices(distinct, values(2)));
  EXPECT_TRUE(SolveChoices(distinct, values(3)));
}

TEST(ChoiceCnfTest, SkipsAClauseOnlyWhenAWholeAlternativeIsEntailed) {
  // Clause 1 is (x = 1 AND y = 2  OR  x = 3), clause 2 is (y = 3 OR y = 4).
  // Under the base x = 1 AND y = w, the first alternative's x = 1 is
  // entailed but y = 2 is not: clause 1 must still assert y = 2, which
  // leaves clause 2 no choice. Skipping clause 1 there would find y = 3.
  std::vector<Clause> clauses = {
      {Conjunction{Eq(V(0), C(1)), Eq(V(1), C(2))},
       Conjunction{Eq(V(0), C(3))}},
      {Conjunction{Eq(V(1), C(3))}, Conjunction{Eq(V(1), C(4))}}};
  EXPECT_FALSE(
      SolveChoices(Conjunction{Eq(V(0), C(1)), Eq(V(1), V(3))}, clauses));
  // Under the base x = 1 AND y = w AND w = 2 both atoms are entailed, and
  // the clause holds without a choice; clause 2 still has none.
  EXPECT_FALSE(SolveChoices(
      Conjunction{Eq(V(0), C(1)), Eq(V(1), V(3)), Eq(V(3), C(2))}, clauses));
  // With clause 2 widened to (y = 2 OR y = 4), the entailed clause is
  // skipped and clause 2 takes y = 2.
  clauses[1][0] = Conjunction{Eq(V(1), C(2))};
  EXPECT_TRUE(SolveChoices(
      Conjunction{Eq(V(0), C(1)), Eq(V(1), V(3)), Eq(V(3), C(2))}, clauses));
}

TEST(ChoiceCnfTest, EmptyAlternativeMakesItsClauseHold) {
  ChoiceCnf cnf;
  cnf.Clear();
  ASSERT_TRUE(cnf.AddBase(Conjunction{Eq(V(0), C(1))}));
  // (x = 2 OR true OR x = 3): the trivially true atom leaves the second
  // alternative empty, so the clause holds whatever x is, and the third
  // alternative is ignored.
  cnf.AddAtom(Eq(V(0), C(2)));
  EXPECT_FALSE(cnf.EndAlternative());
  cnf.AddAtom(Eq(C(5), C(5)));
  EXPECT_TRUE(cnf.EndAlternative());
  cnf.AddAtom(Eq(V(0), C(3)));
  EXPECT_TRUE(cnf.EndAlternative());
  EXPECT_TRUE(cnf.EndClause());
  EXPECT_TRUE(cnf.Solve());
  // Without the empty alternative, (x = 2 OR x = 3) fails under x = 1.
  EXPECT_FALSE(SolveChoices(cnf, Conjunction{Eq(V(0), C(1))},
                            {{Conjunction{Eq(V(0), C(2))},
                              Conjunction{Eq(V(0), C(3))}}}));
}

TEST(ChoiceCnfTest, ContradictingUnitClauseEndsTheBuild) {
  ChoiceCnf cnf;
  cnf.Clear();
  ASSERT_TRUE(cnf.AddBase(Conjunction{Neq(V(0), C(1))}));
  // (x = 2 AND y = 3) is a unit clause: it joins the base.
  cnf.AddAtoms(Conjunction{Eq(V(0), C(2)), Eq(V(1), C(3))});
  cnf.EndAlternative();
  EXPECT_TRUE(cnf.EndClause());
  // (y = 4 OR 1 = 2): the second alternative is trivially false, so this is
  // the unit clause y = 4, which contradicts y = 3.
  cnf.AddAtom(Eq(V(1), C(4)));
  cnf.EndAlternative();
  cnf.AddAtom(Eq(C(1), C(2)));
  cnf.EndAlternative();
  EXPECT_FALSE(cnf.EndClause());
  EXPECT_FALSE(cnf.Solve());
  // A clause whose every alternative is trivially false ends it too, and so
  // does a contradictory base.
  EXPECT_FALSE(SolveChoices(cnf, Conjunction(),
                            {{Conjunction{Neq(V(0), V(0))}}}));
  EXPECT_FALSE(SolveChoices(cnf, Conjunction{Eq(V(0), C(1)), Eq(V(0), C(2))},
                            {}));
  // Cleared, the same object answers a satisfiable problem.
  EXPECT_TRUE(SolveChoices(cnf, Conjunction(), {}));
}

TEST(ChoiceCnfTest, TwoSearchesOnOneThreadAreIndependent) {
  // Both are built interleaved over the same variables; a's clauses force
  // x = 1, b's forbid it.
  ChoiceCnf a;
  ChoiceCnf b;
  a.Clear();
  b.Clear();
  ASSERT_TRUE(a.AddBase(Conjunction{Neq(V(0), C(2))}));
  ASSERT_TRUE(b.AddBase(Conjunction{Neq(V(0), C(1))}));
  for (ConstId c : {1, 2}) {
    a.AddAtom(Eq(V(0), C(c)));
    a.EndAlternative();
    b.AddAtom(Eq(V(0), C(c)));
    b.AddAtom(Eq(V(1), C(c)));
    b.EndAlternative();
  }
  ASSERT_TRUE(a.EndClause());
  ASSERT_TRUE(b.EndClause());
  // b: (y = 1) is a unit clause, which with x = 2 AND y = 2 leaves none.
  b.AddAtom(Eq(V(1), C(1)));
  b.EndAlternative();
  ASSERT_TRUE(b.EndClause());
  EXPECT_TRUE(a.Solve());
  EXPECT_FALSE(b.Solve());
  // Reused after Clear, each answers its new problem alone.
  EXPECT_TRUE(SolveChoices(b, Conjunction(), {{Conjunction{Eq(V(0), C(1))}}}));
  EXPECT_FALSE(SolveChoices(a, Conjunction{Eq(V(0), C(2))},
                            {{Conjunction{Eq(V(0), C(1))}}}));
}

}  // namespace
}  // namespace pw
