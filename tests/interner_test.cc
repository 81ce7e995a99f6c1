// Unit tests for the condition interner: atom hash-consing, conjunction
// canonicalization (equality-atom orientation and congruence, duplicate
// atoms), the memoized And, and agreement of the memoized satisfiability
// verdict with the uncached congruence-closure path.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "condition/interner.h"
#include "core/tuple.h"
#include "test_util.h"
#include "workload/random_gen.h"

namespace pw {
namespace {

TEST(InternerTest, AtomsAreHashConsed) {
  ConditionInterner interner;
  AtomId a = interner.InternAtom(Eq(V(1), V(2)));
  AtomId b = interner.InternAtom(Eq(V(2), V(1)));  // Eq normalizes orientation
  AtomId c = interner.InternAtom(Neq(V(1), V(2)));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(interner.AtomOf(a), Eq(V(1), V(2)));
}

TEST(InternerTest, TrueAndFalseAreReserved) {
  ConditionInterner interner;
  EXPECT_EQ(interner.Intern(Conjunction()), ConditionInterner::kTrueConj);
  EXPECT_EQ(interner.Intern(Conjunction{FalseAtom()}),
            ConditionInterner::kFalseConj);
  EXPECT_TRUE(interner.Satisfiable(ConditionInterner::kTrueConj));
  EXPECT_FALSE(interner.Satisfiable(ConditionInterner::kFalseConj));
  EXPECT_EQ(interner.Resolve(ConditionInterner::kTrueConj), Conjunction());
}

TEST(InternerTest, AtomOrderAndDuplicatesDoNotMatter) {
  ConditionInterner interner;
  Conjunction a{Eq(V(0), C(1)), Neq(V(2), C(3))};
  Conjunction b{Neq(V(2), C(3)), Eq(V(0), C(1)), Eq(V(0), C(1))};
  EXPECT_EQ(interner.Intern(a), interner.Intern(b));
}

TEST(InternerTest, TriviallyTrueAtomsDrop) {
  ConditionInterner interner;
  Conjunction a{Eq(V(0), V(0)), Eq(C(2), C(2)), Neq(C(1), C(2))};
  EXPECT_EQ(interner.Intern(a), ConditionInterner::kTrueConj);
}

TEST(InternerTest, EqualityCongruenceCanonicalizes) {
  ConditionInterner interner;
  // {x0 = x1, x1 = 3} and {x1 = 3, x0 = 3} force the same classes.
  Conjunction a{Eq(V(0), V(1)), Eq(V(1), C(3))};
  Conjunction b{Eq(V(1), C(3)), Eq(V(0), C(3))};
  EXPECT_EQ(interner.Intern(a), interner.Intern(b));
  // Canonical form binds each variable to the class constant.
  const Conjunction& canonical = interner.Resolve(interner.Intern(a));
  EXPECT_EQ(canonical, (Conjunction{Eq(V(0), C(3)), Eq(V(1), C(3))}));
}

TEST(InternerTest, VariableClassesUseLeastRepresentative) {
  ConditionInterner interner;
  // {x2 = x1, x1 = x0} == {x0 = x2, x0 = x1}: representative is x0.
  Conjunction a{Eq(V(2), V(1)), Eq(V(1), V(0))};
  Conjunction b{Eq(V(0), V(2)), Eq(V(0), V(1))};
  EXPECT_EQ(interner.Intern(a), interner.Intern(b));
  const Conjunction& canonical = interner.Resolve(interner.Intern(a));
  EXPECT_EQ(canonical, (Conjunction{Eq(V(1), V(0)), Eq(V(2), V(0))}));
}

TEST(InternerTest, InequalitiesRewriteThroughRepresentatives) {
  ConditionInterner interner;
  // x0 = x1 makes x1 != x2 the same as x0 != x2.
  Conjunction a{Eq(V(0), V(1)), Neq(V(1), V(2))};
  Conjunction b{Eq(V(0), V(1)), Neq(V(0), V(2))};
  EXPECT_EQ(interner.Intern(a), interner.Intern(b));
}

TEST(InternerTest, CanonicalFormRewritesThroughClassRepresentatives) {
  // The canonical form is `x = rep(x)` for every variable that is not its
  // own representative, plus the inequalities rewritten through the
  // representatives: the same representatives CanonicalSubstitution gives.
  Conjunction chain;  // x59 = x58, ..., x1 = x0, asserted from the top
  for (VarId v = 59; v > 0; --v) chain.Add(Eq(V(v), V(v - 1)));
  Conjunction bound = chain;
  bound.Add(Eq(V(59), C(8)));
  const Conjunction cases[] = {
      chain,
      bound,
      Conjunction{Neq(V(9), V(3)), Neq(V(3), V(6)), Neq(V(6), C(1))},
      Conjunction::And(chain, Conjunction{Neq(V(59), C(2)),
                                          Neq(V(70), V(31))}),
  };
  for (const Conjunction& c : cases) {
    auto canon = c.CanonicalSubstitution();
    auto rewrite = [&canon](Term t) {
      return t.is_variable() ? canon.at(t.variable()) : t;
    };
    std::vector<CondAtom> expected;
    for (VarId v : c.Variables()) {
      if (canon.at(v) != Term::Var(v)) expected.push_back(Eq(V(v), canon.at(v)));
    }
    for (const CondAtom& a : c.atoms()) {
      if (!a.is_equality) expected.push_back(Neq(rewrite(a.lhs), rewrite(a.rhs)));
    }
    std::sort(expected.begin(), expected.end());
    ConditionInterner interner;
    EXPECT_EQ(interner.Resolve(interner.Intern(c)), Conjunction(expected))
        << c.ToString();
  }
}

TEST(InternerTest, UnsatisfiableConjunctionsShareFalse) {
  ConditionInterner interner;
  EXPECT_EQ(interner.Intern(Conjunction{Eq(V(0), C(1)), Eq(V(0), C(2))}),
            ConditionInterner::kFalseConj);
  EXPECT_EQ(interner.Intern(Conjunction{Neq(V(3), V(3))}),
            ConditionInterner::kFalseConj);
  EXPECT_EQ(
      interner.Intern(Conjunction{Eq(V(0), V(1)), Neq(V(1), V(0))}),
      ConditionInterner::kFalseConj);
}

TEST(InternerTest, AndIsMemoizedAndCorrect) {
  ConditionInterner interner;
  ConjId a = interner.Intern(Conjunction{Eq(V(0), V(1))});
  ConjId b = interner.Intern(Conjunction{Eq(V(1), C(3))});
  ConjId ab = interner.And(a, b);
  // The conjoin forces the full closure {x0 = 3, x1 = 3}.
  EXPECT_EQ(ab, interner.Intern(Conjunction{Eq(V(0), C(3)), Eq(V(1), C(3))}));
  // Trivial cases.
  EXPECT_EQ(interner.And(a, ConditionInterner::kTrueConj), a);
  EXPECT_EQ(interner.And(ConditionInterner::kFalseConj, a),
            ConditionInterner::kFalseConj);
  EXPECT_EQ(interner.And(a, a), a);
  // Commutative pair cache: the second query in either order is a hit.
  interner.ResetStats();
  EXPECT_EQ(interner.And(b, a), ab);
  EXPECT_EQ(interner.stats().and_hits, 1u);
}

TEST(InternerTest, AndDetectsContradictionAcrossOperands) {
  ConditionInterner interner;
  ConjId a = interner.Intern(Conjunction{Eq(V(0), C(1))});
  ConjId b = interner.Intern(Conjunction{Eq(V(0), C(2))});
  EXPECT_EQ(interner.And(a, b), ConditionInterner::kFalseConj);
  ConjId c = interner.Intern(Conjunction{Neq(V(0), C(1))});
  EXPECT_EQ(interner.And(a, c), ConditionInterner::kFalseConj);
}

TEST(InternerTest, SyntacticCacheShortCircuitsRepeats) {
  ConditionInterner interner;
  Conjunction c{Eq(V(0), C(1)), Neq(V(1), C(2))};
  ConjId first = interner.Intern(c);
  interner.ResetStats();
  EXPECT_EQ(interner.Intern(c), first);
  EXPECT_EQ(interner.stats().syntactic_hits, 1u);
}

TEST(InternerTest, MemoizedSatisfiabilityAgreesWithUncachedPath) {
  // Randomized agreement: the interned verdict must equal the uncached
  // congruence-closure path (Conjunction::Satisfiable) on every generated
  // condition — including repeats, which exercise the caches.
  ConditionInterner interner;
  std::mt19937 rng(20260726);
  for (int round = 0; round < 500; ++round) {
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/2, /*num_constants=*/3, /*num_variables=*/3,
        /*num_local_atoms=*/3, /*num_global_atoms=*/3);
    CTable t = RandomCTable(options, rng);
    for (const CRow& row : t.rows()) {
      EXPECT_EQ(interner.Satisfiable(interner.Intern(row.local())),
                row.local().Satisfiable())
          << row.local().ToString();
    }
    EXPECT_EQ(interner.Satisfiable(interner.Intern(t.global())),
              t.global().Satisfiable())
        << t.global().ToString();
    // Conjoining via the interner agrees with raw concatenation.
    for (const CRow& row : t.rows()) {
      Conjunction raw = Conjunction::And(t.global(), row.local());
      ConjId combined =
          interner.And(interner.Intern(t.global()), interner.Intern(row.local()));
      EXPECT_EQ(interner.Satisfiable(combined), raw.Satisfiable())
          << raw.ToString();
    }
  }
}

TEST(InternerTest, ImpliesAgreesWithUncachedImplication) {
  ConditionInterner interner;
  // Subset fast path.
  ConjId strong = interner.Intern(Conjunction{Eq(V(0), C(1)), Neq(V(1), C(2))});
  ConjId weak = interner.Intern(Conjunction{Eq(V(0), C(1))});
  EXPECT_TRUE(interner.Implies(strong, weak));
  EXPECT_FALSE(interner.Implies(weak, strong));
  // Congruence-only implication (no canonical-atom subset): x0 = x1 AND
  // x1 = 3 implies x0 = x1, but the canonical form {x0 = 3, x1 = 3} does not
  // contain that atom.
  ConjId merged = interner.Intern(Conjunction{Eq(V(0), V(1)), Eq(V(1), C(3))});
  ConjId link = interner.Intern(Conjunction{Eq(V(0), V(1))});
  EXPECT_TRUE(interner.Implies(merged, link));
  EXPECT_FALSE(interner.Implies(link, merged));
  // Sentinels.
  EXPECT_TRUE(interner.Implies(ConditionInterner::kFalseConj, strong));
  EXPECT_TRUE(interner.Implies(strong, ConditionInterner::kTrueConj));
  EXPECT_FALSE(interner.Implies(strong, ConditionInterner::kFalseConj));

  // Randomized agreement with the uncached per-atom path, repeats exercising
  // the pair cache.
  std::mt19937 rng(424242);
  for (int round = 0; round < 300; ++round) {
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/1, /*num_rows=*/2, /*num_constants=*/3, /*num_variables=*/3,
        /*num_local_atoms=*/3);
    CTable t = RandomCTable(options, rng);
    const Conjunction& a = t.row(0).local();
    const Conjunction& b = t.row(1).local();
    if (!a.Satisfiable()) continue;
    bool expected = true;
    for (const CondAtom& atom : b.atoms()) {
      if (!a.Implies(atom)) {
        expected = false;
        break;
      }
    }
    EXPECT_EQ(interner.Implies(interner.Intern(a), interner.Intern(b)),
              expected)
        << a.ToString() << " => " << b.ToString();
  }
}

// --- Generational lifecycle --------------------------------------------------

TEST(InternerLifecycleTest, ClearStartsAFreshGeneration) {
  ConditionInterner interner;
  uint64_t stamp0 = interner.stamp();
  EXPECT_NE(stamp0, 0u);
  EXPECT_EQ(interner.generation(), 0u);

  Conjunction c{Eq(V(0), C(1)), Neq(V(1), C(2))};
  ConjId id = interner.Intern(c);
  Conjunction canonical = interner.Resolve(id);
  EXPECT_GT(interner.num_conjunctions(), 2u);

  interner.Clear();
  EXPECT_EQ(interner.generation(), 1u);
  EXPECT_NE(interner.stamp(), stamp0);
  // Back to the two sentinels; re-interning reproduces the canonical form.
  EXPECT_EQ(interner.num_conjunctions(), 2u);
  ConjId re = interner.Intern(c);
  EXPECT_TRUE(interner.Satisfiable(re));
  EXPECT_EQ(interner.Resolve(re), canonical);
}

TEST(InternerLifecycleTest, ClearKeepsStampedRowCachesValid) {
  // A CRow memoizes its interned id against the interner's stamp; a
  // generational Clear must make the row re-intern (same canonical verdict)
  // instead of returning a stale id into the emptied table.
  ConditionInterner interner;
  CRow row(Tuple{V(0)}, Conjunction{Eq(V(0), C(1)), Eq(V(1), V(0))});
  ConjId before = row.LocalId(interner);
  EXPECT_EQ(row.LocalId(interner), before);  // memoized
  Conjunction canonical_before = interner.Resolve(before);

  interner.Clear();
  ConjId after = row.LocalId(interner);
  EXPECT_TRUE(interner.Satisfiable(after));
  EXPECT_EQ(interner.Resolve(after), canonical_before);

  // Unsatisfiable rows keep their verdict across generations too.
  CRow dead(Tuple{V(0)}, Conjunction{Eq(V(0), C(1)), Eq(V(0), C(2))});
  EXPECT_EQ(dead.LocalId(interner), ConditionInterner::kFalseConj);
  interner.Clear();
  EXPECT_EQ(dead.LocalId(interner), ConditionInterner::kFalseConj);
}

TEST(InternerLifecycleTest, RepeatedWorkloadsDoNotGrowTheTable) {
  // Append-only growth bound: re-running the same workload against a live
  // interner interns nothing new — the table size is bounded by the number
  // of distinct conditions, not the number of queries. With a per-request
  // Clear, the size returns to the sentinel floor.
  ConditionInterner interner;
  auto workload = [&interner](int seed) {
    std::mt19937 rng(seed);
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/2, /*num_rows=*/4, /*num_constants=*/3, /*num_variables=*/3,
        /*num_local_atoms=*/2, /*num_global_atoms=*/2);
    CTable t = RandomCTable(options, rng);
    for (const CRow& row : t.rows()) {
      interner.And(t.GlobalId(interner), row.LocalId(interner));
    }
  };

  workload(1);
  size_t after_first = interner.num_conjunctions();
  for (int repeat = 0; repeat < 10; ++repeat) workload(1);
  EXPECT_EQ(interner.num_conjunctions(), after_first);

  workload(2);  // a genuinely new request may grow the table...
  interner.Clear();
  EXPECT_EQ(interner.num_conjunctions(), 2u);  // ...until its generation ends
  workload(3);
  EXPECT_TRUE(interner.num_conjunctions() >= 2u);
}

TEST(InternerLifecycleTest, TableGlobalIdCacheTracksMutationAndGeneration) {
  ConditionInterner interner;
  CTable t(1);
  t.SetGlobal(Conjunction{Neq(V(0), C(1))});
  ConjId g1 = t.GlobalId(interner);
  EXPECT_EQ(t.GlobalId(interner), g1);
  // Mutating the global condition drops the cache.
  t.AddGlobalAtom(Eq(V(0), C(1)));
  EXPECT_EQ(t.GlobalId(interner), ConditionInterner::kFalseConj);
  // A fresh generation re-interns transparently.
  t.SetGlobal(Conjunction{Neq(V(0), C(1))});
  Conjunction canonical = interner.Resolve(t.GlobalId(interner));
  interner.Clear();
  EXPECT_EQ(interner.Resolve(t.GlobalId(interner)), canonical);
}

TEST(InternerTest, CanonicalizationPreservesSemantics) {
  // The canonical form must imply and be implied by the original: check by
  // cross-implication of every atom over randomized conditions.
  ConditionInterner interner;
  std::mt19937 rng(77);
  for (int round = 0; round < 300; ++round) {
    RandomCTableOptions options = testutil::SmallCTableOptions(
        /*arity=*/1, /*num_rows=*/1, /*num_constants=*/3, /*num_variables=*/4,
        /*num_local_atoms=*/4);
    CTable t = RandomCTable(options, rng);
    const Conjunction& original = t.row(0).local();
    if (!original.Satisfiable()) {
      EXPECT_EQ(interner.Intern(original), ConditionInterner::kFalseConj);
      continue;
    }
    const Conjunction& canonical = interner.Resolve(interner.Intern(original));
    for (const CondAtom& atom : canonical.atoms()) {
      EXPECT_TRUE(original.Implies(atom))
          << original.ToString() << " !=> " << ToString(atom);
    }
    for (const CondAtom& atom : original.atoms()) {
      EXPECT_TRUE(canonical.Implies(atom))
          << canonical.ToString() << " !=> " << ToString(atom);
    }
  }
}

}  // namespace
}  // namespace pw
