// The ConditionBackend seam itself (FromConj, And, SatisfiableWith): the
// conjunctive backend as an interner passthrough, node canonicity and the
// DD-only calls (Or, Satisfiable, AppendDisjuncts) of the decision-diagram
// backend, and the bounded-memo contracts — eviction
// (interner memo shards, DD op-cache overwrites) may cost recomputation but
// can never change a verdict or an id, and the interner's implication memo,
// keyed on the ordered pair, stays consistent across Clear() generations.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "condition/backend.h"
#include "condition/conjunction.h"
#include "condition/dd_backend.h"
#include "condition/interner.h"
#include "core/tuple.h"

namespace pw {
namespace {

Conjunction RandomConjunction(std::mt19937& rng) {
  std::uniform_int_distribution<int> natoms(1, 3);
  std::uniform_int_distribution<int> var(0, 3);
  std::uniform_int_distribution<int> constant(0, 3);
  std::uniform_int_distribution<int> kind(0, 3);
  Conjunction c;
  int n = natoms(rng);
  for (int i = 0; i < n; ++i) {
    switch (kind(rng)) {
      case 0:
        c.Add(Eq(V(var(rng)), C(constant(rng))));
        break;
      case 1:
        c.Add(Neq(V(var(rng)), C(constant(rng))));
        break;
      case 2:
        c.Add(Eq(V(var(rng)), V(var(rng))));
        break;
      default:
        c.Add(Neq(V(var(rng)), V(var(rng))));
        break;
    }
  }
  return c;
}

TEST(ConjunctiveBackendTest, PassesThroughToTheInterner) {
  // The conjunctive backend's CondIds are the interner's ConjIds, and each
  // of the seam's three calls is the interner's own memoized operation; the
  // fixpoint keeps each tuple's antichain itself.
  ConditionInterner interner;
  std::shared_ptr<ConditionBackend> backend =
      MakeConditionBackend(ConditionBackendKind::kConjunctions, interner);

  ConjId eq = interner.Intern(Conjunction{Eq(V(0), C(1))});
  ConjId neq = interner.Intern(Conjunction{Neq(V(0), C(1))});
  ConjId other = interner.Intern(Conjunction{Eq(V(1), C(2))});

  EXPECT_EQ(backend->FromConj(eq), CondId{eq});
  EXPECT_EQ(backend->And(eq, other), CondId{interner.And(eq, other)});
  EXPECT_EQ(backend->And(eq, neq), ConditionBackend::kFalseCond);
  EXPECT_TRUE(backend->SatisfiableWith(ConditionInterner::kTrueConj, eq));
  EXPECT_TRUE(backend->SatisfiableWith(other, eq));
  EXPECT_FALSE(backend->SatisfiableWith(neq, eq));
}

TEST(DDBackendTest, NodesAreCanonicalAndTheoryAware) {
  ConditionInterner interner;
  DDBackend dd(interner);

  ConjId eq = interner.Intern(Conjunction{Eq(V(0), C(1))});
  ConjId neq = interner.Intern(Conjunction{Neq(V(0), C(1))});
  ConjId both = interner.Intern(Conjunction{Eq(V(0), C(1)), Eq(V(1), C(2))});

  // Hash-consing: one id per function, however it is reached.
  CondId a = dd.FromConj(eq);
  EXPECT_EQ(a, dd.FromConj(eq));
  CondId b = dd.FromConj(neq);
  EXPECT_EQ(dd.And(a, b), dd.And(b, a));
  EXPECT_EQ(dd.Or(a, b), dd.Or(b, a));
  EXPECT_EQ(dd.Or(a, dd.And(a, b)), a);

  // Propositionally `x0 = 1` and `x0 != 1` are distinct decision variables;
  // the theory layer must still see that together they are exhaustive (the
  // members of their disjunction cover every valuation) and exclusive.
  std::vector<ConjId> either;
  dd.AppendDisjuncts(dd.Or(a, b), &either);
  EXPECT_TRUE(ConjImpliesDisjunction(interner, ConditionInterner::kTrueConj,
                                     either));
  EXPECT_FALSE(dd.Satisfiable(dd.And(a, b)));

  // Conjunction chains imply their sub-conjunctions, not vice versa: the
  // chain absorbs into the sub-conjunction, and not the other way round.
  CondId ab = dd.FromConj(both);
  EXPECT_EQ(dd.And(ab, a), ab);
  EXPECT_EQ(dd.Or(ab, a), a);
  EXPECT_NE(dd.Or(ab, a), ab);

  // The DNF expansion of a pure conjunction is that conjunction.
  std::vector<ConjId> disjuncts;
  dd.AppendDisjuncts(ab, &disjuncts);
  EXPECT_EQ(disjuncts, std::vector<ConjId>{both});
}

TEST(DDBackendTest, UniqueTableGrowthKeepsIdsCanonical) {
  // Two diagram backends over one interner; the second has a one-slot op
  // cache, so it forgets almost every result and recomputes it. Driven
  // through the same operations while the unique table grows from its first
  // 16 slots past 10k nodes, they must agree on every id, the node count and
  // every verdict; and within each, one function reached by two different
  // operation orders must get one id. The node vector moves as it grows, so
  // a recursion that held a node reference across it would read freed
  // memory (ASan reports it).
  std::mt19937 rng(60606);
  std::uniform_int_distribution<int> natoms(3, 5);
  std::uniform_int_distribution<int> var(0, 47);
  std::uniform_int_distribution<int> constant(0, 11);
  std::uniform_int_distribution<int> kind(0, 3);
  auto random_conj = [&] {
    Conjunction c;
    for (int i = natoms(rng); i > 0; --i) {
      int k = kind(rng);
      Term lhs = V(var(rng));
      Term rhs = k < 2 ? C(constant(rng)) : V(var(rng));
      c.Add(k % 2 == 0 ? Eq(lhs, rhs) : Neq(lhs, rhs));
    }
    return c;
  };

  ConditionInterner interner;
  DDBackend cached(interner);
  DDBackend forgetful(interner);
  forgetful.SetOpCacheCapacity(1);

  std::vector<CondId> sums;
  while (cached.num_nodes() <= 10000) {
    SCOPED_TRACE("group " + std::to_string(sums.size()));
    CondId leaf[4];
    for (CondId& l : leaf) {
      ConjId conj = interner.Intern(random_conj());
      l = cached.FromConj(conj);
      ASSERT_EQ(forgetful.FromConj(conj), l);
    }
    for (DDBackend* dd : {&cached, &forgetful}) {
      // Left fold against right fold in the opposite order.
      CondId left = dd->Or(dd->Or(dd->Or(leaf[0], leaf[1]), leaf[2]), leaf[3]);
      CondId right = dd->Or(leaf[3], dd->Or(leaf[2], dd->Or(leaf[1], leaf[0])));
      ASSERT_EQ(left, right);
      // (l0 | l1) & (l2 | l3), factored and distributed.
      CondId factored =
          dd->And(dd->Or(leaf[0], leaf[1]), dd->Or(leaf[2], leaf[3]));
      CondId distributed =
          dd->Or(dd->Or(dd->And(leaf[0], leaf[2]), dd->And(leaf[0], leaf[3])),
                 dd->Or(dd->And(leaf[1], leaf[2]), dd->And(leaf[1], leaf[3])));
      ASSERT_EQ(factored, distributed);
      // The product implies the sum, so each absorbs into the other.
      ASSERT_EQ(dd->And(left, factored), factored);
      ASSERT_EQ(dd->Or(factored, left), left);
      if (dd == &cached) {
        sums.push_back(left);
        sums.push_back(factored);
      } else {
        ASSERT_EQ(left, sums[sums.size() - 2]);
        ASSERT_EQ(factored, sums.back());
      }
    }
    ASSERT_EQ(forgetful.num_nodes(), cached.num_nodes());
  }
  EXPECT_GT(cached.num_nodes(), 10000u);

  for (size_t i = 1; i < sums.size(); ++i) {
    ASSERT_EQ(cached.Satisfiable(sums[i]), forgetful.Satisfiable(sums[i]))
        << "sum " << i;
    CondId meet = cached.And(sums[i], sums[i - 1]);
    ASSERT_EQ(forgetful.And(sums[i], sums[i - 1]), meet) << "sum " << i;
    ASSERT_EQ(cached.Satisfiable(meet), forgetful.Satisfiable(meet))
        << "sum " << i;
    ASSERT_EQ(cached.Or(sums[i], sums[i - 1]),
              forgetful.Or(sums[i], sums[i - 1]))
        << "sum " << i;
  }
  EXPECT_EQ(forgetful.num_nodes(), cached.num_nodes());
}

TEST(ConditionBackendTest, InternerMemoEvictionNeverChangesVerdicts) {
  // Same Intern sequence on both sides, so the pools get identical ids; the
  // unlimited interner keeps every And/Implies memo entry, the bounded one
  // is forced to drop shards constantly. Every verdict and every And result
  // id must still match — eviction may only cost recomputation.
  std::mt19937 rng(11742);
  std::vector<Conjunction> pool;
  for (int i = 0; i < 30; ++i) pool.push_back(RandomConjunction(rng));

  ConditionInterner unlimited;
  ConditionInterner bounded;
  bounded.SetMemoCapacity(2);
  std::vector<ConjId> ids_a;
  std::vector<ConjId> ids_b;
  for (const Conjunction& c : pool) {
    ids_a.push_back(unlimited.Intern(c));
    ids_b.push_back(bounded.Intern(c));
  }
  ASSERT_EQ(ids_a, ids_b);

  for (int pass = 0; pass < 2; ++pass) {  // second pass re-misses evictees
    for (size_t i = 0; i < ids_a.size(); ++i) {
      for (size_t j = 0; j < ids_a.size(); ++j) {
        ASSERT_EQ(unlimited.And(ids_a[i], ids_a[j]),
                  bounded.And(ids_b[i], ids_b[j]))
            << "And diverged under memo eviction on pair (" << i << ", " << j
            << ")";
        ASSERT_EQ(unlimited.Implies(ids_a[i], ids_a[j]),
                  bounded.Implies(ids_b[i], ids_b[j]))
            << "Implies diverged under memo eviction on pair (" << i << ", "
            << j << ")";
      }
    }
  }
  EXPECT_GT(bounded.memo_evictions(), 0u);
  EXPECT_EQ(unlimited.memo_evictions(), 0u);
}

TEST(ConditionBackendTest, DDOpCacheEvictionNeverChangesVerdicts) {
  // Two diagram backends over one interner, driven through an identical
  // operation sequence. Op-cache hits only short-circuit recomputation and
  // recomputation re-finds every node in the (never-evicted) unique table,
  // so even the returned ids must be identical under constant eviction.
  std::mt19937 rng(22817);
  ConditionInterner interner;
  DDBackend unlimited(interner);
  DDBackend bounded(interner);
  bounded.SetOpCacheCapacity(2);

  std::vector<CondId> ids_a;
  std::vector<CondId> ids_b;
  for (int i = 0; i < 12; ++i) {
    ConjId leaf = interner.Intern(RandomConjunction(rng));
    ids_a.push_back(unlimited.FromConj(leaf));
    ids_b.push_back(bounded.FromConj(leaf));
  }
  std::uniform_int_distribution<int> coin(0, 1);
  for (int step = 0; step < 40; ++step) {
    std::uniform_int_distribution<size_t> pick(0, ids_a.size() - 1);
    size_t i = pick(rng);
    size_t j = pick(rng);
    bool is_and = coin(rng) == 0;
    CondId a = is_and ? unlimited.And(ids_a[i], ids_a[j])
                      : unlimited.Or(ids_a[i], ids_a[j]);
    CondId b = is_and ? bounded.And(ids_b[i], ids_b[j])
                      : bounded.Or(ids_b[i], ids_b[j]);
    ASSERT_EQ(a, b) << "diagram ids diverged under op-cache eviction at step "
                    << step;
    ids_a.push_back(a);
    ids_b.push_back(b);
  }
  for (size_t i = 0; i < ids_a.size(); ++i) {
    ASSERT_EQ(unlimited.Satisfiable(ids_a[i]), bounded.Satisfiable(ids_b[i]));
    for (size_t j = 0; j < ids_a.size(); ++j) {
      // Whether the pair can hold together: a satisfiability verdict on a
      // meet the sequence above did not necessarily build.
      CondId meet_a = unlimited.And(ids_a[i], ids_a[j]);
      CondId meet_b = bounded.And(ids_b[i], ids_b[j]);
      ASSERT_EQ(meet_a, meet_b);
      ASSERT_EQ(unlimited.Satisfiable(meet_a), bounded.Satisfiable(meet_b))
          << "Satisfiable diverged under op-cache eviction on pair (" << i
          << ", " << j << ")";
    }
  }
  EXPECT_GT(bounded.op_cache_evictions(), 0u);
  EXPECT_LT(unlimited.op_cache_evictions(), bounded.op_cache_evictions());
}

TEST(ConditionBackendTest, ImpliesMemoStableAcrossRebaseGenerations) {
  // The interner's Implies memo keys on the *ordered* (lhs, rhs) pair, and
  // that is load-bearing: implication is asymmetric, so a canonical
  // (min, max) key would conflate a true direction with its false converse.
  // Each generation (a Clear() apart, so ids are handed out afresh) asks
  // every pair of a pool in both orders, first cold and then from the memo,
  // and checks the verdicts against the uncached per-atom implication.
  std::mt19937 rng(33911);
  ConditionInterner interner;
  for (int gen = 0; gen < 3; ++gen) {
    SCOPED_TRACE("generation " + std::to_string(gen));
    if (gen > 0) interner.Clear();
    std::vector<Conjunction> pool;
    std::vector<ConjId> ids;
    for (int i = 0; i < 20; ++i) {
      pool.push_back(RandomConjunction(rng));
      ids.push_back(interner.Intern(pool.back()));
    }
    std::vector<std::vector<bool>> expected(ids.size(),
                                            std::vector<bool>(ids.size()));
    bool saw_asymmetric_pair = false;
    for (size_t i = 0; i < ids.size(); ++i) {
      for (size_t j = 0; j < ids.size(); ++j) {
        bool implies = !pool[i].Satisfiable();
        if (!implies) {
          implies = true;
          for (const CondAtom& atom : pool[j].atoms()) {
            implies = implies && pool[i].Implies(atom);
          }
        }
        expected[i][j] = implies;
      }
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      for (size_t j = 0; j < ids.size(); ++j) {
        if (expected[i][j] != expected[j][i]) saw_asymmetric_pair = true;
      }
    }
    EXPECT_TRUE(saw_asymmetric_pair)
        << "pool too degenerate to exercise ordered-pair keying";

    // The second pass answers from the memo (the subset fast path plus the
    // ordered-pair cache); the verdicts — both directions of every
    // asymmetric pair included — must not move.
    for (int pass = 0; pass < 2; ++pass) {
      uint64_t hits_before = interner.stats().implies_hits;
      for (size_t i = 0; i < ids.size(); ++i) {
        for (size_t j = 0; j < ids.size(); ++j) {
          ASSERT_EQ(interner.Implies(ids[i], ids[j]), expected[i][j])
              << "pass " << pass << " diverged on pair (" << i << ", " << j
              << ")";
        }
      }
      if (pass == 1) {
        EXPECT_GT(interner.stats().implies_hits, hits_before);
      }
    }
  }
}

}  // namespace
}  // namespace pw
