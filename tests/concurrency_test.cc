// Concurrency suite: the shared interner, the parallel semi-naive
// fixpoint, and versioned snapshot reads, each checked against its
// sequential twin.
//
// Three layers, mirroring the threading model (README "Threading model"):
//
//  1. Primitives — StableStore publication, ThreadPool task coverage, and
//     concurrent Index() calls on a frozen CTable.
//
//  2. The shared ConditionInterner — many threads interning overlapping
//     conjunction pools must agree on every id (hash-consing is a pure
//     function of the input, so agreement is exact, not just semantic),
//     and And-folds over shuffled orders must land on the same canonical
//     id.
//
//  3. Whole-engine differentials — the parallel fixpoint
//     (DatalogCTableOptions::num_threads) must emit *identical* tables to
//     the sequential schedule (same rows, same order, same conditions);
//     a VersionedCDatabase driven by a writer thread while readers take
//     snapshots and run conditioned queries must hand every reader a
//     state identical to the sequential recompute of the version it read.
//
// The randomized families reproduce like the differential suite: every
// case logs its seed, and setting PW_DIFF_SEED reruns exactly that case.
//
// These tests are labeled `stress` in ctest (tests/CMakeLists.txt); the
// TSan CI lane additionally loops them with --repeat until-fail to shake
// out schedule-dependent interleavings.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "condition/dd_backend.h"
#include "condition/interner.h"
#include "decision/certainty.h"
#include "decision/possibility.h"
#include "ilalgebra/datalog_ctable.h"
#include "datalog/ivm.h"
#include "tables/ctable.h"
#include "tables/snapshot.h"
#include "tables/updates.h"
#include "util/stable_store.h"
#include "util/thread_pool.h"

namespace pw {
namespace {

// --- Seed plumbing (PW_DIFF_SEED reruns one case) ---------------------------

bool SingleSeed(uint32_t* seed) {
  const char* env = std::getenv("PW_DIFF_SEED");
  if (env == nullptr) return false;
  *seed = static_cast<uint32_t>(std::strtoul(env, nullptr, 10));
  return true;
}

std::vector<uint32_t> Seeds(uint32_t base, int count) {
  uint32_t single;
  if (SingleSeed(&single)) return {single};
  std::vector<uint32_t> seeds;
  for (int i = 0; i < count; ++i) seeds.push_back(base + i);
  return seeds;
}

// --- Primitives -------------------------------------------------------------

TEST(StableStoreTest, AppendAndReadAcrossBlockBoundaries) {
  StableStore<size_t> store;
  // Far enough to cross several geometric block boundaries (1024, 2048, ...).
  constexpr size_t kCount = 10000;
  for (size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(store.Append(i), i);
  }
  EXPECT_EQ(store.size(), kCount);
  for (size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(store[i], i);
  }
}

TEST(StableStoreTest, ReferencesStayValidAcrossAppends) {
  StableStore<size_t> store;
  store.Append(42);
  const size_t* first = &store[0];
  for (size_t i = 1; i < 5000; ++i) store.Append(i);
  EXPECT_EQ(&store[0], first);  // no reallocation, ever
  EXPECT_EQ(*first, 42u);
}

TEST(StableStoreStressTest, ConcurrentReadersDuringAppends) {
  StableStore<size_t> store;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&store, &stop] {
      while (!stop.load(std::memory_order_acquire)) {
        size_t n = store.size();
        for (size_t i = 0; i < n; ++i) {
          // Every published element must read back as written.
          ASSERT_EQ(store[i], i);
        }
      }
    });
  }
  for (size_t i = 0; i < 20000; ++i) store.Append(i);
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
}

TEST(ThreadPoolStressTest, ParallelForRunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  // Repeated jobs through one pool: no task lost, none duplicated, worker
  // ids in range.
  for (int round = 0; round < 50; ++round) {
    constexpr size_t kTasks = 197;
    std::vector<std::atomic<int>> hits(kTasks);
    for (auto& h : hits) h.store(0);
    pool.ParallelFor(kTasks, [&](size_t task, size_t worker) {
      ASSERT_LT(worker, 4u);
      hits[task].fetch_add(1);
    });
    for (size_t i = 0; i < kTasks; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "task " << i << " round " << round;
    }
  }
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  std::thread::id caller = std::this_thread::get_id();
  pool.ParallelFor(10, [&](size_t, size_t worker) {
    EXPECT_EQ(worker, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(CTableStressTest, ConcurrentIndexCallsOnFrozenTable) {
  ConditionInterner interner;
  CTable t(2);
  for (int i = 0; i < 200; ++i) {
    t.AddRow(Tuple{C(i % 17), C(i)});
  }
  t.PrepareForSharing(interner);
  ASSERT_TRUE(t.frozen());

  std::vector<std::thread> threads;
  for (int r = 0; r < 8; ++r) {
    threads.emplace_back([&t] {
      for (int iter = 0; iter < 50; ++iter) {
        // Both column sets, interleaved: the cache builds each lazily under
        // its mutex; probes on the returned reference are lock-free.
        const TupleIndex& by_first = t.Index({0});
        std::vector<size_t> hits =
            by_first.Candidates(Tuple{C(3)}, 0, t.num_rows());
        size_t expect = 0;
        for (size_t i = 0; i < t.num_rows(); ++i) {
          if (t.row(i).tuple[0] == C(3)) ++expect;
        }
        ASSERT_EQ(hits.size(), expect);
        const TupleIndex& by_second = t.Index({1});
        ASSERT_EQ(by_second.Candidates(Tuple{C(7)}, 0, t.num_rows()).size(),
                  1u);
      }
    });
  }
  for (std::thread& th : threads) th.join();
}

// --- Shared interner --------------------------------------------------------

Conjunction RandomConjunction(std::mt19937& rng) {
  std::uniform_int_distribution<int> natoms(1, 3);
  std::uniform_int_distribution<int> var(0, 5);
  std::uniform_int_distribution<int> constant(0, 4);
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

TEST(SharedInternerStressTest, ThreadsAgreeOnEveryId) {
  for (uint32_t seed : Seeds(7100, 3)) {
    SCOPED_TRACE("PW_DIFF_SEED=" + std::to_string(seed));
    std::mt19937 rng(seed);
    std::vector<Conjunction> pool;
    for (int i = 0; i < 200; ++i) pool.push_back(RandomConjunction(rng));

    ConditionInterner interner;
    interner.EnableSharing();
    constexpr int kThreads = 8;
    std::vector<std::vector<ConjId>> ids(kThreads,
                                         std::vector<ConjId>(pool.size()));
    std::vector<ConjId> folds(kThreads);
    std::vector<std::thread> threads;
    for (int th = 0; th < kThreads; ++th) {
      threads.emplace_back([&, th] {
        // Each thread interns the whole pool in its own order, twice (the
        // second pass must be all cache hits), and And-folds a shuffled
        // order (the canonical result is order-independent).
        std::mt19937 order_rng(seed + 1000 + th);
        std::vector<size_t> order(pool.size());
        for (size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::shuffle(order.begin(), order.end(), order_rng);
        for (int pass = 0; pass < 2; ++pass) {
          for (size_t i : order) {
            ids[th][i] = interner.Intern(pool[i]);
          }
        }
        ConjId fold = ConditionInterner::kTrueConj;
        for (size_t i = 0; i < 32; ++i) {
          fold = interner.And(fold, ids[th][order[i]]);
        }
        folds[th] = fold;
      });
    }
    for (std::thread& t : threads) t.join();

    for (int th = 1; th < kThreads; ++th) {
      ASSERT_EQ(ids[th], ids[0]);
    }
    // Sequential re-intern on the same instance: still the same ids.
    for (size_t i = 0; i < pool.size(); ++i) {
      ASSERT_EQ(interner.Intern(pool[i]), ids[0][i]);
    }
    // The folds combined different prefixes per thread, but every thread
    // that folded the same *set* must agree; verify against a sequential
    // And over thread 0's shuffled order recomputed here.
    for (int th = 0; th < kThreads; ++th) {
      std::mt19937 order_rng(seed + 1000 + th);
      std::vector<size_t> order(pool.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::shuffle(order.begin(), order.end(), order_rng);
      ConjId fold = ConditionInterner::kTrueConj;
      for (size_t i = 0; i < 32; ++i) {
        fold = interner.And(fold, ids[0][order[i]]);
      }
      ASSERT_EQ(folds[th], fold);
    }
  }
}

TEST(SharedInternerStressTest, ConcurrentImpliesAndSatisfiable) {
  std::mt19937 rng(7200);
  ConditionInterner interner;
  interner.EnableSharing();
  std::vector<ConjId> ids;
  for (int i = 0; i < 60; ++i) {
    ids.push_back(interner.Intern(RandomConjunction(rng)));
  }
  // Sequential answers first (they cache; concurrent reads must agree).
  std::vector<std::vector<bool>> expect(ids.size(),
                                        std::vector<bool>(ids.size()));
  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t j = 0; j < ids.size(); ++j) {
      expect[i][j] = interner.Implies(ids[i], ids[j]);
    }
  }
  std::vector<std::thread> threads;
  for (int th = 0; th < 8; ++th) {
    threads.emplace_back([&, th] {
      std::mt19937 trng(7300 + th);
      std::uniform_int_distribution<size_t> pick(0, ids.size() - 1);
      for (int iter = 0; iter < 2000; ++iter) {
        size_t i = pick(trng);
        size_t j = pick(trng);
        ASSERT_EQ(interner.Implies(ids[i], ids[j]), expect[i][j]);
        ASSERT_EQ(interner.Satisfiable(interner.And(ids[i], ids[j])),
                  interner.And(ids[i], ids[j]) !=
                      ConditionInterner::kFalseConj);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

// --- Parallel fixpoint vs the sequential schedule ---------------------------

DatalogProgram TransitiveClosure() {
  DatalogProgram p({2, 2}, 1);
  DatalogRule base;
  base.head = {1, Tuple{V(100), V(101)}};
  base.body = {{0, Tuple{V(100), V(101)}}};
  p.AddRule(base);
  DatalogRule step;
  step.head = {1, Tuple{V(100), V(102)}};
  step.body = {{1, Tuple{V(100), V(101)}}, {0, Tuple{V(101), V(102)}}};
  p.AddRule(step);
  return p;
}

/// Chain 0 -> 1 -> ... -> n with every `gap`-th edge through a null
/// (shared: the same null each time), like the bench workload — large
/// enough deltas to actually engage the parallel rounds.
CDatabase Chain(int n, int gap, bool shared) {
  CTable t(2);
  for (int i = 0; i < n; ++i) {
    if (gap > 0 && i % gap == gap - 1) {
      VarId null = shared ? 0 : i;
      t.AddRow(Tuple{C(i), V(null)});
      t.AddRow(Tuple{V(null), C(i + 1)});
    } else {
      t.AddRow(Tuple{C(i), C(i + 1)});
    }
  }
  return CDatabase{t};
}

void ExpectIdenticalDatabases(const CDatabase& a, const CDatabase& b) {
  ASSERT_EQ(a.num_tables(), b.num_tables());
  for (size_t i = 0; i < a.num_tables(); ++i) {
    // Row-for-row, condition-for-condition: the parallel schedule promises
    // byte-identity, not just set equality.
    ASSERT_EQ(a.table(i), b.table(i)) << "table " << i;
  }
}

TEST(ParallelFixpointTest, IdenticalToSequentialOnChains) {
  struct Case {
    int n;
    int gap;
    bool shared;
  };
  const Case cases[] = {{64, 0, false}, {24, 3, true}, {12, 4, false}};
  DatalogProgram tc = TransitiveClosure();
  for (const Case& c : cases) {
    CDatabase db = Chain(c.n, c.gap, c.shared);

    ConditionedFixpointStats seq_stats;
    CDatabase seq_out = DatalogOnCTables(tc, db, &seq_stats);

    ConditionInterner shared_interner;
    shared_interner.EnableSharing();
    DatalogCTableOptions par;
    par.interner = &shared_interner;
    par.num_threads = 4;
    ConditionedFixpointStats par_stats;
    CDatabase par_out = DatalogOnCTables(tc, db, &par_stats, par);

    ExpectIdenticalDatabases(par_out, seq_out);
    // The insert sequence is identical, so every row-level counter matches;
    // only join-side counters (pruned branches, index probes) may differ.
    EXPECT_EQ(par_stats.derived_rows, seq_stats.derived_rows);
    EXPECT_EQ(par_stats.duplicate_rows, seq_stats.duplicate_rows);
    EXPECT_EQ(par_stats.subsumed_rows, seq_stats.subsumed_rows);
    EXPECT_EQ(par_stats.unsatisfiable_rows, seq_stats.unsatisfiable_rows);
    EXPECT_EQ(par_stats.rounds, seq_stats.rounds);
  }
}

TEST(ParallelFixpointTest, FallsBackWhenInternerNotShared) {
  // num_threads > 1 without EnableSharing: silently sequential, same
  // result (the option documents this fallback).
  DatalogProgram tc = TransitiveClosure();
  CDatabase db = Chain(48, 0, false);
  ConditionInterner plain;
  DatalogCTableOptions options;
  options.interner = &plain;
  options.num_threads = 4;
  CDatabase out = DatalogOnCTables(tc, db, nullptr, options);
  CDatabase seq_out = DatalogOnCTables(tc, db, nullptr, {});
  ExpectIdenticalDatabases(out, seq_out);
}

TEST(ParallelFixpointTest, MaterializedViewMaintainsIdenticallyInParallel) {
  // The IVM resume paths (Run() re-entry and RunCone after deletes) under
  // num_threads=4 against the sequential view, over an update stream.
  DatalogProgram tc = TransitiveClosure();
  CDatabase db = Chain(32, 0, false);

  MaterializedView seq_view(tc, db);

  ConditionInterner shared_interner;
  shared_interner.EnableSharing();
  MaterializedViewOptions par_options;
  par_options.eval.interner = &shared_interner;
  par_options.eval.num_threads = 4;
  MaterializedView par_view(tc, db, par_options);

  for (int u = 0; u < 32; ++u) {
    if (u % 8 == 7) {
      Fact edge{u, u + 1};
      seq_view.Delete(0, edge);
      par_view.Delete(0, edge);
    } else {
      Fact edge{32 + u, 32 + u + 1};
      seq_view.Insert(0, edge);
      par_view.Insert(0, edge);
    }
    CDatabase seq_mat = seq_view.Materialized();
    CDatabase par_mat = par_view.Materialized();
    ExpectIdenticalDatabases(par_mat, seq_mat);
  }
}

// --- Shared decision-diagram backend ----------------------------------------

TEST(SharedDDBackendStressTest, ThreadsAgreeOnEveryIdAndVerdict) {
  // Many threads drive one DDBackend over a shared interner through the
  // same (And/Or/Implies/Satisfiable) workload in their own orders. Diagram
  // ids are hash-consed — a pure function of the operands — so every thread
  // must land on the SAME CondId for each combination and the same verdict
  // for each query, while the unique-table and op-cache insertions race.
  for (uint32_t seed : Seeds(7500, 3)) {
    SCOPED_TRACE("PW_DIFF_SEED=" + std::to_string(seed));
    std::mt19937 rng(seed);
    ConditionInterner interner;
    interner.EnableSharing();
    DDBackend dd(interner);
    std::vector<CondId> leaves;
    for (int i = 0; i < 40; ++i) {
      leaves.push_back(dd.FromConj(interner.Intern(RandomConjunction(rng))));
    }

    constexpr int kThreads = 8;
    const size_t n = leaves.size();
    struct PairResult {
      CondId and_id;
      CondId or_id;
      bool implies;
      bool sat_and;
    };
    std::vector<std::vector<PairResult>> results(
        kThreads, std::vector<PairResult>(n * n));
    std::vector<std::thread> threads;
    for (int th = 0; th < kThreads; ++th) {
      threads.emplace_back([&, th] {
        std::mt19937 order_rng(seed + 500 + th);
        std::vector<size_t> order(n * n);
        for (size_t k = 0; k < order.size(); ++k) order[k] = k;
        std::shuffle(order.begin(), order.end(), order_rng);
        for (size_t k : order) {
          size_t i = k / n;
          size_t j = k % n;
          PairResult r;
          r.and_id = dd.And(leaves[i], leaves[j]);
          r.or_id = dd.Or(leaves[i], leaves[j]);
          r.implies = dd.Implies(leaves[i], leaves[j]);
          r.sat_and = dd.Satisfiable(r.and_id);
          results[th][k] = r;
        }
      });
    }
    for (std::thread& t : threads) t.join();

    for (int th = 1; th < kThreads; ++th) {
      for (size_t k = 0; k < n * n; ++k) {
        ASSERT_EQ(results[th][k].and_id, results[0][k].and_id)
            << "thread " << th << " pair " << k;
        ASSERT_EQ(results[th][k].or_id, results[0][k].or_id)
            << "thread " << th << " pair " << k;
        ASSERT_EQ(results[th][k].implies, results[0][k].implies)
            << "thread " << th << " pair " << k;
        ASSERT_EQ(results[th][k].sat_and, results[0][k].sat_and)
            << "thread " << th << " pair " << k;
      }
    }
  }
}

TEST(ParallelFixpointTest, DDBackendIdenticalToSequentialOnChains) {
  // The parallel fixpoint on the decision-diagram backend: workers race
  // into the diagram unique-table and op caches while the round schedule
  // Or-merges each tuple's derivations, yet the deterministic insert replay
  // must make the parallel run byte-identical to the sequential one — same
  // rows, same order, same exported conditions.
  DatalogProgram tc = TransitiveClosure();
  // Ground chain, then a null-gapped one at a size whose condition
  // diversity stays feasible (distinct nulls grow the diagrams — and any
  // other representation — exponentially with chain length).
  for (auto [n, gap] : {std::pair{24, 0}, std::pair{9, 3}}) {
    CDatabase db = Chain(n, gap, /*shared=*/false);

    ConditionInterner seq_interner;
    DatalogCTableOptions seq;
    seq.interner = &seq_interner;
    seq.condition_backend = ConditionBackendKind::kDecisionDiagrams;
    CDatabase seq_out = DatalogOnCTables(tc, db, nullptr, seq);

    ConditionInterner shared_interner;
    shared_interner.EnableSharing();
    DatalogCTableOptions par = seq;
    par.interner = &shared_interner;
    par.num_threads = 4;
    CDatabase par_out = DatalogOnCTables(tc, db, nullptr, par);

    ExpectIdenticalDatabases(par_out, seq_out);
  }
}

// --- Versioned snapshots under a live writer --------------------------------

TEST(VersionedCDatabaseTest, SnapshotsAreImmutableUnderMutation) {
  ConditionInterner interner;
  CTable t(2);
  t.AddRow(Tuple{C(1), C(2)});
  VersionedCDatabase v(CDatabase{t}, interner);
  EXPECT_TRUE(interner.shared());
  EXPECT_EQ(v.version(), 0u);

  VersionedCDatabase::Snapshot before = v.Read();
  EXPECT_EQ(before.version, 0u);
  EXPECT_EQ(before.db.table(0).num_rows(), 1u);

  uint64_t version = v.Mutate([](CDatabase& db) {
    InsertFactInPlace(db.mutable_table(0), Fact{3, 4});
  });
  EXPECT_EQ(version, 1u);
  EXPECT_EQ(v.version(), 1u);

  // The old snapshot still sees the old state; a fresh one sees the new.
  EXPECT_EQ(before.db.table(0).num_rows(), 1u);
  VersionedCDatabase::Snapshot after = v.Read();
  EXPECT_EQ(after.version, 1u);
  EXPECT_EQ(after.db.table(0).num_rows(), 2u);
  // Published tables are frozen for sharing.
  EXPECT_TRUE(after.db.table(0).frozen());
}

TEST(CDatabaseTest, MutableTableClonesOnlyWhenShared) {
  CTable t(1);
  t.AddRow(Tuple{C(1)});
  CDatabase db{t};
  CDatabase copy = db;  // shares the table
  InsertFactInPlace(db.mutable_table(0), Fact{2});
  EXPECT_EQ(db.table(0).num_rows(), 2u);
  EXPECT_EQ(copy.table(0).num_rows(), 1u);  // untouched by the COW write
}

TEST(SnapshotStressTest, ReadersSeeExactSequentialVersions) {
  for (uint32_t seed : Seeds(7400, 2)) {
    SCOPED_TRACE("PW_DIFF_SEED=" + std::to_string(seed));
    std::mt19937 rng(seed);
    constexpr int kUpdates = 60;
    constexpr int kReaders = 4;

    // Pre-draw the whole writer script so the reference states are
    // reproducible: version v = initial db + the first v updates.
    std::uniform_int_distribution<int> value(0, 30);
    std::vector<std::pair<bool, Fact>> script;  // (is_insert, fact)
    for (int u = 0; u < kUpdates; ++u) {
      bool insert = u % 5 != 4;
      script.emplace_back(insert, Fact{value(rng), value(rng)});
    }

    ConditionInterner interner;
    CTable t(2);
    t.AddRow(Tuple{C(0), C(1)});
    t.AddRow(Tuple{C(1), V(0)});
    VersionedCDatabase versioned(CDatabase{t}, interner);
    // The readers run decision procedures, which resolve conditions through
    // ConditionInterner::Global(); route that to the shared instance so the
    // frozen rows' warmed id caches are read-only stamp hits (a per-thread
    // interner would miss the stamp and race on rewriting them).
    ConditionInterner::SetProcessShared(&interner);

    std::atomic<bool> done{false};
    std::vector<std::vector<VersionedCDatabase::Snapshot>> observed(kReaders);
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        // do-while: at least one snapshot per reader even if the writer
        // outruns thread startup and finishes first.
        do {
          VersionedCDatabase::Snapshot snap = versioned.Read();
          // Exercise a conditioned read on the snapshot while the writer
          // keeps publishing: certainty/possibility of a fixed pattern.
          std::vector<LocatedFact> pattern = {{0, Fact{1, 2}}};
          bool poss = Possibility(View::Identity(), snap.db, pattern);
          bool cert = Certainty(View::Identity(), snap.db, pattern);
          ASSERT_TRUE(poss || !cert);  // certain implies possible
          observed[r].push_back(std::move(snap));
        } while (!done.load(std::memory_order_acquire));
      });
    }

    for (const auto& [insert, fact] : script) {
      versioned.Mutate([&](CDatabase& db) {
        if (insert) {
          InsertFactInPlace(db.mutable_table(0), fact);
        } else {
          DeleteFactInPlace(db.mutable_table(0), fact);
        }
      });
      // Give the readers a chance to land between versions; without this
      // the whole script can publish before the first reader's first Read.
      std::this_thread::yield();
    }
    done.store(true, std::memory_order_release);
    for (std::thread& th : readers) th.join();
    ConditionInterner::SetProcessShared(nullptr);

    // Rebuild every version sequentially and require the observed
    // snapshots to be identical to their version's reference state.
    std::vector<CDatabase> reference;
    {
      CTable base(2);
      base.AddRow(Tuple{C(0), C(1)});
      base.AddRow(Tuple{C(1), V(0)});
      CDatabase state{base};
      reference.push_back(state);
      for (const auto& [insert, fact] : script) {
        if (insert) {
          InsertFactInPlace(state.mutable_table(0), fact);
        } else {
          DeleteFactInPlace(state.mutable_table(0), fact);
        }
        reference.push_back(state);
      }
    }
    size_t checked = 0;
    for (const auto& per_reader : observed) {
      for (const VersionedCDatabase::Snapshot& snap : per_reader) {
        ASSERT_LT(snap.version, reference.size());
        ExpectIdenticalDatabases(snap.db, reference[snap.version]);
        ++checked;
      }
    }
    EXPECT_GT(checked, 0u);
  }
}

TEST(SnapshotStressTest, ConcurrentDatalogReadersOverSharedInterner) {
  // The full service shape: a writer extending a chain while reader
  // threads run whole conditioned fixpoints (each its own single-owner
  // ConditionedFixpoint, all interning through the one shared interner)
  // against their snapshots. Each result is checked against a sequential
  // recompute of that snapshot's version afterwards.
  DatalogProgram tc = TransitiveClosure();
  constexpr int kInitial = 12;
  constexpr int kUpdates = 24;
  constexpr int kReaders = 4;

  ConditionInterner interner;
  CTable edges(2);
  for (int i = 0; i < kInitial; ++i) edges.AddRow(Tuple{C(i), C(i + 1)});
  VersionedCDatabase versioned(CDatabase{edges}, interner);

  std::atomic<bool> done{false};
  std::vector<std::vector<std::pair<uint64_t, CDatabase>>> results(kReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      DatalogCTableOptions options;
      options.interner = &interner;  // the shared one — the point of this test
      do {
        VersionedCDatabase::Snapshot snap = versioned.Read();
        CDatabase out = DatalogOnCTables(tc, snap.db, nullptr, options);
        results[r].emplace_back(snap.version, std::move(out));
      } while (!done.load(std::memory_order_acquire));
    });
  }
  for (int u = 0; u < kUpdates; ++u) {
    versioned.Mutate([&](CDatabase& db) {
      InsertFactInPlace(db.mutable_table(0),
                        Fact{kInitial + u, kInitial + u + 1});
    });
  }
  done.store(true, std::memory_order_release);
  for (std::thread& th : readers) th.join();

  // Sequential reference per version, evaluated with a private interner:
  // condition materialization is canonical, so tables compare equal across
  // interner instances.
  std::vector<CDatabase> reference;
  for (int v = 0; v <= kUpdates; ++v) {
    CTable base(2);
    for (int i = 0; i < kInitial + v; ++i) base.AddRow(Tuple{C(i), C(i + 1)});
    reference.push_back(DatalogOnCTables(tc, CDatabase{base}, nullptr, {}));
  }
  size_t checked = 0;
  for (const auto& per_reader : results) {
    for (const auto& [version, out] : per_reader) {
      ASSERT_LT(version, reference.size());
      ExpectIdenticalDatabases(out, reference[version]);
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(SnapshotStressTest, ProcessSharedGlobalServesDecisionProcedures) {
  // SetProcessShared routes ConditionInterner::Global() — what the decision
  // procedures use internally — to the shared instance; concurrent
  // possibility/certainty calls must then agree with the sequential answers.
  ConditionInterner interner;
  CTable t(2);
  t.AddRow(Tuple{C(1), V(0)});
  t.AddRow(Tuple{V(1), C(2)});
  t.SetGlobal(Conjunction{Neq(V(0), C(9))});
  VersionedCDatabase versioned(CDatabase{t}, interner);
  ConditionInterner::SetProcessShared(&interner);

  VersionedCDatabase::Snapshot snap = versioned.Read();
  std::vector<std::vector<LocatedFact>> patterns;
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      patterns.push_back({{0, Fact{a, b}}});
    }
  }
  std::vector<char> expect_poss(patterns.size());
  std::vector<char> expect_cert(patterns.size());
  for (size_t i = 0; i < patterns.size(); ++i) {
    expect_poss[i] = Possibility(View::Identity(), snap.db, patterns[i]);
    expect_cert[i] = Certainty(View::Identity(), snap.db, patterns[i]);
  }
  std::vector<std::thread> threads;
  for (int th = 0; th < 8; ++th) {
    threads.emplace_back([&] {
      for (int iter = 0; iter < 20; ++iter) {
        for (size_t i = 0; i < patterns.size(); ++i) {
          ASSERT_EQ(Possibility(View::Identity(), snap.db, patterns[i]),
                    static_cast<bool>(expect_poss[i]));
          ASSERT_EQ(Certainty(View::Identity(), snap.db, patterns[i]),
                    static_cast<bool>(expect_cert[i]));
        }
      }
    });
  }
  for (std::thread& t2 : threads) t2.join();
  ConditionInterner::SetProcessShared(nullptr);
}

}  // namespace
}  // namespace pw
