// Concurrency suite: per-reader conditioned fixpoints and versioned
// snapshot reads, each checked against a single-threaded reference.
//
// Three layers, mirroring the threading model (README "Threading model"):
// every ConditionInterner is single-owner, so each thread below interns into
// its own (ConditionInterner::Global() is thread-local), and tables shared
// across threads are frozen with pinned id caches.
//
//  1. Primitives — ThreadPool task coverage, and concurrent Index() calls
//     on a frozen CTable.
//
//  2. Per-reader fixpoints — reader threads that each run their own
//     single-owner fixpoint (own ConditionedFixpoint, own condition backend,
//     own interner), on both backends, must emit *identical* tables to a
//     sequential run (same rows, same order, same conditions).
//
//  3. Whole-engine service shape — a VersionedCDatabase driven by a writer
//     thread while readers take snapshots and run conditioned queries must
//     hand every reader a state identical to the sequential recompute of
//     the version it read; and a snapshot with a conditioned row and a
//     global condition, read from 8 threads at once, must answer as it does
//     sequentially while those threads read its pinned caches.
//
// The randomized families reproduce like the differential suite: every
// case logs its seed, and setting PW_DIFF_SEED reruns exactly that case.
//
// These tests are labeled `stress` in ctest (tests/CMakeLists.txt); the
// TSan CI lane additionally loops them with --repeat until-fail to shake
// out schedule-dependent interleavings.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "condition/interner.h"
#include "decision/certainty.h"
#include "decision/possibility.h"
#include "ilalgebra/datalog_ctable.h"
#include "tables/ctable.h"
#include "tables/snapshot.h"
#include "tables/updates.h"
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

// --- Per-reader fixpoints ---------------------------------------------------

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
/// (shared: the same null each time, else a fresh one per gap), like the
/// bench workload.
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
    // Row-for-row, condition-for-condition: byte-identity, not just set
    // equality.
    ASSERT_EQ(a.table(i), b.table(i)) << "table " << i;
  }
}

TEST(SharedInternerStressTest, PerReaderFixpointsMatchPrivateRuns) {
  // The shape concurrent fixpoints take in production (pwserve): every
  // reader thread runs its own DatalogOnCTables — its own single-owner
  // ConditionedFixpoint, condition backend and interner (the thread-local
  // Global()) — over one frozen input whose rows are pinned to an interner
  // no reader uses. Null-laden chains on both backends put real conditions
  // through every reader's interner while the readers race; each reader's
  // result must be byte-identical to the same run on a private interner.
  struct Case {
    ConditionBackendKind backend;
    int n;
    int gap;
    bool shared;
  };
  constexpr ConditionBackendKind kAntichain =
      ConditionBackendKind::kConjunctions;
  constexpr ConditionBackendKind kDD = ConditionBackendKind::kDecisionDiagrams;
  // Distinct nulls grow the conditions (on either backend) exponentially
  // with chain length, so the fresh-null chains stay short.
  const std::vector<Case> cases = {
      {kAntichain, 64, 0, false}, {kAntichain, 24, 3, true},
      {kAntichain, 12, 4, false}, {kDD, 24, 0, false},
      {kDD, 9, 3, false}};
  DatalogProgram tc = TransitiveClosure();

  std::vector<CDatabase> reference;
  for (const Case& c : cases) {
    ConditionInterner private_interner;
    DatalogCTableOptions options;
    options.interner = &private_interner;
    options.condition_backend = c.backend;
    reference.push_back(
        DatalogOnCTables(tc, Chain(c.n, c.gap, c.shared), nullptr, options));
  }

  ConditionInterner writer;
  std::vector<CDatabase> inputs;
  for (const Case& c : cases) {
    inputs.push_back(Chain(c.n, c.gap, c.shared));
    inputs.back().PrepareForSharing(writer);
  }
  constexpr int kReaders = 4;
  std::vector<std::vector<CDatabase>> results(
      kReaders, std::vector<CDatabase>(cases.size()));
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      // Each reader starts at a different case, so different chains and
      // both backends overlap in time.
      for (size_t k = 0; k < cases.size(); ++k) {
        size_t i = (static_cast<size_t>(r) + k) % cases.size();
        DatalogCTableOptions options;  // interner: this thread's Global()
        options.condition_backend = cases[i].backend;
        results[r][i] = DatalogOnCTables(tc, inputs[i], nullptr, options);
      }
    });
  }
  for (std::thread& th : readers) th.join();

  for (int r = 0; r < kReaders; ++r) {
    for (size_t i = 0; i < cases.size(); ++i) {
      SCOPED_TRACE("reader " + std::to_string(r) + " case " +
                   std::to_string(i));
      ExpectIdenticalDatabases(results[r][i], reference[i]);
    }
  }
}

// --- Versioned snapshots under a live writer --------------------------------

TEST(VersionedCDatabaseTest, SnapshotsAreImmutableUnderMutation) {
  ConditionInterner interner;
  CTable t(2);
  t.AddRow(Tuple{C(1), C(2)});
  VersionedCDatabase v(CDatabase{t}, interner);
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
    // The writer's interner; Mutate runs on this thread only. The readers
    // run decision procedures, which resolve conditions through their own
    // thread's ConditionInterner::Global(), so the published rows' pinned
    // caches are only ever read.
    VersionedCDatabase versioned(CDatabase{t}, interner);

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
  // ConditionedFixpoint, interning into its own thread's interner) against
  // their snapshots. Each result is checked against a sequential recompute
  // of that snapshot's version afterwards.
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
      do {
        VersionedCDatabase::Snapshot snap = versioned.Read();
        CDatabase out = DatalogOnCTables(tc, snap.db);
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

/// A table with a global condition and conditioned rows, one of them a
/// null, for the two tests below.
CTable ConditionedTable() {
  CTable t(2);
  t.AddRow(Tuple{C(1), V(0)});
  t.AddRow(Tuple{V(1), C(2)}, Conjunction{Neq(V(1), C(3))});
  t.AddRow(Tuple{C(2), C(3)}, Conjunction{Eq(V(0), C(2))});
  t.SetGlobal(Conjunction{Neq(V(0), C(9))});
  return t;
}

/// Every single-fact pattern over the constants 0..3.
std::vector<std::vector<LocatedFact>> PointPatterns() {
  std::vector<std::vector<LocatedFact>> patterns;
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      patterns.push_back({{0, Fact{a, b}}});
    }
  }
  return patterns;
}

TEST(SnapshotStressTest, ProcessSharedGlobalServesDecisionProcedures) {
  // The shape of the serve workload: one thread installs the writer's
  // interner with SetProcessShared, so ConditionInterner::Global() — what
  // the decision procedures use internally — is the interner the snapshot
  // was frozen under, on every thread. The published rows' pinned caches are
  // then stamp hits, and the answers agree with those over an unfrozen copy
  // on this thread's own interner.
  ConditionInterner interner;
  VersionedCDatabase versioned(CDatabase{ConditionedTable()}, interner);
  VersionedCDatabase::Snapshot snap = versioned.Read();
  CDatabase plain{ConditionedTable()};
  std::vector<std::vector<LocatedFact>> patterns = PointPatterns();
  std::vector<char> expect_poss(patterns.size());
  std::vector<char> expect_cert(patterns.size());
  for (size_t i = 0; i < patterns.size(); ++i) {
    expect_poss[i] = Possibility(View::Identity(), plain, patterns[i]);
    expect_cert[i] = Certainty(View::Identity(), plain, patterns[i]);
  }

  ConditionInterner::SetProcessShared(&interner);
  EXPECT_EQ(&ConditionInterner::Global(), &interner);
  ConditionInterner* routed = nullptr;
  std::thread([&routed] { routed = &ConditionInterner::Global(); }).join();
  EXPECT_EQ(routed, &interner);

  const CTable& table = snap.db.table(0);
  uint64_t intern_calls = interner.stats().intern_calls;
  table.GlobalId(interner);
  for (const CRow& row : table.rows()) row.LocalId(interner);
  EXPECT_EQ(interner.stats().intern_calls, intern_calls);
  for (size_t i = 0; i < patterns.size(); ++i) {
    EXPECT_EQ(Possibility(View::Identity(), snap.db, patterns[i]),
              static_cast<bool>(expect_poss[i]));
    EXPECT_EQ(Certainty(View::Identity(), snap.db, patterns[i]),
              static_cast<bool>(expect_cert[i]));
  }
  ConditionInterner::SetProcessShared(nullptr);
  EXPECT_NE(&ConditionInterner::Global(), &interner);
}

TEST(SnapshotStressTest, EightReadersOfOneConditionedSnapshot) {
  // Eight threads answer possibility/certainty over one snapshot with a
  // global condition and conditioned rows, each through its own thread's
  // interner. Every LocalId/GlobalId they make meets a cache pinned to the
  // writer's interner and interns past it, so the TSan lanes see the pinned
  // caches read concurrently and never written. The ids each thread gets
  // must resolve to the conditions' canonical forms, and the answers must
  // match the sequential ones.
  ConditionInterner interner;
  VersionedCDatabase versioned(CDatabase{ConditionedTable()}, interner);
  VersionedCDatabase::Snapshot snap = versioned.Read();
  const CTable& table = snap.db.table(0);
  const Conjunction global = interner.Resolve(table.GlobalId(interner));
  std::vector<Conjunction> locals;
  for (const CRow& row : table.rows()) {
    locals.push_back(interner.Resolve(row.LocalId(interner)));
  }
  std::vector<std::vector<LocatedFact>> patterns = PointPatterns();
  std::vector<char> expect_poss(patterns.size());
  std::vector<char> expect_cert(patterns.size());
  for (size_t i = 0; i < patterns.size(); ++i) {
    expect_poss[i] = Possibility(View::Identity(), snap.db, patterns[i]);
    expect_cert[i] = Certainty(View::Identity(), snap.db, patterns[i]);
  }

  std::vector<std::thread> threads;
  for (int th = 0; th < 8; ++th) {
    threads.emplace_back([&] {
      ConditionInterner& own = ConditionInterner::Global();
      for (int iter = 0; iter < 20; ++iter) {
        ASSERT_EQ(own.Resolve(table.GlobalId(own)), global);
        for (size_t k = 0; k < table.num_rows(); ++k) {
          ASSERT_EQ(own.Resolve(table.row(k).LocalId(own)), locals[k]);
        }
        for (size_t i = 0; i < patterns.size(); ++i) {
          ASSERT_EQ(Possibility(View::Identity(), snap.db, patterns[i]),
                    static_cast<bool>(expect_poss[i]));
          ASSERT_EQ(Certainty(View::Identity(), snap.db, patterns[i]),
                    static_cast<bool>(expect_cert[i]));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace
}  // namespace pw
