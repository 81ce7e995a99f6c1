// pwserve: a miniature concurrent query service over the library.
//
// One writer thread keeps mutating an edge c-table (insert / delete through
// the in-place update APIs, published as versioned snapshots), while N
// reader threads issue a mixed query load against whatever version they
// snapshot: possibility and certainty of fact patterns (the decision
// procedures) and full conditioned transitive-closure fixpoints (each reader
// drives its own single-owner ConditionedFixpoint). Every reader resolves
// conditions through its own thread's ConditionInterner::Global().
//
// This is the demo wired through every piece of the threading model
// (README "Threading model"): VersionedCDatabase snapshots, per-thread
// interners, frozen tables with pinned condition caches, and COW table
// storage under the writer.
//
// Usage:
//   pwserve [num_readers] [duration_seconds] [chain_length]
//
// Defaults: 4 readers, 2 seconds, chain of 48 edges (every 6th through a
// shared null, so conditions actually flow through the queries). Prints
// per-reader and aggregate queries/sec plus the number of versions
// published.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "condition/interner.h"
#include "decision/certainty.h"
#include "decision/possibility.h"
#include "ilalgebra/datalog_ctable.h"
#include "tables/ctable.h"
#include "tables/snapshot.h"
#include "tables/updates.h"

using namespace pw;

namespace {

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

/// Edge chain 0 -> 1 -> ... -> n; every `gap`-th edge routes through a
/// shared null so the decision procedures and the fixpoint carry real
/// conditions, not just ground facts.
CDatabase EdgeChain(int n, int gap) {
  CTable t(2);
  for (int i = 0; i < n; ++i) {
    if (gap > 0 && i % gap == gap - 1) {
      t.AddRow(Tuple{C(i), V(0)});
      t.AddRow(Tuple{V(0), C(i + 1)});
    } else {
      t.AddRow(Tuple{C(i), C(i + 1)});
    }
  }
  return CDatabase{t};
}

struct ReaderTally {
  size_t queries = 0;
  size_t possibility = 0;
  size_t certainty = 0;
  size_t datalog = 0;
  size_t yes = 0;  // positive possibility/certainty answers (sanity signal)
};

}  // namespace

int main(int argc, char** argv) {
  const int num_readers = argc > 1 ? std::atoi(argv[1]) : 4;
  const double seconds = argc > 2 ? std::atof(argv[2]) : 2.0;
  const int chain = argc > 3 ? std::atoi(argv[3]) : 48;
  if (num_readers < 1 || seconds <= 0 || chain < 2) {
    std::fprintf(stderr,
                 "usage: pwserve [num_readers>=1] [seconds>0] [chain>=2]\n");
    return 1;
  }

  // The writer's interner: the initial freeze runs here, every later one in
  // the writer thread, and no reader touches it.
  ConditionInterner interner;
  VersionedCDatabase versioned(EdgeChain(chain, /*gap=*/6), interner);

  DatalogProgram tc = TransitiveClosure();
  std::atomic<bool> stop{false};
  std::atomic<size_t> versions_published{0};

  std::thread writer([&] {
    std::mt19937 rng(1);
    std::uniform_int_distribution<int> node(0, chain - 1);
    while (!stop.load(std::memory_order_acquire)) {
      int u = node(rng);
      versioned.Mutate([&](CDatabase& db) {
        CTable& edges = db.mutable_table(0);
        if (u % 4 == 3) {
          DeleteFactInPlace(edges, Fact{u, u + 1});
        } else {
          InsertFactInPlace(edges, Fact{u, u + 1});
        }
      });
      versions_published.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  std::vector<ReaderTally> tallies(num_readers);
  std::vector<std::thread> readers;
  for (int r = 0; r < num_readers; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937 rng(100 + r);
      std::uniform_int_distribution<int> node(0, chain);
      std::uniform_int_distribution<int> kind(0, 9);
      ReaderTally& tally = tallies[r];
      while (!stop.load(std::memory_order_acquire)) {
        VersionedCDatabase::Snapshot snap = versioned.Read();
        int k = kind(rng);
        if (k < 4) {
          std::vector<LocatedFact> pattern = {
              {0, Fact{node(rng), node(rng)}}};
          tally.yes += Possibility(View::Identity(), snap.db, pattern);
          ++tally.possibility;
        } else if (k < 8) {
          std::vector<LocatedFact> pattern = {
              {0, Fact{node(rng), node(rng)}}};
          tally.yes += Certainty(View::Identity(), snap.db, pattern);
          ++tally.certainty;
        } else {
          CDatabase out = DatalogOnCTables(tc, snap.db);
          tally.yes += out.table(1).num_rows() > 0;
          ++tally.datalog;
        }
        ++tally.queries;
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  writer.join();

  size_t total = 0;
  for (int r = 0; r < num_readers; ++r) {
    const ReaderTally& tally = tallies[r];
    std::printf(
        "reader %d: %zu queries (%zu poss, %zu cert, %zu datalog; "
        "%zu positive) -> %.0f q/s\n",
        r, tally.queries, tally.possibility, tally.certainty, tally.datalog,
        tally.yes, static_cast<double>(tally.queries) / seconds);
    total += tally.queries;
  }
  std::printf(
      "total: %zu queries over %.1fs with %d readers -> %.0f q/s; "
      "%zu versions published; %zu conditions interned by the writer\n",
      total, seconds, num_readers,
      static_cast<double>(total) / seconds,
      versions_published.load(), interner.num_conjunctions());
  return 0;
}
