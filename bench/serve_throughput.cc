// EXTENSION — concurrent query-service throughput.
//
// Measures the serving stack of examples/pwserve.cpp: reader threads
// answering possibility/certainty queries against snapshots of a
// VersionedCDatabase (frozen tables with pinned id caches), each thread
// resolving conditions through its own ConditionInterner::Global(). Two
// families:
//
//   BM_ServeThroughput_Snapshot/T — T reader threads (a ThreadPool; the
//     timed region fans T*8 query slots across them) over published
//     snapshots. The JSON items_per_second (queries/sec against real time)
//     is the scaling signal: CI fails when 4 threads do not beat 1 thread
//     by the --min-scale factor (tools/check_bench_regression.py), i.e.
//     when something serializes the readers and scaling collapses.
//
//   BM_ServeThroughput_Direct/1 — the same query sequence, single thread,
//     against a plain (unfrozen, unshared) CDatabase with the thread-local
//     interner, no sharing machinery anywhere. Between iterations it
//     replays Snapshot's writer sequence on its plain table, so both answer
//     queries over the same database at every iteration. Paired as
//     *_Snapshot/1 vs *_Direct/1 in the regression gate, bounding the
//     absolute overhead of the sharing machinery (pinned caches that a
//     reader's interner re-interns past, snapshot publication, the pool
//     hand-off) on one thread.
//
// The writer is outside the timed region: mutations run between iterations
// (publishing a fresh version each time) so reads hit live, recently-
// published versions, while the timed signal stays pure read throughput —
// that is what the scaling gate needs to be stable on small CI runners.

#include <benchmark/benchmark.h>

#include <memory>
#include <random>
#include <vector>

#include "bench_util.h"
#include "condition/interner.h"
#include "decision/certainty.h"
#include "decision/possibility.h"
#include "tables/ctable.h"
#include "tables/snapshot.h"
#include "tables/updates.h"
#include "util/thread_pool.h"

namespace pw {
namespace {

constexpr int kChain = 32;
constexpr int kNullGap = 6;
constexpr size_t kSlotsPerThread = 8;
constexpr size_t kQueriesPerSlot = 32;

/// Edge chain 0 -> 1 -> ... -> n, every `gap`-th edge through a shared
/// null — the pwserve workload, small enough for fast decision calls but
/// with real conditions in play.
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

/// One slot's query burst: alternating possibility/certainty point
/// patterns, deterministic per (slot, round) so every configuration runs
/// the same total work.
size_t RunQuerySlot(const CDatabase& db, uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> node(0, kChain);
  size_t yes = 0;
  for (size_t q = 0; q < kQueriesPerSlot; ++q) {
    std::vector<LocatedFact> pattern = {{0, Fact{node(rng), node(rng)}}};
    if (q % 2 == 0) {
      yes += Possibility(View::Identity(), db, pattern);
    } else {
      yes += Certainty(View::Identity(), db, pattern);
    }
  }
  return yes;
}

/// The untimed writer both families run between iterations: one draw from
/// `writer_rng` (seeded with 7 by both) deletes or inserts one chain edge.
void WriteEdge(CDatabase& db, std::mt19937& writer_rng) {
  std::uniform_int_distribution<int> writer_node(0, kChain - 1);
  int u = writer_node(writer_rng);
  if (u % 4 == 3) {
    DeleteFactInPlace(db.mutable_table(0), Fact{u, u + 1});
  } else {
    InsertFactInPlace(db.mutable_table(0), Fact{u, u + 1});
  }
}

void BM_ServeThroughput_Snapshot(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  // The writer's interner, used by this thread only (Mutate runs here);
  // every reader interns into its own thread's Global().
  ConditionInterner interner;
  VersionedCDatabase versioned(EdgeChain(kChain, kNullGap), interner);
  ThreadPool pool(threads);

  const size_t slots = kSlotsPerThread * threads;
  std::mt19937 writer_rng(7);
  uint32_t round = 0;
  for (auto _ : state) {
    pool.ParallelFor(slots, [&](size_t slot, size_t) {
      // Each slot reads its own snapshot, like an independent request.
      VersionedCDatabase::Snapshot snap = versioned.Read();
      benchmark::DoNotOptimize(
          RunQuerySlot(snap.db, round * 10007 + static_cast<uint32_t>(slot)));
    });
    // Publish a fresh version between iterations (untimed): keeps the COW
    // and re-freeze paths hot without polluting the scaling signal.
    state.PauseTiming();
    versioned.Mutate([&](CDatabase& db) { WriteEdge(db, writer_rng); });
    ++round;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(slots * kQueriesPerSlot));
  state.counters["versions"] = static_cast<double>(versioned.version());
  state.SetLabel("snapshot reads, per-thread interners, " +
                 std::to_string(threads) + " reader thread(s)");
}
BENCHMARK(BM_ServeThroughput_Snapshot)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ServeThroughput_Direct(benchmark::State& state) {
  // Same query sequence and writer sequence as Snapshot/1, single thread,
  // plain tables, thread-local interner — no sharing machinery anywhere.
  CDatabase db = EdgeChain(kChain, kNullGap);
  const size_t slots = kSlotsPerThread;
  std::mt19937 writer_rng(7);
  uint32_t round = 0;
  for (auto _ : state) {
    for (size_t slot = 0; slot < slots; ++slot) {
      benchmark::DoNotOptimize(
          RunQuerySlot(db, round * 10007 + static_cast<uint32_t>(slot)));
    }
    state.PauseTiming();
    WriteEdge(db, writer_rng);
    ++round;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(slots * kQueriesPerSlot));
  state.SetLabel("direct reads, single thread, thread-local interner");
}
BENCHMARK(BM_ServeThroughput_Direct)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pw

int main(int argc, char** argv) {
  pw::benchutil::Header(
      "EXTENSION: concurrent query-service throughput",
      "Reader threads answer possibility/certainty queries against "
      "versioned snapshots, each over its own condition interner; CI gates "
      "both the single-thread overhead vs the direct seed path and the "
      "4-thread scaling factor.");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
