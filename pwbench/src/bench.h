// Shared harness pieces of the repository benchmark: the seeded generator,
// answer digests, the span tracer of the traced run, per-layer totals and
// the workload interface the run loop drives.

#ifndef PWBENCH_BENCH_H_
#define PWBENCH_BENCH_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "condition/interner.h"
#include "tables/ctable.h"

namespace pwbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// SplitMix64: inputs depend on the seed and nothing else (no standard
/// library distribution sits between the seed and an op).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  int Below(int n) { return static_cast<int>(Next() % static_cast<uint64_t>(n)); }
  bool Chance(int percent) { return Below(100) < percent; }
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[static_cast<size_t>(Below(static_cast<int>(i)))]);
    }
  }

 private:
  uint64_t state_;
};

/// Draws from [0, n) in rounds, each a fresh shuffle: after r full rounds
/// every value was drawn exactly r times, so runs of different seeds measure
/// the same population of ops in a different order.
class Deck {
 public:
  explicit Deck(int n) : n_(n) {}
  int Draw(Rng& rng) {
    if (next_ == order_.size()) {
      order_.resize(static_cast<size_t>(n_));
      for (int i = 0; i < n_; ++i) order_[static_cast<size_t>(i)] = i;
      rng.Shuffle(order_);
      next_ = 0;
    }
    return order_[next_++];
  }

 private:
  int n_;
  std::vector<int> order_;
  size_t next_ = 0;
};

/// Order-sensitive 64-bit digest (FNV-1a over 64-bit words).
inline uint64_t Mix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}
inline constexpr uint64_t kDigestSeed = 1469598103934665603ull;

/// ParseCDatabase of text the benchmark generated; throws on a parse error.
pw::CDatabase ParseDatabase(const std::string& text);

/// Row-order-independent digest of a c-table: every row rendered with its
/// resolved condition, the renderings sorted, then mixed.
uint64_t TableDigest(const pw::CTable& table);

/// The answer of one op, kept only until it is checked.
struct Answer {
  uint64_t digest = 0;
  bool verdict = false;
  pw::CTable table;  // goal and lookup answers
};

/// Per-layer totals of the traced run; LayerMetrics() turns them into the
/// per_layer metrics of BENCHMARK.json.
struct LayerTotals {
  // decision: PTIME front ends on PTIME-class verdicts, and the fallback:
  // the dispatcher on PTIME-class verdicts no front end decided, and every
  // decision span of NP/coNP/Pi2p-class verdicts.
  double ptime_ms = 0, fallback_ms = 0;
  uint64_t ptime_verdicts = 0, declines = 0, ptime_decided = 0, fallbacks = 0,
           hard_verdicts = 0, hard_front_decided = 0;
  // ilalgebra: the side image of verdicts that build one.
  double image_ms = 0;
  uint64_t images = 0, join_pairs = 0, scan_pairs = 0;
  // ilalgebra + datalog: the staged goal.
  double rewrite_ms = 0, init_ms = 0, run_ms = 0, export_ms = 0,
         restrict_ms = 0;
  uint64_t goals = 0, rounds = 0, derived = 0, subsumed = 0, duplicate = 0,
           unsatisfiable = 0, pruned = 0, magic_facts = 0, demand_pruned = 0,
           dd_nodes = 0;
  uint64_t index_probes = 0, index_hits = 0;
  // datalog: IVM deltas around view updates.
  uint64_t view_inserts = 0, view_deletes = 0, seeded = 0, covered = 0,
           overdeleted = 0, rederived = 0;
  // condition: interner counters around staged ops.
  uint64_t staged_ops = 0, and_calls = 0, and_hits = 0, implies_calls = 0,
           implies_hits = 0, intern_calls = 0, syntactic_hits = 0,
           conjunctions = 0, memo_evictions = 0;
  // tables: snapshots, publishes and in-place updates.
  double read_ms = 0, publish_ms = 0, update_ms = 0;
  uint64_t reads = 0, publishes = 0, updates = 0, deletes = 0,
           guard_rows = 0;

  /// Snapshot of interner counters, for deltas around one staged op.
  struct InternerMark {
    pw::ConditionInterner::Stats stats;
    size_t conjunctions = 0;
    uint64_t evictions = 0;
  };
  static InternerMark Mark(const pw::ConditionInterner& interner);
  void AddInternerDelta(const pw::ConditionInterner& interner,
                        const InternerMark& before);
};

/// In-memory span recorder of the traced run. A span's self time is its
/// duration minus its children's; Scope() adds it to a LayerTotals slot.
class Tracer {
 public:
  struct Span {
    uint32_t op;
    const char* layer;
    const char* stage;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;
  };

  class Scope {
   public:
    Scope(Tracer& tracer, const char* layer, const char* stage,
          double* self_ms_slot);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Duration of the span so far, in ms (children included).
    double ElapsedMs() const;

   private:
    Tracer& tracer_;
    int32_t index_;
    double* slot_;
  };

  /// Starts op `op`: spans opened without an enclosing scope are its roots.
  void BeginOp(uint32_t op) { op_ = op; }
  /// Side work beside an op (a span kept out of the op's traced time).
  void Exclude(double ms) { excluded_ms_ += ms; }
  double excluded_ms() const { return excluded_ms_; }
  const std::vector<Span>& spans() const { return spans_; }
  /// Tab-separated spans, one per line: op, layer, stage, start_ns, end_ns,
  /// parent index (-1 for roots).
  bool Write(const std::string& path) const;

 private:
  int64_t Now() const;
  uint32_t op_ = 0;
  double excluded_ms_ = 0;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int32_t> open_;        // stack of open span indices
  std::vector<int64_t> child_ns_;    // per open span: children's duration
};

/// What a workload is: a seeded op sequence over four op kinds (k1..k4),
/// its program-side set-up, and an untraced and a staged way to answer each
/// op, plus an independent check.
class Workload {
 public:
  virtual ~Workload() = default;
  /// What k1..k4 are on this workload.
  virtual std::array<const char*, 4> KindNames() const = 0;
  /// Blocks per second of run time on the reference machine: a run of S
  /// seconds issues round(S x this) blocks of one op per kind.
  virtual double BlocksPerSecond() const = 0;
  /// Builds the inputs and the op sequence (`blocks` interleaved blocks).
  virtual void Generate(uint64_t seed, int blocks) = 0;
  /// Program-side set-up: parse, build, one untimed warm-up pass. Repeated
  /// set-ups start from the same inputs and replace the previous state.
  virtual void Setup() = 0;
  virtual size_t NumOps() const = 0;
  virtual int KindOf(size_t op) const = 0;
  virtual bool IsWrite(size_t op) const = 0;
  /// Digest of the op's parameters (for the determinism self-test).
  virtual uint64_t OpDigest(size_t op) const = 0;
  /// Answers the op through the library's user-facing entry points.
  virtual Answer Run(size_t op) = 0;
  /// Answers the op through the public stages, recording spans and totals.
  /// Writes are applied exactly once: by Run in the untraced run, by
  /// RunStaged in the traced run.
  virtual Answer RunStaged(size_t op, Tracer& tracer, LayerTotals& totals) = 0;
  /// Independent check of the op's answer, outside any timing: called in op
  /// order at each checkpoint. Updates the workload's own model of the data
  /// for writes.
  virtual bool Check(size_t op, const Answer& answer) = 0;
  /// Sees each untraced op time (for per-family notes).
  virtual void Observe(size_t /*op*/, double /*ms*/) {}
  /// Extra checks at checkpoints (outside timing); false on a mismatch.
  virtual bool Checkpoint() { return true; }
  /// Human-readable notes printed with the report.
  virtual std::vector<std::string> Notes() const { return {}; }
};

std::unique_ptr<Workload> MakeDecide();
std::unique_ptr<Workload> MakeLineage();
std::unique_ptr<Workload> MakeServe();

}  // namespace pwbench

#endif  // PWBENCH_BENCH_H_
