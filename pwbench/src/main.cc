// pwbench: the repository benchmark's workload runner.
//
//   pwbench --workload decide|lineage|serve --seed N --seconds S --trace 0|1
//           [--trace-out PATH]
//
// One client runs a seeded op sequence in a closed loop: each op is issued
// after the previous one returned; answers are checked at checkpoints,
// between timed ops. The untraced run
// (--trace 0) times every op and prints the end-to-end metrics; the traced
// run (--trace 1) answers the same sequence through the public stages of
// each op, checks every staged answer against the untraced one, and prints
// the per-layer metrics. The last stdout line is one JSON object.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <unordered_map>
#include <string>
#include <thread>

#include "bench.h"

#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
#define PWBENCH_UNOPTIMIZED 1
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PWBENCH_SANITIZED 1
#endif

namespace pwbench {
namespace {

// Median calibration-kernel time on the reference machine (a 4-vCPU KVM
// guest on an Intel Xeon with 2 MiB L2 per core and a shared 300 MiB L3,
// gcc 12.2 -O3): every timing is reported at this machine's speed.
constexpr double kReferenceKernelMs = 1.40;
constexpr size_t kKernelCalls = 400;  // kernel calls spread over the ops
constexpr size_t kLocalWindow = 4;    // kernel calls on either side
constexpr int kSetupRepeats = 5;      // set-ups per run; setup_s is the median
constexpr int kCheckpointEvery = 512;  // ops between checks

/// A fixed hash-probe loop independent of the library, shaped like the
/// engine's hot loops (lookups in node-based std::unordered_map tables): a
/// map of 2^18 keys probed with a fixed key stream, half hits and half
/// misses. Allocates only at construction.
class CalibrationKernel {
 public:
  CalibrationKernel() {
    map_.reserve(kKeys);
    for (uint64_t k = 0; k < kKeys; ++k) map_.emplace(Key(k), k);
  }
  /// One call: an untimed pass that brings the table back into cache after
  /// the ops evicted it, then the timed pass. Returns its duration in ms.
  double Run() {
    Probe();
    Clock::time_point t0 = Clock::now();
    Probe();
    return MsBetween(t0, Clock::now());
  }
  uint64_t sink() const { return sink_; }

 private:
  static constexpr uint64_t kKeys = 1u << 18;
  static constexpr int kProbes = 20000;
  static uint64_t Key(uint64_t k) { return k * 0x9e3779b97f4a7c15ull; }
  void Probe() {
    uint64_t x = 88172645463325252ull;
    uint64_t found = 0;
    for (int i = 0; i < kProbes; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      found += map_.count(Key(x % (2 * kKeys)));
    }
    sink_ += found;
  }
  std::unordered_map<uint64_t, uint64_t> map_;
  uint64_t sink_ = 0;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::atof(v);
    } else if (flag == "--trace") {
      o.trace = std::atoi(v);
    } else if (flag == "--trace-out") {
      o.trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0 &&
         (o.trace == 0 || o.trace == 1);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// A nearest-rank percentile with its guard: refused when fewer than 10
/// samples lie beyond it, flagged when the samples 1% of ranks on either
/// side differ by more than 1.5x (the percentile sits on a jump).
struct Percentile {
  bool ok = false;
  double value = 0;
  size_t beyond = 0;
  bool on_jump = false;
};

Percentile NearestRank(const std::vector<double>& sorted, double q) {
  Percentile p;
  size_t n = sorted.size();
  if (n == 0) return p;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  p.beyond = n - rank;
  p.ok = p.beyond >= 10;
  p.value = sorted[rank - 1];
  size_t d = std::max<size_t>(1, n / 100);
  double lo = sorted[rank - 1 >= d ? rank - 1 - d : 0];
  double hi = sorted[std::min(n - 1, rank - 1 + d)];
  p.on_jump = lo > 0 && hi / lo > 1.5;
  return p;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Current resident set size, from /proc/self/statm (pages).
double ResidentMb() {
  std::ifstream in("/proc/self/statm");
  double size = 0, resident = 0;
  in >> size >> resident;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string Json(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

double Ratio(double a, double b) { return b > 0 ? a / b : 0; }

std::vector<Metric> LayerMetrics(const LayerTotals& t, double overhead) {
  auto per = [](double total, uint64_t n) {
    return n ? total / static_cast<double>(n) : 0.0;
  };
  const uint64_t goals = t.goals, verdicts = t.ptime_verdicts;
  return {
      {"decision.ptime_ms", per(t.ptime_ms, verdicts), "ms"},
      {"decision.declines", per(static_cast<double>(t.declines), verdicts),
       "count"},
      {"decision.ptime_share",
       per(static_cast<double>(t.ptime_decided), verdicts), "ratio"},
      {"decision.fallback_ms", per(t.fallback_ms, t.fallbacks), "ms"},
      {"ilalgebra.image_ms", per(t.image_ms, t.images), "ms"},
      {"ilalgebra.join_pairs", per(static_cast<double>(t.join_pairs), t.images),
       "count"},
      {"ilalgebra.scan_pairs", per(static_cast<double>(t.scan_pairs), t.images),
       "count"},
      {"ilalgebra.init_ms", per(t.init_ms, goals), "ms"},
      {"ilalgebra.run_ms", per(t.run_ms, goals), "ms"},
      {"ilalgebra.export_ms", per(t.export_ms, goals), "ms"},
      {"ilalgebra.restrict_ms", per(t.restrict_ms, goals), "ms"},
      {"ilalgebra.rounds", per(static_cast<double>(t.rounds), goals), "count"},
      {"ilalgebra.derived_rows", per(static_cast<double>(t.derived), goals),
       "count"},
      {"ilalgebra.subsumed_rows", per(static_cast<double>(t.subsumed), goals),
       "count"},
      {"ilalgebra.duplicate_rows", per(static_cast<double>(t.duplicate), goals),
       "count"},
      {"ilalgebra.pruned_branches", per(static_cast<double>(t.pruned), goals),
       "count"},
      {"ilalgebra.useful_share",
       Ratio(static_cast<double>(t.derived),
             static_cast<double>(t.derived + t.subsumed + t.duplicate +
                                 t.unsatisfiable)),
       "ratio"},
      {"datalog.rewrite_ms", per(t.rewrite_ms, goals), "ms"},
      {"datalog.magic_facts", per(static_cast<double>(t.magic_facts), goals),
       "count"},
      {"datalog.demand_pruned",
       per(static_cast<double>(t.demand_pruned), goals), "count"},
      {"datalog.seeded_per_insert",
       per(static_cast<double>(t.seeded), t.view_inserts), "count"},
      {"datalog.covered_share",
       per(static_cast<double>(t.covered), t.view_deletes), "ratio"},
      {"datalog.overdeleted_per_delete",
       per(static_cast<double>(t.overdeleted), t.view_deletes), "count"},
      {"datalog.rederived_per_update",
       per(static_cast<double>(t.rederived), t.view_inserts + t.view_deletes),
       "count"},
      {"condition.and_calls", per(static_cast<double>(t.and_calls), t.staged_ops),
       "count"},
      {"condition.and_hit_share",
       Ratio(static_cast<double>(t.and_hits), static_cast<double>(t.and_calls)),
       "ratio"},
      {"condition.implies_calls",
       per(static_cast<double>(t.implies_calls), t.staged_ops), "count"},
      {"condition.implies_hit_share",
       Ratio(static_cast<double>(t.implies_hits),
             static_cast<double>(t.implies_calls)),
       "ratio"},
      {"condition.intern_calls",
       per(static_cast<double>(t.intern_calls), t.staged_ops), "count"},
      {"condition.syntactic_hit_share",
       Ratio(static_cast<double>(t.syntactic_hits),
             static_cast<double>(t.intern_calls)),
       "ratio"},
      {"condition.conjunctions",
       per(static_cast<double>(t.conjunctions), t.staged_ops), "count"},
      {"condition.memo_evictions",
       per(static_cast<double>(t.memo_evictions), t.staged_ops), "count"},
      {"condition.dd_nodes", per(static_cast<double>(t.dd_nodes), goals),
       "count"},
      {"tables.read_ms", per(t.read_ms, t.reads), "ms"},
      {"tables.publish_ms", per(t.publish_ms, t.publishes), "ms"},
      {"tables.update_ms", per(t.update_ms, t.updates), "ms"},
      {"tables.guard_rows", per(static_cast<double>(t.guard_rows), t.deletes),
       "count"},
      {"tables.index_probes",
       per(static_cast<double>(t.index_probes), goals + t.images), "count"},
      {"tables.hits_per_probe",
       Ratio(static_cast<double>(t.index_hits),
             static_cast<double>(t.index_probes)),
       "ratio"},
      {"trace.overhead", overhead, "ratio"},
  };
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: pwbench --workload decide|lineage|serve --seed N "
                 "--seconds S --trace 0|1 [--trace-out PATH]\n");
    return 2;
  }
#if defined(PWBENCH_UNOPTIMIZED) || defined(PWBENCH_SANITIZED)
  std::fprintf(stderr, "pwbench: refusing to time a debug or sanitizer build\n");
  return 3;
#endif
  // The dispatchers resolve the default condition backend through this
  // variable; the workloads pin their backends, so it must not leak in.
  if (std::getenv("PW_CONDITION_BACKEND") != nullptr) {
    std::fprintf(stderr, "pwbench: ignoring PW_CONDITION_BACKEND=%s\n",
                 std::getenv("PW_CONDITION_BACKEND"));
    unsetenv("PW_CONDITION_BACKEND");
  }

  std::unique_ptr<Workload> w;
  if (opt.workload == "decide") {
    w = MakeDecide();
  } else if (opt.workload == "lineage") {
    w = MakeLineage();
  } else if (opt.workload == "serve") {
    w = MakeServe();
  } else {
    std::fprintf(stderr, "pwbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  const char* sha = std::getenv("PWBENCH_GIT_SHA");
  std::printf("# machine: cpu=\"%s\" nproc=%u compiler=\"gcc %s\" build=%s "
              "git=%s\n",
              CpuModel().c_str(), std::thread::hardware_concurrency(),
              __VERSION__, PWBENCH_BUILD_TYPE, sha ? sha : "unknown");

  const int blocks = std::max(
      1, static_cast<int>(std::lround(opt.seconds * w->BlocksPerSecond())));
  w->Generate(opt.seed, blocks);
  CalibrationKernel kernel;
  // The inputs, the op sequence and the kernel are the harness's memory;
  // peak_rss_mb counts what the workload adds on top of them.
  const double harness_mb = ResidentMb();
  std::vector<double> kernel_ms;
  const size_t kernel_every = std::max<size_t>(1, w->NumOps() / kKernelCalls);
  kernel_ms.reserve(w->NumOps() / kernel_every + kSetupRepeats + 1);

  // Set-ups are scaled by the kernel calls around them.
  std::vector<double> setup_ms;
  for (int r = 0; r < kSetupRepeats; ++r) {
    kernel_ms.push_back(kernel.Run());
    Clock::time_point t0 = Clock::now();
    w->Setup();
    setup_ms.push_back(MsBetween(t0, Clock::now()));
  }
  kernel_ms.push_back(kernel.Run());
  const double setup_factor = kReferenceKernelMs / Median(kernel_ms);

  std::vector<double> run_kernel_ms;
  run_kernel_ms.reserve(w->NumOps() / kernel_every + 1);
  std::array<std::vector<double>, 4> op_ms, staged_ms, plain_ms;
  std::array<std::vector<size_t>, 4> op_window;  // kernel call before each op
  // Answers wait for the next checkpoint, so the checks' own memory traffic
  // never sits between two timed ops.
  struct Pending {
    size_t op;
    Answer answer;
    bool threw;
    bool staged_matches;
  };
  std::vector<Pending> pending;
  Tracer tracer;
  LayerTotals totals;
  size_t failed = 0, checkpoints_failed = 0;
  uint64_t ops_digest = kDigestSeed, answers_digest = kDigestSeed;
  const bool traced = opt.trace == 1;
  for (size_t i = 0; i < w->NumOps(); ++i) {
    if (i % kernel_every == 0) run_kernel_ms.push_back(kernel.Run());
    int kind = w->KindOf(i);
    ops_digest = Mix(ops_digest, w->OpDigest(i));
    Answer answer;
    bool threw = false, staged_matches = true;
    try {
      if (!traced) {
        Clock::time_point t0 = Clock::now();
        answer = w->Run(i);
        op_ms[kind].push_back(MsBetween(t0, Clock::now()));
        op_window[kind].push_back(run_kernel_ms.size() - 1);
        w->Observe(i, op_ms[kind].back());
      } else {
        tracer.BeginOp(static_cast<uint32_t>(i));
        auto staged = [&] {
          double side = tracer.excluded_ms();
          Clock::time_point t0 = Clock::now();
          answer = w->RunStaged(i, tracer, totals);
          staged_ms[kind].push_back(MsBetween(t0, Clock::now()) -
                                    (tracer.excluded_ms() - side));
        };
        if (w->IsWrite(i)) {
          staged();
        } else {
          // Alternate which path runs first, so warm caches favour neither.
          Answer plain;
          auto untraced = [&] {
            Clock::time_point t0 = Clock::now();
            plain = w->Run(i);
            plain_ms[kind].push_back(MsBetween(t0, Clock::now()));
          };
          if (i % 2) {
            untraced();
            staged();
          } else {
            staged();
            untraced();
          }
          staged_matches = plain.digest == answer.digest;
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pwbench: op %zu threw: %s\n", i, e.what());
      threw = true;
    }
    answers_digest = Mix(answers_digest, answer.digest);
    pending.push_back({i, std::move(answer), threw, staged_matches});
    if ((i + 1) % kCheckpointEvery == 0 || i + 1 == w->NumOps()) {
      for (const Pending& p : pending) {
        if (p.threw || !w->Check(p.op, p.answer) || !p.staged_matches) {
          ++failed;
        }
      }
      pending.clear();
      if (!w->Checkpoint()) ++checkpoints_failed;
    }
  }
  const size_t attempted = w->NumOps();
  kernel_ms.insert(kernel_ms.end(), run_kernel_ms.begin(), run_kernel_ms.end());
  const double kernel_median = Median(kernel_ms);
  const double factor = kReferenceKernelMs / kernel_median;
  // Each op is scaled by the speed of its neighbourhood: the median of the
  // kernel calls within kLocalWindow calls of the one before it, so a slow
  // stretch of the machine is taken out where it happened.
  std::vector<double> local_factor(run_kernel_ms.size());
  for (size_t j = 0; j < run_kernel_ms.size(); ++j) {
    size_t lo = j >= kLocalWindow ? j - kLocalWindow : 0;
    size_t hi = std::min(run_kernel_ms.size(), j + kLocalWindow + 1);
    local_factor[j] = kReferenceKernelMs /
                      Median({run_kernel_ms.begin() + static_cast<long>(lo),
                              run_kernel_ms.begin() + static_cast<long>(hi)});
  }
  const std::array<const char*, 4> kinds = w->KindNames();

  std::printf("# workload=%s seed=%llu blocks=%d ops=%zu trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              blocks, attempted, opt.trace);
  std::printf("# ops_digest=%016llx answers_digest=%016llx\n",
              static_cast<unsigned long long>(ops_digest),
              static_cast<unsigned long long>(answers_digest));
  std::printf("# calibration: kernel median %.4f ms over %zu calls; "
              "speed factor %.4f (reference %.4f ms)\n",
              kernel_median, kernel_ms.size(), factor, kReferenceKernelMs);
  std::printf("# checks: %zu of %zu ops failed (fail_rate %.6f); "
              "%zu checkpoints failed\n",
              failed, attempted,
              static_cast<double>(failed) / static_cast<double>(attempted),
              checkpoints_failed);
  for (const std::string& note : w->Notes()) std::printf("# %s\n", note.c_str());

  std::vector<Metric> metrics;
  bool refused = false;
  if (!traced) {
    double total_ms = 0, total_adjusted_ms = 0;
    for (int k = 0; k < 4; ++k) {
      std::vector<double> raw = op_ms[k], adjusted = op_ms[k];
      for (size_t i = 0; i < adjusted.size(); ++i) {
        adjusted[i] *= local_factor[op_window[k][i]];
        total_ms += raw[i];
        total_adjusted_ms += adjusted[i];
      }
      std::sort(raw.begin(), raw.end());
      std::sort(adjusted.begin(), adjusted.end());
      // The p99 of a few thousand ops lands among the ops the shared machine
      // interrupted: across ten seeds it spread 10-86% where the p50 spread
      // 2-5%. The p95 stays inside the program's own distribution, so the
      // tail metric is the p95, and the p99 is printed for reading only.
      for (double q : {0.5, 0.95, 0.99}) {
        Percentile r = NearestRank(raw, q);
        Percentile p = NearestRank(adjusted, q);
        std::string name = "k" + std::to_string(k + 1) + "_p" +
                           std::to_string(std::lround(q * 100)) + "_ms";
        const bool is_metric = q < 0.99;
        std::printf("# %-12s %-40s %10.4f ms (raw %.4f ms, factor %.4f) "
                    "n=%zu, %zu beyond%s%s%s\n",
                    name.c_str(), kinds[k], p.value, r.value,
                    p.value / r.value, adjusted.size(), p.beyond,
                    p.on_jump ? ", ON A JUMP" : "",
                    p.ok ? "" : ", REFUSED: fewer than 10 samples beyond",
                    is_metric ? "" : ", not a metric");
        if (!is_metric) continue;
        if (p.ok) {
          metrics.push_back({name, p.value, "ms"});
        } else {
          refused = true;
        }
      }
    }
    double throughput = static_cast<double>(attempted) / (total_ms / 1000.0);
    double adjusted_throughput =
        static_cast<double>(attempted) / (total_adjusted_ms / 1000.0);
    double setup_s = Median(setup_ms) / 1000.0;
    std::printf("# throughput_ops %.4f ops/s (raw %.4f); setup_s %.6f s "
                "(raw %.6f x %.4f, median of %d)\n",
                adjusted_throughput, throughput, setup_s * setup_factor,
                setup_s, setup_factor, kSetupRepeats);
    metrics.push_back({"throughput_ops", adjusted_throughput, "ops/s"});
    metrics.push_back({"setup_s", setup_s * setup_factor, "s"});
    const double peak_mb = PeakRssMb();
    std::printf("# peak_rss_mb %.4f MB (process peak %.4f MB - harness %.4f "
                "MB)\n",
                peak_mb - harness_mb, peak_mb, harness_mb);
    metrics.push_back({"peak_rss_mb", peak_mb - harness_mb, "MB"});
  } else {
    double ratio_sum = 0;
    int read_kinds = 0;
    for (int k = 0; k < 4; ++k) {
      if (plain_ms[k].empty()) continue;
      double staged_sum = 0, plain_sum = 0;
      for (double v : staged_ms[k]) staged_sum += v;
      for (double v : plain_ms[k]) plain_sum += v;
      ratio_sum += staged_sum / plain_sum;
      ++read_kinds;
    }
    metrics = LayerMetrics(totals, read_kinds ? ratio_sum / read_kinds - 1 : 0);
    std::printf("# decision: %llu PTIME-class verdicts, %llu hard-class "
                "verdicts (%llu decided by a front end, timed as fallback)\n",
                static_cast<unsigned long long>(totals.ptime_verdicts),
                static_cast<unsigned long long>(totals.hard_verdicts),
                static_cast<unsigned long long>(totals.hard_front_decided));
    uint64_t layers_digest = kDigestSeed;
    for (const Metric& m : metrics) {
      std::printf("# %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit);
      if (std::strcmp(m.unit, "ms") != 0 && m.name != "trace.overhead") {
        layers_digest = Mix(layers_digest, std::hash<double>()(m.value));
      }
    }
    std::printf("# layers_digest=%016llx spans=%zu\n",
                static_cast<unsigned long long>(layers_digest),
                tracer.spans().size());
    if (!opt.trace_out.empty() && !tracer.Write(opt.trace_out)) {
      std::fprintf(stderr, "pwbench: cannot write %s\n", opt.trace_out.c_str());
    }
  }
  std::printf("# kernel sink %llu\n",
              static_cast<unsigned long long>(kernel.sink()));
  bool correct = failed == 0 && checkpoints_failed == 0 && !refused;
  std::printf("%s\n", Json(correct, attempted, failed, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace pwbench

int main(int argc, char** argv) { return pwbench::Main(argc, argv); }
