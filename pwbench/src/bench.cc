#include "bench.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <stdexcept>

#include "core/tuple.h"
#include "tables/text_format.h"

namespace pwbench {

pw::CDatabase ParseDatabase(const std::string& text) {
  pw::ParseDatabaseResult parsed = pw::ParseCDatabase(text, nullptr);
  if (!parsed.ok()) throw std::runtime_error("pwbench: " + parsed.error);
  return std::move(*parsed.database);
}

uint64_t TableDigest(const pw::CTable& table) {
  std::vector<std::string> rows;
  rows.reserve(table.num_rows());
  for (const pw::CRow& row : table.rows()) {
    rows.push_back(pw::ToString(row.tuple) + ":" + row.local().ToString());
  }
  std::sort(rows.begin(), rows.end());
  uint64_t h = Mix(kDigestSeed, static_cast<uint64_t>(table.arity()));
  for (const std::string& r : rows) h = Mix(h, std::hash<std::string>()(r));
  return Mix(h, std::hash<std::string>()(table.global().ToString()));
}

LayerTotals::InternerMark LayerTotals::Mark(
    const pw::ConditionInterner& interner) {
  return {interner.stats(), interner.num_conjunctions(),
          interner.memo_evictions()};
}

void LayerTotals::AddInternerDelta(const pw::ConditionInterner& interner,
                                   const InternerMark& before) {
  const pw::ConditionInterner::Stats& now = interner.stats();
  ++staged_ops;
  and_calls += now.and_calls - before.stats.and_calls;
  and_hits += now.and_hits - before.stats.and_hits;
  implies_calls += now.implies_calls - before.stats.implies_calls;
  implies_hits += now.implies_hits - before.stats.implies_hits;
  intern_calls += now.intern_calls - before.stats.intern_calls;
  syntactic_hits += now.syntactic_hits - before.stats.syntactic_hits;
  conjunctions += interner.num_conjunctions() - before.conjunctions;
  memo_evictions += interner.memo_evictions() - before.evictions;
}

int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, const char* layer, const char* stage,
                     double* self_ms_slot)
    : tracer_(tracer),
      index_(static_cast<int32_t>(tracer.spans_.size())),
      slot_(self_ms_slot) {
  int32_t parent = tracer.open_.empty() ? -1 : tracer.open_.back();
  tracer.spans_.push_back({tracer.op_, layer, stage, 0, 0, parent});
  tracer.open_.push_back(index_);
  tracer.child_ns_.push_back(0);
  tracer.spans_.back().start_ns = tracer.Now();
}

Tracer::Scope::~Scope() {
  Span& span = tracer_.spans_[static_cast<size_t>(index_)];
  span.end_ns = tracer_.Now();
  int64_t duration = span.end_ns - span.start_ns;
  int64_t self = duration - tracer_.child_ns_.back();
  tracer_.open_.pop_back();
  tracer_.child_ns_.pop_back();
  if (!tracer_.child_ns_.empty()) tracer_.child_ns_.back() += duration;
  if (slot_ != nullptr) *slot_ += static_cast<double>(self) / 1e6;
}

double Tracer::Scope::ElapsedMs() const {
  const Span& span = tracer_.spans_[static_cast<size_t>(index_)];
  return static_cast<double>(tracer_.Now() - span.start_ns) / 1e6;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "op\tlayer\tstage\tstart_ns\tend_ns\tparent\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%u\t%s\t%s\t%lld\t%lld\t%d\n", s.op, s.layer, s.stage,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent);
  }
  return std::fclose(f) == 0;
}

}  // namespace pwbench
