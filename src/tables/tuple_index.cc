#include "tables/tuple_index.h"

#include <algorithm>
#include <cassert>

namespace pw {

namespace {
const std::vector<size_t> kEmptyBucket;
}  // namespace

void TupleIndex::Add(const Tuple& tuple, size_t row_id) {
  assert(row_id == num_rows_);
  ++num_rows_;
  scratch_key_.clear();
  for (size_t j = 0; j < columns_.size(); ++j) {
    const Term& t = tuple[columns_[j]];
    if (t.is_variable()) {
      // First variable at indexed position j: file under the ground prefix
      // so probes with a differing prefix never revisit this row.
      if (levels_.size() <= j) levels_.resize(j + 1);
      levels_[j][scratch_key_].push_back(row_id);
      return;
    }
    scratch_key_.push_back(t);
  }
  buckets_[scratch_key_].push_back(row_id);
}

bool TupleIndex::IsGroundKey(const Tuple& key) { return IsGround(key); }

const std::vector<size_t>& TupleIndex::Probe(const Tuple& key) const {
  assert(key.size() == columns_.size() && IsGroundKey(key));
  auto it = buckets_.find(key);
  return it == buckets_.end() ? kEmptyBucket : it->second;
}

std::vector<size_t> TupleIndex::wildcard() const {
  std::vector<size_t> out;
  for (const auto& level : levels_) {
    for (const auto& [prefix, ids] : level) {
      out.insert(out.end(), ids.begin(), ids.end());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<size_t> TupleIndex::Candidates(const Tuple& key, size_t lo,
                                           size_t hi) const {
  assert(key.size() == columns_.size() && IsGroundKey(key));
  // Gather the clipped id ranges that can match: the ground bucket plus,
  // per wildcard level j, the rows whose ground prefix equals key[0..j).
  using Range = std::pair<std::vector<size_t>::const_iterator,
                          std::vector<size_t>::const_iterator>;
  std::vector<Range> ranges;
  size_t total = 0;
  auto push_range = [&](const std::vector<size_t>& ids) {
    auto b = std::lower_bound(ids.begin(), ids.end(), lo);
    auto e = std::lower_bound(b, ids.end(), hi);
    if (b != e) {
      ranges.emplace_back(b, e);
      total += static_cast<size_t>(e - b);
    }
  };
  auto it = buckets_.find(key);
  if (it != buckets_.end()) push_range(it->second);
  Tuple prefix;
  for (size_t j = 0; j < levels_.size(); ++j) {
    auto lit = levels_[j].find(prefix);
    if (lit != levels_[j].end()) push_range(lit->second);
    prefix.push_back(key[j]);
  }
  std::vector<size_t> out;
  out.reserve(total);
  if (ranges.size() == 1) {
    out.assign(ranges[0].first, ranges[0].second);
  } else if (ranges.size() == 2) {
    std::merge(ranges[0].first, ranges[0].second, ranges[1].first,
               ranges[1].second, std::back_inserter(out));
  } else if (!ranges.empty()) {
    for (const Range& r : ranges) out.insert(out.end(), r.first, r.second);
    std::sort(out.begin(), out.end());
  }
  return out;
}

const TupleIndex& TupleIndexCache::Get(const std::vector<int>& columns,
                                       size_t num_rows,
                                       const TupleFn& tuple_of) {
  auto it = entries_.find(columns);  // hit path: no index materialized
  bool built = it == entries_.end();
  if (built) it = entries_.emplace(columns, TupleIndex(columns)).first;
  TupleIndex& index = it->second;
  if (!built && index.num_rows_indexed() > num_rows) {
    // The owner shrank below what was indexed without a Clear: rebuild from
    // scratch — extending an over-full index would hand out stale row ids.
    index = TupleIndex(columns);
    built = true;
  }
  if (built) ++stats_.builds;
  // Catch up on appended rows (all of them, on a fresh build). An append
  // caught up on here is an *extend*, counted apart from builds.
  size_t added = 0;
  for (size_t id = index.num_rows_indexed(); id < num_rows; ++id) {
    index.Add(tuple_of(id), id);
    ++added;
  }
  stats_.rows_indexed += added;
  if (!built && added > 0) ++stats_.extends;
  return index;
}

}  // namespace pw
