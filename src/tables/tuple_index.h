// Hash indexes over tuple sequences — the shared join-acceleration layer.
//
// Every join in this codebase — the Imielinski–Lipski algebra's
// select-over-product (ilalgebra/ctable_eval.cc) and the conditioned DATALOG
// fixpoint's body-atom matching (ilalgebra/datalog_ctable.cc) — reduces to
// the same primitive: given a sequence of rows and a subset of columns, find
// the rows whose projection onto those columns could equal a probe key.
// `TupleIndex` is that primitive; `TupleIndexCache` wraps a family of them
// (one per column subset) with the lazy lifecycle the evaluators need so an
// index is built once and reused across fixpoint rounds and repeated
// queries.
//
// c-table semantics make this subtler than a classical hash join: a table
// term may be a *variable* (a null), and a null at a join position matches
// any probe key under an equality condition — dropping such a row would
// change rep(). The index therefore splits rows per column subset, with
// *per-column wildcard granularity*:
//
//   - rows whose projection is all-constant hash into ground buckets;
//   - a row with a variable at some indexed position is filed under the
//     *longest ground prefix* of the indexed columns: level j holds the
//     rows whose first variable among the indexed columns sits at position
//     j, keyed by their ground prefix key (columns 0..j-1 of the subset).
//
// A probe with an all-constant key enumerates its ground bucket plus, per
// level j, only the level-j rows whose ground prefix equals the probe key's
// prefix — a wildcard row whose ground prefix *differs* from the probe can
// never match (that prefix column's equality is trivially false ground vs
// ground), so pruning on the prefix is sound and keeps probes selective on
// null-heavy tables. A probe whose key itself contains a variable
// degenerates to the full scan (the caller detects this via `IsGroundKey`
// and falls back). The index is a pure *candidate pruner*: it never decides
// a match by itself — callers re-apply the join predicate (which may emit
// condition atoms) to every candidate, so skipped rows are exactly those a
// nested-loop scan would have dropped on a trivially-false ground equality.
//
// Indexes are append-only, mirroring the row storage they shadow: `Add` must
// be called in increasing row-id order, and `Candidates` clips its result to
// an id range and returns it ascending, so an indexed enumeration visits
// rows in exactly the order the scan it replaces would have (semi-naive
// delta windows and deterministic output orders both rely on this).
//
// Building and extending an index is single-owner: `Add`/`Get` mutate
// shared scratch, so only one thread may grow a cache at a time
// (CTable::Index serializes its cache behind a mutex; each conditioned
// fixpoint owns its per-predicate caches). A *built* index over rows
// that are no longer changing is safe to probe from many threads —
// `Probe`/`Candidates` are const and touch only locals — which is what
// frozen-table readers (tables/snapshot.h) rely on.

#ifndef PW_TABLES_TUPLE_INDEX_H_
#define PW_TABLES_TUPLE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "core/tuple.h"

namespace pw {

/// FNV-1a over term hashes — the row-key hash shared by the index layer and
/// the fixpoint's duplicate-suppression map.
struct TupleHash {
  size_t operator()(const Tuple& t) const noexcept {
    uint64_t h = 1469598103934665603ull;
    for (const Term& term : t) {
      h ^= std::hash<Term>()(term);
      h *= 1099511628211ull;
    }
    return static_cast<size_t>(h);
  }
};

/// A hash index of row ids keyed on the projection of each row's tuple onto
/// a fixed column subset. Rows with a variable in an indexed position land
/// in the wildcard list instead (they can equal any key under a condition).
class TupleIndex {
 public:
  explicit TupleIndex(std::vector<int> columns)
      : columns_(std::move(columns)) {}

  const std::vector<int>& columns() const { return columns_; }

  /// Rows indexed so far; `Add` ids must be exactly num_rows_indexed(),
  /// num_rows_indexed() + 1, ... (append-only, like the row storage).
  size_t num_rows_indexed() const { return num_rows_; }

  /// Indexes the next row. `tuple` must have every indexed column.
  void Add(const Tuple& tuple, size_t row_id);

  /// True iff `key` can be hashed (no variables) — otherwise the probe must
  /// fall back to enumerating every row.
  static bool IsGroundKey(const Tuple& key);

  /// Ids of ground rows whose projection equals `key`, ascending. `key` must
  /// be ground and have columns().size() positions. Wildcard rows are NOT
  /// included — enumerate `wildcard()` too, or use `Candidates`.
  const std::vector<size_t>& Probe(const Tuple& key) const;

  /// Ids of rows with a variable in an indexed position, ascending —
  /// materialized on demand from the prefix levels (probing goes through
  /// `Candidates`, which visits only the levels whose ground prefix matches
  /// the probe key, so no flat list is kept).
  std::vector<size_t> wildcard() const;

  /// The ids a probe for `key` must visit within the row-id range [lo, hi):
  /// the ground bucket merged with, per wildcard level, the rows whose
  /// ground prefix equals the probe key's prefix — ascending, exactly the
  /// subsequence of a [lo, hi) scan that can match `key`. `key` must be
  /// ground.
  std::vector<size_t> Candidates(const Tuple& key, size_t lo,
                                 size_t hi) const;

 private:
  std::vector<int> columns_;
  size_t num_rows_ = 0;
  std::unordered_map<Tuple, std::vector<size_t>, TupleHash> buckets_;
  // levels_[j]: rows whose first variable among the indexed columns is at
  // position j, keyed by their ground prefix (a j-term tuple). Sized lazily
  // to the deepest level seen.
  std::vector<std::unordered_map<Tuple, std::vector<size_t>, TupleHash>>
      levels_;
  Tuple scratch_key_;  // reused projection buffer
};

/// A lazily-built family of `TupleIndex`es over one growing row sequence,
/// keyed by column subset. Plain appends just extend an index by the new
/// rows (`tuple_of` is called once per newly indexed row); an owner that
/// replaces or drops its rows wholesale calls `Clear`, and each index
/// rebuilds on next use.
class TupleIndexCache {
 public:
  /// Row accessor: the tuple of row `i`. Must stay valid for the call.
  using TupleFn = std::function<const Tuple&(size_t)>;

  /// The up-to-date index on `columns` over rows [0, num_rows). Builds it on
  /// first use, rebuilds it if `num_rows` shrank below what was indexed (an
  /// extend can only append, so a shrunken owner forces a rebuild rather
  /// than serving stale ids), and extends it if rows were appended. The
  /// reference stays valid until `Clear` (later `Get`s may mutate the
  /// index's contents, so snapshot candidate lists before re-entering the
  /// cache).
  const TupleIndex& Get(const std::vector<int>& columns, size_t num_rows,
                        const TupleFn& tuple_of);

  /// Drops every index (capacity of the entry table retained).
  void Clear() { entries_.clear(); }

  size_t num_indexes() const { return entries_.size(); }

  /// Build-side counters (for the evaluators' stats). Builds and extends
  /// are counted separately: a `Get` that appends rows to an already-built
  /// entry is one extend, never a build — so callers diffing these around a
  /// call can attribute the work without double-counting a mid-query
  /// catch-up as a rebuild.
  struct Stats {
    size_t builds = 0;        // entries built from scratch (first use, or
                              // rebuilt after the owner shrank)
    size_t extends = 0;       // Get() calls that appended >= 1 row to an
                              // existing entry
    size_t rows_indexed = 0;  // Add() calls across all entries (a rebuild
                              // revisits its rows, so this can exceed the
                              // owner's row count)
  };
  const Stats& stats() const { return stats_; }

 private:
  struct IntVecHash {
    size_t operator()(const std::vector<int>& v) const noexcept {
      uint64_t h = 1469598103934665603ull;
      for (int c : v) {
        h ^= static_cast<uint64_t>(static_cast<uint32_t>(c));
        h *= 1099511628211ull;
      }
      return static_cast<size_t>(h);
    }
  };

  std::unordered_map<std::vector<int>, TupleIndex, IntVecHash> entries_;
  Stats stats_;
};

}  // namespace pw

#endif  // PW_TABLES_TUPLE_INDEX_H_
