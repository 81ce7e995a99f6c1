// Enumeration of the possible worlds represented by a c-database.
//
// Following the proof of Proposition 2.1: with Delta the constants of the
// input (plus any caller-supplied context constants) and X its variables, it
// suffices to consider valuations with values in Delta union Delta', where
// Delta' is a set of |X| fresh constants — and only up to bijective renaming
// of Delta'. We enumerate exactly one representative per renaming class via
// restricted-growth sequences: the i-th variable may take any value of Delta
// or any already-used fresh constant or the single next unused one.
//
// This enumeration is exponential in |X| (as the paper's lower bounds say it
// must be, in the worst case); it is the reference oracle against which every
// polynomial-time special case in src/decision/ is cross-validated.

#ifndef PW_TABLES_WORLD_ENUM_H_
#define PW_TABLES_WORLD_ENUM_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/instance.h"
#include "tables/ctable.h"
#include "tables/valuation.h"

namespace pw {

/// Options for world enumeration.
struct WorldEnumOptions {
  /// Context constants to include in Delta beyond those of the database
  /// (e.g. the constants of an instance being tested for membership). Any
  /// world mentioning a constant outside Delta union these is enumerated
  /// only up to renaming of its fresh constants.
  std::vector<ConstId> extra_constants;

  /// If nonzero, stop after this many satisfying valuations.
  uint64_t max_valuations = 0;
};

/// Returns `count` fresh constants distinct from every constant of `database`
/// and of `extra`.
std::vector<ConstId> FreshConstants(const CDatabase& database,
                                    const std::vector<ConstId>& extra,
                                    size_t count);

/// Freezing, the canonical world K0 of rep(database): normalizes the tables
/// by the combined global condition (substitutes the constant or least
/// variable it forces), then gives each remaining class of variables its own
/// fresh constant, above every constant of `database` and of `avoid`. Two
/// nulls of K0 are equal only where the global forces it, and no null equals
/// a constant of the database or of `avoid`. Containment into Codd- and
/// e-tables (the Claim of Theorem 4.1), step (alpha) of Theorem 3.2(2) and
/// DATALOG certain answers on g-tables (Theorem 5.3(1)) rest on it; each
/// passes in `avoid` the constants of its instance or pattern and of its
/// view or program. If `first_null` is not null it receives the least fresh
/// constant: the constants of K0 at or above it are exactly the frozen
/// nulls. Meaningful only when the global is satisfiable.
Instance Freeze(const CDatabase& database, const std::vector<ConstId>& avoid,
                ConstId* first_null = nullptr);

/// Invokes `fn` for one representative (per Delta'-renaming) of every
/// valuation over Delta union Delta' that satisfies the combined global
/// condition. `fn` returns false to stop early. Returns true iff the
/// enumeration ran to completion (no early stop, no max_valuations cutoff).
bool ForEachSatisfyingValuation(const CDatabase& database,
                                const WorldEnumOptions& options,
                                const std::function<bool(const Valuation&)>& fn);

/// Invokes `fn` with each produced world (not deduplicated) and the valuation
/// producing it. Same early-stop contract as ForEachSatisfyingValuation.
bool ForEachWorld(
    const CDatabase& database, const WorldEnumOptions& options,
    const std::function<bool(const Instance&, const Valuation&)>& fn);

/// All distinct worlds (up to Delta'-renaming), deduplicated.
std::vector<Instance> EnumerateWorlds(const CDatabase& database,
                                      const WorldEnumOptions& options = {});

/// Number of distinct worlds (up to Delta'-renaming).
size_t CountDistinctWorlds(const CDatabase& database,
                           const WorldEnumOptions& options = {});

/// True iff rep(database) is empty, i.e. the combined global condition is
/// unsatisfiable (checkable in PTIME; Definition 2.2 discussion).
bool RepIsEmpty(const CDatabase& database);

}  // namespace pw

#endif  // PW_TABLES_WORLD_ENUM_H_
