// Versioned snapshot reads over a mutating c-database.
//
// The concurrent query service (examples/pwserve.cpp, bench/serve_*.cc)
// needs readers to answer certainty/possibility/Datalog queries against a
// *consistent* database version while a writer keeps applying the in-place
// update APIs of tables/updates.h. VersionedCDatabase provides exactly
// that, composing two existing mechanisms:
//
//   - CDatabase's copy-on-write table storage makes a snapshot a shallow
//     copy (one shared_ptr per table) and lets the writer mutate a private
//     clone of only the tables it touches;
//   - CTable::PrepareForSharing freezes each table before publication: its
//     condition-id caches are warmed for the writer's interner and pinned,
//     so readers never write through the mutable caches.
//
// Writers are serialized against each other; `fn` runs outside the readers'
// lock (on a private copy), so a slow mutation never blocks reads — readers
// only contend on the brief publish swap. Snapshot versions are dense:
// version N is the state after the Nth Mutate.
//
// Interners are single-owner (condition/interner.h). The writer's interner
// is used by whichever thread calls Mutate; a reader thread resolves
// conditions through its own interner (ConditionInterner::Global(), or one
// it passes in options), and a pinned row interns its condition there
// instead of reading the writer's cached id.

#ifndef PW_TABLES_SNAPSHOT_H_
#define PW_TABLES_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <mutex>

#include "condition/interner.h"
#include "tables/ctable.h"

namespace pw {

class VersionedCDatabase {
 public:
  /// Takes ownership of `db` as version 0. `interner` is the writer's: it
  /// must outlive this object, the initial state is frozen against it, and
  /// Mutate freezes every later version against it. Only the thread that
  /// calls Mutate may use it.
  VersionedCDatabase(CDatabase db, ConditionInterner& interner);

  /// One immutable published version. The database is a shallow COW copy:
  /// cheap to hold, safe to query from any thread, with that thread's own
  /// interner, while the writer publishes later versions.
  struct Snapshot {
    CDatabase db;
    uint64_t version = 0;
  };

  /// The latest published version. Safe from any thread.
  Snapshot Read() const;

  /// Applies `fn` to a private copy of the latest state, freezes the tables
  /// it touched, and publishes the result as the next version (returned).
  /// Mutations through `fn` must use the CDatabase/updates.h APIs
  /// (mutable_table clones shared tables before writing). Concurrent Mutate
  /// calls are serialized; readers are only blocked for the publish swap.
  uint64_t Mutate(const std::function<void(CDatabase&)>& fn);

  uint64_t version() const;

  ConditionInterner& interner() const { return *interner_; }

 private:
  ConditionInterner* interner_;
  mutable std::mutex publish_mutex_;  // guards db_ and version_
  std::mutex writer_mutex_;           // serializes Mutate
  CDatabase db_;
  uint64_t version_ = 0;
};

}  // namespace pw

#endif  // PW_TABLES_SNAPSHOT_H_
