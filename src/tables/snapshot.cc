#include "tables/snapshot.h"

#include <utility>

namespace pw {

VersionedCDatabase::VersionedCDatabase(CDatabase db,
                                       ConditionInterner& interner)
    : interner_(&interner), db_(std::move(db)) {
  db_.PrepareForSharing(*interner_);
}

VersionedCDatabase::Snapshot VersionedCDatabase::Read() const {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  return Snapshot{db_, version_};
}

uint64_t VersionedCDatabase::Mutate(
    const std::function<void(CDatabase&)>& fn) {
  std::lock_guard<std::mutex> writer(writer_mutex_);
  CDatabase work = [&] {
    std::lock_guard<std::mutex> lock(publish_mutex_);
    return db_;
  }();
  fn(work);
  // Freeze before publishing: mutable_table cloned every touched table, so
  // only those get warmed (frozen tables are skipped).
  work.PrepareForSharing(*interner_);
  std::lock_guard<std::mutex> lock(publish_mutex_);
  db_ = std::move(work);
  return ++version_;
}

uint64_t VersionedCDatabase::version() const {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  return version_;
}

}  // namespace pw
