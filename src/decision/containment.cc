#include "decision/containment.h"

#include "decision/membership.h"
#include "tables/world_enum.h"

namespace pw {

namespace {

bool IsGTableDatabase(const CDatabase& database) {
  return database.Kind() <= TableKind::kGTable;
}

bool IsETableDatabase(const CDatabase& database) {
  return database.Kind() <= TableKind::kETable;
}

}  // namespace

std::optional<bool> ContGTablesInCoddTables(const CDatabase& lhs,
                                            const CDatabase& rhs) {
  if (!IsGTableDatabase(lhs) || rhs.Kind() != TableKind::kCoddTable) {
    return std::nullopt;
  }
  if (RepIsEmpty(lhs)) return true;
  Instance k0 = Freeze(lhs, rhs.Constants());
  return MembershipCoddTables(rhs, k0);
}

std::optional<bool> ContGTablesInETables(const CDatabase& lhs,
                                         const CDatabase& rhs) {
  if (!IsGTableDatabase(lhs) || !IsETableDatabase(rhs)) return std::nullopt;
  if (RepIsEmpty(lhs)) return true;
  Instance k0 = Freeze(lhs, rhs.Constants());
  return MembershipSearch(rhs, k0);
}

std::optional<bool> ContViewInCoddTables(const View& lhs_view,
                                         const CDatabase& lhs,
                                         const CDatabase& rhs) {
  if (rhs.Kind() != TableKind::kCoddTable) return std::nullopt;
  return ForEachViewImage(lhs_view, lhs, rhs.Constants(),
                          [&rhs](const Instance& image) {
                            return MembershipCoddTables(rhs, image) == true;
                          });
}

bool ContainmentSearch(const View& lhs_view, const CDatabase& lhs,
                       const View& rhs_view, const CDatabase& rhs) {
  std::vector<ConstId> rhs_constants = rhs.Constants();
  for (ConstId c : rhs_view.Constants()) rhs_constants.push_back(c);
  return ForEachViewImage(lhs_view, lhs, std::move(rhs_constants),
                          [&rhs_view, &rhs](const Instance& image) {
                            return MembershipInView(rhs_view, rhs, image);
                          });
}

bool Containment(const View& lhs_view, const CDatabase& lhs,
                 const View& rhs_view, const CDatabase& rhs) {
  if (rhs_view.is_identity()) {
    if (lhs_view.is_identity()) {
      if (auto fast = ContGTablesInCoddTables(lhs, rhs)) return *fast;
      if (auto fast = ContGTablesInETables(lhs, rhs)) return *fast;
    }
    if (auto fast = ContViewInCoddTables(lhs_view, lhs, rhs)) return *fast;
  }
  return ContainmentSearch(lhs_view, lhs, rhs_view, rhs);
}

}  // namespace pw
