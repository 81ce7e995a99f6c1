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
  return ContainmentSearch(lhs_view, lhs, View::Identity(), rhs);
}

bool ContainmentSearch(const View& lhs_view, const CDatabase& lhs,
                       const View& rhs_view, const CDatabase& rhs) {
  std::vector<ConstId> rhs_constants = rhs.Constants();
  for (ConstId c : rhs_view.Constants()) rhs_constants.push_back(c);
  // The rhs image is the same for every lhs world.
  const std::optional<CDatabase> rhs_image = ViewImage(rhs_view, rhs);
  return ForEachViewImage(
      lhs_view, lhs, std::move(rhs_constants), [&](const Instance& image) {
        if (rhs_image) return Membership(*rhs_image, image);
        return !ForEachViewImage(rhs_view, rhs, image.Constants(),
                                 [&image](const Instance& rhs_world) {
                                   return rhs_world != image;  // witness
                                 });
      });
}

bool Containment(const View& lhs_view, const CDatabase& lhs,
                 const View& rhs_view, const CDatabase& rhs) {
  if (rhs_view.is_identity() && lhs_view.is_identity()) {
    if (auto fast = ContGTablesInCoddTables(lhs, rhs)) return *fast;
    if (auto fast = ContGTablesInETables(lhs, rhs)) return *fast;
  }
  return ContainmentSearch(lhs_view, lhs, rhs_view, rhs);
}

}  // namespace pw
