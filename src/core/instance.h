// Complete information databases ("instances" in the paper): n-vectors of
// relations of fixed arities.

#ifndef PW_CORE_INSTANCE_H_
#define PW_CORE_INSTANCE_H_

#include <initializer_list>
#include <string>
#include <vector>

#include "core/relation.h"

namespace pw {

class SymbolTable;

/// A complete information database: a vector of relations. Relation `i` is
/// addressed by its index; arities are per-relation and fixed.
class Instance {
 public:
  Instance() = default;

  /// An instance with `arities.size()` empty relations of those arities.
  explicit Instance(const std::vector<int>& arities);

  /// An instance over the given relations.
  Instance(std::initializer_list<Relation> relations)
      : relations_(relations) {}

  explicit Instance(std::vector<Relation> relations)
      : relations_(std::move(relations)) {}

  size_t num_relations() const { return relations_.size(); }

  const Relation& relation(size_t i) const { return relations_[i]; }
  Relation& mutable_relation(size_t i) { return relations_[i]; }

  /// The arities of all relations, in order.
  std::vector<int> Arities() const;

  /// All constants occurring anywhere in the instance.
  std::vector<ConstId> Constants() const;

  /// Total number of facts across relations.
  size_t TotalFacts() const;

  friend bool operator==(const Instance&, const Instance&) = default;

  std::string ToString(const SymbolTable* symbols = nullptr) const;

 private:
  std::vector<Relation> relations_;
};

/// A fact together with the index of the relation it belongs to — "when we
/// say that fact t is in instance I we assume that the relation of I, where t
/// belongs, is also specified" (Section 2.1).
struct LocatedFact {
  size_t relation = 0;
  Fact fact;

  friend bool operator==(const LocatedFact&, const LocatedFact&) = default;
  friend auto operator<=>(const LocatedFact&, const LocatedFact&) = default;
};

/// True iff every located fact of `facts` is present in `instance`.
bool ContainsAll(const Instance& instance,
                 const std::vector<LocatedFact>& facts);

/// All constants of the located facts, sorted, deduplicated.
std::vector<ConstId> FactConstants(const std::vector<LocatedFact>& facts);

}  // namespace pw

#endif  // PW_CORE_INSTANCE_H_
