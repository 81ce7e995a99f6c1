#include "core/instance.h"

#include "core/symbol_table.h"

namespace pw {

Instance::Instance(const std::vector<int>& arities) {
  relations_.reserve(arities.size());
  for (int a : arities) relations_.emplace_back(a);
}

std::vector<int> Instance::Arities() const {
  std::vector<int> out;
  out.reserve(relations_.size());
  for (const Relation& r : relations_) out.push_back(r.arity());
  return out;
}

std::vector<ConstId> Instance::Constants() const {
  std::vector<ConstId> out;
  for (const Relation& r : relations_) {
    for (const Fact& f : r) out.insert(out.end(), f.begin(), f.end());
  }
  SortUnique(out);
  return out;
}

size_t Instance::TotalFacts() const {
  size_t n = 0;
  for (const Relation& r : relations_) n += r.size();
  return n;
}

std::string Instance::ToString(const SymbolTable* symbols) const {
  std::string out;
  for (size_t i = 0; i < relations_.size(); ++i) {
    out += "R" + std::to_string(i) + " (arity " +
           std::to_string(relations_[i].arity()) + "):\n";
    out += relations_[i].ToString(symbols);
  }
  return out;
}

bool ContainsAll(const Instance& instance,
                 const std::vector<LocatedFact>& facts) {
  for (const LocatedFact& lf : facts) {
    if (lf.relation >= instance.num_relations()) return false;
    if (!instance.relation(lf.relation).Contains(lf.fact)) return false;
  }
  return true;
}

std::vector<ConstId> FactConstants(const std::vector<LocatedFact>& facts) {
  std::vector<ConstId> out;
  for (const LocatedFact& lf : facts) {
    out.insert(out.end(), lf.fact.begin(), lf.fact.end());
  }
  SortUnique(out);
  return out;
}

}  // namespace pw
