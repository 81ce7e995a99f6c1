#include "core/relation.h"

#include <cassert>

#include "core/symbol_table.h"

namespace pw {

Relation::Relation(int arity, std::initializer_list<Fact> facts)
    : arity_(arity) {
  for (const Fact& f : facts) Insert(f);
}

Relation::Relation(int arity, const std::vector<Fact>& facts) : arity_(arity) {
  for (const Fact& f : facts) Insert(f);
}

bool Relation::Insert(const Fact& fact) {
  assert(static_cast<int>(fact.size()) == arity_);
  return facts_.insert(fact).second;
}

bool Relation::ContainsAll(const Relation& other) const {
  for (const Fact& f : other) {
    if (!Contains(f)) return false;
  }
  return true;
}

Relation Relation::UnionWith(const Relation& other) const {
  assert(arity_ == other.arity_);
  Relation out = *this;
  for (const Fact& f : other) out.Insert(f);
  return out;
}

std::vector<ConstId> Relation::Constants() const {
  std::vector<ConstId> out;
  out.reserve(facts_.size() * static_cast<size_t>(arity_));
  for (const Fact& f : facts_) out.insert(out.end(), f.begin(), f.end());
  SortUnique(out);
  return out;
}

std::vector<Fact> Relation::ToVector() const {
  return {facts_.begin(), facts_.end()};
}

std::string Relation::ToString(const SymbolTable* symbols) const {
  std::string out;
  for (const Fact& f : facts_) {
    out += pw::ToString(f, symbols);
    out += "\n";
  }
  return out;
}

}  // namespace pw
