#include "core/tuple.h"

#include <algorithm>
#include <utility>

#include "core/symbol_table.h"

namespace pw {

bool IsGround(const Tuple& tuple) {
  for (const Term& t : tuple) {
    if (t.is_variable()) return false;
  }
  return true;
}

Fact ToFact(const Tuple& tuple) {
  Fact fact;
  fact.reserve(tuple.size());
  for (const Term& t : tuple) fact.push_back(t.constant());
  return fact;
}

Tuple ToTuple(const Fact& fact) {
  Tuple tuple;
  tuple.reserve(fact.size());
  for (ConstId c : fact) tuple.push_back(Term::Const(c));
  return tuple;
}

bool Unifiable(const Tuple& tuple, const Fact& fact) {
  if (tuple.size() != fact.size()) return false;
  // Constants first: most row-fact pairs fail here, before any variable.
  size_t variables = 0;
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (tuple[i].is_variable()) {
      ++variables;
    } else if (tuple[i].constant() != fact[i]) {
      return false;
    }
  }
  if (variables < 2) return true;
  // A repeated variable needs equal fact values at its positions: sort the
  // (variable, value) pairs and compare neighbours, O(k log k) in the k
  // variable positions. The buffer is reused, so no call allocates once it
  // has grown.
  thread_local std::vector<std::pair<VarId, ConstId>> bound;
  bound.clear();
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (tuple[i].is_variable()) bound.emplace_back(tuple[i].variable(), fact[i]);
  }
  std::sort(bound.begin(), bound.end());
  for (size_t i = 1; i < bound.size(); ++i) {
    if (bound[i].first == bound[i - 1].first &&
        bound[i].second != bound[i - 1].second) {
      return false;
    }
  }
  return true;
}

std::string ToString(const Term& term) {
  if (term.is_variable()) return "x" + std::to_string(term.variable());
  return std::to_string(term.constant());
}

std::string ToString(const Tuple& tuple, const SymbolTable* symbols) {
  std::string out = "(";
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (i > 0) out += ", ";
    if (tuple[i].is_constant() && symbols != nullptr) {
      out += ConstName(tuple[i].constant(), symbols);
    } else {
      out += ToString(tuple[i]);
    }
  }
  out += ")";
  return out;
}

std::string ToString(const Fact& fact, const SymbolTable* symbols) {
  std::string out = "(";
  for (size_t i = 0; i < fact.size(); ++i) {
    if (i > 0) out += ", ";
    out += ConstName(fact[i], symbols);
  }
  out += ")";
  return out;
}

}  // namespace pw
