// Terms: the atomic syntactic objects of the possible-worlds framework.
//
// Following Abiteboul, Kanellakis & Grahne (TCS 78, 1991), a term is either a
// constant drawn from a countably infinite set of constants, or a variable
// ("null") drawn from a disjoint countably infinite set of variables.
// Constants and variables are identified by 32-bit ids; the `SymbolTable`
// (core/symbol_table.h) optionally maps constant ids to human-readable names.

#ifndef PW_CORE_TERM_H_
#define PW_CORE_TERM_H_

#include <algorithm>
#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace pw {

/// Identifier of a constant. Non-negative by convention; small integers used
/// directly as "numeric" constants in examples mirror the paper's notation.
using ConstId = int32_t;

/// Identifier of a variable (a "null value"). Non-negative.
using VarId = int32_t;

/// A term is a constant or a variable. Value type, totally ordered (all
/// constants precede all variables; within a kind, ordered by id).
class Term {
 public:
  /// Default-constructs the constant 0.
  Term() : var_(false), id_(0) {}

  /// Makes a constant term.
  static Term Const(ConstId id) { return Term(false, id); }

  /// Makes a variable term.
  static Term Var(VarId id) { return Term(true, id); }

  bool is_variable() const { return var_; }
  bool is_constant() const { return !var_; }

  /// The raw id, regardless of kind.
  int32_t id() const { return id_; }

  /// The constant id. Meaningful only if `is_constant()`.
  ConstId constant() const { return id_; }

  /// The variable id. Meaningful only if `is_variable()`.
  VarId variable() const { return id_; }

  friend bool operator==(const Term&, const Term&) = default;
  friend auto operator<=>(const Term&, const Term&) = default;

 private:
  Term(bool var, int32_t id) : var_(var), id_(id) {}

  bool var_;
  int32_t id_;
};

/// Renders a term as text: constants as their decimal id, variables as
/// `x<id>` (matching the paper's x, y, z ... notation up to renaming).
std::string ToString(const Term& term);

/// Sorts `ids` and drops repeats: the sorted, deduplicated lists that the
/// Variables() and Constants() accessors return, gathered into one vector
/// instead of a tree-based set.
template <typename Id>
void SortUnique(std::vector<Id>& ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

}  // namespace pw

template <>
struct std::hash<pw::Term> {
  size_t operator()(const pw::Term& t) const noexcept {
    return std::hash<int64_t>()((static_cast<int64_t>(t.is_variable()) << 32) |
                                static_cast<uint32_t>(t.id()));
  }
};

#endif  // PW_CORE_TERM_H_
