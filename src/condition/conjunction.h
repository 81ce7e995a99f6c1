// Conjunctions of condition atoms — the paper's "conditions".
//
// Global conditions of g-/i-/e-/c-tables and local conditions of c-table
// rows are conjunctions of equality and inequality atoms. The empty
// conjunction is `true`.

#ifndef PW_CONDITION_CONJUNCTION_H_
#define PW_CONDITION_CONJUNCTION_H_

#include <initializer_list>
#include <string>
#include <unordered_map>
#include <vector>

#include "condition/atom.h"
#include "core/term.h"

namespace pw {

class SymbolTable;

/// A conjunction of equality/inequality atoms. Satisfiability and implication
/// are decided over the countably infinite constant domain (PTIME, via
/// congruence closure — the paper relies on this in Definition 2.2).
class Conjunction {
 public:
  /// The empty conjunction, i.e. `true`.
  Conjunction() = default;

  Conjunction(std::initializer_list<CondAtom> atoms) : atoms_(atoms) {}
  explicit Conjunction(std::vector<CondAtom> atoms)
      : atoms_(std::move(atoms)) {}

  void Add(const CondAtom& atom) { atoms_.push_back(atom); }
  void AddAll(const Conjunction& other);

  /// Empties the conjunction back to `true`, keeping its capacity, so a
  /// scratch conjunction can be refilled without allocating.
  void Clear() { atoms_.clear(); }

  const std::vector<CondAtom>& atoms() const { return atoms_; }
  size_t size() const { return atoms_.size(); }

  /// True iff the conjunction holds under every valuation.
  bool IsTautology() const;

  /// True iff some valuation satisfies the conjunction.
  bool Satisfiable() const;

  /// True iff every valuation satisfying this conjunction satisfies `atom`.
  bool Implies(const CondAtom& atom) const;

  /// Applies a substitution of variables by terms to every atom.
  Conjunction Substitute(
      const std::unordered_map<VarId, Term>& substitution) const;

  /// The conjunction of `a` and `b`.
  static Conjunction And(const Conjunction& a, const Conjunction& b);

  /// For each variable forced to equal some constant, that constant. E.g.
  /// {x = 3, y = x} forces x -> 3 and y -> 3. Empty if unsatisfiable.
  std::unordered_map<VarId, ConstId> ForcedConstants() const;

  /// Maps every variable of the conjunction to a canonical representative of
  /// its equality class: the class constant if one exists, else the least
  /// variable of the class. Used to "incorporate" equalities into a table
  /// (the paper's standard practice for e-tables). Empty if unsatisfiable.
  std::unordered_map<VarId, Term> CanonicalSubstitution() const;

  /// All variables mentioned, deduplicated and sorted.
  std::vector<VarId> Variables() const;

  /// All constants mentioned, deduplicated and sorted.
  std::vector<ConstId> Constants() const;

  /// Drops trivially true atoms (c = c, x = x). Keeps order otherwise.
  Conjunction Simplified() const;

  friend bool operator==(const Conjunction&, const Conjunction&) = default;

  /// Renders "x1 = 3 AND x2 != x3", or "true" when empty.
  std::string ToString(const SymbolTable* symbols = nullptr) const;

 private:
  std::vector<CondAtom> atoms_;
};

}  // namespace pw

#endif  // PW_CONDITION_CONJUNCTION_H_
