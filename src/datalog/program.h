// Pure DATALOG programs (Section 2.1: fixpoints of positive existential
// queries; no negation, no !=).
//
// Predicates are identified by dense indices. Predicates [0, num_edb) are
// extensional (supplied by the input instance); predicates [num_edb,
// num_predicates) are intensional (computed as the least fixpoint).

#ifndef PW_DATALOG_PROGRAM_H_
#define PW_DATALOG_PROGRAM_H_

#include <algorithm>
#include <cassert>
#include <string>
#include <vector>

#include "core/tuple.h"

namespace pw {

/// One atom of a rule: predicate index plus an argument tuple of variables
/// and constants. Variables are scoped to the enclosing rule.
struct DatalogAtom {
  int predicate = 0;
  Tuple args;

  friend bool operator==(const DatalogAtom&, const DatalogAtom&) = default;
};

/// A Horn rule `head :- body[0], ..., body[k-1]`.
struct DatalogRule {
  DatalogAtom head;
  std::vector<DatalogAtom> body;

  friend bool operator==(const DatalogRule&, const DatalogRule&) = default;
};

/// A pure DATALOG program.
class DatalogProgram {
 public:
  DatalogProgram() = default;

  /// `arities[p]` is the arity of predicate p; predicates [0, num_edb) are
  /// extensional. `num_edb` is clamped to the predicate count so IsIdb stays
  /// meaningful on malformed input (and asserts in debug builds).
  DatalogProgram(std::vector<int> arities, size_t num_edb)
      : arities_(std::move(arities)),
        num_edb_(std::min(num_edb, arities_.size())) {
    assert(num_edb <= arities_.size());
  }

  void AddRule(DatalogRule rule) { rules_.push_back(std::move(rule)); }

  size_t num_predicates() const { return arities_.size(); }
  bool HasPredicate(int predicate) const {
    return predicate >= 0 && static_cast<size_t>(predicate) < arities_.size();
  }
  size_t num_edb() const { return num_edb_; }
  int arity(int predicate) const {
    assert(predicate >= 0 &&
           static_cast<size_t>(predicate) < arities_.size());
    return arities_.at(static_cast<size_t>(predicate));
  }
  const std::vector<DatalogRule>& rules() const { return rules_; }

  /// True iff `predicate` is a predicate of the program and `args` has its
  /// arity.
  bool Fits(int predicate, const Tuple& args) const {
    return HasPredicate(predicate) &&
           static_cast<int>(args.size()) ==
               arities_[static_cast<size_t>(predicate)];
  }

  /// True iff the rule is well formed: its head and every body atom fit,
  /// its head is intensional, and every head variable occurs in a body atom
  /// (range restriction). Every evaluator (SemiNaiveEval, NaiveEval, the
  /// conditioned fixpoint and with it MaterializedView, the magic rewrite)
  /// fires a rule only if it fits, in every build mode: a rule that does
  /// not fit derives nothing. These are exactly the rules Validate()
  /// reports.
  bool Fits(const DatalogRule& rule) const;

  bool IsIdb(int predicate) const {
    return predicate >= static_cast<int>(num_edb_);
  }

  /// Every rule that does not fit, with each reason: an atom with an
  /// unknown predicate or another argument count than its arity, an
  /// extensional head, a head variable no body atom binds. ProgramAnalysis's
  /// errors (datalog/analysis.h) joined one per line, or "" if every rule
  /// fits.
  std::string Validate() const;

  /// All constants the rules mention, sorted, deduplicated.
  std::vector<ConstId> Constants() const;

  std::string ToString() const;

 private:
  std::vector<int> arities_;
  size_t num_edb_ = 0;
  std::vector<DatalogRule> rules_;
};

}  // namespace pw

#endif  // PW_DATALOG_PROGRAM_H_
