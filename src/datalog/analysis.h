// Static analysis of pure DATALOG programs: what evaluation reads.
//
// A ProgramAnalysis is computed once per program:
//
//   - Errors, one Diagnostic per violation: an atom naming an unknown
//     predicate or with another argument count than its predicate's arity,
//     an extensional head, and a head variable no body atom binds. A rule
//     has an error exactly when DatalogProgram::Fits rejects it, and such a
//     rule derives nothing in any evaluator. Validate() joins the errors.
//
//   - The predicate dependency graph (body -> head edges of the rules that
//     fit) and its SCC condensation, numbered in a topological *stratum
//     order*: every body predicate's SCC id is <= its head predicate's, so
//     evaluating SCCs in id order sees each predicate's inputs converged
//     before its own rules fire (the stratum-scheduled fixpoint in
//     ilalgebra/datalog_ctable.cc).
//
//   - Dead rules, which the fixpoint leaves out of its schedule and the
//     magic rewrite prunes.
//
// No evaluator keeps an analysis: the conditioned fixpoint builds one at
// construction to fix its per-SCC rule schedule, and the magic rewrite and
// Validate() build one per call.

#ifndef PW_DATALOG_ANALYSIS_H_
#define PW_DATALOG_ANALYSIS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "datalog/program.h"

namespace pw {

/// One error of the program analysis, anchored to a rule and body atom.
struct Diagnostic {
  /// Index into program.rules().
  int rule = -1;
  /// Body atom position within the rule, or -1 for the head / the whole
  /// rule.
  int atom = -1;
  std::string message;

  /// "error: rule 2: body atom 1: arity mismatch ..." — the rendering
  /// ErrorString() joins.
  std::string ToString() const;

  friend bool operator==(const Diagnostic&, const Diagnostic&) = default;
};

class ProgramAnalysis {
 public:
  explicit ProgramAnalysis(const DatalogProgram& program);

  /// Every error, in rule order.
  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }

  /// All errors joined, one per line — "" when there are none. The body of
  /// DatalogProgram::Validate().
  std::string ErrorString() const;

  /// Number of strongly connected components of the predicate dependency
  /// graph. Every predicate belongs to exactly one SCC; SCC ids are a
  /// topological order of the condensation (see SccOf).
  int num_sccs() const { return static_cast<int>(scc_rules_.size()); }

  /// The SCC of `pred`. For every rule that fits the program,
  /// SccOf(body pred) <= SccOf(head pred).
  int SccOf(int pred) const { return scc_of_[static_cast<size_t>(pred)]; }

  /// True iff the SCC is recursive: more than one member, or a single
  /// predicate depending on itself. A nonrecursive stratum's rules can be
  /// fired in one pass — no new combination can appear afterwards.
  bool SccRecursive(int scc) const {
    return scc_recursive_[static_cast<size_t>(scc)];
  }

  /// Indices of the rules that fit the program and whose head lies in
  /// `scc`, in program order.
  const std::vector<size_t>& SccRules(int scc) const {
    return scc_rules_[static_cast<size_t>(scc)];
  }

  /// True iff the rule can never fire on any extensional database: it does
  /// not fit the program, some body predicate no rule chain derives from
  /// the extensional database, or the rule duplicates an earlier one (which
  /// already derives everything it would). Dead rules are skipped by the
  /// fixpoint and pruned by the magic rewrite.
  bool RuleDead(size_t rule) const { return rule_dead_[rule]; }

 private:
  void CheckRules(const DatalogProgram& program);
  void BuildSccs(const DatalogProgram& program);
  void MarkDeadRules(const DatalogProgram& program);

  std::vector<Diagnostic> diagnostics_;
  std::vector<bool> rule_fits_;                // per rule
  std::vector<int> scc_of_;                    // per predicate
  std::vector<bool> scc_recursive_;            // per SCC
  std::vector<std::vector<size_t>> scc_rules_; // per SCC, program order
  std::vector<bool> rule_dead_;                // per rule
};

}  // namespace pw

#endif  // PW_DATALOG_ANALYSIS_H_
