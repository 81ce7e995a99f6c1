// Static analysis of pure DATALOG programs.
//
// A ProgramAnalysis is computed once per program and answers the structural
// questions every downstream consumer used to re-derive (or skip) on its
// own:
//
//   - The predicate dependency graph (body -> head edges) and its SCC
//     condensation, numbered in a topological *stratum order*: every body
//     predicate's SCC id is <= its head predicate's, so evaluating SCCs in
//     id order sees each predicate's inputs converged before its own rules
//     fire (the stratum-scheduled fixpoint in ilalgebra/datalog_ctable.cc).
//
//   - Structured diagnostics. Errors are the well-formedness violations
//     DatalogProgram::Validate() used to report first-error-wins as a flat
//     string (unknown predicates, arity mismatches, extensional heads,
//     range-restriction violations); warnings flag programs that are legal
//     but suspicious: predicates underivable from the extensional database,
//     rules that can never fire, duplicate rules, cartesian-product rule
//     bodies, and head-only predicates nothing ever reads.
//
//   - Derived facts for optimizers: per-predicate reachability cones (the
//     closure incremental view maintenance over-deletes on a base change —
//     datalog/ivm.cc used to recompute it per delete), recursive vs
//     nonrecursive classification per rule and per SCC (a nonrecursive
//     stratum converges in a single pass), derivability (magic sets prune
//     dead rules before adorning — datalog/magic.cc), and per-rule variable
//     connectivity (the cartesian warning now, SIPS/body-reordering next).
//
// The analysis is immutable and holds a pointer to the program, which must
// outlive it. Malformed programs are analyzed defensively: rules that do
// not fit the program (an atom naming an unknown predicate, or with another
// argument count than its predicate's arity; DatalogProgram::Fits) produce
// errors, are excluded from the graph structures and count as dead.

#ifndef PW_DATALOG_ANALYSIS_H_
#define PW_DATALOG_ANALYSIS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "datalog/program.h"

namespace pw {

enum class DiagnosticSeverity { kError, kWarning };

/// One finding of the program analysis, anchored to a rule and body atom
/// where applicable.
struct Diagnostic {
  DiagnosticSeverity severity = DiagnosticSeverity::kError;
  /// Index into program.rules(), or -1 for a program-level finding (e.g. an
  /// unreachable predicate).
  int rule = -1;
  /// Body atom position within the rule, or -1 for the head / the whole
  /// rule / a program-level finding.
  int atom = -1;
  std::string message;

  /// "error: rule 2: body atom 1: arity mismatch ..." — the rendering
  /// ErrorString() joins.
  std::string ToString() const;

  friend bool operator==(const Diagnostic&, const Diagnostic&) = default;
};

/// Per-rule variable-connectivity: body atoms sharing a variable share a
/// component. More than one component means the rule multiplies unconnected
/// row sets — a cartesian product no join key can prune (body-reordering
/// and SIPS choice consume this same structure).
struct RuleConnectivity {
  /// Component id per body atom, dense in [0, num_components). Atoms with
  /// no variables are singleton components.
  std::vector<int> component;
  int num_components = 0;
};

class ProgramAnalysis {
 public:
  explicit ProgramAnalysis(const DatalogProgram& program);

  const DatalogProgram& program() const { return *program_; }

  // --- Diagnostics -----------------------------------------------------

  /// Every finding, errors first (within each severity, in rule order).
  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }

  /// True iff no error-severity diagnostic exists (warnings allowed).
  bool ok() const { return num_errors_ == 0; }

  size_t num_errors() const { return num_errors_; }

  /// All errors joined, one per line — "" when ok(). The body of
  /// DatalogProgram::Validate().
  std::string ErrorString() const;

  // --- Dependency graph / strata ---------------------------------------

  /// Number of strongly connected components of the predicate dependency
  /// graph. Every predicate belongs to exactly one SCC; SCC ids are a
  /// topological order of the condensation (see SccOf).
  int num_sccs() const { return static_cast<int>(scc_members_.size()); }

  /// The SCC of `pred`. For every rule that fits the program,
  /// SccOf(body pred) <= SccOf(head pred).
  int SccOf(int pred) const { return scc_of_[static_cast<size_t>(pred)]; }

  /// Member predicates of `scc`, ascending.
  const std::vector<int>& SccMembers(int scc) const {
    return scc_members_[static_cast<size_t>(scc)];
  }

  /// True iff the SCC is recursive: more than one member, or a single
  /// predicate depending on itself. A nonrecursive stratum's rules can be
  /// fired in one pass — no new combination can appear afterwards.
  bool SccRecursive(int scc) const {
    return scc_recursive_[static_cast<size_t>(scc)];
  }

  /// Indices of the rules whose head lies in `scc`, in program order.
  const std::vector<size_t>& SccRules(int scc) const {
    return scc_rules_[static_cast<size_t>(scc)];
  }

  // --- Per-rule facts ---------------------------------------------------

  /// True iff some body atom's predicate shares the head's SCC — the rule
  /// participates in recursion and needs delta rounds; nonrecursive rules
  /// contribute everything they ever will in a single pass.
  bool RuleRecursive(size_t rule) const { return rule_recursive_[rule]; }

  /// True iff the rule can never fire on any extensional database: it does
  /// not fit the program, some body predicate is underivable, or the rule
  /// duplicates an earlier one (which already derives everything it would).
  /// Dead rules are safely skipped by evaluation and pruned by the magic
  /// rewrite.
  bool RuleDead(size_t rule) const { return rule_dead_[rule]; }

  /// True iff the rule textually equals an earlier rule (one of the two
  /// RuleDead causes, separated for diagnostics and tests).
  bool RuleDuplicate(size_t rule) const { return rule_duplicate_[rule]; }

  /// Variable-connectivity of the rule's body.
  const RuleConnectivity& Connectivity(size_t rule) const {
    return rule_connectivity_[rule];
  }

  // --- Per-predicate facts ----------------------------------------------

  /// True iff some extensional database gives `pred` a fact: extensional
  /// predicates always; an intensional one iff some rule with every body
  /// predicate derivable (an empty body vacuously) derives it.
  bool Derivable(int pred) const {
    return derivable_[static_cast<size_t>(pred)];
  }

  /// The reachability cone of `pred`: every predicate whose derivations can
  /// transitively depend on `pred` (closed under body -> head edges), the
  /// predicate itself included. A rule whose head is outside Cone(p) cannot
  /// mention any predicate inside it — the property incremental view
  /// maintenance relies on when it over-deletes a cone and re-derives
  /// firing only cone-head rules.
  const std::vector<bool>& Cone(int pred) const {
    return cones_[static_cast<size_t>(pred)];
  }

 private:
  void CheckRules();       // error diagnostics + duplicate detection
  void BuildSccs();        // Tarjan + topological renumbering
  void ClassifyRules();    // recursive / dead, connectivity
  void ComputeDerivable();
  void ComputeCones();
  void WarnStructure();    // unreachable / dead / cartesian / head-only

  const DatalogProgram* program_;
  std::vector<Diagnostic> diagnostics_;
  size_t num_errors_ = 0;

  // Rules that fit the program — the only ones the graph structures
  // consider.
  std::vector<bool> rule_in_graph_;

  std::vector<int> scc_of_;                    // per predicate
  std::vector<std::vector<int>> scc_members_;  // per SCC, ascending
  std::vector<bool> scc_recursive_;            // per SCC
  std::vector<std::vector<size_t>> scc_rules_; // per SCC, program order

  std::vector<bool> rule_recursive_;
  std::vector<bool> rule_dead_;
  std::vector<bool> rule_duplicate_;
  std::vector<RuleConnectivity> rule_connectivity_;

  std::vector<bool> derivable_;            // per predicate
  std::vector<std::vector<bool>> cones_;   // per predicate
};

}  // namespace pw

#endif  // PW_DATALOG_ANALYSIS_H_
