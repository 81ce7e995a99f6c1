// Magic-set demand transformation for pure DATALOG programs.
//
// A bottom-up fixpoint computes every derivable fact even when the caller
// only asks about one goal atom. The magic-set rewrite specializes the
// program to a goal with a *binding pattern* (which argument positions are
// bound to constants): predicates are adorned with bound/free annotations
// propagated left-to-right through rule bodies (the standard full
// sideways-information-passing strategy), every adorned rule is guarded by a
// *magic* atom holding the bound arguments the rule is demanded for, and
// demand rules derive magic facts from the demand of the rules that consume
// them. Running the ordinary bottom-up fixpoint on the rewritten program
// then derives only demand-reachable facts, yet returns exactly the original
// fixpoint's answers for the goal.
//
// The rewrite is a pure program-to-program transformation — it knows nothing
// about c-tables. It composes with the conditioned fixpoint
// (ilalgebra/datalog_ctable.h) because conditioned facts of the magic
// predicates carry demand *conditions*: a magic fact derived through a row
// with a null (or a conditioned row) records under which condition the
// binding is demanded, unsatisfiable demand canonicalizes to the interner's
// false id and is pruned before any guarded rule body fires, and the
// subsumption antichain absorbs the demand conjuncts that magic evaluation
// adds to each derivation (conditions form an absorptive lattice, so
// goal-restricted answers come out *identical* to the full fixpoint's — see
// DatalogQueryOnCTables).

#ifndef PW_DATALOG_MAGIC_H_
#define PW_DATALOG_MAGIC_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "datalog/program.h"

namespace pw {

/// A binding pattern over a predicate's argument positions: bit i set means
/// position i is bound. The mask has 64 positions (every arity in this
/// codebase is tiny); positions at or past 64 are treated as free
/// everywhere — demand cannot key on them, which only weakens pruning,
/// while goal restriction still applies their bindings exactly.
using Adornment = uint64_t;

/// The number of positions an adornment can distinguish.
inline constexpr size_t kMaxAdornedPositions = 64;

/// A query goal: one atom of `predicate` with an optional constant binding
/// per position (`nullopt` = free). The adornment is the set of bound
/// positions.
struct DatalogGoal {
  int predicate = 0;
  std::vector<std::optional<ConstId>> bindings;

  Adornment adornment() const {
    Adornment a = 0;
    for (size_t i = 0; i < bindings.size() && i < kMaxAdornedPositions; ++i) {
      if (bindings[i].has_value()) a |= Adornment{1} << i;
    }
    return a;
  }
};

/// One adorned intensional predicate of the rewritten program, with its
/// magic (demand) counterpart. The magic predicate's arity is the number of
/// bound positions; its arguments are the bound arguments in position order.
struct AdornedPredicate {
  int original = 0;         // predicate id in the source program
  Adornment adornment = 0;  // binding pattern it was demanded with
  int adorned = 0;          // its id in the rewritten program
  int magic = 0;            // its magic predicate's id in the rewritten program
};

/// The rewritten program plus the bookkeeping the evaluator and the tests
/// need. Predicate layout: [0, num_edb) are the unchanged extensional
/// predicates, [num_edb, magic_begin) the reachable adorned intensional
/// predicates (discovery order; the adorned goal first), and
/// [magic_begin, num_predicates) their magic counterparts — so "is this a
/// demand predicate" is a single comparison (DatalogCTableOptions::
/// magic_pred_begin uses exactly that).
struct MagicRewriteResult {
  DatalogProgram program;
  int goal_predicate = 0;  // the adorned goal's id in `program` (the goal
                           // predicate itself when the goal is extensional)
  size_t magic_begin = 0;  // first magic predicate id; == num_predicates()
                           // when the goal is extensional (no rewrite needed)
  std::vector<AdornedPredicate> adorned;  // discovery order; [0] is the goal
  size_t rules_adorned = 0;  // guarded rules (source rule x head adornment)
  size_t magic_rules = 0;    // demand rules, the seed fact included
  size_t rules_pruned = 0;   // source rules dropped before adorning, the
                             // ones ProgramAnalysis::RuleDead marks: rules
                             // that do not fit, have a body predicate
                             // underivable from the EDB, or duplicate an
                             // earlier rule
};

/// Rewrites `program` for `goal`. Only rules reachable from the goal's
/// demand are kept, and dead ones (ProgramAnalysis::RuleDead, every rule
/// that does not fit among them) are pruned before adorning, so the
/// rewritten program always passes DatalogProgram::Validate(); `adorned`
/// maps its predicates back, and `program.ToString()` prints it. An
/// extensional goal needs no demand: the result is a program with the same
/// predicates and no rules (the goal's answers are the extensional table
/// itself). So does a goal that names no predicate of `program` (its
/// `goal_predicate` is then out of range too, and callers check it), and a
/// goal whose bindings are not exactly as wide as its predicate (it matches
/// no row).
MagicRewriteResult MagicRewrite(const DatalogProgram& program,
                                const DatalogGoal& goal);

/// True iff every (predicate, binding pattern) pair the goal's demand
/// reaches keeps at least one bound position — the static precondition for
/// the rewrite to prune anything. An all-free demanded pair means its
/// fixpoint degenerates to the full one (the SAT→DATALOG gadget's shape:
/// recursive body atoms that receive no bindings), so speculative callers
/// (the demand-path possibility procedure) check this before evaluating.
/// Runs only the adornment discovery, not the rule emission. Extensional
/// goals, goals that name no predicate and goals of another width than
/// their predicate trivially qualify.
bool DemandStaysBound(const DatalogProgram& program, const DatalogGoal& goal);

}  // namespace pw

#endif  // PW_DATALOG_MAGIC_H_
