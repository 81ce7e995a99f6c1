#include "datalog/magic.h"

#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <utility>

#include "datalog/analysis.h"

namespace pw {

namespace {

/// The bound argument terms of `atom` under `adornment`, in position order.
/// Positions past the mask width never test as bound.
Tuple BoundArgs(const DatalogAtom& atom, Adornment adornment) {
  Tuple out;
  for (size_t i = 0; i < atom.args.size() && i < kMaxAdornedPositions; ++i) {
    if (adornment & (Adornment{1} << i)) out.push_back(atom.args[i]);
  }
  return out;
}

/// The adornment of a body atom under the current bound-variable set:
/// a position is bound when its argument is a constant or a variable that is
/// already bound (a bound head variable, or any variable of an earlier body
/// atom — the left-to-right full SIPS).
Adornment AtomAdornment(const DatalogAtom& atom,
                        const std::set<VarId>& bound_vars) {
  Adornment a = 0;
  for (size_t i = 0; i < atom.args.size() && i < kMaxAdornedPositions; ++i) {
    const Term& t = atom.args[i];
    if (t.is_constant() || bound_vars.count(t.variable()) > 0) {
      a |= Adornment{1} << i;
    }
  }
  return a;
}

/// The variables bound before any body atom is matched: head variables at
/// bound positions (their values arrive through the magic guard atom).
std::set<VarId> HeadBoundVars(const DatalogAtom& head, Adornment adornment) {
  std::set<VarId> bound;
  for (size_t i = 0; i < head.args.size() && i < kMaxAdornedPositions; ++i) {
    if ((adornment & (Adornment{1} << i)) && head.args[i].is_variable()) {
      bound.insert(head.args[i].variable());
    }
  }
  return bound;
}

/// Adornment discovery: the (predicate, binding pattern) pairs reachable
/// from the goal's demand, breadth-first so the goal is pair 0. `pair_index`
/// maps each pair to its position in the returned list. Rules the analysis
/// marks dead (they do not fit, can never fire, or duplicate an earlier
/// rule) generate no demand, so dead demand chains stay out of the
/// rewritten program.
std::vector<std::pair<int, Adornment>> DiscoverAdornedPairs(
    const DatalogProgram& program, const DatalogGoal& goal,
    const ProgramAnalysis& analysis,
    std::map<std::pair<int, Adornment>, size_t>& pair_index) {
  std::vector<std::pair<int, Adornment>> pairs;
  auto discover = [&](int pred, Adornment a) {
    auto [it, inserted] = pair_index.try_emplace({pred, a}, pairs.size());
    if (inserted) pairs.emplace_back(pred, a);
  };
  discover(goal.predicate, goal.adornment());
  for (size_t next = 0; next < pairs.size(); ++next) {
    auto [pred, adornment] = pairs[next];
    for (size_t r = 0; r < program.rules().size(); ++r) {
      const DatalogRule& rule = program.rules()[r];
      if (analysis.RuleDead(r) || rule.head.predicate != pred) continue;
      std::set<VarId> bound = HeadBoundVars(rule.head, adornment);
      for (const DatalogAtom& atom : rule.body) {
        if (program.IsIdb(atom.predicate)) {
          discover(atom.predicate, AtomAdornment(atom, bound));
        }
        for (const Term& t : atom.args) {
          if (t.is_variable()) bound.insert(t.variable());
        }
      }
    }
  }
  return pairs;
}

void AppendRuleUnlessDuplicate(std::vector<DatalogRule>& rules,
                               DatalogRule rule, size_t& counter) {
  if (std::find(rules.begin(), rules.end(), rule) != rules.end()) return;
  rules.push_back(std::move(rule));
  ++counter;
}

/// True iff the goal names an intensional predicate of `program` and binds
/// exactly its arity: the only goals with demand to propagate (a goal of
/// another width matches no row). Checked in all build modes, since the
/// discovery looks up the goal predicate's arity.
bool HasDemand(const DatalogProgram& program, const DatalogGoal& goal) {
  return program.IsIdb(goal.predicate) &&
         static_cast<size_t>(goal.predicate) < program.num_predicates() &&
         goal.bindings.size() ==
             static_cast<size_t>(program.arity(goal.predicate));
}

}  // namespace

MagicRewriteResult MagicRewrite(const DatalogProgram& program,
                                const DatalogGoal& goal) {
  MagicRewriteResult out;
  const size_t num_edb = program.num_edb();

  // An extensional goal needs no demand machinery: its answers are the
  // extensional table itself, so the "rewritten" program is the predicate
  // space with no rules (the conditioned fixpoint then just carries the
  // extensional rows through). A goal outside the predicate space, or of
  // another width than its predicate, demands nothing either.
  if (!HasDemand(program, goal)) {
    std::vector<int> arities;
    for (size_t p = 0; p < program.num_predicates(); ++p) {
      arities.push_back(program.arity(static_cast<int>(p)));
    }
    out.program = DatalogProgram(std::move(arities), num_edb);
    out.goal_predicate = goal.predicate;
    out.magic_begin = program.num_predicates();
    return out;
  }

  const ProgramAnalysis analysis(program);
  for (size_t r = 0; r < program.rules().size(); ++r) {
    out.rules_pruned += analysis.RuleDead(r);
  }

  std::map<std::pair<int, Adornment>, size_t> pair_index;
  std::vector<std::pair<int, Adornment>> pairs =
      DiscoverAdornedPairs(program, goal, analysis, pair_index);

  // --- Predicate layout: extensional unchanged, then the adorned pairs,
  // then their magic counterparts.
  std::vector<int> arities;
  for (size_t p = 0; p < num_edb; ++p) {
    arities.push_back(program.arity(static_cast<int>(p)));
  }
  const int adorned_base = static_cast<int>(num_edb);
  const int magic_base = adorned_base + static_cast<int>(pairs.size());
  out.magic_begin = static_cast<size_t>(magic_base);
  for (size_t i = 0; i < pairs.size(); ++i) {
    auto [pred, adornment] = pairs[i];
    out.adorned.push_back({pred, adornment, adorned_base + static_cast<int>(i),
                           magic_base + static_cast<int>(i)});
    arities.push_back(program.arity(pred));
  }
  for (const auto& pair : pairs) {
    arities.push_back(static_cast<int>(std::popcount(pair.second)));
  }
  out.goal_predicate = adorned_base;
  DatalogProgram rewritten(std::move(arities), num_edb);

  // --- Emission. For each adorned pair and each source rule with that head:
  // the guarded rule (magic guard first, intensional body atoms replaced by
  // their adorned versions) and, per intensional body atom, the demand rule
  // deriving its magic facts from the guard plus the body prefix before it.
  std::vector<DatalogRule> rules;
  auto adorned_atom = [&](const DatalogAtom& atom, Adornment a) {
    return DatalogAtom{
        static_cast<int>(pair_index.at({atom.predicate, a})) + adorned_base,
        atom.args};
  };
  auto magic_atom = [&](const DatalogAtom& atom, Adornment a) {
    return DatalogAtom{
        static_cast<int>(pair_index.at({atom.predicate, a})) + magic_base,
        BoundArgs(atom, a)};
  };
  for (auto [pred, adornment] : pairs) {
    for (size_t r = 0; r < program.rules().size(); ++r) {
      const DatalogRule& rule = program.rules()[r];
      if (analysis.RuleDead(r) || rule.head.predicate != pred) continue;
      DatalogAtom guard = magic_atom(rule.head, adornment);
      DatalogRule guarded;
      guarded.head = adorned_atom(rule.head, adornment);
      guarded.body.push_back(guard);
      std::set<VarId> bound = HeadBoundVars(rule.head, adornment);
      for (const DatalogAtom& atom : rule.body) {
        if (program.IsIdb(atom.predicate)) {
          Adornment b = AtomAdornment(atom, bound);
          // Demand rule: this atom's bindings are demanded whenever the
          // guarded rule's prefix before it can fire.
          DatalogRule demand;
          demand.head = magic_atom(atom, b);
          demand.body.assign(guarded.body.begin(), guarded.body.end());
          AppendRuleUnlessDuplicate(rules, std::move(demand),
                                    out.magic_rules);
          guarded.body.push_back(adorned_atom(atom, b));
        } else {
          guarded.body.push_back(atom);
        }
        for (const Term& t : atom.args) {
          if (t.is_variable()) bound.insert(t.variable());
        }
      }
      AppendRuleUnlessDuplicate(rules, std::move(guarded), out.rules_adorned);
    }
  }

  // --- Seed: the goal's own bound constants are demanded unconditionally.
  // Positions past the adornment width are free (not part of the magic
  // predicate), so the cap must match BoundArgs'.
  DatalogRule seed;
  seed.head.predicate =
      static_cast<int>(pair_index.at({goal.predicate, goal.adornment()})) +
      magic_base;
  for (size_t i = 0;
       i < goal.bindings.size() && i < kMaxAdornedPositions; ++i) {
    if (goal.bindings[i].has_value()) {
      seed.head.args.push_back(Term::Const(*goal.bindings[i]));
    }
  }
  AppendRuleUnlessDuplicate(rules, std::move(seed), out.magic_rules);

  for (DatalogRule& rule : rules) rewritten.AddRule(std::move(rule));
  out.program = std::move(rewritten);
  return out;
}

bool DemandStaysBound(const DatalogProgram& program, const DatalogGoal& goal) {
  if (!HasDemand(program, goal)) return true;
  const ProgramAnalysis analysis(program);
  std::map<std::pair<int, Adornment>, size_t> pair_index;
  for (auto [pred, adornment] :
       DiscoverAdornedPairs(program, goal, analysis, pair_index)) {
    if (adornment == 0) return false;
  }
  return true;
}

}  // namespace pw
