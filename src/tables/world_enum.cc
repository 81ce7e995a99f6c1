#include "tables/world_enum.h"

#include <algorithm>

#include "condition/binding_env.h"
#include "condition/interner.h"

namespace pw {

namespace {

/// Shared state of the recursive restricted-growth enumeration.
struct EnumState {
  const std::vector<VarId>* vars;
  std::vector<ConstId> delta;       // base constants
  std::vector<ConstId> fresh;       // |vars| fresh constants
  const Conjunction* global;
  // For each variable position, the global atoms fully assigned at it.
  std::vector<std::vector<const CondAtom*>> atoms_at;
  const std::function<bool(const Valuation&)>* fn;
  uint64_t remaining = 0;  // satisfying valuations still allowed (0 = inf)
  bool use_limit = false;
  bool complete = true;
  Valuation valuation;
};

bool Recurse(EnumState& state, size_t pos, size_t fresh_used) {
  if (pos == state.vars->size()) {
    if (state.use_limit) {
      if (state.remaining == 0) {
        state.complete = false;
        return false;
      }
      --state.remaining;
    }
    if (!(*state.fn)(state.valuation)) {
      state.complete = false;
      return false;
    }
    return true;
  }
  VarId var = (*state.vars)[pos];
  size_t num_choices = state.delta.size() + std::min(fresh_used + 1,
                                                     state.fresh.size());
  for (size_t i = 0; i < num_choices; ++i) {
    bool is_new_fresh = i == state.delta.size() + fresh_used;
    ConstId value = i < state.delta.size()
                        ? state.delta[i]
                        : state.fresh[i - state.delta.size()];
    state.valuation.Set(var, value);
    bool ok = true;
    for (const CondAtom* atom : state.atoms_at[pos]) {
      if (!state.valuation.Satisfies(*atom)) {
        ok = false;
        break;
      }
    }
    if (ok && !Recurse(state, pos + 1, fresh_used + (is_new_fresh ? 1 : 0))) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::vector<ConstId> FreshConstants(const CDatabase& database,
                                    const std::vector<ConstId>& extra,
                                    size_t count) {
  ConstId base = 0;
  for (ConstId c : database.Constants()) base = std::max(base, c + 1);
  for (ConstId c : extra) base = std::max(base, c + 1);
  std::vector<ConstId> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) out.push_back(base + static_cast<ConstId>(i));
  return out;
}

Instance Freeze(const CDatabase& database, const std::vector<ConstId>& avoid,
                ConstId* first_null) {
  // Each variable's class representative under the combined global: the
  // constant it forces, else the least variable of its class. (An
  // unsatisfiable global leaves every variable in a class of its own.)
  BindingEnv env;
  if (!env.Assert(database.CombinedGlobal())) env.Revert(0);
  std::vector<VarId> vars = database.Variables();
  std::vector<Term> reps;
  env.Representatives(vars, reps);
  // One more than needed, so fresh[0] exists even without variables.
  std::vector<ConstId> fresh =
      FreshConstants(database, avoid, vars.size() + 1);
  if (first_null != nullptr) *first_null = fresh[0];
  auto index_of = [&vars](VarId v) {
    return static_cast<size_t>(
        std::lower_bound(vars.begin(), vars.end(), v) - vars.begin());
  };
  // frozen[i] is the value of vars[i]. `vars` is sorted and includes the
  // global's variables, so each class's least variable, its
  // representative, is frozen before the others.
  std::vector<ConstId> frozen(vars.size());
  size_t next = 0;
  for (size_t i = 0; i < vars.size(); ++i) {
    Term t = reps[i];
    if (t.is_constant()) {
      frozen[i] = t.constant();
    } else if (t.variable() == vars[i]) {
      frozen[i] = fresh[next++];
    } else {
      frozen[i] = frozen[index_of(t.variable())];
    }
  }
  std::vector<Relation> rels;
  rels.reserve(database.num_tables());
  for (size_t k = 0; k < database.num_tables(); ++k) {
    const CTable& table = database.table(k);
    Relation r(table.arity());
    for (const CRow& row : table.rows()) {
      Fact f;
      f.reserve(row.tuple.size());
      for (const Term& t : row.tuple) {
        f.push_back(t.is_constant() ? t.constant()
                                    : frozen[index_of(t.variable())]);
      }
      r.Insert(std::move(f));
    }
    rels.push_back(std::move(r));
  }
  return Instance(std::move(rels));
}

bool ForEachSatisfyingValuation(
    const CDatabase& database, const WorldEnumOptions& options,
    const std::function<bool(const Valuation&)>& fn) {
  std::vector<VarId> vars = database.Variables();
  Conjunction global = database.CombinedGlobal();

  EnumState state;
  state.vars = &vars;
  state.delta = database.Constants();
  state.delta.insert(state.delta.end(), options.extra_constants.begin(),
                     options.extra_constants.end());
  SortUnique(state.delta);
  state.fresh = FreshConstants(database, options.extra_constants, vars.size());
  state.global = &global;
  state.fn = &fn;
  state.remaining = options.max_valuations;
  state.use_limit = options.max_valuations != 0;

  // Position each global atom at the variable position where it becomes
  // fully assigned (ground atoms are checked up front).
  state.atoms_at.resize(vars.size() + 1);
  std::vector<std::vector<const CondAtom*>> ground_atoms;
  auto pos_of = [&vars](VarId v) {
    return static_cast<size_t>(
        std::lower_bound(vars.begin(), vars.end(), v) - vars.begin());
  };
  for (const CondAtom& atom : global.atoms()) {
    size_t last = 0;
    bool has_var = false;
    for (VarId v : AtomVariables(atom)) {
      has_var = true;
      last = std::max(last, pos_of(v));
    }
    if (!has_var) {
      if (IsTriviallyFalse(atom)) return true;  // rep empty: nothing to visit
      continue;                                 // trivially true
    }
    state.atoms_at[last].push_back(&atom);
  }

  Recurse(state, 0, 0);
  return state.complete;
}

bool ForEachWorld(
    const CDatabase& database, const WorldEnumOptions& options,
    const std::function<bool(const Instance&, const Valuation&)>& fn) {
  return ForEachSatisfyingValuation(
      database, options, [&database, &fn](const Valuation& v) {
        return fn(v.Apply(database), v);
      });
}

std::vector<Instance> EnumerateWorlds(const CDatabase& database,
                                      const WorldEnumOptions& options) {
  std::vector<Instance> out;
  ForEachWorld(database, options,
               [&out](const Instance& world, const Valuation&) {
                 if (std::find(out.begin(), out.end(), world) == out.end()) {
                   out.push_back(world);
                 }
                 return true;
               });
  return out;
}

size_t CountDistinctWorlds(const CDatabase& database,
                           const WorldEnumOptions& options) {
  return EnumerateWorlds(database, options).size();
}

bool RepIsEmpty(const CDatabase& database) {
  ConditionInterner& interner = ConditionInterner::Global();
  return !interner.Satisfiable(database.CombinedGlobalId(interner));
}

}  // namespace pw
