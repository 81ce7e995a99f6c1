#include "ilalgebra/datalog_ctable.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "condition/dd_backend.h"
#include "datalog/analysis.h"
#include "ilalgebra/join_plan.h"
#include "tables/tuple_index.h"

namespace pw {

namespace {

/// One conditioned fact during evaluation. The tuple lives in the by_tuple
/// index (node-based map, so the key address is stable); rows of the same
/// tuple share it. `cond` is a backend condition id: an interned conjunction
/// on the antichain backend, a decision-diagram id on the DD backend. Dead
/// rows (subsumed by a later, weaker derivation — or, on the DD backend,
/// Or-merged into a wider one) stay in place so indices remain stable; joins
/// skip them — any derivation through a dead row is covered, with a weaker
/// or equal condition, by the same derivation through its subsumer.
struct IRow {
  const Tuple* tuple = nullptr;
  CondId cond = ConditionBackend::kTrueCond;
  bool alive = true;
};

struct PredState {
  std::vector<IRow> rows;
  // Tuple -> indices into `rows` (live and dead): the duplicate-suppression
  // and subsumption index. (TupleHash comes from tables/tuple_index.h, the
  // shared indexing layer.)
  std::unordered_map<Tuple, std::vector<size_t>, TupleHash> by_tuple;
  // The previous round's delta is rows[delta_begin, delta_end); rows at and
  // past delta_end were derived in the current round.
  size_t delta_begin = 0;
  size_t delta_end = 0;
  // Lazily-built hash indexes of the rows' tuples per bound-column subset,
  // extended across rounds — and across Run() calls — as rows are appended.
  // Rows are append-only until a Reset, which clears the cache.
  // Dead rows stay indexed and are skipped at match time, like in the scan.
  TupleIndexCache indexes;
};

struct EvalState {
  ConditionInterner* interner = nullptr;
  // The condition representation rows travel in (the Impl holds a
  // reference). `dd` is the same backend when it is a DDBackend, else null:
  // non-null switches Admit from the subsumption antichain to
  // one-live-row-per-tuple Or-merging, and Export to the DNF expansion.
  ConditionBackend* backend = nullptr;
  DDBackend* dd = nullptr;
  ConjId global_id = ConditionInterner::kTrueConj;
  // Predicates at or past this id are magic (demand) predicates of a
  // magic-rewritten program; their rows are attributed to the demand
  // counters. -1: none.
  int magic_begin = -1;
  // Row-derivation budget; 0 = unlimited. When it trips, `aborted` stops
  // every loop and the stats record the exhaustion. Work units (row visits
  // in the join loops, subsumption-bucket scans) are metered against
  // 64 * max_derived_rows so that evaluation also stops when the join or
  // subsumption work explodes without accumulating kept rows.
  size_t max_derived_rows = 0;
  size_t work = 0;
  bool aborted = false;

  void ChargeWork(size_t units) {
    work += units;
    if (max_derived_rows != 0 && work >= 64 * max_derived_rows) {
      aborted = true;
      stats.budget_exhausted = true;
    }
  }
  std::vector<PredState> preds;
  ConditionedFixpointStats stats;

  // Phase 1 of a recursive stratum (StratifiedRun) sets `hold`: Admit then
  // puts each conditional derivation on `held`, in derivation order, for
  // phase 2. A held tuple points at its by_tuple key, so holding copies a
  // tuple only when it is new to the predicate, as admitting does.
  struct HeldRow {
    int pred;
    const Tuple* tuple;
    CondId cond;
  };
  bool hold = false;
  std::vector<HeldRow> held;

  bool IsMagicPred(int pred) const {
    return magic_begin >= 0 && pred >= magic_begin;
  }
};

/// True iff a live row's condition `live` covers a same-tuple derivation
/// `cond` on the antichain: `cond` implies it. (Diagrams Or-merge instead.)
bool Covers(const EvalState& state, CondId live, CondId cond) {
  return state.interner->Implies(cond, live);
}

/// Admits a satisfiable derived row unless a duplicate (same tuple, same
/// condition id) or subsumed; kills live rows the new one covers. Returns
/// true if the row was added. The tuple is copied only when it is new to the
/// predicate, so a duplicate or subsumed derivation allocates nothing.
///
/// Antichain backend: a live row whose condition the new one implies makes
/// it redundant, and it in turn kills every live row implying it — per tuple
/// a covering antichain of conjunctions survives. Since each (tuple, id)
/// pair is admitted at most once and the id universe of a program is finite,
/// the fixpoint terminates.
///
/// DD backend: per tuple at most ONE live row exists; a new derivation
/// Or-merges into it. A merge that widens the condition kills the old row
/// and appends the merged one past the delta end, so downstream rules re-fire
/// against the widened condition next round — exactly the semi-naive
/// invariant, with the merged id playing the role the fresh conjunction
/// played before. Termination: every non-dropped insert strictly enlarges
/// the tuple's condition in the finite lattice of boolean functions over the
/// program's atom universe.
///
/// While `state.hold` is set, a conditional derivation is not admitted: it
/// counts as subsumed if its tuple has a live true row, and otherwise goes
/// on `state.held`. Nothing is admitted after a live true row on either
/// backend (every condition implies true, and Or-merging into true gives
/// true), so such a row is the last of its tuple's bucket.
bool Admit(EvalState& state, int pred, const Tuple& tuple, CondId cond) {
  PredState& ps = state.preds[pred];
  auto [it, inserted] = ps.by_tuple.try_emplace(tuple);
  std::vector<size_t>& bucket = it->second;
  if (state.hold && cond != ConditionBackend::kTrueCond) {
    if (!bucket.empty() &&
        ps.rows[bucket.back()].cond == ConditionBackend::kTrueCond) {
      ++state.stats.subsumed_rows;
    } else {
      state.held.push_back({pred, &it->first, cond});
    }
    return false;
  }
  state.ChargeWork(1 + bucket.size());
  if (!inserted && state.dd) {
    for (size_t idx : bucket) {
      IRow& existing = ps.rows[idx];
      if (!existing.alive) continue;
      if (existing.cond == cond) {
        ++state.stats.duplicate_rows;
        return false;
      }
      CondId merged = state.dd->Or(existing.cond, cond);
      if (merged == existing.cond) {
        // The live condition already covers the new derivation.
        ++state.stats.subsumed_rows;
        return false;
      }
      existing.alive = false;
      ++state.stats.subsumed_rows;
      cond = merged;
      break;  // at most one live row per tuple on this backend
    }
  } else if (!inserted) {
    for (size_t idx : bucket) {
      if (ps.rows[idx].cond == cond) {
        ++state.stats.duplicate_rows;
        return false;
      }
    }
    for (size_t idx : bucket) {
      const IRow& existing = ps.rows[idx];
      // An already-present weaker condition derives the new row.
      if (existing.alive && Covers(state, existing.cond, cond)) {
        ++state.stats.subsumed_rows;
        return false;
      }
    }
    for (size_t idx : bucket) {
      IRow& existing = ps.rows[idx];
      if (existing.alive && Covers(state, cond, existing.cond)) {
        existing.alive = false;
        ++state.stats.subsumed_rows;
      }
    }
  }
  bucket.push_back(ps.rows.size());
  ps.rows.push_back(IRow{&it->first, cond, true});
  ++state.stats.derived_rows;
  if (state.IsMagicPred(pred)) ++state.stats.magic_facts;
  if (state.max_derived_rows != 0 &&
      state.stats.derived_rows >= state.max_derived_rows) {
    state.aborted = true;
    state.stats.budget_exhausted = true;
  }
  return true;
}

/// Inserts a derived row: drops it if its condition cannot hold together
/// with the global condition, else hands it to Admit. Returns true if the
/// row was added.
bool Insert(EvalState& state, int pred, const Tuple& tuple, CondId cond) {
  if (!state.backend->SatisfiableWith(state.global_id, cond)) {
    ++state.stats.unsatisfiable_rows;
    // Unsatisfiable *demand* dies here, before any guarded rule body could
    // fire against it.
    if (state.IsMagicPred(pred)) ++state.stats.demand_pruned;
    return false;
  }
  return Admit(state, pred, tuple, cond);
}

/// Matches rule argument terms against a row tuple, extending the flat
/// rule-scope binding (rule variable -> table term; a first occurrence is
/// appended, so the caller backtracks by truncating the binding to its size
/// before the call) and accumulating equality atoms between table terms
/// into `cond` where needed. Returns false on a hard mismatch: two
/// different constants.
bool MatchArgs(const Tuple& args, const Tuple& row, RuleBinding& binding,
               Conjunction& cond) {
  for (size_t i = 0; i < args.size(); ++i) {
    Term need = args[i];
    if (need.is_variable()) {
      const Term* bound = FindBound(binding, need.variable());
      if (bound == nullptr) {
        binding.emplace_back(need.variable(), row[i]);
        continue;
      }
      need = *bound;
    }
    CondAtom eq = Eq(need, row[i]);
    if (IsTriviallyFalse(eq)) return false;
    if (!IsTriviallyTrue(eq)) cond.Add(eq);
  }
  return true;
}

/// The constant `t` denotes under the canonical conjunction `forced`: `t`
/// itself if it is a constant; for a null, the constant of its canonical
/// `c = x` atom (the interner emits one per null forced to a constant,
/// constant on the left), if there is one.
std::optional<ConstId> ForcedConstant(const Conjunction& forced, Term t) {
  if (t.is_constant()) return t.constant();
  for (const CondAtom& atom : forced.atoms()) {
    if (atom.is_equality && atom.rhs == t && atom.lhs.is_constant()) {
      return atom.lhs.constant();
    }
  }
  return std::nullopt;
}

/// True iff one of a candidate's match equalities `eqs` is already decided
/// false by the canonical conjunction `acc`: both of its sides are forced
/// onto different constants (say acc holds x0 = 3 and the candidate needs
/// x0 = 4). acc AND eqs is then unsatisfiable, so the interner path would
/// cut the candidate as an unsatisfiable branch; this decides it without
/// an interner call.
bool ForcedClash(const Conjunction& acc, const Conjunction& eqs) {
  for (const CondAtom& eq : eqs.atoms()) {
    std::optional<ConstId> lhs = ForcedConstant(acc, eq.lhs);
    if (!lhs.has_value()) continue;
    std::optional<ConstId> rhs = ForcedConstant(acc, eq.rhs);
    if (rhs.has_value() && *lhs != *rhs) return true;
  }
  return false;
}

/// The up-to-date index of `pred`'s rows on `cols`. Rows are append-only
/// between resets, so the cache usually just extends; a reset empties the
/// cache and the entry rebuilds. Builds and extends are counted
/// separately into the stats, so a mid-query catch-up after an append is
/// never mistaken for (or double-counted as) a rebuild.
const TupleIndex& IndexFor(EvalState& state, int pred,
                           const std::vector<int>& cols) {
  PredState& ps = state.preds[pred];
  size_t builds_before = ps.indexes.stats().builds;
  size_t extends_before = ps.indexes.stats().extends;
  const TupleIndex& index = ps.indexes.Get(
      cols, ps.rows.size(),
      [&ps](size_t i) -> const Tuple& { return *ps.rows[i].tuple; });
  state.stats.index_builds += ps.indexes.stats().builds - builds_before;
  state.stats.index_extends += ps.indexes.stats().extends - extends_before;
  return index;
}

/// Scratch buffers of CanonicalLeaf, reused across the leaves of one
/// FireRule call: the canonical binding and equalities, and the head tuple
/// the leaf emits.
struct LeafScratch {
  RuleBinding binding;
  Conjunction eqs;
  Tuple head;
};

/// The order-canonical (head, condition) of one matched body combination —
/// the leaf computation of the join, shared by FireRule and the ground-rule
/// path — into `scratch.head` and `*cond`. Re-derives the binding and
/// equality conditions in *body order* from the matched rows: which atom a
/// shared variable's representative term comes from depends on the order
/// the atoms were matched, and rows with nulls make rep-equivalent
/// representatives syntactically different — so the emitted pair must be
/// computed order-canonically, or evaluation schedules with different delta
/// windows (incremental resume vs from-scratch) would derive different rows
/// and break their identity.
void CanonicalLeaf(const DatalogRule& rule, ConditionBackend& backend,
                   const std::vector<const Tuple*>& matched,
                   const std::vector<CondId>& matched_cond,
                   LeafScratch& scratch, CondId* cond) {
  scratch.binding.clear();
  scratch.eqs.Clear();
  CondId out = ConditionBackend::kTrueCond;
  for (size_t p = 0; p < rule.body.size(); ++p) {
    bool ok =
        MatchArgs(rule.body[p].args, *matched[p], scratch.binding, scratch.eqs);
    (void)ok;
    assert(ok);  // constant conflicts fail in every match order
    out = backend.And(out, matched_cond[p]);
  }
  if (scratch.eqs.size() > 0) {
    out = backend.And(out,
                      backend.FromConj(backend.interner().Intern(scratch.eqs)));
  }
  scratch.head.clear();
  for (const Term& t : rule.head.args) {
    // The rule fits (DatalogProgram::Fits), so a body atom bound every head
    // variable.
    scratch.head.push_back(t.is_constant()
                               ? t
                               : *FindBound(scratch.binding, t.variable()));
  }
  *cond = out;
}

/// Fires one empty-body rule (a ground fact) into the pending delta.
void FireGroundRule(EvalState& state, const DatalogRule& rule) {
  LeafScratch scratch;
  CondId cond = ConditionBackend::kTrueCond;
  CanonicalLeaf(rule, *state.backend, {}, {}, scratch, &cond);
  Insert(state, rule.head.predicate, scratch.head, cond);
}

/// Fires one rule semi-naively, inserting head derivations: body position
/// `delta_pos` ranges over its predicate's delta, earlier positions over
/// pre-delta rows only and later ones over everything up to the delta end —
/// so each combination with at least one delta row is enumerated exactly
/// once per round. A body atom with bound, constant-valued positions
/// enumerates its range through the predicate's hash index on those
/// positions instead of scanning it (the rows a scan would match, in row
/// order; positions bound to a null are not keyed, since a null matches any
/// row under a condition). The local condition travels as an interned id:
/// conjunction is the memoized And and a branch whose partial condition
/// cannot hold (on its own or with the global condition) is cut
/// immediately. Returns true if anything was added.
///
/// Each candidate row is cheap to reject. The rule-scope binding is flat
/// (RuleBinding) and backtracking truncates it to its size on entry to the
/// depth; the candidate's equality atoms go into one scratch conjunction,
/// cleared per candidate; CanonicalLeaf reuses per-call buffers. Matching a
/// candidate therefore allocates nothing once those buffers have grown.
///
/// On the antichain backend a CondId is an interned conjunction, so the
/// nulls the accumulated condition forces to constants can be read off its
/// canonical form: a candidate whose match equalities put a forced null
/// against a different constant is cut right there, counted like any
/// unsatisfiable branch, without the Intern/And/SatisfiableWith calls the
/// interner path would spend on it. That is the common case on null-heavy
/// tables: wildcard rows (x0, ...) come back from every probe and clash
/// with the x0 = c a derivation already carries. On the DD backend a CondId
/// is a diagram and the cut is skipped.
bool FireRule(EvalState& state, const DatalogRule& rule, int delta_pos) {
  ConditionInterner& interner = *state.interner;
  ConditionBackend& backend = *state.backend;
  bool added = false;
  // Branches cut while deriving a magic (demand) predicate are demand that
  // can never hold — counted separately as demand_pruned.
  const bool magic_head = state.IsMagicPred(rule.head.predicate);

  // Enumerate the delta atom first, then the rest in body order. The delta
  // window is the smallest range by construction (often a single seeded
  // row), and binding its variables up front turns the other atoms' scans
  // into keyed index probes — O(matches) instead of O(rows) per delta row.
  // A pure permutation of the enumeration order: the combination set is
  // unchanged.
  std::vector<size_t> order(rule.body.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::rotate(order.begin(), order.begin() + delta_pos,
              order.begin() + delta_pos + 1);

  // The matched row (tuple pointer and condition) per *body* position —
  // tuple pointers are stable (they point at by_tuple keys, a node-based
  // map), so capturing them across the recursion is safe even when Insert
  // grows the row vectors.
  std::vector<const Tuple*> matched(rule.body.size(), nullptr);
  std::vector<CondId> matched_cond(rule.body.size(),
                                   ConditionBackend::kTrueCond);

  // Per-call scratch, reused across candidates: the binding, one candidate's
  // match equalities (interned before the recursion reuses them) and the
  // leaf's buffers.
  RuleBinding binding;
  Conjunction eqs;
  LeafScratch leaf;

  auto go = [&](auto& self, size_t depth, CondId acc) -> void {
    if (state.aborted) return;
    if (depth == rule.body.size()) {
      CondId cond = ConditionBackend::kTrueCond;
      CanonicalLeaf(rule, backend, matched, matched_cond, leaf, &cond);
      added |= Insert(state, rule.head.predicate, leaf.head, cond);
      return;
    }
    const size_t pos = order[depth];
    const DatalogAtom& atom = rule.body[pos];
    PredState& ps = state.preds[atom.predicate];
    size_t lo = 0;
    size_t hi;
    if (static_cast<int>(pos) == delta_pos) {
      lo = ps.delta_begin;
      hi = ps.delta_end;
    } else if (static_cast<int>(pos) < delta_pos) {
      hi = ps.delta_begin;
    } else {
      hi = ps.delta_end;
    }
    // The atom's probe plan under the current binding (the shared planning
    // layer, ilalgebra/join_plan.h): its bound, constant-valued positions
    // key a probe into the predicate's index. A variable bound to a null is
    // treated as unbound for keying (its row match adds an equality
    // condition instead of filtering).
    std::vector<size_t> candidates;
    bool keyed = false;
    if (lo < hi) {
      AtomProbePlan probe = PlanAtomProbe(atom.args, binding);
      if (!probe.cols.empty()) {
        // Snapshot the candidate ids: a Insert deeper in the recursion may
        // extend this very index (and any row vector) mid-iteration.
        candidates = IndexFor(state, atom.predicate, probe.cols)
                         .Candidates(probe.key, lo, hi);
        ++state.stats.index_probes;
        state.stats.index_hits += candidates.size();
        keyed = true;
      }
    }
    // The nulls `acc` forces to constants, as its canonical conjunction
    // (antichain backend only; the interner's storage is stable, so the
    // reference survives the recursion's interning).
    const Conjunction* forced = state.dd ? nullptr : &interner.Resolve(acc);
    const size_t bound_before = binding.size();
    // Index-based: Insert may append to (and reallocate) any row vector.
    size_t count = keyed ? candidates.size() : hi - lo;
    for (size_t k = 0; k < count && !state.aborted; ++k) {
      size_t idx = keyed ? candidates[k] : lo + k;
      state.ChargeWork(1);
      if (!ps.rows[idx].alive) continue;
      const Tuple* row_tuple = ps.rows[idx].tuple;
      CondId row_cond = ps.rows[idx].cond;
      eqs.Clear();
      if (MatchArgs(atom.args, *row_tuple, binding, eqs)) {
        CondId next = ConditionBackend::kFalseCond;
        if (forced == nullptr || !ForcedClash(*forced, eqs)) {
          next = backend.And(acc, row_cond);
          if (eqs.size() > 0) {
            next = backend.And(next, backend.FromConj(interner.Intern(eqs)));
          }
        }
        if (next != ConditionBackend::kFalseCond &&
            backend.SatisfiableWith(state.global_id, next)) {
          matched[pos] = row_tuple;
          matched_cond[pos] = row_cond;
          self(self, depth + 1, next);
        } else {
          ++state.stats.pruned_branches;  // never-on prefix: cut the subtree
          if (magic_head) ++state.stats.demand_pruned;
        }
      }
      binding.resize(bound_before);
    }
  };
  go(go, 0, ConditionBackend::kTrueCond);
  return added;
}

/// Advances every predicate's delta window to the rows appended during the
/// round just finished; counts them into the stats.
void AdvanceDeltas(EvalState& state) {
  for (PredState& ps : state.preds) {
    ps.delta_begin = ps.delta_end;
    ps.delta_end = ps.rows.size();
    state.stats.delta_rows += ps.delta_end - ps.delta_begin;
  }
}

/// One sequential semi-naive round over the listed rules (in list order):
/// fires each rule once per body position whose predicate has a nonempty
/// delta window. Returns true if any row was added.
bool SequentialRound(EvalState& state, const DatalogProgram& program,
                     const std::vector<size_t>& rule_ids) {
  bool changed = false;
  for (size_t r : rule_ids) {
    const DatalogRule& rule = program.rules()[r];
    for (size_t pos = 0; pos < rule.body.size() && !state.aborted; ++pos) {
      const PredState& ps = state.preds[rule.body[pos].predicate];
      if (ps.delta_begin == ps.delta_end) continue;
      changed |= FireRule(state, rule, static_cast<int>(pos));
    }
  }
  return changed;
}

/// Semi-naive rounds over a recursive stratum's rules until a round adds no
/// row (or the budget trips).
void Converge(EvalState& state, const DatalogProgram& program,
              const std::vector<size_t>& rule_ids) {
  bool changed = true;
  while (changed && !state.aborted) {
    ++state.stats.rounds;
    changed = SequentialRound(state, program, rule_ids);
    AdvanceDeltas(state);
  }
}

}  // namespace

struct ConditionedFixpoint::Impl {
  const DatalogProgram* program = nullptr;
  // The rule schedule, one stratum per SCC of the program's dependency graph
  // in topological order (datalog/analysis.h), fixed at construction: the
  // SCC's rules with a body that the analysis does not mark dead, in program
  // order, the count of those it does (ground rules fire through
  // FireGroundRules; rules that do not fit the program are in no SCC), and
  // whether the SCC is recursive.
  struct Stratum {
    std::vector<size_t> live;
    size_t dead = 0;
    bool recursive = false;
  };
  std::vector<Stratum> strata;
  // consumed[pred]: how many of `pred`'s rows every stratum has joined
  // against every relevant combination — the row count when Run() last
  // converged. A stratum's delta on the next Run() is [consumed, rows.size()).
  std::vector<size_t> consumed;
  // The condition representation of this fixpoint's rows; state.backend
  // points here. On diagrams it is the interner's manager, shared with every
  // other diagram fixpoint on the interner; this reference keeps it alive
  // past the interner's Clear().
  std::shared_ptr<ConditionBackend> backend;
  EvalState state;
  // Interner size at construction: stats() reports growth since then, which
  // matches the views (they intern the global condition before constructing
  // the fixpoint).
  size_t interner_baseline = 0;

  /// True iff `pred` is a predicate of the program. Checked unconditionally
  /// at the public entry points: a bad id would index the state out of
  /// bounds.
  bool ValidPred(int pred) const {
    return pred >= 0 && static_cast<size_t>(pred) < state.preds.size();
  }

  /// Stratum-scheduled semi-naive evaluation: the SCCs of the predicate
  /// dependency graph run in topological order, so each stratum joins only
  /// against fully converged inputs — on conditioned data, the final
  /// antichain of the lower strata rather than intermediate conditions that
  /// later subsumption would kill. A nonrecursive stratum converges in a
  /// single pass; a recursive one runs delta rounds confined to its own
  /// live rules, certain first (below). The emitted row set does not depend
  /// on the schedule: the per-tuple antichain (or DD Or-merge) is a function
  /// of the set of derivable conditions, not of the order they arrive in,
  /// and CanonicalLeaf makes each combination's emission order-canonical.
  void StratifiedRun() {
    EvalState& st = state;
    for (const Stratum& stratum : strata) {
      if (st.aborted) return;
      st.stats.dead_rules_skipped += stratum.dead;
      if (stratum.live.empty()) continue;
      // This stratum's pending delta: the rows past each consumed mark. The
      // marks stay put until the whole run converges, so rows a lower
      // stratum derived in this run are still delta here.
      for (size_t p = 0; p < st.preds.size(); ++p) {
        PredState& ps = st.preds[p];
        ps.delta_begin = consumed[p];
        ps.delta_end = ps.rows.size();
      }
      bool any_delta = false;
      for (size_t r : stratum.live) {
        for (const DatalogAtom& a : program->rules()[r].body) {
          const PredState& ps = st.preds[static_cast<size_t>(a.predicate)];
          if (ps.delta_begin != ps.delta_end) {
            any_delta = true;
            break;
          }
        }
        if (any_delta) break;
      }
      if (!any_delta) continue;
      ++st.stats.strata;
      if (!stratum.recursive) {
        // Nonrecursive stratum: none of its rules read what it derives, so
        // one pass over the delta is the fixpoint.
        ++st.stats.rounds;
        SequentialRound(st, *program, stratum.live);
      } else {
        // Certain first: phase 1 holds back every conditional derivation,
        // so a tuple that also derives unconditionally never gets a
        // conditional row to propagate and later kill or widen. Phase 2
        // admits the held derivations in order as one delta and finishes
        // with plain rounds, which enumerate every combination involving a
        // held row.
        st.hold = true;
        Converge(st, *program, stratum.live);
        st.hold = false;
        bool admitted = false;
        for (const EvalState::HeldRow& h : st.held) {
          if (st.aborted) break;
          admitted |= Admit(st, h.pred, *h.tuple, h.cond);
        }
        st.held.clear();
        if (admitted) {
          AdvanceDeltas(st);
          Converge(st, *program, stratum.live);
        }
      }
    }
    // An aborted run consumed only part of its deltas: the marks stay.
    if (st.aborted) return;
    for (size_t p = 0; p < st.preds.size(); ++p) {
      consumed[p] = st.preds[p].rows.size();
    }
  }
};

ConditionedFixpoint::ConditionedFixpoint(const DatalogProgram& program,
                                         const DatalogCTableOptions& options)
    : impl_(std::make_unique<Impl>()) {
  impl_->program = &program;
  const ProgramAnalysis analysis(program);
  impl_->strata.resize(static_cast<size_t>(analysis.num_sccs()));
  for (int scc = 0; scc < analysis.num_sccs(); ++scc) {
    Impl::Stratum& stratum = impl_->strata[static_cast<size_t>(scc)];
    stratum.recursive = analysis.SccRecursive(scc);
    for (size_t r : analysis.SccRules(scc)) {
      if (program.rules()[r].body.empty()) continue;
      if (analysis.RuleDead(r)) {
        ++stratum.dead;
      } else {
        stratum.live.push_back(r);
      }
    }
  }
  impl_->consumed.assign(program.num_predicates(), 0);
  EvalState& state = impl_->state;
  state.interner = options.interner != nullptr ? options.interner
                                               : &ConditionInterner::Global();
  impl_->backend =
      MakeConditionBackend(options.condition_backend, *state.interner);
  state.backend = impl_->backend.get();
  state.dd = dynamic_cast<DDBackend*>(state.backend);
  state.magic_begin = options.magic_pred_begin;
  state.max_derived_rows = options.max_derived_rows;
  state.preds.resize(program.num_predicates());
  impl_->interner_baseline = state.interner->num_conjunctions();
}

ConditionedFixpoint::~ConditionedFixpoint() = default;
ConditionedFixpoint::ConditionedFixpoint(ConditionedFixpoint&&) noexcept =
    default;
ConditionedFixpoint& ConditionedFixpoint::operator=(
    ConditionedFixpoint&&) noexcept = default;

ConditionInterner& ConditionedFixpoint::interner() const {
  return *impl_->state.interner;
}

ConditionBackend& ConditionedFixpoint::backend() const {
  return *impl_->backend;
}

void ConditionedFixpoint::SetGlobal(ConjId global_id) {
  impl_->state.global_id = global_id;
}

bool ConditionedFixpoint::Seed(int pred, const Tuple& tuple, ConjId cond) {
  // A row narrower than the predicate's arity would be read past its end
  // when a rule body matches it.
  if (impl_->state.aborted || !impl_->program->Fits(pred, tuple)) {
    return false;
  }
  return Insert(impl_->state, pred, tuple,
                impl_->backend->FromConj(cond));
}

void ConditionedFixpoint::SeedTable(int pred, const CTable& table) {
  EvalState& state = impl_->state;
  for (const CRow& row : table.rows()) {
    if (state.aborted) break;
    if (!impl_->program->Fits(pred, row.tuple)) continue;
    Insert(state, pred, row.tuple,
           state.backend->FromConj(row.LocalId(*state.interner)));
  }
}

void ConditionedFixpoint::FireGroundRules() {
  // Empty-body rules are ground facts: the fixpoint loops only enumerate
  // rules through their body atoms, so these fire here, into the pending
  // delta.
  for (const DatalogRule& rule : impl_->program->rules()) {
    if (impl_->state.aborted) break;
    if (rule.body.empty() && impl_->program->Fits(rule)) {
      FireGroundRule(impl_->state, rule);
    }
  }
}

void ConditionedFixpoint::Run() { impl_->StratifiedRun(); }

size_t ConditionedFixpoint::Reset() {
  EvalState& state = impl_->state;
  size_t dropped = 0;
  for (size_t p = 0; p < state.preds.size(); ++p) {
    PredState& ps = state.preds[p];
    if (p >= impl_->program->num_edb()) {
      dropped += static_cast<size_t>(
          std::count_if(ps.rows.begin(), ps.rows.end(),
                        [](const IRow& r) { return r.alive; }));
    }
    ps.rows.clear();
    ps.by_tuple.clear();
    ps.delta_begin = 0;
    ps.delta_end = 0;
    ps.indexes.Clear();
  }
  std::fill(impl_->consumed.begin(), impl_->consumed.end(), 0);
  return dropped;
}

CTable ConditionedFixpoint::Export(int pred) const {
  const EvalState& state = impl_->state;
  if (!impl_->ValidPred(pred)) return CTable();
  CTable t(impl_->program->arity(pred));
  if (state.dd) {
    // Expand each diagram condition back into satisfiable conjunctions —
    // one exported row per disjunct, the conjunctive form every downstream
    // consumer (restriction, IVM deltas, decision procedures) speaks.
    std::vector<ConjId> disjuncts;
    for (const IRow& row : state.preds[pred].rows) {
      if (!row.alive) continue;
      disjuncts.clear();
      state.dd->AppendDisjuncts(row.cond, &disjuncts);
      for (ConjId d : disjuncts) t.AddRow(*row.tuple, d, *state.interner);
    }
    return t;
  }
  for (const IRow& row : state.preds[pred].rows) {
    // Resolving through AddRow's interned overload seeds each row's id
    // cache, so downstream consumers start from the id.
    if (row.alive) t.AddRow(*row.tuple, row.cond, *state.interner);
  }
  return t;
}

const ConditionedFixpointStats& ConditionedFixpoint::stats() const {
  impl_->state.stats.interner_conjunctions =
      impl_->state.interner->num_conjunctions() - impl_->interner_baseline;
  return impl_->state.stats;
}

}  // namespace pw
