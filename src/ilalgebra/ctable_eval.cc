#include "ilalgebra/ctable_eval.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "ilalgebra/join_plan.h"
#include "tables/tuple_index.h"

namespace pw {

namespace {

Term ResolveTerm(const ColOrConst& o, const Tuple& tuple) {
  return o.is_column ? tuple[o.column] : Term::Const(o.constant);
}

/// Instantiates one atom from already-resolved terms; appends to `local`.
/// Returns false if the atom is trivially false for these terms.
bool ApplyAtomTerms(bool is_equality, Term l, Term r, Conjunction& local) {
  CondAtom cond = is_equality ? Eq(l, r) : Neq(l, r);
  if (IsTriviallyFalse(cond)) return false;
  if (!IsTriviallyTrue(cond)) local.Add(cond);
  return true;
}

/// Instantiates one select atom against a row's tuple; appends to `local`.
/// Returns false if the atom is trivially false for this row.
bool ApplySelectAtom(const SelectAtom& atom, const Tuple& tuple,
                     Conjunction& local) {
  return ApplyAtomTerms(atom.is_equality, ResolveTerm(atom.lhs, tuple),
                        ResolveTerm(atom.rhs, tuple), local);
}

/// The table a relation reference names, or null when it names no table of
/// `database` or a table of another arity. Checked in every build mode: the
/// operators index tuples by the reference's arity.
const CTable* Referenced(const RaExpr& rel, const CDatabase& database) {
  if (rel.rel_index() >= database.num_tables()) return nullptr;
  const CTable& table = database.table(rel.rel_index());
  return table.arity() == rel.arity() ? &table : nullptr;
}

// --- Planned execution ------------------------------------------------------
//
// Every select*/project* prefix over an n-ary product tree, a one-leaf
// prefix or a product without a join key included, is normalized and
// partitioned by the join planner (ilalgebra/join_plan.h) and executed here
// as a greedily-ordered sequence of join steps over row-id combinations:
//
//   - every leaf is evaluated once and its pushdown conjuncts applied
//     (dropped rows keep their id, so relation-ref leaves probe the
//     CTable's cached index across queries);
//   - intermediate state is a vector of leaf-row-id combinations — no
//     intermediate tuple or condition is materialized, which is what "push
//     projections below joins" buys: a column not needed by a later key, a
//     conjunct, or the output is never touched;
//   - each step probes the new leaf's index with the key resolved from the
//     partial combination (a step without a key, or with a non-ground key,
//     scans the leaf), applies the conjuncts that became decidable, and
//     conjoins conditions with unsatisfiable-prefix pruning;
//   - finally the surviving combinations are sorted lexicographically by
//     their leaf-id vector — the order in which the rules, applied one
//     operator at a time with each product's left side outer, enumerate
//     them — and emitted through the plan's output spec.
//
// The join machinery is pure candidate pruning: a skipped combination is
// one the rules would have dropped on a trivially-false ground atom or an
// unsatisfiable condition.
//
// Local conditions travel as ConjIds through the whole expression tree and
// are materialized exactly once at the end; every conjoin is a memoized
// pairwise And, and rows whose condition canonicalizes to false disappear on
// the spot. Since ids are canonical, the order in which leaf conditions and
// conjunct batches are conjoined does not matter: the accumulated id of a
// surviving combination equals the id the rules produce one operator at a
// time.

struct InternedRow {
  Tuple tuple;
  ConjId cond;
};

struct InternedTable {
  int arity = 0;
  std::vector<InternedRow> rows;
};

std::optional<InternedTable> EvalExpr(const RaExpr& expr,
                                      const CDatabase& database,
                                      ConditionInterner& interner,
                                      CTableEvalStats& stats);

/// Conjoins the instantiated pushdown atoms onto a leaf row's condition.
/// Returns false when the row can never pair (a trivially false atom, or an
/// unsatisfiable strengthened condition). Pushing leaf atoms into leaf
/// conditions is output-preserving: the per-combination condition is
/// canonicalized from the union of all contributed atoms, so it interns to
/// the same id whether a leaf atom joined before or during pairing.
bool Strengthen(const std::vector<SelectAtom>& atoms, const Tuple& tuple,
                ConditionInterner& interner, ConjId& cond) {
  Conjunction sel;
  for (const SelectAtom& a : atoms) {
    if (!ApplySelectAtom(a, tuple, sel)) return false;
  }
  if (sel.size() > 0) cond = interner.And(cond, interner.Intern(sel));
  return interner.Satisfiable(cond);
}

/// One evaluated, pushdown-filtered leaf of a planned join. Rows keep their
/// ids (kFalseConj marks a dropped row) so a relation-ref leaf can probe the
/// source CTable's cached index — reused across queries
/// and fixpoint rounds; any other subexpression is evaluated and indexed
/// ephemerally.
struct PlannedLeaf {
  const CTable* table = nullptr;  // relation-ref leaves: cached index owner
  InternedTable owned;            // other leaves: the evaluated subtree
  std::vector<const Tuple*> tuples;
  std::vector<ConjId> conds;      // kFalseConj = dropped before pairing
  size_t live = 0;
};

std::optional<InternedTable> EvalPlanned(const RaExpr& expr,
                                         const JoinPlan& plan,
                                         const CDatabase& database,
                                         ConditionInterner& interner,
                                         CTableEvalStats& stats) {
  const size_t n = plan.leaves.size();
  std::vector<PlannedLeaf> leaves(n);
  for (size_t k = 0; k < n; ++k) {
    const JoinLeaf& spec = plan.leaves[k];
    PlannedLeaf& leaf = leaves[k];
    if (spec.expr.op() == RaOp::kRel) {
      // Row ids must stay aligned with the table (its cached index covers
      // every row), so dropped rows keep their slot, marked kFalseConj.
      leaf.table = Referenced(spec.expr, database);
      if (leaf.table == nullptr) return std::nullopt;
      leaf.tuples.reserve(leaf.table->num_rows());
      leaf.conds.reserve(leaf.table->num_rows());
      for (const CRow& row : leaf.table->rows()) {
        ConjId cond = row.LocalId(interner);
        if (!interner.Satisfiable(cond)) {
          // An unsatisfiable base condition is not a pushdown drop — a bare
          // relation reference skips these rows without counting either.
          cond = ConditionInterner::kFalseConj;
        } else if (!Strengthen(plan.pushdown[k], row.tuple, interner, cond)) {
          ++stats.pushdown_dropped_rows;
          cond = ConditionInterner::kFalseConj;
        }
        leaf.tuples.push_back(&row.tuple);
        leaf.conds.push_back(cond);
      }
    } else {
      // An evaluated subtree is indexed ephemerally, so filtered rows can
      // be compacted out before indexing (relative order — and with it the
      // output's lexicographic order — is preserved).
      auto r = EvalExpr(spec.expr, database, interner, stats);
      if (!r) return std::nullopt;
      leaf.owned = std::move(*r);
      leaf.tuples.reserve(leaf.owned.rows.size());
      leaf.conds.reserve(leaf.owned.rows.size());
      for (InternedRow& row : leaf.owned.rows) {
        ConjId cond = row.cond;
        if (!Strengthen(plan.pushdown[k], row.tuple, interner, cond)) {
          ++stats.pushdown_dropped_rows;
          continue;
        }
        leaf.tuples.push_back(&row.tuple);
        leaf.conds.push_back(cond);
      }
    }
    for (ConjId c : leaf.conds) {
      leaf.live += c != ConditionInterner::kFalseConj;
    }
  }
  ++stats.planned_joins;
  stats.planned_join_leaves += n;
  stats.conjuncts_pushed += plan.conjuncts_pushed;
  stats.projections_sunk += plan.projections_sunk;

  std::vector<size_t> live(n);
  for (size_t k = 0; k < n; ++k) live[k] = leaves[k].live;
  std::vector<JoinStep> steps = OrderJoinSteps(plan, live);

  auto term_at = [&](const uint32_t* ids, int col) -> Term {
    int k = plan.col_leaf[col];
    return (*leaves[k].tuples[ids[k]])[col - plan.leaves[k].base];
  };
  auto resolve = [&](const uint32_t* ids, const ColOrConst& o) -> Term {
    return o.is_column ? term_at(ids, o.column) : Term::Const(o.constant);
  };

  // Constant conjuncts decide emptiness once, at the seed.
  {
    Conjunction scratch;
    for (int ci : steps[0].conjuncts) {
      const SelectAtom& a = plan.conjuncts[ci].atom;
      if (!ApplyAtomTerms(a.is_equality, Term::Const(a.lhs.constant),
                          Term::Const(a.rhs.constant), scratch)) {
        return InternedTable{expr.arity(), {}};
      }
    }
  }

  std::vector<uint32_t> combos;  // stride n; unjoined leaves hold 0
  std::vector<ConjId> conds;
  {
    const int seed = steps[0].leaf;
    const PlannedLeaf& sl = leaves[seed];
    for (size_t i = 0; i < sl.conds.size(); ++i) {
      if (sl.conds[i] == ConditionInterner::kFalseConj) continue;
      size_t at = combos.size();
      combos.resize(at + n, 0);
      combos[at + seed] = static_cast<uint32_t>(i);
      conds.push_back(sl.conds[i]);
    }
  }

  Tuple key;
  std::vector<size_t> candidates;
  std::vector<uint32_t> scratch(n);
  for (size_t si = 1; si < steps.size(); ++si) {
    const JoinStep& step = steps[si];
    const PlannedLeaf& bl = leaves[step.leaf];
    const size_t num_build = bl.tuples.size();
    const TupleIndex* index = nullptr;
    std::unique_ptr<TupleIndex> ephemeral;
    if (!step.build_cols.empty()) {
      ++stats.hash_joins;
      if (bl.table != nullptr) {
        bool built = false;
        bool extended = false;
        index = &bl.table->Index(step.build_cols, &built, &extended);
        stats.index_builds += built;
        stats.index_extends += extended;
      } else {
        ephemeral = std::make_unique<TupleIndex>(step.build_cols);
        ++stats.index_builds;
        for (size_t i = 0; i < num_build; ++i) {
          ephemeral->Add(*bl.tuples[i], i);
        }
        index = ephemeral.get();
      }
    }
    std::vector<uint32_t> next;
    std::vector<ConjId> next_conds;
    const size_t num_combos = conds.size();
    for (size_t c = 0; c < num_combos; ++c) {
      const uint32_t* ids = combos.data() + c * n;
      bool keyed = false;
      if (index != nullptr) {
        key.clear();
        for (int col : step.probe_cols) key.push_back(term_at(ids, col));
        // A key with a null in it matches any build row under a condition,
        // so only ground keys can probe; others fall back to the full scan.
        keyed = TupleIndex::IsGroundKey(key);
        if (keyed) {
          ++stats.index_probes;
          candidates = index->Candidates(key, 0, num_build);
          stats.index_hits += candidates.size();
        }
      }
      size_t count = keyed ? candidates.size() : num_build;
      (keyed ? stats.join_pairs : stats.scan_pairs) += count;
      std::copy(ids, ids + n, scratch.begin());
      for (size_t t = 0; t < count; ++t) {
        size_t id = keyed ? candidates[t] : t;
        ConjId rcond = bl.conds[id];
        if (rcond == ConditionInterner::kFalseConj) continue;
        ConjId combined = interner.And(conds[c], rcond);
        if (!interner.Satisfiable(combined)) continue;
        scratch[step.leaf] = static_cast<uint32_t>(id);
        Conjunction sel;
        bool keep = true;
        for (int ci : step.conjuncts) {
          const SelectAtom& a = plan.conjuncts[ci].atom;
          if (!ApplyAtomTerms(a.is_equality, resolve(scratch.data(), a.lhs),
                              resolve(scratch.data(), a.rhs), sel)) {
            keep = false;
            break;
          }
        }
        if (!keep) continue;
        if (sel.size() > 0) {
          combined = interner.And(combined, interner.Intern(sel));
          if (!interner.Satisfiable(combined)) continue;
        }
        next.insert(next.end(), scratch.begin(), scratch.end());
        next_conds.push_back(combined);
      }
    }
    combos.swap(next);
    conds.swap(next_conds);
  }

  // Emit in the rules' order: lexicographic in the leaf-id vector.
  const size_t num_out = conds.size();
  std::vector<uint32_t> order(num_out);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const uint32_t* ra = combos.data() + static_cast<size_t>(a) * n;
    const uint32_t* rb = combos.data() + static_cast<size_t>(b) * n;
    return std::lexicographical_compare(ra, ra + n, rb, rb + n);
  });
  InternedTable out{expr.arity(), {}};
  out.rows.reserve(num_out);
  for (uint32_t oi : order) {
    const uint32_t* ids = combos.data() + static_cast<size_t>(oi) * n;
    Tuple t;
    t.reserve(plan.outputs.size());
    for (const ColOrConst& o : plan.outputs) t.push_back(resolve(ids, o));
    out.rows.push_back({std::move(t), conds[oi]});
  }
  return out;
}

std::optional<InternedTable> EvalExpr(const RaExpr& expr,
                                      const CDatabase& database,
                                      ConditionInterner& interner,
                                      CTableEvalStats& stats) {
  switch (expr.op()) {
    case RaOp::kRel: {
      const CTable* in = Referenced(expr, database);
      if (in == nullptr) return std::nullopt;
      InternedTable out{expr.arity(), {}};
      out.rows.reserve(in->num_rows());
      for (const CRow& row : in->rows()) {
        // The row's memoized id: no re-canonicalization when the table was
        // produced by an interned pipeline (or queried before).
        ConjId cond = row.LocalId(interner);
        if (!interner.Satisfiable(cond)) continue;
        out.rows.push_back({row.tuple, cond});
      }
      return out;
    }
    case RaOp::kConstRel: {
      InternedTable out{expr.arity(), {}};
      for (const Fact& f : expr.const_relation()) {
        out.rows.push_back({ToTuple(f), ConditionInterner::kTrueConj});
      }
      return out;
    }
    case RaOp::kProject:
    case RaOp::kSelect:
    case RaOp::kProduct:
      return EvalPlanned(expr, PlanJoin(expr), database, interner, stats);
    case RaOp::kUnion: {
      auto l = EvalExpr(expr.left(), database, interner, stats);
      auto r = EvalExpr(expr.right(), database, interner, stats);
      if (!l || !r) return std::nullopt;
      InternedTable out{expr.arity(), std::move(l->rows)};
      out.rows.insert(out.rows.end(),
                      std::make_move_iterator(r->rows.begin()),
                      std::make_move_iterator(r->rows.end()));
      return out;
    }
    case RaOp::kDiff:
      return std::nullopt;  // not positive existential
  }
  return std::nullopt;
}

/// True iff the table EvalOnCTables builds for a bare reference to `table`
/// equals it row for row, so a query image can share the table instead of
/// copying it. The copy drops the rows whose condition is unsatisfiable and
/// re-materializes every condition in its canonical form. One pass over the
/// rows that allocates nothing once their ids are memoized.
bool ImageIsTable(const CTable& table, ConditionInterner& interner) {
  for (const CRow& row : table.rows()) {
    ConjId cond = row.LocalId(interner);
    // `true` is the empty conjunction. Most rows of a ground table are
    // unconditioned, and for them this test is much cheaper than a lookup.
    bool kept_as_is = cond == ConditionInterner::kTrueConj
                          ? row.local().size() == 0
                          : interner.Satisfiable(cond) &&
                                row.local() == interner.Resolve(cond);
    if (!kept_as_is) return false;
  }
  return true;
}

void Accumulate(CTableEvalStats* sink, const CTableEvalStats& s) {
  if (sink == nullptr) return;
  sink->planned_joins += s.planned_joins;
  sink->planned_join_leaves += s.planned_join_leaves;
  sink->conjuncts_pushed += s.conjuncts_pushed;
  sink->projections_sunk += s.projections_sunk;
  sink->hash_joins += s.hash_joins;
  sink->index_builds += s.index_builds;
  sink->index_extends += s.index_extends;
  sink->index_probes += s.index_probes;
  sink->index_hits += s.index_hits;
  sink->join_pairs += s.join_pairs;
  sink->scan_pairs += s.scan_pairs;
  sink->pushdown_dropped_rows += s.pushdown_dropped_rows;
}

ConditionInterner& InternerOf(const CTableEvalOptions& options) {
  return options.interner != nullptr ? *options.interner
                                     : ConditionInterner::Global();
}

}  // namespace

std::optional<CTable> EvalOnCTables(const RaExpr& expr,
                                    const CDatabase& database,
                                    const CTableEvalOptions& options) {
  // A fitting root has fitting subexpressions: the planner and the
  // operators index tuples by the expression's columns.
  if (!expr.fits()) return std::nullopt;
  ConditionInterner& interner = InternerOf(options);
  CTableEvalStats stats;
  auto interned = EvalExpr(expr, database, interner, stats);
  Accumulate(options.stats, stats);
  if (!interned) return std::nullopt;
  CTable out(interned->arity);
  for (InternedRow& row : interned->rows) {
    // Materializes the canonical form and seeds the row's id cache, so the
    // next interned consumer of this table starts from the id.
    out.AddRow(std::move(row.tuple), row.cond, interner);
  }
  return out;
}

std::optional<CDatabase> EvalQueryOnCTables(const RaQuery& query,
                                            const CDatabase& database,
                                            const CTableEvalOptions& options) {
  // The carried global condition keeps the input's materialized form; its
  // id cache is seeded from the members' cached ids.
  ConditionInterner& interner = InternerOf(options);
  const Conjunction global = database.CombinedGlobal();
  const Conjunction no_global;
  auto set_global = [&](CTable& table) {
    table.SetGlobal(global, database.CombinedGlobalId(interner), interner);
  };
  CDatabase out;
  for (size_t i = 0; i < query.size(); ++i) {
    // A bare reference whose copy would equal the table, global included,
    // shares the table itself: rows, id caches and indexes come along.
    const CTable* base = query[i].op() == RaOp::kRel
                             ? Referenced(query[i], database)
                             : nullptr;
    const Conjunction& carried = i == 0 ? global : no_global;
    if (base != nullptr && base->global() == carried &&
        ImageIsTable(*base, interner)) {
      out.AddSharedTable(database, query[i].rel_index());
      continue;
    }
    auto table = EvalOnCTables(query[i], database, options);
    if (!table) return std::nullopt;
    if (i == 0) set_global(*table);
    out.AddTable(std::move(*table));
  }
  if (query.empty()) {
    CTable sentinel(0);
    set_global(sentinel);
    out.AddTable(std::move(sentinel));
  }
  return out;
}

}  // namespace pw
