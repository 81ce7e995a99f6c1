#include "staged.h"

#include "condition/dd_backend.h"
#include "datalog/magic.h"
#include "decision/certainty.h"
#include "decision/containment.h"
#include "decision/membership.h"
#include "decision/possibility.h"
#include "decision/uniqueness.h"
#include "ilalgebra/ctable_eval.h"

namespace pwbench {

namespace {

pw::RaQuery IdentityQuery(const pw::CDatabase& db) {
  pw::RaQuery q;
  for (size_t k = 0; k < db.num_tables(); ++k) {
    q.push_back(pw::RaExpr::Rel(k, db.table(k).arity()));
  }
  return q;
}

/// One PTIME front end inside the op's span. On a PTIME-class instance it
/// counts as a PTIME decision or decline; on a hard one its time is
/// fallback time.
template <typename Fn>
std::optional<bool> FrontEnd(const char* name, const VerdictQuery& q,
                             Tracer& tracer, LayerTotals& totals, Fn&& fn) {
  std::optional<bool> verdict;
  {
    Tracer::Scope span(tracer, "decision", name,
                       q.hard ? &totals.fallback_ms : &totals.ptime_ms);
    verdict = fn();
  }
  if (q.hard) {
    totals.hard_front_decided += verdict.has_value();
  } else if (verdict) {
    ++totals.ptime_decided;
  } else {
    ++totals.declines;
  }
  return verdict;
}

/// The query whose image the verdict builds, if it builds one.
std::optional<pw::RaQuery> ImageQuery(const VerdictQuery& q) {
  if (q.problem == Problem::kPoss && q.view->is_identity()) {
    return IdentityQuery(*q.db);
  }
  if (q.view->is_ra() && q.view->IsPositiveExistential(/*allow_neq=*/true)) {
    return q.view->ra();
  }
  return std::nullopt;
}

}  // namespace

pw::DatalogProgram TransitiveClosure() {
  using pw::V;
  pw::DatalogProgram p({2, 2}, 1);
  pw::DatalogRule base;
  base.head = {1, pw::Tuple{V(100), V(101)}};
  base.body = {{0, pw::Tuple{V(100), V(101)}}};
  p.AddRule(base);
  pw::DatalogRule step;
  step.head = {1, pw::Tuple{V(100), V(102)}};
  step.body = {{1, pw::Tuple{V(100), V(101)}}, {0, pw::Tuple{V(101), V(102)}}};
  p.AddRule(step);
  return p;
}

bool Decide(const VerdictQuery& q) {
  switch (q.problem) {
    case Problem::kMemb:
      return pw::Membership(*q.db, *q.instance);
    case Problem::kMembView:
      return pw::MembershipInView(*q.view, *q.db, *q.instance);
    case Problem::kUniq:
      return pw::Uniqueness(*q.view, *q.db, *q.instance);
    case Problem::kCont:
      return pw::Containment(*q.view, *q.db, *q.rhs_view, *q.rhs);
    case Problem::kPoss:
      return pw::Possibility(*q.view, *q.db, *q.pattern);
    case Problem::kPossUnbounded:
      return pw::PossibilityUnbounded(*q.view, *q.db, *q.instance);
    case Problem::kCert:
      return pw::Certainty(*q.view, *q.db, *q.pattern);
  }
  return false;
}

bool DecideStaged(const VerdictQuery& q, Tracer& tracer, LayerTotals& totals) {
  if (q.hard) {
    ++totals.hard_verdicts;
    ++totals.fallbacks;
  } else {
    ++totals.ptime_verdicts;
  }
  std::optional<bool> verdict;
  {
    Tracer::Scope op(tracer, "decision", "verdict", nullptr);
    const pw::View& view = *q.view;
    switch (q.problem) {
      case Problem::kMemb:
        verdict = FrontEnd("MembershipCoddTables", q, tracer, totals, [&] {
          return pw::MembershipCoddTables(*q.db, *q.instance);
        });
        break;
      case Problem::kMembView:
        if (view.is_identity()) {
          verdict = FrontEnd("MembershipCoddTables", q, tracer, totals, [&] {
            return pw::MembershipCoddTables(*q.db, *q.instance);
          });
        }
        break;
      case Problem::kUniq:
        if (view.is_identity()) {
          verdict = FrontEnd("UniqGTables", q, tracer, totals, [&] {
            return pw::UniqGTables(*q.db, *q.instance);
          });
        } else if (view.is_ra()) {
          verdict = FrontEnd("UniqPosExistentialView", q, tracer, totals, [&] {
            return pw::UniqPosExistentialView(view.ra(), *q.db, *q.instance);
          });
        }
        break;
      case Problem::kCont:
        if (q.rhs_view->is_identity() && view.is_identity()) {
          verdict = FrontEnd("ContGTablesInCoddTables", q, tracer, totals, [&] {
            return pw::ContGTablesInCoddTables(*q.db, *q.rhs);
          });
        }
        break;
      case Problem::kPoss:
        if (view.is_identity() || view.is_ra()) {
          verdict =
              FrontEnd("PossBoundedPosExistential", q, tracer, totals, [&] {
                return pw::PossBoundedPosExistential(
                    view.is_ra() ? view.ra() : IdentityQuery(*q.db), *q.db,
                    *q.pattern);
              });
        }
        break;
      case Problem::kPossUnbounded:
        if (view.is_identity()) {
          verdict = FrontEnd("PossUnboundedCoddTables", q, tracer, totals, [&] {
            return pw::PossUnboundedCoddTables(*q.db, *q.instance);
          });
          if (!verdict) {
            std::vector<pw::LocatedFact> flat = pw::ToLocatedFacts(*q.instance);
            verdict =
                FrontEnd("PossBoundedPosExistential", q, tracer, totals, [&] {
                  return pw::PossBoundedPosExistential(IdentityQuery(*q.db),
                                                       *q.db, flat);
                });
          }
        }
        break;
      case Problem::kCert:
        verdict = FrontEnd("CertDatalogGTables", q, tracer, totals, [&] {
          return pw::CertDatalogGTables(view, *q.db, *q.pattern);
        });
        break;
    }
    if (!verdict) {
      totals.fallbacks += !q.hard;
      Tracer::Scope span(tracer, "decision", "dispatcher", &totals.fallback_ms);
      verdict = Decide(q);
    }
  }
  if (std::optional<pw::RaQuery> query = ImageQuery(q)) {
    pw::CTableEvalStats stats;
    pw::CTableEvalOptions options;
    options.stats = &stats;
    {
      Tracer::Scope span(tracer, "ilalgebra", "EvalQueryOnCTables",
                         &totals.image_ms);
      pw::EvalQueryOnCTables(*query, *q.db, options);
      tracer.Exclude(span.ElapsedMs());
    }
    ++totals.images;
    totals.join_pairs += stats.join_pairs;
    totals.scan_pairs += stats.scan_pairs;
    totals.index_probes += stats.index_probes;
    totals.index_hits += stats.index_hits;
  }
  return *verdict;
}

pw::CTable StagedGoal(const pw::DatalogProgram& program,
                      const pw::CDatabase& db, int goal,
                      const std::vector<std::optional<pw::ConstId>>& bindings,
                      const pw::DatalogCTableOptions& options, Tracer& tracer,
                      LayerTotals& totals) {
  pw::ConditionInterner& interner = options.interner != nullptr
                                        ? *options.interner
                                        : pw::ConditionInterner::Global();
  ++totals.goals;
  pw::CTable result;
  Tracer::Scope op(tracer, "ilalgebra", "goal", nullptr);
  std::optional<pw::MagicRewriteResult> rewrite;
  {
    Tracer::Scope span(tracer, "datalog", "MagicRewrite", &totals.rewrite_ms);
    rewrite = pw::MagicRewrite(program, {goal, bindings});
  }
  pw::DatalogCTableOptions inner = options;
  inner.magic_pred_begin = static_cast<int>(rewrite->magic_begin);
  std::optional<pw::ConditionedFixpoint> fix;
  pw::ConjId global_id;
  {
    Tracer::Scope span(tracer, "ilalgebra", "ConditionedFixpoint.init",
                       &totals.init_ms);
    global_id = db.CombinedGlobalId(interner);
    fix.emplace(rewrite->program, inner);
    fix->SetGlobal(global_id);
    for (size_t p = 0; p < rewrite->program.num_edb() && p < db.num_tables();
         ++p) {
      fix->SeedTable(static_cast<int>(p), db.table(p));
    }
  }
  {
    Tracer::Scope span(tracer, "ilalgebra", "ConditionedFixpoint.Run",
                       &totals.run_ms);
    fix->FireGroundRules();
    fix->Run();
  }
  std::vector<pw::CTable> exported;
  {
    Tracer::Scope span(tracer, "ilalgebra", "ConditionedFixpoint.Export",
                       &totals.export_ms);
    for (size_t p = 0; p < rewrite->program.num_predicates(); ++p) {
      exported.push_back(fix->Export(static_cast<int>(p)));
    }
  }
  const pw::ConditionedFixpointStats& stats = fix->stats();
  totals.rounds += stats.rounds;
  totals.derived += stats.derived_rows;
  totals.subsumed += stats.subsumed_rows;
  totals.duplicate += stats.duplicate_rows;
  totals.unsatisfiable += stats.unsatisfiable_rows;
  totals.pruned += stats.pruned_branches;
  totals.magic_facts += stats.magic_facts;
  totals.demand_pruned += stats.demand_pruned;
  totals.index_probes += stats.index_probes;
  totals.index_hits += stats.index_hits;
  if (auto* dd = dynamic_cast<pw::DDBackend*>(&fix->backend())) {
    totals.dd_nodes += dd->num_nodes();
  }
  {
    Tracer::Scope span(tracer, "ilalgebra", "~ConditionedFixpoint", nullptr);
    fix.reset();
  }
  {
    Tracer::Scope span(tracer, "ilalgebra", "RestrictTableToGoal",
                       &totals.restrict_ms);
    result = pw::RestrictTableToGoal(
        exported[static_cast<size_t>(rewrite->goal_predicate)], bindings,
        global_id, interner);
    result.SetGlobal(db.CombinedGlobal(), global_id, interner);
  }
  return result;
}

}  // namespace pwbench
