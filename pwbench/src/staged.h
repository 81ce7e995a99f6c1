// Verdicts and goals, answered two ways: through the library's user-facing
// entry points (the untraced run) and through their public stages with one
// span per stage (the traced run). The staged paths call only the PTIME
// front ends the dispatchers try first, the dispatchers themselves, and the
// conditioned fixpoint's public stages — never a world-search procedure or a
// slow twin directly — so the benchmark survives their removal.

#ifndef PWBENCH_STAGED_H_
#define PWBENCH_STAGED_H_

#include <optional>
#include <vector>

#include "bench.h"
#include "core/instance.h"
#include "datalog/program.h"
#include "decision/view.h"
#include "ilalgebra/datalog_ctable.h"
#include "tables/ctable.h"

namespace pwbench {

/// The decision problems, one per dispatcher.
enum class Problem {
  kMemb,           // Membership(db, instance)
  kMembView,       // MembershipInView(view, db, instance)
  kUniq,           // Uniqueness(view, db, instance)
  kCont,           // Containment(view, db, rhs_view, rhs)
  kPoss,           // Possibility(view, db, pattern)
  kPossUnbounded,  // PossibilityUnbounded(view, db, instance)
  kCert,           // Certainty(view, db, pattern)
};

struct VerdictQuery {
  Problem problem = Problem::kMemb;
  const pw::View* view = nullptr;
  const pw::CDatabase* db = nullptr;
  const pw::View* rhs_view = nullptr;                  // kCont
  const pw::CDatabase* rhs = nullptr;                  // kCont
  const pw::Instance* instance = nullptr;              // kMemb*, kUniq, kPossUnbounded
  const std::vector<pw::LocatedFact>* pattern = nullptr;  // kPoss, kCert
  /// The instance is NP-, coNP- or Pi2p-complete per decision/
  /// complexity_map.h (not one of the paper's PTIME cases).
  bool hard = false;
};

/// The dispatcher's verdict.
bool Decide(const VerdictQuery& q);

/// The same verdict through the PTIME front ends in dispatch order, then the
/// dispatcher when none decided; plus one side EvalQueryOnCTables for
/// verdicts that build an image (outside the op's span). On a hard instance
/// every decision span, front end or dispatcher, counts as fallback: a front
/// end can decide one only by search (PossBoundedPosExistential decides the
/// 3SAT POSS(*) reductions by backtracking).
bool DecideStaged(const VerdictQuery& q, Tracer& tracer, LayerTotals& totals);

/// DatalogQueryOnCTables through its public stages: MagicRewrite; fixpoint
/// construction, SetGlobal and SeedTable; FireGroundRules and Run; Export of
/// every predicate; RestrictTableToGoal.
pw::CTable StagedGoal(const pw::DatalogProgram& program,
                      const pw::CDatabase& db, int goal,
                      const std::vector<std::optional<pw::ConstId>>& bindings,
                      const pw::DatalogCTableOptions& options, Tracer& tracer,
                      LayerTotals& totals);

/// tc(x, z) :- e(x, z).  tc(x, z) :- tc(x, y), e(y, z).  (e = 0, tc = 1)
pw::DatalogProgram TransitiveClosure();

}  // namespace pwbench

#endif  // PWBENCH_STAGED_H_
