// Unit tests for the DATALOG program analysis (datalog/analysis.h): SCC
// condensation and stratum order, structured diagnostics (all errors, not
// first-wins; structural warnings), rule classification, derivability, and
// reachability cones — plus the load-bearing wiring: the stratum-scheduled
// fixpoint consumes the condensation and skips dead rules, and Validate()
// is a thin rendering of the analysis's errors.

#include "datalog/analysis.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datalog/program.h"
#include "ilalgebra/datalog_ctable.h"
#include "tables/ctable.h"
#include "test_util.h"

namespace pw {
namespace {

DatalogRule Rule(DatalogAtom head, std::vector<DatalogAtom> body) {
  DatalogRule r;
  r.head = std::move(head);
  r.body = std::move(body);
  return r;
}

/// edge (EDB) -> path (recursive) -> reach (nonrecursive): three SCCs whose
/// ids must come out in that order.
DatalogProgram LayeredProgram() {
  DatalogProgram p({2, 2, 2}, /*num_edb=*/1);
  p.AddRule(Rule({1, {V(0), V(1)}}, {{0, {V(0), V(1)}}}));             // base
  p.AddRule(Rule({1, {V(0), V(1)}},
                 {{1, {V(0), V(2)}}, {0, {V(2), V(1)}}}));             // step
  p.AddRule(Rule({2, {V(0), V(1)}}, {{1, {V(0), V(1)}}}));             // copy
  return p;
}

TEST(ProgramAnalysisTest, SccIdsAreATopologicalStratumOrder) {
  DatalogProgram p = LayeredProgram();
  ProgramAnalysis a(p);
  ASSERT_TRUE(a.ok());
  ASSERT_EQ(a.num_sccs(), 3);
  EXPECT_LT(a.SccOf(0), a.SccOf(1));
  EXPECT_LT(a.SccOf(1), a.SccOf(2));
  // Body SCC <= head SCC for every rule, the invariant the scheduler needs.
  for (const DatalogRule& rule : p.rules()) {
    for (const DatalogAtom& atom : rule.body) {
      EXPECT_LE(a.SccOf(atom.predicate), a.SccOf(rule.head.predicate));
    }
  }
  EXPECT_EQ(a.SccMembers(a.SccOf(1)), std::vector<int>{1});
  EXPECT_FALSE(a.SccRecursive(a.SccOf(0)));  // extensional, no self edge
  EXPECT_TRUE(a.SccRecursive(a.SccOf(1)));   // path depends on itself
  EXPECT_FALSE(a.SccRecursive(a.SccOf(2)));
  // Rules attach to their head's SCC in program order.
  EXPECT_EQ(a.SccRules(a.SccOf(1)), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(a.SccRules(a.SccOf(2)), (std::vector<size_t>{2}));
  EXPECT_TRUE(a.SccRules(a.SccOf(0)).empty());
}

TEST(ProgramAnalysisTest, MutualRecursionSharesAnSccAndFlagsRecursiveRules) {
  // even/odd over successor-ish edges: p1 and p2 feed each other.
  DatalogProgram p({2, 2, 2}, /*num_edb=*/1);
  p.AddRule(Rule({1, {V(0), V(1)}}, {{0, {V(0), V(1)}}}));
  p.AddRule(Rule({2, {V(0), V(1)}}, {{1, {V(0), V(1)}}}));
  p.AddRule(Rule({1, {V(0), V(1)}}, {{2, {V(0), V(2)}}, {0, {V(2), V(1)}}}));
  ProgramAnalysis a(p);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.SccOf(1), a.SccOf(2));
  EXPECT_TRUE(a.SccRecursive(a.SccOf(1)));
  EXPECT_EQ(a.SccMembers(a.SccOf(1)), (std::vector<int>{1, 2}));
  // Rule 0 feeds the SCC from outside (body = EDB only): nonrecursive.
  EXPECT_FALSE(a.RuleRecursive(0));
  // Rules 1 and 2 consume a predicate of their own head's SCC.
  EXPECT_TRUE(a.RuleRecursive(1));
  EXPECT_TRUE(a.RuleRecursive(2));
}

TEST(ProgramAnalysisTest, DeadDuplicateAndUnreachableDiagnostics) {
  // Predicate 3 ("barren") has no rules, so rule 1 can never fire, and both
  // barren and the dead rule's head (reached only through it) are
  // unreachable from the extensional database.
  DatalogProgram p({2, 2, 2, 2}, /*num_edb=*/1);
  p.AddRule(Rule({1, {V(0), V(1)}}, {{0, {V(0), V(1)}}}));
  p.AddRule(Rule({2, {V(0), V(1)}}, {{0, {V(0), V(1)}}, {3, {V(0), V(1)}}}));
  p.AddRule(Rule({1, {V(0), V(1)}}, {{0, {V(0), V(1)}}}));  // duplicate of 0
  ProgramAnalysis a(p);
  EXPECT_TRUE(a.ok()) << a.ErrorString();  // warnings only
  EXPECT_EQ(p.Validate(), "");

  EXPECT_FALSE(a.RuleDead(0));
  EXPECT_TRUE(a.RuleDead(1));
  EXPECT_FALSE(a.RuleDuplicate(1));
  EXPECT_TRUE(a.RuleDead(2));  // duplicates are dead: they derive nothing new
  EXPECT_TRUE(a.RuleDuplicate(2));

  EXPECT_TRUE(a.Derivable(0));   // extensional
  EXPECT_TRUE(a.Derivable(1));
  EXPECT_FALSE(a.Derivable(2));  // only the dead rule derives it
  EXPECT_FALSE(a.Derivable(3));

  auto has_warning = [&](const std::string& needle) {
    for (const Diagnostic& d : a.diagnostics()) {
      if (d.severity == DiagnosticSeverity::kWarning &&
          d.ToString().find(needle) != std::string::npos) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(has_warning("dead rule: body predicate P3 is underivable"));
  EXPECT_TRUE(has_warning("duplicate of an earlier rule"));
  EXPECT_TRUE(has_warning("predicate P2 is unreachable"));
  EXPECT_TRUE(has_warning("predicate P3 is unreachable"));
}

TEST(ProgramAnalysisTest, CartesianAndHeadOnlyWarnings) {
  DatalogProgram p({2, 2, 2}, /*num_edb=*/1);
  // Body atoms share no variable: a cartesian product (two components).
  p.AddRule(Rule({1, {V(0), V(2)}}, {{0, {V(0), V(1)}}, {0, {V(2), V(3)}}}));
  // Predicate 2 is derived but nothing reads it.
  p.AddRule(Rule({2, {V(0), V(1)}}, {{0, {V(0), V(1)}}}));
  ProgramAnalysis a(p);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.Connectivity(0).num_components, 2);
  ASSERT_EQ(a.Connectivity(0).component.size(), 2u);
  EXPECT_NE(a.Connectivity(0).component[0], a.Connectivity(0).component[1]);
  EXPECT_EQ(a.Connectivity(1).num_components, 1);
  bool cartesian = false;
  bool head_only = false;
  for (const Diagnostic& d : a.diagnostics()) {
    cartesian = cartesian ||
                d.message.find("cartesian product") != std::string::npos;
    head_only = head_only ||
                d.message.find("head-only predicate P2") != std::string::npos;
  }
  EXPECT_TRUE(cartesian);
  EXPECT_TRUE(head_only);
}

TEST(ProgramAnalysisTest, AllErrorsReportedNotFirstWins) {
  DatalogProgram p({2, 2}, /*num_edb=*/1);
  p.AddRule(Rule({0, {V(0), V(1)}}, {{1, {V(0), V(1)}}}));   // extensional head
  p.AddRule(Rule({1, {V(0)}}, {{0, {V(0), V(1)}}}));         // arity mismatch
  p.AddRule(Rule({1, {V(0), V(7)}}, {{0, {V(0), V(1)}}}));   // range restriction
  p.AddRule(Rule({1, {V(0), V(1)}}, {{9, {V(0), V(1)}}}));   // unknown predicate
  ProgramAnalysis a(p);
  EXPECT_FALSE(a.ok());
  EXPECT_EQ(a.num_errors(), 4u);
  // Errors come first in diagnostics(), and Validate() renders all of them.
  for (size_t i = 0; i < a.num_errors(); ++i) {
    EXPECT_EQ(a.diagnostics()[i].severity, DiagnosticSeverity::kError);
  }
  std::string v = p.Validate();
  EXPECT_EQ(v, a.ErrorString());
  EXPECT_NE(v.find("head predicate P0 is extensional"), std::string::npos);
  EXPECT_NE(v.find("arity mismatch on P1 (got 1, declared 2)"),
            std::string::npos);
  EXPECT_NE(v.find("not range-restricted: head variable ?7"),
            std::string::npos);
  EXPECT_NE(v.find("unknown predicate 9"), std::string::npos);
  EXPECT_EQ(std::count(v.begin(), v.end(), '\n'), 3);  // four lines
}

TEST(ProgramAnalysisTest, DiagnosticRendering) {
  Diagnostic d{DiagnosticSeverity::kError, 2, 1, "boom"};
  EXPECT_EQ(d.ToString(), "error: rule 2: body atom 1: boom");
  Diagnostic w{DiagnosticSeverity::kWarning, -1, -1, "odd shape"};
  EXPECT_EQ(w.ToString(), "warning: odd shape");
}

/// The pre-analysis cone computation (the taint-propagation loop ivm.cc ran
/// per delete): close {seed} under body -> head edges.
std::vector<bool> LegacyCone(const DatalogProgram& p, int seed) {
  std::vector<bool> cone(p.num_predicates(), false);
  cone[static_cast<size_t>(seed)] = true;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const DatalogRule& rule : p.rules()) {
      if (cone[static_cast<size_t>(rule.head.predicate)]) continue;
      for (const DatalogAtom& atom : rule.body) {
        if (cone[static_cast<size_t>(atom.predicate)]) {
          cone[static_cast<size_t>(rule.head.predicate)] = true;
          changed = true;
          break;
        }
      }
    }
  }
  return cone;
}

TEST(ProgramAnalysisTest, ConesMatchLegacyTaintClosure) {
  DatalogProgram layered = LayeredProgram();
  DatalogProgram diamond({2, 2, 2, 2, 2}, /*num_edb=*/2);
  diamond.AddRule(Rule({2, {V(0), V(1)}}, {{0, {V(0), V(1)}}}));
  diamond.AddRule(Rule({3, {V(0), V(1)}}, {{1, {V(0), V(1)}}}));
  diamond.AddRule(Rule({4, {V(0), V(1)}},
                       {{2, {V(0), V(2)}}, {3, {V(2), V(1)}}}));
  diamond.AddRule(Rule({4, {V(0), V(1)}},
                       {{4, {V(0), V(2)}}, {2, {V(2), V(1)}}}));
  for (const DatalogProgram* p : {&layered, &diamond}) {
    ProgramAnalysis a(*p);
    for (size_t seed = 0; seed < p->num_predicates(); ++seed) {
      EXPECT_EQ(a.Cone(static_cast<int>(seed)),
                LegacyCone(*p, static_cast<int>(seed)))
          << "cone diverged for predicate " << seed;
      EXPECT_TRUE(a.Cone(static_cast<int>(seed))[seed]);
    }
  }
}

TEST(ProgramAnalysisTest, StratumFixpointConsumesTheAnalysis) {
  // Layered program with a dead rule riding along: the scheduled run must
  // fire multiple strata, skip the dead rule, and still produce the
  // per-world fixpoint.
  DatalogProgram p({2, 2, 2, 2}, /*num_edb=*/1);
  p.AddRule(Rule({1, {V(0), V(1)}}, {{0, {V(0), V(1)}}}));
  p.AddRule(Rule({1, {V(0), V(1)}},
                 {{1, {V(0), V(2)}}, {0, {V(2), V(1)}}}));
  p.AddRule(Rule({2, {V(0), V(1)}}, {{1, {V(0), V(1)}}}));
  p.AddRule(Rule({2, {V(0), V(1)}},
                 {{1, {V(0), V(1)}}, {3, {V(0), V(1)}}}));  // dead: P3 barren
  CTable edges = testutil::MakeTable(
      2, std::vector<Tuple>{{C(1), C(2)}, {C(2), C(3)}, {C(3), C(4)}});
  CDatabase db{edges};

  ConditionedFixpointStats stats;
  CDatabase image = DatalogOnCTables(p, db, &stats);
  EXPECT_GE(stats.strata, 2u);  // path's SCC and reach's SCC fired
  EXPECT_GE(stats.dead_rules_skipped, 1u);
  EXPECT_TRUE(testutil::RepresentsFixpointOfEveryWorld(p, db, image))
      << image.ToString();
  // The fixpoint exposes its analysis; consumers (MaterializedView::Delete)
  // read the precomputed cones off it.
  ConditionedFixpoint fix(p, {});
  EXPECT_EQ(fix.analysis().num_sccs(), ProgramAnalysis(p).num_sccs());
  EXPECT_EQ(fix.analysis().Cone(0), LegacyCone(p, 0));
}

TEST(ProgramAnalysisTest, EmptyBodyRulesAreDerivableAndNonrecursive) {
  DatalogProgram p({2, 2}, /*num_edb=*/1);
  p.AddRule(Rule({1, {C(1), C(2)}}, {}));  // ground fact rule
  ProgramAnalysis a(p);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(a.Derivable(1));
  EXPECT_FALSE(a.RuleRecursive(0));
  EXPECT_FALSE(a.RuleDead(0));
  EXPECT_EQ(a.Connectivity(0).num_components, 0);
}

}  // namespace
}  // namespace pw
