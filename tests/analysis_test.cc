// Unit tests for the DATALOG program analysis (datalog/analysis.h): SCC
// condensation and stratum order, structured errors (all of them, not
// first-wins, for exactly the rules DatalogProgram::Fits rejects), dead
// rules, and reachability cones — plus the load-bearing wiring: the
// stratum-scheduled fixpoint consumes the condensation and skips dead
// rules, and Validate() is a thin rendering of the analysis's errors.

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
  ASSERT_TRUE(a.diagnostics().empty());
  ASSERT_EQ(a.num_sccs(), 3);
  EXPECT_LT(a.SccOf(0), a.SccOf(1));
  EXPECT_LT(a.SccOf(1), a.SccOf(2));
  // Body SCC <= head SCC for every rule, the invariant the scheduler needs.
  for (const DatalogRule& rule : p.rules()) {
    for (const DatalogAtom& atom : rule.body) {
      EXPECT_LE(a.SccOf(atom.predicate), a.SccOf(rule.head.predicate));
    }
  }
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
  ASSERT_TRUE(a.diagnostics().empty());
  ASSERT_EQ(a.num_sccs(), 2);
  EXPECT_EQ(a.SccOf(1), a.SccOf(2));
  EXPECT_NE(a.SccOf(0), a.SccOf(1));
  // The shared SCC is recursive and holds every rule, the one fed from
  // outside (body = EDB only) included: it runs delta rounds.
  EXPECT_TRUE(a.SccRecursive(a.SccOf(1)));
  EXPECT_EQ(a.SccRules(a.SccOf(1)), (std::vector<size_t>{0, 1, 2}));
}

TEST(ProgramAnalysisTest, DeadDuplicateAndUnreachableDiagnostics) {
  // Predicate 3 ("barren") has no rules, so rule 1 can never fire, and rule
  // 2 duplicates rule 0. Both are dead, yet both fit: a dead rule is no
  // error, so the analysis reports nothing and Validate() passes.
  DatalogProgram p({2, 2, 2, 2}, /*num_edb=*/1);
  p.AddRule(Rule({1, {V(0), V(1)}}, {{0, {V(0), V(1)}}}));
  p.AddRule(Rule({2, {V(0), V(1)}}, {{0, {V(0), V(1)}}, {3, {V(0), V(1)}}}));
  p.AddRule(Rule({1, {V(0), V(1)}}, {{0, {V(0), V(1)}}}));  // duplicate of 0
  // P2 is underivable (only the dead rule 1 derives it), so a rule reading
  // it is dead too.
  p.AddRule(Rule({1, {V(0), V(1)}}, {{2, {V(0), V(1)}}}));
  ProgramAnalysis a(p);
  EXPECT_TRUE(a.diagnostics().empty()) << a.ErrorString();
  EXPECT_EQ(p.Validate(), "");

  EXPECT_FALSE(a.RuleDead(0));
  EXPECT_TRUE(a.RuleDead(1));
  EXPECT_TRUE(a.RuleDead(2));  // duplicates are dead: they derive nothing new
  EXPECT_TRUE(a.RuleDead(3));
}

TEST(ProgramAnalysisTest, AllErrorsReportedNotFirstWins) {
  DatalogProgram p({2, 2}, /*num_edb=*/1);
  p.AddRule(Rule({0, {V(0), V(1)}}, {{1, {V(0), V(1)}}}));   // extensional head
  p.AddRule(Rule({1, {V(0)}}, {{0, {V(0), V(1)}}}));         // arity mismatch
  p.AddRule(Rule({1, {V(0), V(7)}}, {{0, {V(0), V(1)}}}));   // range restriction
  p.AddRule(Rule({1, {V(0), V(1)}}, {{9, {V(0), V(1)}}}));   // unknown predicate
  p.AddRule(Rule({1, {V(0), C(1)}}, {}));  // ground rule, variable head
  ProgramAnalysis a(p);
  ASSERT_EQ(a.diagnostics().size(), 5u);
  // One error per rule, in rule order, and every one of those rules is one
  // DatalogProgram::Fits rejects, so no evaluator fires it.
  for (size_t r = 0; r < p.rules().size(); ++r) {
    EXPECT_EQ(a.diagnostics()[r].rule, static_cast<int>(r));
    EXPECT_FALSE(p.Fits(p.rules()[r]));
    EXPECT_TRUE(a.RuleDead(r));
  }
  // Validate() renders all of them.
  std::string v = p.Validate();
  EXPECT_EQ(v, a.ErrorString());
  EXPECT_NE(v.find("head predicate P0 is extensional"), std::string::npos);
  EXPECT_NE(v.find("arity mismatch on P1 (got 1, declared 2)"),
            std::string::npos);
  EXPECT_NE(v.find("not range-restricted: head variable ?7"),
            std::string::npos);
  EXPECT_NE(v.find("unknown predicate 9"), std::string::npos);
  EXPECT_NE(v.find("rule 4: not range-restricted: head variable ?0"),
            std::string::npos);
  EXPECT_EQ(std::count(v.begin(), v.end(), '\n'), 4);  // five lines
}

TEST(ProgramAnalysisTest, DiagnosticRendering) {
  Diagnostic d{2, 1, "boom"};
  EXPECT_EQ(d.ToString(), "error: rule 2: body atom 1: boom");
  Diagnostic head{3, -1, "odd shape"};
  EXPECT_EQ(head.ToString(), "error: rule 3: odd shape");
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
    // A predicate the program lacks has an empty cone.
    EXPECT_EQ(a.Cone(-1), std::vector<bool>(p->num_predicates(), false));
    EXPECT_EQ(a.Cone(static_cast<int>(p->num_predicates())),
              std::vector<bool>(p->num_predicates(), false));
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
  // The fixpoint exposes its analysis; MaterializedView::Delete walks the
  // cone of the changed table over it.
  ConditionedFixpoint fix(p, {});
  EXPECT_EQ(fix.analysis().num_sccs(), ProgramAnalysis(p).num_sccs());
  EXPECT_EQ(fix.analysis().Cone(0), LegacyCone(p, 0));
}

TEST(ProgramAnalysisTest, EmptyBodyRulesAreDerivableAndNonrecursive) {
  DatalogProgram p({2, 2, 2}, /*num_edb=*/1);
  p.AddRule(Rule({1, {C(1), C(2)}}, {}));  // ground fact rule
  p.AddRule(Rule({2, {V(0), V(1)}}, {{1, {V(0), V(1)}}}));
  ProgramAnalysis a(p);
  ASSERT_TRUE(a.diagnostics().empty());
  EXPECT_FALSE(a.RuleDead(0));
  // P1 is derivable through the ground fact, so the rule reading it lives.
  EXPECT_FALSE(a.RuleDead(1));
  EXPECT_FALSE(a.SccRecursive(a.SccOf(1)));
  EXPECT_EQ(a.SccRules(a.SccOf(1)), std::vector<size_t>{0});
}

}  // namespace
}  // namespace pw
