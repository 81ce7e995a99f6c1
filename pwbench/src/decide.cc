// decide: a fixed pool of distinct decision instances covering MEMB, UNIQ,
// CONT, POSS and CERT, decided through the dispatchers. Half the pool lies
// in the paper's PTIME cases (Codd matching, g-tables, positive-existential
// images, DATALOG on g-tables); the other half comes from the NP, coNP and
// Pi2p reductions in src/reductions/, with yes and no answers balanced.
// World search and the theorem-specific procedures do nearly all the work;
// the fixpoint, IVM, DD backend and snapshots do none.
//
// The four op kinds split the pool by complexity class (decision/
// complexity_map.h), so no percentile straddles two classes:
//   k1  PTIME, table cases: Codd matching (Thm 3.1(1), 5.1(1)), g-tables
//       (Thm 3.2(1), 4.1(3));
//   k2  PTIME, image cases: positive-existential images (Thm 5.2(1),
//       3.2(2)) and DATALOG on g-tables (Thm 5.3(1));
//   k3  NP-complete cases: MEMB and POSS reductions (Thm 3.1(2-4), 5.1(2,3));
//   k4  coNP- and Pi2p-complete cases: UNIQ, CONT reductions (Thm 3.2(3,4),
//       4.2(1,2)).
// Family sizes keep the family medians of k1, k2 and k3 within 2x of each
// other and every instance below about 5 ms. k4's cannot be: the Pi2p
// containment of Thm 4.2(1) takes about 2 ms at its smallest input, while
// DNF-tautology UNIQ grows instances of tens to hundreds of ms past 4
// variables and 16 terms, so k4's family medians span about 0.3-2.6 ms.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <random>
#include <stdexcept>

#include "bench.h"
#include "decision/complexity_map.h"
#include "ra/expr.h"
#include "reductions/colorability.h"
#include "reductions/forall_exists.h"
#include "reductions/satisfiability.h"
#include "reductions/tautology.h"
#include "solvers/dnf_tautology.h"
#include "solvers/graph_color.h"
#include "solvers/qbf.h"
#include "solvers/sat.h"
#include "staged.h"
#include "tables/text_format.h"
#include "tables/world_enum.h"
#include "workload/random_gen.h"

namespace pwbench {
namespace {

constexpr int kPerFamily = 12;  // pool instances per family, half yes
constexpr uint64_t kPoolSeed = 20261017;

/// One pool instance: the inputs as text (parsed at set-up) plus the parsed
/// databases the ops run on.
struct Item {
  std::string family;
  int kind = 0;
  Problem problem = Problem::kMemb;
  bool expected = false;
  bool hard = false;
  pw::View view;
  pw::View rhs_view;
  std::string text;
  std::string rhs_text;
  pw::Instance instance;
  std::vector<pw::LocatedFact> pattern;
  pw::CDatabase db;
  pw::CDatabase rhs;

  VerdictQuery Query() const {
    VerdictQuery q;
    q.problem = problem;
    q.view = &view;
    q.db = &db;
    q.rhs_view = &rhs_view;
    q.rhs = &rhs;
    q.instance = &instance;
    q.pattern = &pattern;
    q.hard = hard;
    return q;
  }
};

/// A generated instance before it becomes text.
struct Draft {
  explicit Draft(Problem p) : problem(p) {}
  Problem problem;
  pw::View view = pw::View::Identity();
  pw::View rhs_view = pw::View::Identity();
  pw::CDatabase db;
  pw::CDatabase rhs;
  pw::Instance instance;
  std::vector<pw::LocatedFact> pattern;
  bool expected = false;
};

struct Family {
  const char* name;
  int kind;
  /// Draws one instance with the requested answer where the family controls
  /// it; returns its true answer.
  std::function<Draft(Rng&, bool want_yes)> draw;
};

/// A standard engine for the library's generators, seeded from `rng`.
std::mt19937 Mt(Rng& rng) {
  return std::mt19937(static_cast<uint32_t>(rng.Next()));
}

pw::Term RandomTerm(Rng& rng, int constants, int& next_var, int var_percent) {
  if (rng.Chance(var_percent)) return pw::V(next_var++);
  return pw::C(rng.Below(constants));
}

// --- per-world oracle (small instances only) -------------------------------

/// World enumeration over the data's constants plus `constants` and the
/// view's own constants (queries are generic only modulo those).
pw::WorldEnumOptions OracleOptions(const pw::View& view,
                                   std::vector<pw::ConstId> constants) {
  pw::WorldEnumOptions options;
  options.extra_constants = std::move(constants);
  for (pw::ConstId c : view.Constants()) options.extra_constants.push_back(c);
  return options;
}

std::vector<pw::ConstId> PatternConstants(
    const std::vector<pw::LocatedFact>& pattern) {
  std::vector<pw::ConstId> out;
  for (const pw::LocatedFact& lf : pattern) {
    out.insert(out.end(), lf.fact.begin(), lf.fact.end());
  }
  return out;
}

bool OraclePossible(const pw::View& view, const pw::CDatabase& db,
                    const std::vector<pw::LocatedFact>& pattern) {
  bool found = false;
  pw::ForEachWorld(db, OracleOptions(view, PatternConstants(pattern)),
                   [&](const pw::Instance& w, const pw::Valuation&) {
                     found = pw::ContainsAll(view.Eval(w), pattern);
                     return !found;
                   });
  return found;
}

bool OracleCertain(const pw::View& view, const pw::CDatabase& db,
                   const std::vector<pw::LocatedFact>& pattern) {
  bool certain = true;
  pw::ForEachWorld(db, OracleOptions(view, PatternConstants(pattern)),
                   [&](const pw::Instance& w, const pw::Valuation&) {
                     certain = pw::ContainsAll(view.Eval(w), pattern);
                     return certain;
                   });
  return certain;
}

bool OracleUnique(const pw::View& view, const pw::CDatabase& db,
                  const pw::Instance& instance) {
  bool unique = true, any = false;
  pw::ForEachWorld(db, OracleOptions(view, instance.Constants()),
                   [&](const pw::Instance& w, const pw::Valuation&) {
                     any = true;
                     unique = view.Eval(w) == instance;
                     return unique;
                   });
  return unique && any;
}

// --- PTIME families ----------------------------------------------------------

/// A Codd table of arity 3: every row has at least one constant, every
/// variable occurs once. Returns the table and one world of it.
std::pair<pw::CTable, pw::Relation> CoddTable(Rng& rng, int rows,
                                              int constants) {
  pw::CTable t(3);
  pw::Relation world(3);
  int next_var = 0;
  for (int r = 0; r < rows; ++r) {
    pw::Tuple tuple;
    pw::Fact fact;
    for (int p = 0; p < 3; ++p) {
      pw::Term term = p == r % 3 ? pw::C(rng.Below(constants))
                                 : RandomTerm(rng, constants, next_var, 40);
      tuple.push_back(term);
      fact.push_back(term.is_constant() ? term.constant()
                                        : rng.Below(constants));
    }
    world.Insert(fact);
    t.AddRow(tuple);
  }
  return {t, world};
}

Draft MembCodd(Rng& rng, bool want_yes) {
  auto [table, world] = CoddTable(rng, 112, 60);
  Draft d(Problem::kMemb);
  // A ground row's fact is in every world; dropping it gives a no-instance.
  pw::Relation instance = world;
  if (!want_yes) {
    for (const pw::CRow& row : table.rows()) {
      if (pw::IsGround(row.tuple)) {
        pw::Relation smaller(3);
        pw::Fact drop = pw::ToFact(row.tuple);
        for (const pw::Fact& f : instance) {
          if (f != drop) smaller.Insert(f);
        }
        instance = smaller;
        break;
      }
    }
  }
  d.db = pw::CDatabase(table);
  d.instance = pw::Instance({instance});
  d.expected = want_yes || instance.size() == world.size();
  return d;
}

Draft PossCodd(Rng& rng, bool want_yes) {
  auto [table, world] = CoddTable(rng, 128, 40);
  Draft d(Problem::kPossUnbounded);
  pw::Relation pattern(3);
  std::vector<pw::Fact> facts = world.ToVector();
  for (size_t i = 0; i < facts.size(); i += 2) pattern.Insert(facts[i]);
  // Every row holds a constant, so a fact over an unused constant is
  // produced by no row.
  if (!want_yes) pattern.Insert(pw::Fact{1000, 1000, 1000});
  d.db = pw::CDatabase(table);
  d.instance = pw::Instance({pattern});
  d.expected = want_yes;
  return d;
}

Draft UniqGTable(Rng& rng, bool want_yes) {
  // Rows over constants and variables; the global condition forces every
  // variable to a constant (yes), or leaves one free under an inequality
  // (no: more than one world).
  pw::CTable t(2);
  pw::Relation matrix(2);
  std::vector<int> value;
  int next_var = 0;
  for (int r = 0; r < 320; ++r) {
    pw::Tuple tuple;
    pw::Fact fact;
    for (int p = 0; p < 2; ++p) {
      pw::Term term = RandomTerm(rng, 60, next_var, 20);
      if (term.is_variable()) value.push_back(rng.Below(60));
      tuple.push_back(term);
      fact.push_back(term.is_constant() ? term.constant()
                                        : value[static_cast<size_t>(term.variable())]);
    }
    t.AddRow(tuple);
    matrix.Insert(fact);
  }
  for (int v = 0; v < next_var; ++v) {
    if (!want_yes && v == next_var - 1) {
      t.AddGlobalAtom(pw::Neq(pw::V(v), pw::C(value[static_cast<size_t>(v)])));
    } else {
      t.AddGlobalAtom(pw::Eq(pw::V(v), pw::C(value[static_cast<size_t>(v)])));
    }
  }
  Draft d(Problem::kUniq);
  d.db = pw::CDatabase(t);
  d.instance = pw::Instance({matrix});
  d.expected = OracleUnique(d.view, d.db, d.instance);
  return d;
}

Draft ContGInCodd(Rng& rng, bool want_yes) {
  // lhs: a g-table with repeated variables under global inequalities; rhs:
  // the same rows with every variable position made a fresh variable (a
  // Codd-table generalizing lhs), with one row's constant moved off the
  // data for a no-instance.
  pw::CTable lhs(3), rhs(3);
  int lhs_var = 0, rhs_var = 0;
  for (int r = 0; r < 100; ++r) {
    pw::Tuple l, h;
    for (int p = 0; p < 3; ++p) {
      bool var = p != r % 3 && rng.Chance(40);
      if (var) {
        int v = lhs_var > 0 && rng.Chance(30) ? rng.Below(lhs_var) : lhs_var++;
        l.push_back(pw::V(v));
        h.push_back(pw::V(rhs_var++));
      } else {
        pw::Term c = pw::C(rng.Below(40));
        l.push_back(c);
        h.push_back(c);
      }
    }
    if (!want_yes && r == 0) h[0] = pw::C(2000);
    lhs.AddRow(l);
    rhs.AddRow(h);
  }
  for (int v = 1; v < lhs_var; v += 2) {
    lhs.AddGlobalAtom(pw::Neq(pw::V(v - 1), pw::V(v)));
  }
  Draft d(Problem::kCont);
  d.db = pw::CDatabase(lhs);
  d.rhs = pw::CDatabase(rhs);
  d.expected = want_yes;
  return d;
}

/// Two-hop paths over an edge relation: pi_{0,3}(E join_{1=0} E).
pw::View TwoHop() {
  pw::RaExpr e = pw::RaExpr::Rel(0, 2);
  return pw::View::Ra(
      {pw::RaExpr::ProjectCols(pw::RaExpr::Join(e, e, {{1, 0}}), {0, 3})});
}

/// An edge table over `constants` nodes with two nulls in a few rows.
pw::CTable NullEdges(Rng& rng, int rows, int constants, bool conditions) {
  pw::CTable t(2);
  for (int r = 0; r < rows; ++r) {
    pw::Tuple tuple{pw::C(rng.Below(constants)), pw::C(rng.Below(constants))};
    if (r % 8 == 3) tuple[1] = pw::V(r % 16 == 3 ? 0 : 1);
    if (r % 8 == 6) tuple[0] = pw::V(r % 16 == 6 ? 1 : 0);
    pw::Conjunction local;
    if (conditions && r % 5 == 0) {
      local.Add(pw::Neq(pw::V(r % 2), pw::C(rng.Below(constants))));
    }
    t.AddRow(tuple, local);
  }
  return t;
}

Draft PossImage(Rng& rng, bool want_yes) {
  Draft d(Problem::kPoss);
  d.view = TwoHop();
  d.db = pw::CDatabase(NullEdges(rng, 40, 12, /*conditions=*/true));
  // Pattern facts: two-hop pairs drawn from the domain; the answer is
  // whatever the oracle says, and draws are repeated until it matches.
  for (int tries = 0;; ++tries) {
    d.pattern = {{0, pw::Fact{rng.Below(12), rng.Below(12)}},
                 {0, pw::Fact{rng.Below(12), rng.Below(12)}},
                 {0, pw::Fact{rng.Below(12), rng.Below(12)}}};
    d.expected = OraclePossible(d.view, d.db, d.pattern);
    if (d.expected == want_yes || tries > 50) return d;
  }
}

Draft UniqImage(Rng& rng, bool want_yes) {
  Draft d(Problem::kUniq);
  d.view = TwoHop();
  // An e-table: ground edges, and for a no-instance two rows sharing a null.
  pw::CTable t(2);
  for (int r = 0; r < 24; ++r) {
    t.AddRow(pw::Tuple{pw::C(rng.Below(30)), pw::C(rng.Below(30))});
  }
  if (!want_yes) {
    t.AddRow(pw::Tuple{pw::C(rng.Below(30)), pw::V(0)});
    t.AddRow(pw::Tuple{pw::V(0), pw::C(rng.Below(30))});
  }
  d.db = pw::CDatabase(t);
  pw::WorldEnumOptions options;
  options.max_valuations = 1;
  pw::ForEachWorld(d.db, options, [&](const pw::Instance& w, const pw::Valuation&) {
    d.instance = d.view.Eval(w);
    return false;
  });
  d.expected = OracleUnique(d.view, d.db, d.instance);
  return d;
}

Draft CertDatalog(Rng& rng, bool want_yes) {
  Draft d(Problem::kCert);
  d.view = pw::View::Datalog(TransitiveClosure(), {1});
  pw::CTable t = NullEdges(rng, 24, 12, /*conditions=*/false);
  t.AddGlobalAtom(pw::Neq(pw::V(0), pw::V(1)));
  d.db = pw::CDatabase(t);
  for (int tries = 0;; ++tries) {
    d.pattern = {{0, pw::Fact{rng.Below(12), rng.Below(12)}},
                 {0, pw::Fact{rng.Below(12), rng.Below(12)}}};
    d.expected = OracleCertain(d.view, d.db, d.pattern);
    if (d.expected == want_yes || tries > 50) return d;
  }
}

// --- hard families (the reductions) ------------------------------------------

pw::Graph DrawGraph(Rng& rng, int nodes, bool want_colorable) {
  std::mt19937 mt = Mt(rng);
  while (true) {
    pw::Graph g = want_colorable ? pw::RandomThreeColorableGraph(nodes, 0.5, mt)
                                 : pw::RandomGraph(nodes, 0.6, mt);
    if (pw::IsThreeColorable(g) == want_colorable) return g;
  }
}

pw::ClausalFormula DrawCnf(Rng& rng, int vars, int clauses, bool want_sat) {
  std::mt19937 mt = Mt(rng);
  while (true) {
    pw::ClausalFormula f = pw::RandomClausalFormula(vars, clauses, 3, mt);
    if (pw::IsSatisfiable(f) == want_sat) return f;
  }
}

pw::ClausalFormula DrawDnf(Rng& rng, int vars, int clauses, bool want_taut) {
  std::mt19937 mt = Mt(rng);
  while (true) {
    pw::ClausalFormula f = pw::RandomClausalFormula(vars, clauses, 3, mt);
    if (pw::IsDnfTautology(f) == want_taut) return f;
  }
}

Draft FromMembership(const pw::MembershipInstance& m, bool expected) {
  Draft d(m.view.is_identity() ? Problem::kMemb : Problem::kMembView);
  d.view = m.view;
  d.db = m.database;
  d.instance = m.instance;
  d.expected = expected;
  return d;
}

Draft FromUniqueness(const pw::UniquenessInstance& u, bool expected) {
  Draft d(Problem::kUniq);
  d.view = u.view;
  d.db = u.database;
  d.instance = u.instance;
  d.expected = expected;
  return d;
}

Draft FromContainment(const pw::ContainmentInstance& c, bool expected) {
  Draft d(Problem::kCont);
  d.view = c.lhs_view;
  d.rhs_view = c.rhs_view;
  d.db = c.lhs;
  d.rhs = c.rhs;
  d.expected = expected;
  return d;
}

Draft FromPossibility(const pw::UnboundedPossibilityInstance& p,
                      bool expected) {
  Draft d(Problem::kPossUnbounded);
  d.db = p.database;
  d.instance = p.pattern;
  d.expected = expected;
  return d;
}

std::vector<Family> Families() {
  return {
      {"memb-codd", 0, MembCodd},
      {"poss-codd", 0, PossCodd},
      {"uniq-gtable", 0, UniqGTable},
      {"cont-gtable-in-codd", 0, ContGInCodd},
      {"poss-image", 1, PossImage},
      {"uniq-image-etable", 1, UniqImage},
      {"cert-datalog-gtable", 1, CertDatalog},
      {"memb-etable-3col", 2,
       [](Rng& rng, bool yes) {
         pw::Graph g = DrawGraph(rng, 9, yes);
         return FromMembership(pw::ColorabilityToETableMembership(g), yes);
       }},
      {"memb-itable-3col", 2,
       [](Rng& rng, bool yes) {
         pw::Graph g = DrawGraph(rng, 30, yes);
         return FromMembership(pw::ColorabilityToITableMembership(g), yes);
       }},
      {"poss-etable-sat", 2,
       [](Rng& rng, bool yes) {
         pw::ClausalFormula f = DrawCnf(rng, 3, 10, yes);
         return FromPossibility(pw::SatToETablePossibility(f), yes);
       }},
      {"poss-itable-sat", 2,
       [](Rng& rng, bool yes) {
         pw::ClausalFormula f = DrawCnf(rng, 3, 10, yes);
         return FromPossibility(pw::SatToITablePossibility(f), yes);
       }},
      {"uniq-ctable-taut", 3,
       [](Rng& rng, bool yes) {
         pw::ClausalFormula f = DrawDnf(rng, 4, 16, yes);
         return FromUniqueness(pw::TautologyToCTableUniqueness(f), yes);
       }},
      {"uniq-view-non3col", 3,
       [](Rng& rng, bool yes) {
         pw::Graph g = DrawGraph(rng, 17, !yes);
         return FromUniqueness(pw::NonColorabilityToViewUniqueness(g), yes);
       }},
      {"cont-codd-in-itable-qbf", 3,
       [](Rng& rng, bool yes) {
         std::mt19937 mt = Mt(rng);
         while (true) {
           pw::ForallExistsCnf q = pw::RandomForallExists(2, 2, 2, mt);
           if (pw::SolveForallExists(q) == yes) {
             return FromContainment(pw::ForallExistsToTableInITable(q), yes);
           }
         }
       }},
      {"cont-table-in-view-qbf", 3,
       [](Rng& rng, bool yes) {
         std::mt19937 mt = Mt(rng);
         while (true) {
           pw::ForallExistsCnf q = pw::RandomForallExists(2, 2, 3, mt);
           if (pw::SolveForallExists(q) == yes) {
             return FromContainment(pw::ForallExistsToTableInViewOfTables(q),
                                    yes);
           }
         }
       }},
  };
}

pw::RepKind KindOfView(const pw::View& view, const pw::CDatabase& db) {
  return view.is_identity() ? pw::RepKindOf(db) : pw::RepKind::kView;
}

pw::QueryFragment FragmentOf(const pw::View& view) {
  if (view.is_datalog()) return pw::QueryFragment::kDatalog;
  return view.IsPositiveExistential(/*allow_neq=*/true)
             ? pw::QueryFragment::kPositiveExistential
             : pw::QueryFragment::kFirstOrder;
}

/// The instance's class per the paper's classification.
pw::ComplexityClass Classify(const Draft& d) {
  switch (d.problem) {
    case Problem::kMemb:
    case Problem::kMembView:
      return pw::MembershipComplexity(KindOfView(d.view, d.db));
    case Problem::kUniq:
      if (d.view.is_ra() && d.view.IsPositiveExistential(false) &&
          d.db.Kind() <= pw::TableKind::kETable) {
        return pw::UniquenessComplexityPosExistentialETable();
      }
      return pw::UniquenessComplexity(KindOfView(d.view, d.db));
    case Problem::kCont:
      return pw::ContainmentComplexity(KindOfView(d.view, d.db),
                                       KindOfView(d.rhs_view, d.rhs));
    case Problem::kPoss:
      return pw::PossibilityBoundedComplexity(FragmentOf(d.view));
    case Problem::kPossUnbounded:
      return pw::PossibilityUnboundedComplexity(KindOfView(d.view, d.db));
    case Problem::kCert:
      return pw::CertaintyComplexity(FragmentOf(d.view), pw::RepKindOf(d.db));
  }
  return pw::ComplexityClass::kPTime;
}

/// k1, k2: PTIME; k3: NP; k4: coNP or Pi2p.
bool InKind(pw::ComplexityClass cls, int kind) {
  switch (cls) {
    case pw::ComplexityClass::kPTime:
      return kind < 2;
    case pw::ComplexityClass::kNp:
      return kind == 2;
    case pw::ComplexityClass::kCoNp:
    case pw::ComplexityClass::kPi2p:
      return kind == 3;
  }
  return false;
}

class DecidePool : public Workload {
 public:
  std::array<const char*, 4> KindNames() const override {
    return {"PTIME verdict, Codd/g-table cases",
            "PTIME verdict, image/DATALOG cases", "NP-class verdict",
            "coNP/Pi2p-class verdict"};
  }
  double BlocksPerSecond() const override { return 300; }

  void Generate(uint64_t seed, int blocks) override {
    // The pool is fixed; the seed draws the op sequence over it, so every
    // seed runs the same instances in a different order and mix.
    items_.clear();
    for (int k = 0; k < 4; ++k) by_kind_[k].clear();
    for (const Family& f : Families()) {
      // Each family draws from its own stream, so resizing one family
      // leaves the others' instances as they are.
      uint64_t family_seed = kPoolSeed;
      for (const char* c = f.name; *c; ++c) family_seed = Mix(family_seed, *c);
      Rng pool_rng(family_seed);
      for (int i = 0; i < kPerFamily; ++i) {
        Draft d = f.draw(pool_rng, i % 2 == 0);
        pw::ComplexityClass cls = Classify(d);
        if (!InKind(cls, f.kind)) {
          throw std::logic_error(std::string("decide: family ") + f.name +
                                 " classified as " + pw::ToString(cls));
        }
        Item item;
        item.family = f.name;
        item.kind = f.kind;
        item.problem = d.problem;
        item.expected = d.expected;
        item.hard = cls != pw::ComplexityClass::kPTime;
        item.view = d.view;
        item.rhs_view = d.rhs_view;
        item.text = pw::FormatCDatabase(d.db);
        if (d.problem == Problem::kCont) {
          item.rhs_text = pw::FormatCDatabase(d.rhs);
        }
        item.instance = d.instance;
        item.pattern = d.pattern;
        by_kind_[f.kind].push_back(items_.size());
        items_.push_back(std::move(item));
      }
    }
    Rng rng(seed);
    std::vector<Deck> decks;
    for (int k = 0; k < 4; ++k) {
      decks.emplace_back(static_cast<int>(by_kind_[k].size()));
    }
    ops_.clear();
    for (int b = 0; b < blocks; ++b) {
      std::vector<int> block = {0, 1, 2, 3};
      rng.Shuffle(block);
      for (int k : block) {
        ops_.push_back(by_kind_[k][static_cast<size_t>(
            decks[static_cast<size_t>(k)].Draw(rng))]);
      }
    }
  }

  void Setup() override {
    pw::ConditionInterner::Global().Clear();
    for (Item& item : items_) {
      item.db = ParseDatabase(item.text);
      if (!item.rhs_text.empty()) item.rhs = ParseDatabase(item.rhs_text);
    }
    for (const Item& item : items_) Decide(item.Query());
  }

  size_t NumOps() const override { return ops_.size(); }
  int KindOf(size_t op) const override { return items_[ops_[op]].kind; }
  bool IsWrite(size_t) const override { return false; }
  uint64_t OpDigest(size_t op) const override { return ops_[op]; }

  Answer Run(size_t op) override {
    Answer answer;
    answer.verdict = Decide(items_[ops_[op]].Query());
    answer.digest = answer.verdict;
    return answer;
  }

  Answer RunStaged(size_t op, Tracer& tracer, LayerTotals& totals) override {
    pw::ConditionInterner& interner = pw::ConditionInterner::Global();
    LayerTotals::InternerMark mark = LayerTotals::Mark(interner);
    Answer answer;
    answer.verdict = DecideStaged(items_[ops_[op]].Query(), tracer, totals);
    answer.digest = answer.verdict;
    totals.AddInternerDelta(interner, mark);
    return answer;
  }

  bool Check(size_t op, const Answer& answer) override {
    return answer.verdict == items_[ops_[op]].expected;
  }

  void Observe(size_t op, double ms) override {
    observed_[items_[ops_[op]].family].push_back(ms);
  }

  std::vector<std::string> Notes() const override {
    // Per-family size of the pool and its yes share.
    std::vector<std::string> notes;
    std::string current;
    int yes = 0, n = 0;
    auto flush = [&] {
      if (n) {
        std::string line = "decide family " + current + ": " +
                           std::to_string(n) + " instances, " +
                           std::to_string(yes) + " yes";
        auto it = observed_.find(current);
        if (it != observed_.end() && !it->second.empty()) {
          std::vector<double> v = it->second;
          std::sort(v.begin(), v.end());
          char buf[96];
          std::snprintf(buf, sizeof buf, "; median %.4f ms, max %.4f ms",
                        v[v.size() / 2], v.back());
          line += buf;
        }
        notes.push_back(line);
      }
    };
    for (const Item& item : items_) {
      if (item.family != current) {
        flush();
        current = item.family;
        yes = n = 0;
      }
      ++n;
      yes += item.expected;
    }
    flush();
    return notes;
  }

 private:
  std::vector<Item> items_;
  std::array<std::vector<size_t>, 4> by_kind_;
  std::vector<size_t> ops_;
  std::map<std::string, std::vector<double>> observed_;
};

}  // namespace

std::unique_ptr<Workload> MakeDecide() { return std::make_unique<DecidePool>(); }

}  // namespace pwbench
