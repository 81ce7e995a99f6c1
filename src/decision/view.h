// Views: the fixed QPTIME queries applied to representations.
//
// The paper's decision problems are parameterized by a query q applied to
// the represented worlds: q(rep(T)) = { q(I) | I in rep(T) }. We support the
// three families of Section 2.1 — the identity, relational algebra queries
// (positive existential when difference-free, first order otherwise), and
// pure DATALOG queries.
//
// An RA relation reference RaExpr::Rel(k, a) that names no table of the
// database, or a table of another arity than a, reads as an empty relation
// of arity a in every world (ra::Eval checks it in every build mode), and so
// does an expression that does not fit (RaExpr::fits: a select or
// projection column past its input's arity, a union or difference of two
// arities) at its own arity. ViewImage below declines such a view
// (EvalQueryOnCTables returns nullopt), so every decision procedure answers
// it through ForEachViewImage, as if the database had that table, empty.
// For example, over a one-table database, View::Ra({RaExpr::Rel(3, 2)}) has
// the empty image in every world: POSS and CERT of any fact are false (CERT
// is vacuously true when rep(database) is empty), and when rep(database) is
// not empty, MEMB and UNIQ hold exactly for the instance with one empty
// binary relation.
//
// DATALOG views read the same way, in every build mode: an extensional
// predicate that names no table, or a table of another arity than the
// program's, is empty (SemiNaiveEval and the conditioned fixpoint alike),
// and an output predicate that the program lacks is an empty relation of
// arity 0 in every world, so POSS and CERT of any fact in it are false. A
// rule that does not fit derives nothing in every evaluator
// (DatalogProgram::Fits): one whose head or body atom names no predicate of
// the program or has another argument count than its predicate's arity,
// one with an extensional head, and one with a head variable no body atom
// binds, an empty-body rule with a variable head among them. With e0
// binary, q(x, y) :- e0(x, y, z) leaves q empty in every world, and so does
// q(x, y) :- e1(x) with e1 unary; beside q(x, y) :- e0(x, y), the
// extensional-head rule e0(x, y) :- e1(x, y) adds nothing, so q holds
// exactly e0's facts.

#ifndef PW_DECISION_VIEW_H_
#define PW_DECISION_VIEW_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/instance.h"
#include "datalog/program.h"
#include "ra/expr.h"
#include "tables/ctable.h"

namespace pw {

/// A fixed query from instances to instances. Value type.
class View {
 public:
  /// Default-constructs the identity query (the paper's "-").
  View() = default;

  /// The identity query, explicitly.
  static View Identity();

  /// A relational algebra query, one expression per output relation.
  static View Ra(RaQuery query);

  /// A DATALOG query: the program's fixpoint restricted to `output_preds`
  /// (in order; these become output relations 0..m-1).
  static View Datalog(DatalogProgram program, std::vector<int> output_preds);

  bool is_identity() const { return kind_ == Kind::kIdentity; }
  bool is_ra() const { return kind_ == Kind::kRa; }
  bool is_datalog() const { return kind_ == Kind::kDatalog; }

  /// Applies the query to a complete information database.
  Instance Eval(const Instance& input) const;

  /// True iff the view is (equivalent by construction to) a positive
  /// existential query: the identity, or a difference-free RA query.
  /// With `allow_neq`, != select atoms are permitted.
  bool IsPositiveExistential(bool allow_neq = false) const;

  /// All constants mentioned by the query itself (constant relations,
  /// select/projection constants, rule constants). Valuation enumeration
  /// must include these in Delta: queries are generic only modulo their own
  /// constants.
  std::vector<ConstId> Constants() const;

  const RaQuery& ra() const { return ra_; }
  const DatalogProgram& datalog() const { return datalog_; }
  const std::vector<int>& output_preds() const { return output_preds_; }

  std::string ToString() const;

 private:
  enum class Kind { kIdentity, kRa, kDatalog };

  Kind kind_ = Kind::kIdentity;
  RaQuery ra_;
  DatalogProgram datalog_;
  std::vector<int> output_preds_;
};

/// The exact c-table image of view(rep(database)), where it costs PTIME: the
/// database itself for the identity, and the Imielinski–Lipski image
/// (EvalQueryOnCTables) for a positive existential RA view (!= allowed).
/// std::nullopt for a first order RA view, a DATALOG view and an RA view
/// that does not fit the database. Every decision dispatcher runs its exact
/// procedure on this image, after its theorem's PTIME front ends, and
/// searches with ForEachViewImage only when there is none.
std::optional<CDatabase> ViewImage(const View& view, const CDatabase& database);

/// The decision procedures' per-world fallback: calls `fn` with view(I) for
/// each world I of rep(database), one per renaming of fresh constants
/// (ForEachWorld over the constants of the database, of `context` and of
/// the view). `fn` returns false to stop. Returns true iff it never did.
bool ForEachViewImage(const View& view, const CDatabase& database,
                      std::vector<ConstId> context,
                      const std::function<bool(const Instance&)>& fn);

}  // namespace pw

#endif  // PW_DECISION_VIEW_H_
