#include "decision/view.h"

#include "datalog/eval.h"
#include "ilalgebra/ctable_eval.h"
#include "ra/eval.h"
#include "ra/properties.h"
#include "tables/world_enum.h"

namespace pw {

View View::Identity() { return View(); }

View View::Ra(RaQuery query) {
  View v;
  v.kind_ = Kind::kRa;
  v.ra_ = std::move(query);
  return v;
}

View View::Datalog(DatalogProgram program, std::vector<int> output_preds) {
  View v;
  v.kind_ = Kind::kDatalog;
  v.datalog_ = std::move(program);
  v.output_preds_ = std::move(output_preds);
  return v;
}

Instance View::Eval(const Instance& input) const {
  switch (kind_) {
    case Kind::kIdentity:
      return input;
    case Kind::kRa:
      return EvalQuery(ra_, input);
    case Kind::kDatalog: {
      Instance fixpoint = SemiNaiveEval(datalog_, input);
      std::vector<Relation> out;
      out.reserve(output_preds_.size());
      for (int p : output_preds_) {
        out.push_back(datalog_.HasPredicate(p) ? fixpoint.relation(p)
                                               : Relation(0));
      }
      return Instance(std::move(out));
    }
  }
  return input;
}

bool View::IsPositiveExistential(bool allow_neq) const {
  switch (kind_) {
    case Kind::kIdentity:
      return true;
    case Kind::kRa:
      return pw::IsPositiveExistential(ra_, allow_neq);
    case Kind::kDatalog:
      return false;  // recursion is a separate fragment in the paper
  }
  return false;
}

std::vector<ConstId> View::Constants() const {
  switch (kind_) {
    case Kind::kIdentity:
      return {};
    case Kind::kRa:
      return QueryConstants(ra_);
    case Kind::kDatalog:
      return datalog_.Constants();
  }
  return {};
}

std::string View::ToString() const {
  switch (kind_) {
    case Kind::kIdentity:
      return "identity";
    case Kind::kRa: {
      std::string out = "ra[";
      for (size_t i = 0; i < ra_.size(); ++i) {
        if (i > 0) out += "; ";
        out += ra_[i].ToString();
      }
      return out + "]";
    }
    case Kind::kDatalog:
      return "datalog[" + std::to_string(datalog_.rules().size()) + " rules]";
  }
  return "?";
}

std::optional<CDatabase> ViewImage(const View& view,
                                   const CDatabase& database) {
  if (view.is_identity()) return database;
  if (view.is_ra() && view.IsPositiveExistential(/*allow_neq=*/true)) {
    return EvalQueryOnCTables(view.ra(), database);
  }
  return std::nullopt;
}

bool ForEachViewImage(const View& view, const CDatabase& database,
                      std::vector<ConstId> context,
                      const std::function<bool(const Instance&)>& fn) {
  WorldEnumOptions options;
  options.extra_constants = std::move(context);
  for (ConstId c : view.Constants()) options.extra_constants.push_back(c);
  return ForEachWorld(database, options,
                      [&view, &fn](const Instance& world, const Valuation&) {
                        return fn(view.Eval(world));
                      });
}

}  // namespace pw
