#include "decision/answer_sets.h"

#include <functional>
#include <set>

#include "condition/binding_env.h"
#include "decision/certainty.h"
#include "ilalgebra/datalog_ctable.h"

namespace pw {

namespace {

std::vector<ConstId> Domain(const View& view, const CDatabase& database) {
  std::set<ConstId> dom;
  for (ConstId c : database.Constants()) dom.insert(c);
  for (ConstId c : view.Constants()) dom.insert(c);
  return {dom.begin(), dom.end()};
}

/// Ground instantiations of `row` over `domain` whose conditions are
/// satisfiable together with `global`, inserted into `out`.
void CollectPossibleFromRow(const CRow& row, const Conjunction& global,
                            const std::vector<ConstId>& domain,
                            Relation& out) {
  std::vector<int> var_positions;
  for (size_t i = 0; i < row.tuple.size(); ++i) {
    if (row.tuple[i].is_variable()) {
      var_positions.push_back(static_cast<int>(i));
    }
  }
  Fact fact(row.tuple.size(), 0);
  for (size_t i = 0; i < row.tuple.size(); ++i) {
    if (row.tuple[i].is_constant()) fact[i] = row.tuple[i].constant();
  }
  BindingEnv env;
  if (!env.Assert(global) || !env.Assert(row.local())) return;

  std::function<void(size_t)> go = [&](size_t vp) {
    if (vp == var_positions.size()) {
      out.Insert(fact);
      return;
    }
    int pos = var_positions[vp];
    for (ConstId c : domain) {
      size_t mark = env.Mark();
      if (env.AssertEqual(row.tuple[pos], Term::Const(c))) {
        fact[pos] = c;
        go(vp + 1);
      }
      env.Revert(mark);
    }
  };
  go(0);
}

/// Possible ground answers of a c-database image (per table).
Instance PossibleFromImage(const CDatabase& image,
                           const std::vector<ConstId>& domain) {
  Conjunction global = image.CombinedGlobal();
  std::vector<Relation> out;
  for (size_t p = 0; p < image.num_tables(); ++p) {
    Relation r(image.table(p).arity());
    for (const CRow& row : image.table(p).rows()) {
      CollectPossibleFromRow(row, global, domain, r);
    }
    out.push_back(std::move(r));
  }
  return Instance(std::move(out));
}

/// Enumeration fallback, for first order views: union of view images over
/// worlds, filtered to the ground domain.
Instance PossibleByEnumeration(const View& view, const CDatabase& database,
                               const std::vector<ConstId>& domain) {
  std::set<ConstId> dom(domain.begin(), domain.end());
  std::vector<Relation> acc;
  bool first = true;
  ForEachViewImage(view, database, {}, [&](const Instance& image) {
    if (first) {
      acc.assign(image.num_relations(), Relation());
      for (size_t p = 0; p < image.num_relations(); ++p) {
        acc[p] = Relation(image.relation(p).arity());
      }
      first = false;
    }
    for (size_t p = 0; p < image.num_relations(); ++p) {
      for (const Fact& f : image.relation(p)) {
        bool ground = true;
        for (ConstId c : f) {
          if (dom.count(c) == 0) {
            ground = false;
            break;
          }
        }
        if (ground) acc[p].Insert(f);
      }
    }
    return true;
  });
  return Instance(std::move(acc));
}

/// The image c-database of a view, when one is computable exactly: the
/// conditioned fixpoint's outputs for a DATALOG view, else ViewImage.
std::optional<CDatabase> ImageOf(const View& view,
                                 const CDatabase& database) {
  if (!view.is_datalog()) return ViewImage(view, database);
  CDatabase fixpoint = DatalogOnCTables(view.datalog(), database);
  CDatabase image;
  for (size_t i = 0; i < view.output_preds().size(); ++i) {
    int p = view.output_preds()[i];
    CTable t = view.datalog().HasPredicate(p) ? fixpoint.table(p) : CTable(0);
    if (i == 0) t.SetGlobal(fixpoint.CombinedGlobal());
    image.AddTable(std::move(t));
  }
  return image;
}

}  // namespace

Instance PossibleAnswers(const View& view, const CDatabase& database) {
  std::vector<ConstId> domain = Domain(view, database);
  if (auto image = ImageOf(view, database)) {
    return PossibleFromImage(*image, domain);
  }
  return PossibleByEnumeration(view, database, domain);
}

Instance CertainAnswers(const View& view, const CDatabase& database) {
  std::vector<ConstId> domain = Domain(view, database);
  if (auto image = ImageOf(view, database)) {
    Instance candidates = PossibleFromImage(*image, domain);
    ConditionInterner& interner = ConditionInterner::Global();
    ConjId global_id = image->CombinedGlobalId(interner);
    std::vector<Relation> out;
    for (size_t p = 0; p < candidates.num_relations(); ++p) {
      Relation r(candidates.relation(p).arity());
      for (const Fact& f : candidates.relation(p)) {
        if (CertainFactInTable(image->table(p), f, global_id, interner)) {
          r.Insert(f);
        }
      }
      out.push_back(std::move(r));
    }
    return Instance(std::move(out));
  }
  // Enumeration fallback: intersect images.
  Instance candidates = PossibleByEnumeration(view, database, domain);
  std::vector<Relation> acc;
  for (size_t p = 0; p < candidates.num_relations(); ++p) {
    acc.push_back(candidates.relation(p));
  }
  ForEachViewImage(view, database, {}, [&acc](const Instance& image) {
    for (size_t p = 0; p < acc.size(); ++p) {
      Relation kept(acc[p].arity());
      for (const Fact& f : acc[p]) {
        if (image.relation(p).Contains(f)) kept.Insert(f);
      }
      acc[p] = std::move(kept);
    }
    return true;
  });
  return Instance(std::move(acc));
}

}  // namespace pw
