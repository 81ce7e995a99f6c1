#include "datalog/certain.h"

#include <algorithm>

#include "datalog/eval.h"
#include "tables/world_enum.h"

namespace pw {

std::optional<Instance> DatalogCertainAnswers(const DatalogProgram& program,
                                              const CDatabase& database) {
  if (database.HasLocalConditions()) return std::nullopt;  // g-tables only

  // Normalize, then freeze each remaining null to a fresh constant that no
  // constant of the database or of the program can equal.
  ConstId first_null = 0;
  Instance frozen = Freeze(database, program.Constants(), &first_null);
  Instance fixpoint = SemiNaiveEval(program, frozen);

  // Keep null-free facts only.
  std::vector<Relation> out;
  out.reserve(fixpoint.num_relations());
  for (size_t p = 0; p < fixpoint.num_relations(); ++p) {
    Relation r(fixpoint.relation(p).arity());
    for (const Fact& f : fixpoint.relation(p)) {
      if (std::all_of(f.begin(), f.end(),
                      [first_null](ConstId c) { return c < first_null; })) {
        r.Insert(f);
      }
    }
    out.push_back(std::move(r));
  }
  return Instance(std::move(out));
}

}  // namespace pw
