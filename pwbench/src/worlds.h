// The benchmark's own model of an edge c-table and its possible worlds — the
// independent oracle the lineage and serve answers are checked against.
//
// The model keeps the generated rows (tuples over constants and nulls, with
// optional inequality guards) and folds every update into a per-fact
// override, which is exactly the Abiteboul–Grahne semantics the library
// implements: in each world, a fact's last insert or delete decides it. A
// world is one valuation of the nulls over the data's constants [0, N) plus
// one fresh constant per null (a superset of the canonical valuations, so
// enumeration is exact over the infinite domain). Per world the oracle runs a
// complete-information transitive closure by breadth-first search and
// compares it with the conditioned answer instantiated under the valuation.
// None of this calls the library's condition, fixpoint or update machinery.

#ifndef PWBENCH_WORLDS_H_
#define PWBENCH_WORLDS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/tuple.h"
#include "tables/ctable.h"

namespace pwbench {

class EdgeModel {
 public:
  /// A row `from -> to`, present in the worlds where every `guard`
  /// inequality (a null differs from a constant) holds.
  struct Row {
    pw::Term from;
    pw::Term to;
    std::vector<std::pair<pw::VarId, pw::ConstId>> guards;
  };

  /// `num_constants`: every constant of the data lies in [0, num_constants).
  EdgeModel(int num_constants, int num_nulls)
      : n_(num_constants), nulls_(num_nulls),
        override_(static_cast<size_t>(Domain() * Domain()), 0) {}

  void AddRow(Row row) { rows_.push_back(std::move(row)); }
  /// Conjoins `null != constant` onto the global condition.
  void AddGlobalGuard(pw::VarId var, pw::ConstId c) {
    global_.emplace_back(var, c);
  }
  void Insert(int a, int b) { Override(a, b) = 1; }
  void Delete(int a, int b) { Override(a, b) = -1; }

  /// The table in the library's text format (for ParseCDatabase).
  std::string Text() const;

  /// Checks a `tc(c, ?)` answer table — or, with `target` >= 0, a
  /// `tc(c, target)` one — against every world (or, with stride > 1,
  /// against the worlds whose index is `phase` mod `stride`).
  bool CheckReachAnswer(int c, const pw::CTable& answer, int target = -1,
                        int stride = 1, int phase = 0) const;
  /// Checks that `table` represents exactly the model's edge worlds.
  bool CheckEdges(const pw::CTable& table) const;
  /// Checks a full transitive-closure table (every pair) against every world.
  bool CheckClosure(const pw::CTable& closure) const;
  /// POSS / CERT of a fact set over the edge table itself.
  bool PossiblyAll(const std::vector<pw::Fact>& facts) const;
  bool CertainlyAll(const std::vector<pw::Fact>& facts) const;

 private:
  struct World;
  int Domain() const { return n_ + nulls_; }
  int8_t& Override(int a, int b) {
    return override_[static_cast<size_t>(a * Domain() + b)];
  }
  /// Calls fn(world) for each valuation satisfying the global condition;
  /// fn returns false to stop. Returns false iff fn stopped it.
  template <typename Fn>
  bool ForEachWorld(int stride, int phase, Fn&& fn) const;

  int n_;
  int nulls_;
  std::vector<Row> rows_;
  std::vector<std::pair<pw::VarId, pw::ConstId>> global_;
  std::vector<int8_t> override_;  // per fact: 0 none, 1 inserted, -1 deleted
};

}  // namespace pwbench

#endif  // PWBENCH_WORLDS_H_
