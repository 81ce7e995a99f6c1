// A revertible congruence environment over terms.
//
// BindingEnv maintains a set of asserted equalities and disequalities between
// terms (variables and constants) and answers consistency queries over the
// countably infinite constant domain of the paper. Because the domain is
// infinite, a state is satisfiable exactly when
//   (a) no two distinct constants are in the same equivalence class, and
//   (b) no asserted disequality connects two terms of the same class.
// Both are maintained eagerly, so every successful Assert* leaves a
// satisfiable state. A trail enables O(1)-amortized rollback to an earlier
// mark — this is the backbone of all backtracking decision procedures in
// src/decision/.
//
// Storage is flat: a term's node is an index into parallel vectors, and the
// term -> node map is an IdTable (util/hash_cons.h) whose keys are term_of_.
// Nodes are created in trail order and leave in reverse trail order, so
// Revert only ever removes the newest node. That is the one erase IdTable
// supports, and clearing that node's slot is exact under linear probing:
// every older node found its slot before the newest existed. Revert keeps
// every vector's capacity, so an env that has grown allocates nothing on
// Assert* or Revert.

#ifndef PW_CONDITION_BINDING_ENV_H_
#define PW_CONDITION_BINDING_ENV_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "condition/atom.h"
#include "core/term.h"
#include "util/hash_cons.h"

namespace pw {

class Conjunction;

/// Revertible union-find over terms with class constants and disequalities.
///
/// Usage pattern in a backtracking search:
///
///   size_t mark = env.Mark();
///   if (env.AssertEqual(a, b) && env.Assert(cond)) { ...recurse...; }
///   env.Revert(mark);
///
/// On a failed Assert* the environment may hold a partially applied prefix;
/// the caller is expected to Revert to its own mark (as above).
class BindingEnv {
 public:
  BindingEnv() = default;

  // Non-copyable (trail-based identity); movable.
  BindingEnv(const BindingEnv&) = delete;
  BindingEnv& operator=(const BindingEnv&) = delete;
  BindingEnv(BindingEnv&&) = default;
  BindingEnv& operator=(BindingEnv&&) = default;

  /// Opaque rollback point.
  size_t Mark() const { return trail_.size(); }

  /// Rolls back all assertions after `mark`.
  void Revert(size_t mark);

  /// Asserts a = b. Returns false (state possibly partially updated — revert)
  /// if this would merge two distinct constants or violate a recorded
  /// disequality.
  bool AssertEqual(Term a, Term b);

  /// Asserts a != b. Returns false if a and b are already equal.
  bool AssertNotEqual(Term a, Term b);

  /// Asserts one atom.
  bool AssertAtom(const CondAtom& atom);

  /// Asserts every atom of a conjunction.
  bool Assert(const Conjunction& conjunction);

  /// The constant the class of `t` is bound to, if any.
  std::optional<ConstId> ValueOf(Term t) const;

  /// True iff a and b are currently in the same class. (Terms never seen are
  /// only equal to themselves / their own constant.)
  bool SameClass(Term a, Term b) const;

  /// True iff asserting a = b would succeed (non-mutating check).
  bool CanEqual(Term a, Term b);

  /// The class representative of each of `vars` (sorted, deduplicated), in
  /// one pass: the class constant if the class is bound, else the least
  /// variable of `vars` in the class; a variable the environment never saw
  /// is its own. reps[i] belongs to vars[i]. This is how the equalities of
  /// a condition are incorporated into a table (the paper's normalization
  /// of e- and g-tables) and how the interner canonicalizes.
  void Representatives(const std::vector<VarId>& vars,
                       std::vector<Term>& reps);

  /// True iff the asserted atoms imply `atom` over the infinite domain: an
  /// equality within one class, or a disequality between classes bound to
  /// distinct constants or separated by a recorded disequality.
  bool Entails(const CondAtom& atom) const;

  /// Number of asserted (non-redundant) disequality edges.
  size_t NumDisequalities() const { return diseqs_.size(); }

 private:
  struct TrailEntry {
    enum Kind : uint8_t { kNodeAdded, kUnion, kDiseqAdded } kind;
    int a = 0;              // kUnion: child root;  kNodeAdded: node id
    int b = 0;              // kUnion: parent root
    int old_rank = 0;       // kUnion: parent's rank before merge
    int64_t old_const = 0;  // kUnion: parent's class constant before merge
  };

  static constexpr int64_t kNoConst = INT64_MIN;

  int NodeOf(Term t);                 // interns t, may push kNodeAdded
  std::optional<int> FindNode(Term t) const;
  int Root(int node) const;
  bool ViolatesDiseq(int root_a, int root_b) const;

  static uint64_t TermHash(Term t) {
    return HashCombine(t.is_variable() ? 1 : 0, static_cast<uint32_t>(t.id()));
  }

  IdTable node_of_;  // keys are term_of_[node]; nodes leave LIFO (Revert)
  std::vector<Term> term_of_;
  std::vector<int> parent_;
  std::vector<int> rank_;
  std::vector<int64_t> const_of_;          // per root; kNoConst if unbound
  std::vector<std::pair<int, int>> diseqs_;  // node pairs
  std::vector<TrailEntry> trail_;
  // Representatives' scratch: per root, the index in `vars` of the least
  // variable seen in its class, or -1.
  std::vector<int> least_of_root_;
};

}  // namespace pw

#endif  // PW_CONDITION_BINDING_ENV_H_
