#include "datalog/eval.h"

#include <functional>
#include <unordered_map>

namespace pw {

namespace {

/// Extends `binding` so that `args` matches `fact`; returns false on clash.
/// Appends newly bound variables to `trail` for undo.
bool Match(const Tuple& args, const Fact& fact,
           std::unordered_map<VarId, ConstId>& binding,
           std::vector<VarId>& trail) {
  for (size_t i = 0; i < args.size(); ++i) {
    const Term& t = args[i];
    if (t.is_constant()) {
      if (t.constant() != fact[i]) return false;
    } else {
      auto [it, inserted] = binding.emplace(t.variable(), fact[i]);
      if (inserted) {
        trail.push_back(t.variable());
      } else if (it->second != fact[i]) {
        return false;
      }
    }
  }
  return true;
}

void Undo(std::unordered_map<VarId, ConstId>& binding,
          std::vector<VarId>& trail, size_t mark) {
  while (trail.size() > mark) {
    binding.erase(trail.back());
    trail.pop_back();
  }
}

/// Joins the rule body left to right; emits head instantiations into `out`.
/// If `delta_pos >= 0`, body atom `delta_pos` ranges over `delta` instead of
/// the full relation (semi-naive restriction). Returns true if a new fact
/// was inserted.
bool FireRule(const DatalogRule& rule, const Instance& db,
              const Relation* delta, int delta_pos, Relation& out) {
  std::unordered_map<VarId, ConstId> binding;
  std::vector<VarId> trail;
  bool inserted = false;

  std::function<void(size_t)> go = [&](size_t pos) {
    if (pos == rule.body.size()) {
      Fact head;
      head.reserve(rule.head.args.size());
      for (const Term& t : rule.head.args) {
        head.push_back(t.is_constant() ? t.constant()
                                       : binding.at(t.variable()));
      }
      inserted |= out.Insert(head);
      return;
    }
    const DatalogAtom& atom = rule.body[pos];
    const Relation& rel = (static_cast<int>(pos) == delta_pos)
                              ? *delta
                              : db.relation(atom.predicate);
    for (const Fact& fact : rel) {
      size_t mark = trail.size();
      if (Match(atom.args, fact, binding, trail)) go(pos + 1);
      Undo(binding, trail, mark);
    }
  };
  go(0);
  return inserted;
}

/// The program's predicates over `edb`. An extensional relation that `edb`
/// lacks, or has with another arity, reads as empty.
Instance InitialDatabase(const DatalogProgram& program, const Instance& edb) {
  std::vector<Relation> rels;
  rels.reserve(program.num_predicates());
  for (size_t p = 0; p < program.num_predicates(); ++p) {
    int arity = program.arity(static_cast<int>(p));
    if (p < program.num_edb() && p < edb.num_relations() &&
        edb.relation(p).arity() == arity) {
      rels.push_back(edb.relation(p));
    } else {
      rels.emplace_back(arity);
    }
  }
  return Instance(std::move(rels));
}

}  // namespace

Instance NaiveEval(const DatalogProgram& program, const Instance& edb) {
  Instance db = InitialDatabase(program, edb);
  bool changed = true;
  while (changed) {
    changed = false;
    for (const DatalogRule& rule : program.rules()) {
      if (!program.Fits(rule)) continue;
      changed |= FireRule(rule, db, /*delta=*/nullptr, /*delta_pos=*/-1,
                          db.mutable_relation(rule.head.predicate));
    }
  }
  return db;
}

Instance SemiNaiveEval(const DatalogProgram& program, const Instance& edb) {
  Instance db = InitialDatabase(program, edb);

  size_t num_preds = program.num_predicates();
  std::vector<Relation> delta;
  delta.reserve(num_preds);
  for (size_t p = 0; p < num_preds; ++p) {
    delta.emplace_back(program.arity(static_cast<int>(p)));
  }

  // Round 0: fire every rule on the EDB to seed the deltas.
  for (const DatalogRule& rule : program.rules()) {
    if (!program.Fits(rule)) continue;
    Relation derived(program.arity(rule.head.predicate));
    FireRule(rule, db, nullptr, -1, derived);
    for (const Fact& f : derived) {
      if (db.mutable_relation(rule.head.predicate).Insert(f)) {
        delta[rule.head.predicate].Insert(f);
      }
    }
  }

  while (true) {
    std::vector<Relation> next_delta;
    next_delta.reserve(num_preds);
    for (size_t p = 0; p < num_preds; ++p) {
      next_delta.emplace_back(program.arity(static_cast<int>(p)));
    }
    bool any = false;
    for (const DatalogRule& rule : program.rules()) {
      if (!program.Fits(rule)) continue;
      for (size_t pos = 0; pos < rule.body.size(); ++pos) {
        int pred = rule.body[pos].predicate;
        if (!program.IsIdb(pred) || delta[pred].empty()) continue;
        Relation derived(program.arity(rule.head.predicate));
        FireRule(rule, db, &delta[pred], static_cast<int>(pos), derived);
        for (const Fact& f : derived) {
          if (db.mutable_relation(rule.head.predicate).Insert(f)) {
            next_delta[rule.head.predicate].Insert(f);
            any = true;
          }
        }
      }
    }
    if (!any) break;
    delta = std::move(next_delta);
  }
  return db;
}

}  // namespace pw
