#include "datalog/analysis.h"

#include <algorithm>
#include <queue>
#include <set>
#include <utility>

namespace pw {

namespace {

std::string PredName(int pred) { return "P" + std::to_string(pred); }

}  // namespace

std::string Diagnostic::ToString() const {
  std::string out = "error: ";
  if (rule >= 0) out += "rule " + std::to_string(rule) + ": ";
  if (atom >= 0) out += "body atom " + std::to_string(atom) + ": ";
  out += message;
  return out;
}

ProgramAnalysis::ProgramAnalysis(const DatalogProgram& program) {
  CheckRules(program);
  BuildSccs(program);
  MarkDeadRules(program);
}

std::string ProgramAnalysis::ErrorString() const {
  std::string out;
  for (const Diagnostic& d : diagnostics_) {
    if (!out.empty()) out += "\n";
    out += d.ToString();
  }
  return out;
}

// Emits every error (not first-wins). The rules with an error are exactly
// those DatalogProgram::Fits rejects; only the others enter the graph.
void ProgramAnalysis::CheckRules(const DatalogProgram& program) {
  const auto& rules = program.rules();
  rule_fits_.assign(rules.size(), false);

  for (size_t r = 0; r < rules.size(); ++r) {
    const DatalogRule& rule = rules[r];
    auto error = [&](int atom, std::string message) {
      diagnostics_.push_back(
          Diagnostic{static_cast<int>(r), atom, std::move(message)});
    };
    // False iff the atom names no predicate of the program.
    auto check_atom = [&](const DatalogAtom& a, int atom_pos,
                          const char* where) {
      if (!program.HasPredicate(a.predicate)) {
        error(atom_pos, std::string(where) + ": unknown predicate " +
                            std::to_string(a.predicate));
        return false;
      }
      if (static_cast<int>(a.args.size()) != program.arity(a.predicate)) {
        error(atom_pos, std::string(where) + ": arity mismatch on " +
                            PredName(a.predicate) + " (got " +
                            std::to_string(a.args.size()) + ", declared " +
                            std::to_string(program.arity(a.predicate)) + ")");
      }
      return true;
    };

    if (check_atom(rule.head, -1, "head") &&
        !program.IsIdb(rule.head.predicate)) {
      error(-1, "head predicate " + PredName(rule.head.predicate) +
                    " is extensional");
    }
    std::set<VarId> body_vars;
    for (size_t i = 0; i < rule.body.size(); ++i) {
      check_atom(rule.body[i], static_cast<int>(i), "body");
      for (const Term& t : rule.body[i].args) {
        if (t.is_variable()) body_vars.insert(t.variable());
      }
    }
    for (const Term& t : rule.head.args) {
      if (t.is_variable() && body_vars.count(t.variable()) == 0) {
        error(-1, "not range-restricted: head variable ?" +
                      std::to_string(t.variable()) +
                      " does not occur in the body");
      }
    }
    rule_fits_[r] = program.Fits(rule);
  }
}

// Builds the deduplicated body -> head edges of the rules that fit, then
// runs Tarjan's SCC algorithm (iterative) over them and a deterministic Kahn
// renumbering of the condensation so SCC ids are a topological order:
// smallest-member-first among ready components, which puts extensional
// predicates early.
void ProgramAnalysis::BuildSccs(const DatalogProgram& program) {
  const size_t n = program.num_predicates();
  // Per predicate: the heads of the fitting rules whose body reads it,
  // ascending, unique.
  std::vector<std::vector<int>> heads_of(n);
  for (size_t r = 0; r < program.rules().size(); ++r) {
    if (!rule_fits_[r]) continue;
    const DatalogRule& rule = program.rules()[r];
    for (const DatalogAtom& a : rule.body) {
      heads_of[static_cast<size_t>(a.predicate)].push_back(
          rule.head.predicate);
    }
  }
  for (auto& heads : heads_of) {
    std::sort(heads.begin(), heads.end());
    heads.erase(std::unique(heads.begin(), heads.end()), heads.end());
  }

  std::vector<int> index(n, -1);
  std::vector<int> low(n, 0);
  std::vector<int> comp(n, -1);
  std::vector<bool> on_stack(n, false);
  std::vector<int> stack;
  int next_index = 0;
  int num_comps = 0;

  struct Frame {
    int vertex;
    size_t edge;
  };
  std::vector<Frame> frames;
  for (size_t start = 0; start < n; ++start) {
    if (index[start] != -1) continue;
    frames.push_back(Frame{static_cast<int>(start), 0});
    while (!frames.empty()) {
      Frame& f = frames.back();
      const int v = f.vertex;
      if (f.edge == 0) {
        index[v] = low[v] = next_index++;
        stack.push_back(v);
        on_stack[v] = true;
      }
      bool descended = false;
      const auto& edges = heads_of[static_cast<size_t>(v)];
      while (f.edge < edges.size()) {
        const int w = edges[f.edge++];
        if (index[w] == -1) {
          frames.push_back(Frame{w, 0});
          descended = true;
          break;
        }
        if (on_stack[w]) low[v] = std::min(low[v], index[w]);
      }
      if (descended) continue;
      if (low[v] == index[v]) {
        while (true) {
          const int w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          comp[w] = num_comps;
          if (w == v) break;
        }
        ++num_comps;
      }
      frames.pop_back();
      if (!frames.empty()) {
        Frame& parent = frames.back();
        low[parent.vertex] = std::min(low[parent.vertex], low[v]);
      }
    }
  }

  // Condensation + Kahn. Ready components are processed smallest member
  // first so the numbering is deterministic and EDB-heavy SCCs come early.
  std::vector<int> min_member(static_cast<size_t>(num_comps),
                              static_cast<int>(n));
  for (size_t p = 0; p < n; ++p) {
    auto& m = min_member[static_cast<size_t>(comp[p])];
    m = std::min(m, static_cast<int>(p));
  }
  std::vector<std::vector<int>> cond_out(static_cast<size_t>(num_comps));
  std::vector<int> indegree(static_cast<size_t>(num_comps), 0);
  for (size_t p = 0; p < n; ++p) {
    for (int h : heads_of[p]) {
      const int from = comp[p];
      const int to = comp[h];
      if (from != to) cond_out[static_cast<size_t>(from)].push_back(to);
    }
  }
  for (auto& edges : cond_out) {
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    for (int to : edges) ++indegree[static_cast<size_t>(to)];
  }
  auto by_min_member = [&](int a, int b) {
    return min_member[static_cast<size_t>(a)] >
           min_member[static_cast<size_t>(b)];
  };
  std::priority_queue<int, std::vector<int>, decltype(by_min_member)> ready(
      by_min_member);
  for (int c = 0; c < num_comps; ++c) {
    if (indegree[static_cast<size_t>(c)] == 0) ready.push(c);
  }
  std::vector<int> topo_id(static_cast<size_t>(num_comps), -1);
  int next_id = 0;
  while (!ready.empty()) {
    const int c = ready.top();
    ready.pop();
    topo_id[static_cast<size_t>(c)] = next_id++;
    for (int to : cond_out[static_cast<size_t>(c)]) {
      if (--indegree[static_cast<size_t>(to)] == 0) ready.push(to);
    }
  }

  // An SCC is recursive when it has more than one member or its one member
  // reads itself.
  scc_of_.assign(n, 0);
  scc_recursive_.assign(static_cast<size_t>(num_comps), false);
  scc_rules_.assign(static_cast<size_t>(num_comps), {});
  std::vector<int> members(static_cast<size_t>(num_comps), 0);
  for (size_t p = 0; p < n; ++p) {
    scc_of_[p] = topo_id[static_cast<size_t>(comp[p])];
    ++members[static_cast<size_t>(scc_of_[p])];
  }
  for (size_t p = 0; p < n; ++p) {
    const auto scc = static_cast<size_t>(scc_of_[p]);
    if (members[scc] > 1 ||
        std::binary_search(heads_of[p].begin(), heads_of[p].end(),
                           static_cast<int>(p))) {
      scc_recursive_[scc] = true;
    }
  }
  for (size_t r = 0; r < program.rules().size(); ++r) {
    if (!rule_fits_[r]) continue;
    const int head = program.rules()[r].head.predicate;
    scc_rules_[static_cast<size_t>(scc_of_[static_cast<size_t>(head)])]
        .push_back(r);
  }
}

// Least fixpoint of derivability: extensional predicates are given; an
// intensional predicate is derivable once some fitting rule with an
// all-derivable body (vacuously, an empty body) has it as head. A rule is
// dead when it does not fit, mentions an underivable body predicate, or
// duplicates an earlier rule.
void ProgramAnalysis::MarkDeadRules(const DatalogProgram& program) {
  const auto& rules = program.rules();
  std::vector<bool> derivable(program.num_predicates(), false);
  std::fill_n(derivable.begin(), program.num_edb(), true);
  auto body_derivable = [&derivable](const DatalogRule& rule) {
    return std::all_of(rule.body.begin(), rule.body.end(),
                       [&derivable](const DatalogAtom& a) {
                         return derivable[static_cast<size_t>(a.predicate)];
                       });
  };
  for (bool changed = true; changed;) {
    changed = false;
    for (size_t r = 0; r < rules.size(); ++r) {
      const auto head = static_cast<size_t>(rules[r].head.predicate);
      if (rule_fits_[r] && !derivable[head] && body_derivable(rules[r])) {
        derivable[head] = true;
        changed = true;
      }
    }
  }

  rule_dead_.assign(rules.size(), false);
  for (size_t r = 0; r < rules.size(); ++r) {
    const auto earlier = rules.begin() + static_cast<std::ptrdiff_t>(r);
    rule_dead_[r] = !rule_fits_[r] || !body_derivable(rules[r]) ||
                    std::find(rules.begin(), earlier, rules[r]) != earlier;
  }
}

}  // namespace pw
