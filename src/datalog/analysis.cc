#include "datalog/analysis.h"

#include <algorithm>
#include <map>
#include <queue>
#include <set>
#include <utility>

namespace pw {

namespace {

std::string PredName(int pred) { return "P" + std::to_string(pred); }

}  // namespace

std::string Diagnostic::ToString() const {
  std::string out =
      severity == DiagnosticSeverity::kError ? "error: " : "warning: ";
  if (rule >= 0) out += "rule " + std::to_string(rule) + ": ";
  if (atom >= 0) out += "body atom " + std::to_string(atom) + ": ";
  out += message;
  return out;
}

ProgramAnalysis::ProgramAnalysis(const DatalogProgram& program)
    : program_(&program) {
  CheckRules();
  BuildSccs();
  ClassifyRules();
  ComputeDerivable();
  ComputeCones();
  WarnStructure();
}

std::string ProgramAnalysis::ErrorString() const {
  std::string out;
  for (const Diagnostic& d : diagnostics_) {
    if (d.severity != DiagnosticSeverity::kError) continue;
    if (!out.empty()) out += "\n";
    out += d.ToString();
  }
  return out;
}

// Emits every error (not first-wins), flags which rules fit the program
// (DatalogProgram::Fits; only those enter the graph structures), and detects
// textual duplicates of earlier rules.
void ProgramAnalysis::CheckRules() {
  const auto& rules = program_->rules();
  const int num_preds = static_cast<int>(program_->num_predicates());
  rule_in_graph_.assign(rules.size(), true);
  rule_duplicate_.assign(rules.size(), false);

  auto error = [this](size_t r, int atom, std::string message) {
    diagnostics_.push_back(Diagnostic{DiagnosticSeverity::kError,
                                      static_cast<int>(r), atom,
                                      std::move(message)});
    ++num_errors_;
  };

  for (size_t r = 0; r < rules.size(); ++r) {
    const DatalogRule& rule = rules[r];
    auto check_atom = [&](const DatalogAtom& a, int atom_pos,
                          const char* where) {
      if (a.predicate < 0 || a.predicate >= num_preds) {
        error(r, atom_pos, std::string(where) + ": unknown predicate " +
                               std::to_string(a.predicate));
        return;
      }
      if (static_cast<int>(a.args.size()) != program_->arity(a.predicate)) {
        error(r, atom_pos, std::string(where) + ": arity mismatch on " +
                               PredName(a.predicate) + " (got " +
                               std::to_string(a.args.size()) + ", declared " +
                               std::to_string(program_->arity(a.predicate)) +
                               ")");
      }
    };

    check_atom(rule.head, -1, "head");
    if (rule.head.predicate >= 0 && rule.head.predicate < num_preds &&
        !program_->IsIdb(rule.head.predicate)) {
      error(r, -1,
            "head predicate " + PredName(rule.head.predicate) +
                " is extensional");
    }
    rule_in_graph_[r] = program_->Fits(rule);
    std::set<VarId> body_vars;
    for (size_t i = 0; i < rule.body.size(); ++i) {
      check_atom(rule.body[i], static_cast<int>(i), "body");
      for (const Term& t : rule.body[i].args) {
        if (t.is_variable()) body_vars.insert(t.variable());
      }
    }
    for (const Term& t : rule.head.args) {
      if (t.is_variable() && body_vars.count(t.variable()) == 0) {
        error(r, -1,
              "not range-restricted: head variable ?" +
                  std::to_string(t.variable()) + " does not occur in the body");
      }
    }

    for (size_t earlier = 0; earlier < r; ++earlier) {
      if (rules[earlier] == rule) {
        rule_duplicate_[r] = true;
        break;
      }
    }
  }
}

// Tarjan's SCC algorithm (iterative) over the predicate dependency graph
// (edges body -> head), then a deterministic Kahn renumbering of the
// condensation so SCC ids are a topological order: smallest-member-first
// among ready components, which puts extensional predicates early.
void ProgramAnalysis::BuildSccs() {
  const size_t n = program_->num_predicates();
  std::vector<std::vector<int>> out(n);
  for (size_t r = 0; r < program_->rules().size(); ++r) {
    if (!rule_in_graph_[r]) continue;
    const DatalogRule& rule = program_->rules()[r];
    for (const DatalogAtom& a : rule.body) {
      out[static_cast<size_t>(a.predicate)].push_back(rule.head.predicate);
    }
  }
  for (auto& edges : out) {
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
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
      auto& edges = out[static_cast<size_t>(v)];
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
    for (int h : out[p]) {
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

  scc_of_.assign(n, 0);
  scc_members_.assign(static_cast<size_t>(num_comps), {});
  scc_recursive_.assign(static_cast<size_t>(num_comps), false);
  scc_rules_.assign(static_cast<size_t>(num_comps), {});
  for (size_t p = 0; p < n; ++p) {
    const int scc = topo_id[static_cast<size_t>(comp[p])];
    scc_of_[p] = scc;
    scc_members_[static_cast<size_t>(scc)].push_back(static_cast<int>(p));
  }
  for (int scc = 0; scc < num_comps; ++scc) {
    auto& members = scc_members_[static_cast<size_t>(scc)];
    if (members.size() > 1) {
      scc_recursive_[static_cast<size_t>(scc)] = true;
      continue;
    }
    const int p = members[0];
    const auto& edges = out[static_cast<size_t>(p)];
    scc_recursive_[static_cast<size_t>(scc)] =
        std::binary_search(edges.begin(), edges.end(), p);
  }
  for (size_t r = 0; r < program_->rules().size(); ++r) {
    if (!rule_in_graph_[r]) continue;
    const int head = program_->rules()[r].head.predicate;
    scc_rules_[static_cast<size_t>(scc_of_[static_cast<size_t>(head)])]
        .push_back(r);
  }
}

void ProgramAnalysis::ClassifyRules() {
  const auto& rules = program_->rules();
  rule_recursive_.assign(rules.size(), false);
  rule_connectivity_.assign(rules.size(), RuleConnectivity{});

  for (size_t r = 0; r < rules.size(); ++r) {
    const DatalogRule& rule = rules[r];
    if (rule_in_graph_[r]) {
      const int head_scc = scc_of_[static_cast<size_t>(rule.head.predicate)];
      for (const DatalogAtom& a : rule.body) {
        if (scc_of_[static_cast<size_t>(a.predicate)] == head_scc) {
          rule_recursive_[r] = true;
          break;
        }
      }
    }

    // Union-find over body atoms: atoms sharing a variable join components.
    RuleConnectivity& conn = rule_connectivity_[r];
    const size_t k = rule.body.size();
    std::vector<int> parent(k);
    for (size_t i = 0; i < k; ++i) parent[i] = static_cast<int>(i);
    auto find = [&](int x) {
      while (parent[static_cast<size_t>(x)] != x) {
        parent[static_cast<size_t>(x)] =
            parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
        x = parent[static_cast<size_t>(x)];
      }
      return x;
    };
    std::map<VarId, int> first_atom_with_var;
    for (size_t i = 0; i < k; ++i) {
      for (const Term& t : rule.body[i].args) {
        if (!t.is_variable()) continue;
        auto [it, inserted] =
            first_atom_with_var.emplace(t.variable(), static_cast<int>(i));
        if (!inserted) {
          parent[static_cast<size_t>(find(static_cast<int>(i)))] =
              find(it->second);
        }
      }
    }
    conn.component.assign(k, -1);
    std::vector<int> dense(k, -1);
    for (size_t i = 0; i < k; ++i) {
      const int root = find(static_cast<int>(i));
      if (dense[static_cast<size_t>(root)] == -1) {
        dense[static_cast<size_t>(root)] = conn.num_components++;
      }
      conn.component[i] = dense[static_cast<size_t>(root)];
    }
  }
}

// Least fixpoint of derivability: extensional predicates are given; an
// intensional predicate is derivable once some rule with an all-derivable
// body (vacuously, an empty body) has it as head. A rule is dead when it
// duplicates an earlier rule, mentions an underivable body predicate, or is
// excluded from the graph (it does not fit the program).
void ProgramAnalysis::ComputeDerivable() {
  const auto& rules = program_->rules();
  derivable_.assign(program_->num_predicates(), false);
  for (size_t p = 0; p < program_->num_edb(); ++p) derivable_[p] = true;

  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t r = 0; r < rules.size(); ++r) {
      if (!rule_in_graph_[r]) continue;
      const DatalogRule& rule = rules[r];
      if (derivable_[static_cast<size_t>(rule.head.predicate)]) continue;
      bool all = true;
      for (const DatalogAtom& a : rule.body) {
        if (!derivable_[static_cast<size_t>(a.predicate)]) {
          all = false;
          break;
        }
      }
      if (all) {
        derivable_[static_cast<size_t>(rule.head.predicate)] = true;
        changed = true;
      }
    }
  }

  rule_dead_.assign(rules.size(), false);
  for (size_t r = 0; r < rules.size(); ++r) {
    if (!rule_in_graph_[r] || rule_duplicate_[r]) {
      rule_dead_[r] = true;
      continue;
    }
    for (const DatalogAtom& a : rules[r].body) {
      if (!derivable_[static_cast<size_t>(a.predicate)]) {
        rule_dead_[r] = true;
        break;
      }
    }
  }
}

// Cone(p) = {q : q reachable from p over body -> head edges} ∪ {p}, one
// bitmap per predicate. Computed by BFS over the deduped edge lists; the
// graph is small (predicate count, not rule count), so all-pairs is cheap
// and lets consumers share a const reference instead of recomputing.
void ProgramAnalysis::ComputeCones() {
  const size_t n = program_->num_predicates();
  std::vector<std::vector<int>> out(n);
  for (size_t r = 0; r < program_->rules().size(); ++r) {
    if (!rule_in_graph_[r]) continue;
    const DatalogRule& rule = program_->rules()[r];
    for (const DatalogAtom& a : rule.body) {
      out[static_cast<size_t>(a.predicate)].push_back(rule.head.predicate);
    }
  }
  for (auto& edges : out) {
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  }

  cones_.assign(n, {});
  std::vector<int> worklist;
  for (size_t p = 0; p < n; ++p) {
    std::vector<bool>& cone = cones_[p];
    cone.assign(n, false);
    cone[p] = true;
    worklist.assign(1, static_cast<int>(p));
    while (!worklist.empty()) {
      const int v = worklist.back();
      worklist.pop_back();
      for (int h : out[static_cast<size_t>(v)]) {
        if (!cone[static_cast<size_t>(h)]) {
          cone[static_cast<size_t>(h)] = true;
          worklist.push_back(h);
        }
      }
    }
  }
}

void ProgramAnalysis::WarnStructure() {
  const auto& rules = program_->rules();
  const size_t n = program_->num_predicates();

  auto warn = [this](int rule, int atom, std::string message) {
    diagnostics_.push_back(Diagnostic{DiagnosticSeverity::kWarning, rule, atom,
                                      std::move(message)});
  };

  for (size_t r = 0; r < rules.size(); ++r) {
    if (rule_duplicate_[r]) {
      warn(static_cast<int>(r), -1, "duplicate of an earlier rule");
      continue;
    }
    if (!rule_in_graph_[r]) continue;
    if (rule_dead_[r]) {
      int culprit = -1;
      for (size_t i = 0; i < rules[r].body.size(); ++i) {
        if (!derivable_[static_cast<size_t>(rules[r].body[i].predicate)]) {
          culprit = static_cast<int>(i);
          break;
        }
      }
      warn(static_cast<int>(r), culprit,
           "dead rule: body predicate " +
               PredName(culprit >= 0
                            ? rules[r].body[static_cast<size_t>(culprit)]
                                  .predicate
                            : -1) +
               " is underivable");
    }
    if (rule_connectivity_[r].num_components > 1) {
      warn(static_cast<int>(r), -1,
           "cartesian product: body has " +
               std::to_string(rule_connectivity_[r].num_components) +
               " unconnected variable components");
    }
  }

  std::vector<bool> in_head(n, false);
  std::vector<bool> in_body(n, false);
  for (size_t r = 0; r < rules.size(); ++r) {
    if (!rule_in_graph_[r]) continue;
    in_head[static_cast<size_t>(rules[r].head.predicate)] = true;
    for (const DatalogAtom& a : rules[r].body) {
      in_body[static_cast<size_t>(a.predicate)] = true;
    }
  }
  for (size_t p = 0; p < n; ++p) {
    if (!program_->IsIdb(static_cast<int>(p))) continue;
    if ((in_head[p] || in_body[p]) && !derivable_[p]) {
      warn(-1, -1,
           "predicate " + PredName(static_cast<int>(p)) +
               " is unreachable from the extensional database");
    }
    if (in_head[p] && !in_body[p]) {
      warn(-1, -1,
           "head-only predicate " + PredName(static_cast<int>(p)) +
               " is derived but never read");
    }
  }
}

}  // namespace pw
