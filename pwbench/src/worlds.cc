#include "worlds.h"

#include <algorithm>

namespace pwbench {

namespace {

std::string TermText(const pw::Term& t) {
  return t.is_variable() ? "?x" + std::to_string(t.variable())
                         : std::to_string(t.constant());
}

}  // namespace

struct EdgeModel::World {
  std::vector<int> value;              // per null
  std::vector<uint8_t> edge;           // Domain()^2 edge bitmap
  std::vector<std::vector<int>> succ;  // adjacency lists
  std::vector<uint8_t> seen;           // BFS scratch

  int Value(const pw::Term& t) const {
    if (t.is_constant()) return t.constant();
    size_t v = static_cast<size_t>(t.variable());
    return v < value.size() ? value[v] : -1;
  }
  bool Holds(const pw::Conjunction& c) const {
    for (const pw::CondAtom& atom : c.atoms()) {
      int l = Value(atom.lhs), r = Value(atom.rhs);
      if (l < 0 || r < 0 || (l == r) != atom.is_equality) return false;
    }
    return true;
  }
  /// Nodes reachable from `from` in one or more steps, into `seen`.
  void Reach(int from) {
    std::fill(seen.begin(), seen.end(), 0);
    std::vector<int> frontier = succ[static_cast<size_t>(from)];
    for (int v : frontier) seen[static_cast<size_t>(v)] = 1;
    while (!frontier.empty()) {
      int u = frontier.back();
      frontier.pop_back();
      for (int v : succ[static_cast<size_t>(u)]) {
        if (!seen[static_cast<size_t>(v)]) {
          seen[static_cast<size_t>(v)] = 1;
          frontier.push_back(v);
        }
      }
    }
  }
};

std::string EdgeModel::Text() const {
  std::string text = "table arity 2\n";
  if (!global_.empty()) {
    text += "global";
    for (size_t i = 0; i < global_.size(); ++i) {
      text += (i == 0 ? " ?x" : " & ?x") + std::to_string(global_[i].first) +
              " != " + std::to_string(global_[i].second);
    }
    text += "\n";
  }
  for (const Row& row : rows_) {
    text += "row " + TermText(row.from) + " " + TermText(row.to);
    for (size_t i = 0; i < row.guards.size(); ++i) {
      text += (i == 0 ? " : ?x" : " & ?x") +
              std::to_string(row.guards[i].first) +
              " != " + std::to_string(row.guards[i].second);
    }
    text += "\n";
  }
  return text;
}

template <typename Fn>
bool EdgeModel::ForEachWorld(int stride, int phase, Fn&& fn) const {
  const int d = Domain();
  World w;
  w.value.assign(static_cast<size_t>(nulls_), 0);
  w.edge.assign(static_cast<size_t>(d * d), 0);
  w.succ.assign(static_cast<size_t>(d), {});
  w.seen.assign(static_cast<size_t>(d), 0);
  std::vector<std::pair<int, int>> inserted;
  for (int a = 0; a < d; ++a) {
    for (int b = 0; b < d; ++b) {
      if (override_[static_cast<size_t>(a * d + b)] == 1) {
        inserted.emplace_back(a, b);
      }
    }
  }
  // Null i ranges over the constants plus fresh constants n_ .. n_ + i.
  long index = 0;
  std::vector<int> limit(static_cast<size_t>(nulls_));
  for (int i = 0; i < nulls_; ++i) limit[static_cast<size_t>(i)] = n_ + i + 1;
  while (true) {
    bool admitted = true;
    for (const auto& [var, c] : global_) {
      if (w.value[static_cast<size_t>(var)] == c) admitted = false;
    }
    if (admitted && index++ % stride == phase) {
      for (auto& s : w.succ) s.clear();
      std::fill(w.edge.begin(), w.edge.end(), 0);
      auto add = [&](int a, int b) {
        uint8_t& e = w.edge[static_cast<size_t>(a * d + b)];
        if (!e) {
          e = 1;
          w.succ[static_cast<size_t>(a)].push_back(b);
        }
      };
      for (const Row& row : rows_) {
        bool holds = true;
        for (const auto& [var, c] : row.guards) {
          if (w.value[static_cast<size_t>(var)] == c) holds = false;
        }
        if (!holds) continue;
        int a = w.Value(row.from), b = w.Value(row.to);
        if (override_[static_cast<size_t>(a * d + b)] != -1) add(a, b);
      }
      for (const auto& [a, b] : inserted) add(a, b);
      if (!fn(w)) return false;
    }
    // Next valuation (odometer over the nulls).
    int i = 0;
    while (i < nulls_ && ++w.value[static_cast<size_t>(i)] ==
                             limit[static_cast<size_t>(i)]) {
      w.value[static_cast<size_t>(i)] = 0;
      ++i;
    }
    if (i == nulls_) return true;
  }
}

bool EdgeModel::CheckReachAnswer(int c, const pw::CTable& answer, int target,
                                 int stride, int phase) const {
  std::vector<uint8_t> got(static_cast<size_t>(Domain()));
  return ForEachWorld(stride, phase, [&](World& w) {
    w.Reach(c);
    if (target >= 0) {
      for (size_t v = 0; v < w.seen.size(); ++v) {
        if (static_cast<int>(v) != target) w.seen[v] = 0;
      }
    }
    std::fill(got.begin(), got.end(), 0);
    for (const pw::CRow& row : answer.rows()) {
      if (!w.Holds(row.local())) continue;
      int a = w.Value(row.tuple[0]), b = w.Value(row.tuple[1]);
      if (a != c || b < 0) return false;
      got[static_cast<size_t>(b)] = 1;
    }
    return got == w.seen;
  });
}

bool EdgeModel::CheckEdges(const pw::CTable& table) const {
  const int d = Domain();
  std::vector<uint8_t> got(static_cast<size_t>(d * d));
  return ForEachWorld(1, 0, [&](World& w) {
    std::fill(got.begin(), got.end(), 0);
    for (const pw::CRow& row : table.rows()) {
      if (!w.Holds(row.local())) continue;
      int a = w.Value(row.tuple[0]), b = w.Value(row.tuple[1]);
      if (a < 0 || b < 0) return false;
      got[static_cast<size_t>(a * d + b)] = 1;
    }
    return got == w.edge;
  });
}

bool EdgeModel::CheckClosure(const pw::CTable& closure) const {
  const int d = Domain();
  std::vector<uint8_t> got(static_cast<size_t>(d * d));
  return ForEachWorld(1, 0, [&](World& w) {
    std::fill(got.begin(), got.end(), 0);
    for (const pw::CRow& row : closure.rows()) {
      if (!w.Holds(row.local())) continue;
      int a = w.Value(row.tuple[0]), b = w.Value(row.tuple[1]);
      if (a < 0 || b < 0) return false;
      got[static_cast<size_t>(a * d + b)] = 1;
    }
    for (int a = 0; a < d; ++a) {
      w.Reach(a);
      for (int b = 0; b < d; ++b) {
        if (got[static_cast<size_t>(a * d + b)] !=
            w.seen[static_cast<size_t>(b)]) {
          return false;
        }
      }
    }
    return true;
  });
}

bool EdgeModel::PossiblyAll(const std::vector<pw::Fact>& facts) const {
  const int d = Domain();
  bool found = false;
  ForEachWorld(1, 0, [&](World& w) {
    found = std::all_of(facts.begin(), facts.end(), [&](const pw::Fact& f) {
      return w.edge[static_cast<size_t>(f[0] * d + f[1])] != 0;
    });
    return !found;
  });
  return found;
}

bool EdgeModel::CertainlyAll(const std::vector<pw::Fact>& facts) const {
  const int d = Domain();
  return ForEachWorld(1, 0, [&](World& w) {
    return std::all_of(facts.begin(), facts.end(), [&](const pw::Fact& f) {
      return w.edge[static_cast<size_t>(f[0] * d + f[1])] != 0;
    });
  });
}

}  // namespace pwbench
