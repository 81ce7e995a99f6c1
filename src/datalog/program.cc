#include "datalog/program.h"

#include <algorithm>
#include <set>

#include "datalog/analysis.h"

namespace pw {

bool DatalogProgram::Fits(const DatalogRule& rule) const {
  if (!Fits(rule.head.predicate, rule.head.args) ||
      !IsIdb(rule.head.predicate)) {
    return false;
  }
  for (const DatalogAtom& atom : rule.body) {
    if (!Fits(atom.predicate, atom.args)) return false;
  }
  for (const Term& t : rule.head.args) {
    auto binds = [&t](const DatalogAtom& atom) {
      return std::find(atom.args.begin(), atom.args.end(), t) !=
             atom.args.end();
    };
    if (t.is_variable() &&
        std::none_of(rule.body.begin(), rule.body.end(), binds)) {
      return false;
    }
  }
  return true;
}

std::string DatalogProgram::Validate() const {
  return ProgramAnalysis(*this).ErrorString();
}

std::vector<ConstId> DatalogProgram::Constants() const {
  std::set<ConstId> out;
  auto collect = [&out](const DatalogAtom& atom) {
    for (const Term& t : atom.args) {
      if (t.is_constant()) out.insert(t.constant());
    }
  };
  for (const DatalogRule& rule : rules_) {
    collect(rule.head);
    for (const DatalogAtom& atom : rule.body) collect(atom);
  }
  return {out.begin(), out.end()};
}

std::string DatalogProgram::ToString() const {
  auto atom_str = [](const DatalogAtom& a) {
    return "P" + std::to_string(a.predicate) + pw::ToString(a.args);
  };
  std::string out;
  for (const DatalogRule& rule : rules_) {
    out += atom_str(rule.head) + " :- ";
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (i > 0) out += ", ";
      out += atom_str(rule.body[i]);
    }
    out += ".\n";
  }
  return out;
}

}  // namespace pw
