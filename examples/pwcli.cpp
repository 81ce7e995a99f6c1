// pwcli: a tiny command-line front end over the library, using the text
// format of tables/text_format.h.
//
// Usage:
//   pwcli <file> worlds
//   pwcli <file> poss <rel-index> <value>...
//   pwcli <file> cert <rel-index> <value>...
//   pwcli <file> minimize
//   pwcli <file> answers
//
// Values are numeric constants or identifiers (interned). With no
// arguments, runs a self-demo on a built-in database.

#include <cctype>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "decision/answer_sets.h"
#include "decision/certainty.h"
#include "decision/possibility.h"
#include "tables/ctable.h"
#include "tables/text_format.h"
#include "tables/world_enum.h"

using namespace pw;

namespace {

constexpr char kDemo[] =
    "# demo: one known fact, one null with an exclusion\n"
    "table arity 2\n"
    "global ?x != red\n"
    "row door red\n"
    "row window ?x\n";

int Fail(const std::string& message) {
  std::fprintf(stderr, "pwcli: %s\n", message.c_str());
  return 1;
}

/// A numeric value must be a number that fits a constant (the text
/// format's own rule); anything else that starts like a number is an error.
std::optional<ConstId> ParseValue(const std::string& token, SymbolTable& sym) {
  if (!token.empty() &&
      (std::isdigit(static_cast<unsigned char>(token[0])) ||
       token[0] == '-')) {
    return ParseNumericConstant(token);
  }
  return sym.Intern(token);
}

void PrintWorlds(const CDatabase& db, const SymbolTable& sym) {
  auto worlds = EnumerateWorlds(db);
  std::printf("%zu distinct worlds (up to renaming of fresh constants):\n",
              worlds.size());
  for (size_t i = 0; i < worlds.size(); ++i) {
    std::printf("-- world %zu --\n%s", i + 1,
                worlds[i].ToString(&sym).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  SymbolTable sym;
  std::string text;
  std::vector<std::string> args;
  if (argc < 2) {
    std::printf("(no input; running the built-in demo)\n\n%s\n", kDemo);
    text = kDemo;
    args = {"worlds"};
  } else {
    std::ifstream in(argv[1]);
    if (!in) return Fail(std::string("cannot open ") + argv[1]);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
    for (int i = 2; i < argc; ++i) args.emplace_back(argv[i]);
    if (args.empty()) args = {"worlds"};
  }

  auto parsed = ParseCDatabase(text, &sym);
  if (!parsed.ok()) return Fail("parse error: " + parsed.error);
  CDatabase db = *parsed.database;
  std::printf("parsed %zu table(s); database kind: %s\n\n", db.num_tables(),
              ToString(db.Kind()).c_str());

  const std::string& command = args[0];
  if (command == "worlds") {
    PrintWorlds(db, sym);
    return 0;
  }
  if (command == "minimize") {
    for (size_t i = 0; i < db.num_tables(); ++i) {
      std::printf("%s",
                  FormatCTable(db.table(i).Minimized(), &sym).c_str());
    }
    return 0;
  }
  if (command == "answers") {
    Instance possible = PossibleAnswers(View::Identity(), db);
    Instance certain = CertainAnswers(View::Identity(), db);
    std::printf("possible (ground, over the input domain):\n%s",
                possible.ToString(&sym).c_str());
    std::printf("certain:\n%s", certain.ToString(&sym).c_str());
    return 0;
  }
  if (command == "poss" || command == "cert") {
    if (args.size() < 3) return Fail("usage: " + command + " <rel> <v>...");
    std::optional<ConstId> rel_id = ParseNumericConstant(args[1]);
    if (!rel_id.has_value() || *rel_id < 0 ||
        static_cast<size_t>(*rel_id) >= db.num_tables()) {
      return Fail("bad relation index '" + args[1] + "'");
    }
    const size_t rel = static_cast<size_t>(*rel_id);
    Fact fact;
    for (size_t i = 2; i < args.size(); ++i) {
      std::optional<ConstId> value = ParseValue(args[i], sym);
      if (!value.has_value()) {
        return Fail("bad value '" + args[i] +
                    "': not a number that fits a constant");
      }
      fact.push_back(*value);
    }
    if (static_cast<int>(fact.size()) != db.table(rel).arity()) {
      return Fail("R" + args[1] + " has arity " +
                  std::to_string(db.table(rel).arity()));
    }
    std::vector<LocatedFact> pattern = {{rel, fact}};
    bool answer = command == "poss"
                      ? Possibility(View::Identity(), db, pattern)
                      : Certainty(View::Identity(), db, pattern);
    std::printf("%s %s in R%zu: %s\n", command.c_str(),
                ToString(fact, &sym).c_str(), rel, answer ? "yes" : "no");
    return 0;
  }
  return Fail("unknown command '" + command + "'");
}
