#include "tables/text_format.h"

#include <cctype>
#include <charconv>
#include <map>
#include <sstream>
#include <system_error>
#include <vector>

namespace pw {

namespace {

/// Splits text into non-empty lines with comments stripped.
std::vector<std::pair<int, std::string>> Lines(std::string_view text) {
  std::vector<std::pair<int, std::string>> out;
  int line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    ++line_no;
    std::string line(text.substr(pos, end - pos));
    if (size_t hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    // Trim.
    size_t b = line.find_first_not_of(" \t\r");
    size_t e = line.find_last_not_of(" \t\r");
    if (b != std::string::npos) {
      out.emplace_back(line_no, line.substr(b, e - b + 1));
    }
    pos = end + 1;
    if (end == text.size()) break;
  }
  return out;
}

/// Whitespace/symbol tokenizer for one line.
std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < line.size()) {
    char c = line[i];
    if (std::isspace(static_cast<unsigned char>(c)) || c == ',') {
      ++i;
      continue;
    }
    if (c == '!' && i + 1 < line.size() && line[i + 1] == '=') {
      tokens.push_back("!=");
      i += 2;
      continue;
    }
    if (c == '=' || c == '&' || c == ':' || c == '?') {
      tokens.push_back(std::string(1, c));
      ++i;
      continue;
    }
    size_t j = i;
    while (j < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[j])) ||
            line[j] == '_' || line[j] == '-')) {
      ++j;
    }
    if (j == i) {
      tokens.push_back(std::string(1, c));  // unknown char: surface in error
      ++i;
    } else {
      tokens.push_back(line.substr(i, j - i));
      i = j;
    }
  }
  return tokens;
}

/// Per-parse state: variable name interning.
struct ParserState {
  SymbolTable* symbols;
  std::map<std::string, VarId> vars;
  std::string error;
  int line = 0;

  void Fail(const std::string& message) {
    if (error.empty()) {
      error = "line " + std::to_string(line) + ": " + message;
    }
  }

  /// Parses one term starting at tokens[i]; advances i.
  std::optional<Term> ParseTerm(const std::vector<std::string>& tokens,
                                size_t& i) {
    if (i >= tokens.size()) {
      Fail("expected a term");
      return std::nullopt;
    }
    if (tokens[i] == "?") {
      if (i + 1 >= tokens.size()) {
        Fail("expected a variable name after '?'");
        return std::nullopt;
      }
      const std::string& name = tokens[i + 1];
      i += 2;
      auto [it, inserted] =
          vars.emplace(name, static_cast<VarId>(vars.size()));
      return Term::Var(it->second);
    }
    const std::string& tok = tokens[i];
    ++i;
    if (std::isdigit(static_cast<unsigned char>(tok[0])) || tok[0] == '-') {
      std::optional<ConstId> value = ParseNumericConstant(tok);
      if (value.has_value()) return Term::Const(*value);
      Fail("'" + tok + "' is not an integer that fits a 32-bit constant");
      return std::nullopt;
    }
    if (std::isalpha(static_cast<unsigned char>(tok[0])) || tok[0] == '_') {
      if (symbols == nullptr) {
        Fail("named constant '" + tok + "' needs a SymbolTable");
        return std::nullopt;
      }
      return Term::Const(symbols->Intern(tok));
    }
    Fail("unexpected token '" + tok + "'");
    return std::nullopt;
  }

  /// Parses `term (=|!=) term` pairs joined by '&' until end of tokens.
  std::optional<Conjunction> ParseCondition(
      const std::vector<std::string>& tokens, size_t& i) {
    Conjunction out;
    while (i < tokens.size()) {
      auto lhs = ParseTerm(tokens, i);
      if (!lhs) return std::nullopt;
      if (i >= tokens.size() ||
          (tokens[i] != "=" && tokens[i] != "!=")) {
        Fail("expected '=' or '!=' in condition");
        return std::nullopt;
      }
      bool equality = tokens[i] == "=";
      ++i;
      auto rhs = ParseTerm(tokens, i);
      if (!rhs) return std::nullopt;
      out.Add(equality ? Eq(*lhs, *rhs) : Neq(*lhs, *rhs));
      if (i < tokens.size()) {
        if (tokens[i] != "&") {
          Fail("expected '&' between condition atoms");
          return std::nullopt;
        }
        ++i;
      }
    }
    return out;
  }
};

/// Parses the tables of `text` sequentially into `out`; variables shared.
bool ParseTables(std::string_view text, SymbolTable* symbols,
                 std::vector<CTable>& out, std::string& error) {
  ParserState state;
  state.symbols = symbols;
  std::optional<CTable> current;

  auto flush = [&out, &current]() {
    if (current.has_value()) {
      out.push_back(std::move(*current));
      current.reset();
    }
  };

  for (const auto& [line_no, line] : Lines(text)) {
    state.line = line_no;
    std::vector<std::string> tokens = Tokenize(line);
    if (tokens.empty()) continue;
    if (tokens[0] == "table") {
      std::optional<int> arity;  // ConstId's range is an int's
      if (tokens.size() == 3 && tokens[1] == "arity") {
        arity = ParseNumericConstant(tokens[2]);
      }
      if (!arity.has_value() || *arity < 0) {
        state.Fail("expected 'table arity <n>', n a non-negative int");
        break;
      }
      flush();
      current.emplace(*arity);
      continue;
    }
    if (!current.has_value()) {
      state.Fail("expected 'table arity <n>' before '" + tokens[0] + "'");
      break;
    }
    if (tokens[0] == "global") {
      size_t i = 1;
      auto cond = state.ParseCondition(tokens, i);
      if (!cond) break;
      Conjunction merged = current->global();
      merged.AddAll(*cond);
      current->SetGlobal(std::move(merged));
      continue;
    }
    if (tokens[0] == "row") {
      size_t i = 1;
      Tuple tuple;
      while (i < tokens.size() && tokens[i] != ":") {
        auto term = state.ParseTerm(tokens, i);
        if (!term) break;
        tuple.push_back(*term);
      }
      if (!state.error.empty()) break;
      if (static_cast<int>(tuple.size()) != current->arity()) {
        state.Fail("row has " + std::to_string(tuple.size()) +
                   " terms, table arity is " +
                   std::to_string(current->arity()));
        break;
      }
      Conjunction local;
      if (i < tokens.size() && tokens[i] == ":") {
        ++i;
        auto cond = state.ParseCondition(tokens, i);
        if (!cond) break;
        local = std::move(*cond);
      }
      current->AddRow(std::move(tuple), std::move(local));
      continue;
    }
    state.Fail("unknown directive '" + tokens[0] + "'");
    break;
  }
  if (!state.error.empty()) {
    error = state.error;
    return false;
  }
  flush();
  if (out.empty()) {
    error = "no tables found";
    return false;
  }
  return true;
}

std::string FormatTerm(const Term& t, const SymbolTable* symbols) {
  if (t.is_variable()) return "?v" + std::to_string(t.variable());
  if (symbols != nullptr) {
    if (auto name = symbols->Name(t.constant())) return *name;
  }
  return std::to_string(t.constant());
}

std::string FormatCondition(const Conjunction& c,
                            const SymbolTable* symbols) {
  std::string out;
  for (size_t i = 0; i < c.atoms().size(); ++i) {
    if (i > 0) out += " & ";
    const CondAtom& a = c.atoms()[i];
    out += FormatTerm(a.lhs, symbols) + (a.is_equality ? " = " : " != ") +
           FormatTerm(a.rhs, symbols);
  }
  return out;
}

}  // namespace

std::optional<ConstId> ParseNumericConstant(std::string_view token) {
  ConstId value = 0;
  const char* end = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

ParseTableResult ParseCTable(std::string_view text, SymbolTable* symbols) {
  ParseTableResult result;
  std::vector<CTable> tables;
  std::string error;
  if (!ParseTables(text, symbols, tables, error)) {
    result.error = error;
    return result;
  }
  if (tables.size() != 1) {
    result.error = "expected exactly one table, found " +
                   std::to_string(tables.size());
    return result;
  }
  result.table = std::move(tables[0]);
  return result;
}

ParseDatabaseResult ParseCDatabase(std::string_view text,
                                   SymbolTable* symbols) {
  ParseDatabaseResult result;
  std::vector<CTable> tables;
  std::string error;
  if (!ParseTables(text, symbols, tables, error)) {
    result.error = error;
    return result;
  }
  result.database = CDatabase(std::move(tables));
  return result;
}

std::string FormatCTable(const CTable& table, const SymbolTable* symbols) {
  std::ostringstream out;
  out << "table arity " << table.arity() << "\n";
  if (!table.global().IsTautology()) {
    out << "global " << FormatCondition(table.global(), symbols) << "\n";
  }
  for (const CRow& row : table.rows()) {
    out << "row";
    for (const Term& t : row.tuple) out << " " << FormatTerm(t, symbols);
    if (!row.local().IsTautology()) {
      out << " : " << FormatCondition(row.local(), symbols);
    }
    out << "\n";
  }
  return out.str();
}

std::string FormatCDatabase(const CDatabase& database,
                            const SymbolTable* symbols) {
  std::string out;
  for (size_t i = 0; i < database.num_tables(); ++i) {
    out += FormatCTable(database.table(i), symbols);
  }
  return out;
}

}  // namespace pw
