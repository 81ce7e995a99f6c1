// A human-readable text format for conditioned tables.
//
// Grammar (line oriented; '#' starts a comment; blank lines ignored):
//
//   table        := header global? row*
//   header       := "table" "arity" INT
//   global       := "global" condition
//   row          := "row" term+ (":" condition)?
//   condition    := atom (("&" | ",") atom)*
//   atom         := term ("=" | "!=") term
//   term         := INT            (numeric constant)
//                 | IDENT          (named constant, interned)
//                 | "?" IDENT      (variable)
//
// Example:
//
//   table arity 2
//   global ?x != 1 & ?y != alice
//   row 0 1
//   row 0 ?x : ?y = 0
//   row ?y ?x : ?x != ?y
//
// Variables are scoped to one parse: the first distinct `?name` gets VarId
// 0, the next VarId 1, and so on. A c-database is a sequence of tables.
// `FormatCTable` emits this format and round-trips through `ParseCTable`.
// An INT is an optional '-' and decimal digits that fit ConstId (an arity,
// also non-negative). Malformed input is a parse error naming its line.

#ifndef PW_TABLES_TEXT_FORMAT_H_
#define PW_TABLES_TEXT_FORMAT_H_

#include <optional>
#include <string>
#include <string_view>

#include "core/symbol_table.h"
#include "tables/ctable.h"

namespace pw {

/// Result of parsing one table.
struct ParseTableResult {
  std::optional<CTable> table;
  std::string error;  // empty iff table.has_value()

  bool ok() const { return table.has_value(); }
};

/// Result of parsing a database (one or more tables).
struct ParseDatabaseResult {
  std::optional<CDatabase> database;
  std::string error;

  bool ok() const { return database.has_value(); }
};

/// The value of `token` as an INT of the format, or nullopt: anything but an
/// optional '-' and decimal digits, or a value outside ConstId.
std::optional<ConstId> ParseNumericConstant(std::string_view token);

/// Parses a single table. Named constants are interned into `symbols`
/// (required if the text uses identifiers; may be null for purely numeric
/// text).
ParseTableResult ParseCTable(std::string_view text, SymbolTable* symbols);

/// Parses a sequence of tables into a c-database. Variables with the same
/// name are shared across tables (they denote the same unknown).
ParseDatabaseResult ParseCDatabase(std::string_view text,
                                   SymbolTable* symbols);

/// Emits the text format; `ParseCTable(FormatCTable(t))` reconstructs a
/// table with identical structure up to variable renaming.
std::string FormatCTable(const CTable& table,
                         const SymbolTable* symbols = nullptr);

/// Emits a whole database.
std::string FormatCDatabase(const CDatabase& database,
                            const SymbolTable* symbols = nullptr);

}  // namespace pw

#endif  // PW_TABLES_TEXT_FORMAT_H_
