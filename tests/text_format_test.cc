// Tests for the c-table text format: parsing, error reporting, formatting,
// round-trips.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "decision/containment.h"
#include "tables/text_format.h"
#include "tables/world_enum.h"
#include "test_util.h"
#include "workload/random_gen.h"

namespace pw {
namespace {

TEST(TextFormatTest, ParsesMinimalTable) {
  auto r = ParseCTable("table arity 1\nrow 7\n", nullptr);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.table->arity(), 1);
  ASSERT_EQ(r.table->num_rows(), 1u);
  EXPECT_EQ(r.table->row(0).tuple, (Tuple{C(7)}));
}

TEST(TextFormatTest, ParsesVariablesInOrder) {
  auto r = ParseCTable("table arity 2\nrow ?a ?b\nrow ?b ?a\n", nullptr);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.table->row(0).tuple, (Tuple{V(0), V(1)}));
  EXPECT_EQ(r.table->row(1).tuple, (Tuple{V(1), V(0)}));
}

TEST(TextFormatTest, ParsesGlobalAndLocalConditions) {
  auto r = ParseCTable(
      "table arity 1\n"
      "global ?x != 1 & ?y = 2\n"
      "row 0 : ?x = ?y\n",
      nullptr);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.table->global().size(), 2u);
  EXPECT_EQ(r.table->row(0).local().atoms()[0], Eq(V(0), V(1)));
}

TEST(TextFormatTest, ParsesNamedConstants) {
  SymbolTable sym;
  auto r = ParseCTable("table arity 2\nrow alice eng\n", &sym);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.table->row(0).tuple[0], Term::Const(*sym.Lookup("alice")));
}

TEST(TextFormatTest, NamedConstantsRequireSymbols) {
  auto r = ParseCTable("table arity 1\nrow alice\n", nullptr);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("SymbolTable"), std::string::npos);
}

TEST(TextFormatTest, CommentsAndBlankLinesIgnored) {
  auto r = ParseCTable(
      "# header comment\n\ntable arity 1  # trailing\n\nrow 1\n", nullptr);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.table->num_rows(), 1u);
}

TEST(TextFormatTest, ArityMismatchReported) {
  auto r = ParseCTable("table arity 2\nrow 1\n", nullptr);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("arity"), std::string::npos);
  EXPECT_NE(r.error.find("line 2"), std::string::npos);
}

TEST(TextFormatTest, UnknownDirectiveReported) {
  auto r = ParseCTable("table arity 1\nbogus 1\n", nullptr);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("bogus"), std::string::npos);
}

TEST(TextFormatTest, MissingTableHeaderReported) {
  auto r = ParseCTable("row 1\n", nullptr);
  EXPECT_FALSE(r.ok());
}

TEST(TextFormatTest, MalformedConditionReported) {
  auto r = ParseCTable("table arity 1\nrow 1 : ?x ?y\n", nullptr);
  EXPECT_FALSE(r.ok());
}

TEST(TextFormatTest, DatabaseWithSharedVariables) {
  auto r = ParseCDatabase(
      "table arity 1\nrow ?x\ntable arity 1\nrow ?x\n", nullptr);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.database->num_tables(), 2u);
  // Same variable in both tables: an e-table database.
  EXPECT_EQ(r.database->Kind(), TableKind::kETable);
}

TEST(TextFormatTest, SingleTableParserRejectsMultiple) {
  auto r = ParseCTable("table arity 1\nrow 1\ntable arity 1\nrow 2\n",
                       nullptr);
  EXPECT_FALSE(r.ok());
}

TEST(TextFormatTest, FormatRoundTripPreservesStructure) {
  std::mt19937 rng(7);
  for (int round = 0; round < 20; ++round) {
    RandomCTableOptions options =
        testutil::SmallCTableOptions(/*arity=*/2, /*num_rows=*/3,
            /*num_constants=*/4, /*num_variables=*/3, /*num_local_atoms=*/1,
            /*num_global_atoms=*/1);
    CTable t = RandomCTable(options, rng);
    std::string text = FormatCTable(t);
    auto r = ParseCTable(text, nullptr);
    ASSERT_TRUE(r.ok()) << r.error << "\n" << text;
    EXPECT_EQ(r.table->arity(), t.arity());
    EXPECT_EQ(r.table->num_rows(), t.num_rows());
    EXPECT_EQ(r.table->Kind(), t.Kind()) << text;
    // Same set of worlds (variables may be renumbered, so compare by
    // mutual containment).
    CDatabase original{t};
    CDatabase reparsed{*r.table};
    EXPECT_TRUE(ContainmentSearch(View::Identity(), original,
                                  View::Identity(), reparsed))
        << text;
    EXPECT_TRUE(ContainmentSearch(View::Identity(), reparsed,
                                  View::Identity(), original))
        << text;
  }
}

TEST(TextFormatTest, FormatWithSymbols) {
  SymbolTable sym;
  CTable t(1);
  t.AddRow(Tuple{sym.Const("alice")});
  std::string text = FormatCTable(t, &sym);
  EXPECT_NE(text.find("alice"), std::string::npos);
  auto r = ParseCTable(text, &sym);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.table->row(0).tuple, t.row(0).tuple);
}

// --- Malformed numbers: structured errors, never an exception or a wrap ----

/// Asserts that `text` is rejected with an error naming `line`.
void ExpectRejectedAtLine(const std::string& text, int line) {
  ParseDatabaseResult r = ParseCDatabase(text, nullptr);
  EXPECT_FALSE(r.ok()) << text;
  EXPECT_EQ(r.error.rfind("line " + std::to_string(line) + ":", 0), 0u)
      << r.error;
}

TEST(TextFormatTest, OverlongArityIsAnError) {
  ExpectRejectedAtLine("table arity 99999999999\nrow 1\n", 1);
}

TEST(TextFormatTest, NegativeArityIsAnError) {
  ExpectRejectedAtLine("table arity -1\n", 1);
}

TEST(TextFormatTest, OverlongRowConstantIsAnError) {
  ExpectRejectedAtLine("table arity 1\nrow 99999999999999999999\n", 2);
}

TEST(TextFormatTest, OverlongConditionConstantIsAnError) {
  ExpectRejectedAtLine(
      "table arity 1\nrow ?x : ?x = 99999999999999999999\n", 2);
  ExpectRejectedAtLine(
      "table arity 1\nglobal ?x != -99999999999999999999\nrow ?x\n", 2);
}

TEST(TextFormatTest, ConstantPastConstIdIsAnError) {
  // 2^32 would wrap to the constant 0; 2^31 and -2^31-1 just miss the range.
  ExpectRejectedAtLine("table arity 1\nrow 4294967296\n", 2);
  ExpectRejectedAtLine("table arity 1\nrow 2147483648\n", 2);
  ExpectRejectedAtLine("table arity 1\nrow -2147483649\n", 2);
  auto r = ParseCTable("table arity 2\nrow 2147483647 -2147483648\n", nullptr);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.table->row(0).tuple, (Tuple{C(2147483647), C(-2147483648)}));
}

TEST(TextFormatTest, NegativeConstantsRoundTrip) {
  CTable t(2);
  t.AddRow(Tuple{C(-3), V(0)}, Conjunction{Neq(V(0), C(-7))});
  auto r = ParseCTable(FormatCTable(t), nullptr);
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_EQ(r.table->num_rows(), 1u);
  EXPECT_EQ(r.table->row(0).tuple, (Tuple{C(-3), V(0)}));
  EXPECT_EQ(r.table->row(0).local(), (Conjunction{Neq(V(0), C(-7))}));
}

TEST(TextFormatTest, ParseNumericConstantChecksRange) {
  EXPECT_EQ(ParseNumericConstant("42"), 42);
  EXPECT_EQ(ParseNumericConstant("-5"), -5);
  EXPECT_EQ(ParseNumericConstant("4294967296"), std::nullopt);
  EXPECT_EQ(ParseNumericConstant("-x"), std::nullopt);
  EXPECT_EQ(ParseNumericConstant("-"), std::nullopt);
  EXPECT_EQ(ParseNumericConstant(""), std::nullopt);
  EXPECT_EQ(ParseNumericConstant("+1"), std::nullopt);
  EXPECT_EQ(ParseNumericConstant("1x"), std::nullopt);
}

/// Token-level mutations of FormatCTable output. The alphabet mixes the
/// format's own tokens with overlong, negative and boundary digit strings.
/// Whatever the mutation, ParseCDatabase must not throw: it either returns
/// well-formed tables or an error that names its line.
class TextFormatMutationTest : public ::testing::TestWithParam<int> {};

TEST_P(TextFormatMutationTest, ParserNeverThrows) {
  const unsigned case_seed = 30000 + static_cast<unsigned>(GetParam());
  PW_DIFF_CASE(case_seed);
  std::mt19937 rng(case_seed);
  const std::vector<std::string> alphabet = {
      "table", "arity", "row", "global", "?", "?x", ":", "=", "!=", "&",
      ",", "#", "\n", "0", "1", "-1", "-", "--1", "-0", "007",
      "2147483647", "2147483648", "-2147483648", "-2147483649",
      "4294967296", "99999999999", "-99999999999", "99999999999999999999",
      "-99999999999999999999", "alice"};
  std::uniform_int_distribution<size_t> pick_token(0, alphabet.size() - 1);
  std::uniform_int_distribution<int> num_mutations(1, 4);
  std::uniform_int_distribution<int> op(0, 2);
  for (int round = 0; round < 25; ++round) {
    CTable t = RandomCTable(
        testutil::SmallCTableOptions(/*arity=*/2, /*num_rows=*/3,
                                     /*num_constants=*/4, /*num_variables=*/2,
                                     /*num_local_atoms=*/1,
                                     /*num_global_atoms=*/1),
        rng);
    // Tokens split at spaces, with each line break a token of its own.
    std::vector<std::string> tokens;
    std::string current;
    for (char c : FormatCTable(t)) {
      if (c != ' ' && c != '\n') {
        current += c;
        continue;
      }
      if (!current.empty()) tokens.push_back(current);
      current.clear();
      if (c == '\n') tokens.push_back("\n");
    }
    for (int m = num_mutations(rng); m > 0; --m) {
      std::uniform_int_distribution<size_t> at(0, tokens.size());
      const size_t pos = at(rng);
      const int kind = op(rng);
      if (kind == 0 || pos == tokens.size()) {
        tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(pos),
                      alphabet[pick_token(rng)]);
      } else if (kind == 1) {
        tokens[pos] = alphabet[pick_token(rng)];
      } else {
        tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(pos));
      }
    }
    std::string text;
    for (const std::string& token : tokens) text += token + " ";

    SymbolTable symbols;
    ParseDatabaseResult r;
    ASSERT_NO_THROW(r = ParseCDatabase(text, &symbols)) << text;
    if (!r.ok()) {
      EXPECT_TRUE(r.error.rfind("line ", 0) == 0 ||
                  r.error == "no tables found")
          << r.error << "\n" << text;
      continue;
    }
    for (size_t i = 0; i < r.database->num_tables(); ++i) {
      const CTable& parsed = r.database->table(i);
      EXPECT_GE(parsed.arity(), 0) << text;
      for (const CRow& row : parsed.rows()) {
        EXPECT_EQ(static_cast<int>(row.tuple.size()), parsed.arity()) << text;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TextFormatMutationTest,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace pw
