// Unit tests for core/: terms, symbols, tuples, relations, instances.

#include <gtest/gtest.h>

#include "core/instance.h"
#include "core/relation.h"
#include "core/symbol_table.h"
#include "core/tuple.h"

namespace pw {
namespace {

TEST(TermTest, ConstAndVarAreDistinct) {
  EXPECT_NE(Term::Const(3), Term::Var(3));
  EXPECT_TRUE(Term::Const(3).is_constant());
  EXPECT_TRUE(Term::Var(3).is_variable());
  EXPECT_EQ(Term::Const(3).constant(), 3);
  EXPECT_EQ(Term::Var(3).variable(), 3);
}

TEST(TermTest, DefaultIsConstantZero) {
  Term t;
  EXPECT_TRUE(t.is_constant());
  EXPECT_EQ(t.constant(), 0);
}

TEST(TermTest, OrderingConstantsBeforeVariables) {
  EXPECT_LT(Term::Const(100), Term::Var(0));
  EXPECT_LT(Term::Const(1), Term::Const(2));
  EXPECT_LT(Term::Var(1), Term::Var(2));
}

TEST(TermTest, ToStringFormats) {
  EXPECT_EQ(ToString(Term::Const(7)), "7");
  EXPECT_EQ(ToString(Term::Var(7)), "x7");
}

TEST(TermTest, HashDistinguishesKinds) {
  std::hash<Term> h;
  EXPECT_NE(h(Term::Const(5)), h(Term::Var(5)));
}

TEST(SymbolTableTest, InternIsIdempotent) {
  SymbolTable symbols;
  ConstId a = symbols.Intern("alice");
  EXPECT_EQ(symbols.Intern("alice"), a);
  EXPECT_EQ(symbols.size(), 1u);
}

TEST(SymbolTableTest, LookupAndName) {
  SymbolTable symbols;
  ConstId a = symbols.Intern("alice");
  EXPECT_EQ(symbols.Lookup("alice"), a);
  EXPECT_EQ(symbols.Name(a), "alice");
  EXPECT_EQ(symbols.Lookup("bob"), std::nullopt);
  EXPECT_EQ(symbols.Name(a + 999), std::nullopt);
}

TEST(SymbolTableTest, IdsStartAtConfiguredBase) {
  SymbolTable symbols(5000);
  EXPECT_GE(symbols.Intern("x"), 5000);
}

TEST(SymbolTableTest, ConstNameFallsBackToDecimal) {
  SymbolTable symbols;
  ConstId a = symbols.Intern("alice");
  EXPECT_EQ(ConstName(a, &symbols), "alice");
  EXPECT_EQ(ConstName(42, &symbols), "42");
  EXPECT_EQ(ConstName(42, nullptr), "42");
}

TEST(TupleTest, GroundnessAndConversion) {
  Tuple ground{C(1), C(2)};
  Tuple open{C(1), V(0)};
  EXPECT_TRUE(IsGround(ground));
  EXPECT_FALSE(IsGround(open));
  EXPECT_EQ(ToFact(ground), (Fact{1, 2}));
  EXPECT_EQ(ToTuple(Fact{1, 2}), ground);
}

TEST(TupleTest, UnifiableRespectsConstants) {
  EXPECT_TRUE(Unifiable(Tuple{C(1), V(0)}, Fact{1, 9}));
  EXPECT_FALSE(Unifiable(Tuple{C(1), V(0)}, Fact{2, 9}));
}

TEST(TupleTest, UnifiableRespectsRepeatedVariables) {
  Tuple repeated{V(0), V(0)};
  EXPECT_TRUE(Unifiable(repeated, Fact{5, 5}));
  EXPECT_FALSE(Unifiable(repeated, Fact{5, 6}));
}

TEST(TupleTest, UnifiableRejectsArityMismatch) {
  EXPECT_FALSE(Unifiable(Tuple{V(0)}, Fact{1, 2}));
}

TEST(TupleTest, UnifiableChecksRepeatsAfterMatchingConstants) {
  // The second x0 follows a constant that matches: the repeat still decides.
  Tuple tuple{V(0), C(5), V(0)};
  EXPECT_TRUE(Unifiable(tuple, Fact{4, 5, 4}));
  EXPECT_FALSE(Unifiable(tuple, Fact{4, 5, 6}));
  EXPECT_FALSE(Unifiable(tuple, Fact{4, 6, 4}));
  // The empty tuple is the one row that unifies with the empty fact.
  EXPECT_TRUE(Unifiable(Tuple{}, Fact{}));
  EXPECT_FALSE(Unifiable(Tuple{}, Fact{1}));
}

TEST(TupleTest, UnifiableChecksRepeatsOfWideTuples) {
  // 40 positions: x0..x19 in order, then again in reverse.
  Tuple tuple;
  Fact fact;
  for (VarId v = 0; v < 20; ++v) {
    tuple.push_back(V(v));
    fact.push_back(100 + v);
  }
  for (VarId v = 19; v >= 0; --v) {
    tuple.push_back(V(v));
    fact.push_back(100 + v);
  }
  EXPECT_TRUE(Unifiable(tuple, fact));
  fact[39] = 7;  // the second x0 disagrees with the first
  EXPECT_FALSE(Unifiable(tuple, fact));
}

TEST(RelationTest, SetSemantics) {
  Relation r(2);
  EXPECT_TRUE(r.Insert(Fact{1, 2}));
  EXPECT_FALSE(r.Insert(Fact{1, 2}));
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.Contains(Fact{1, 2}));
  EXPECT_FALSE(r.Contains(Fact{2, 1}));
}

TEST(RelationTest, EqualityIsStructural) {
  Relation a(2, {{1, 2}, {3, 4}});
  Relation b(2, {{3, 4}, {1, 2}});
  EXPECT_EQ(a, b);
  b.Insert(Fact{5, 6});
  EXPECT_NE(a, b);
}

TEST(RelationTest, UnionWith) {
  Relation a(1, {{1}, {2}});
  Relation b(1, {{2}, {3}});
  EXPECT_EQ(a.UnionWith(b), Relation(1, {{1}, {2}, {3}}));
}

TEST(RelationTest, ContainsAll) {
  Relation a(1, {{1}, {2}, {3}});
  Relation b(1, {{1}, {3}});
  EXPECT_TRUE(a.ContainsAll(b));
  EXPECT_FALSE(b.ContainsAll(a));
}

TEST(RelationTest, ConstantsSortedDeduplicated) {
  Relation a(2, {{3, 1}, {1, 2}});
  EXPECT_EQ(a.Constants(), (std::vector<ConstId>{1, 2, 3}));
}

TEST(RelationTest, ZeroArityRelationHoldsEmptyFact) {
  Relation r(0);
  EXPECT_TRUE(r.Insert(Fact{}));
  EXPECT_FALSE(r.Insert(Fact{}));
  EXPECT_EQ(r.size(), 1u);
}

TEST(InstanceTest, ConstructionAndEquality) {
  Instance a({Relation(1, {{1}}), Relation(2, {{1, 2}})});
  Instance b({Relation(1, {{1}}), Relation(2, {{1, 2}})});
  EXPECT_EQ(a, b);
  b.mutable_relation(0).Insert(Fact{9});
  EXPECT_NE(a, b);
}

TEST(InstanceTest, AritiesAndCounts) {
  Instance a({Relation(1, {{1}}), Relation(2, {{1, 2}, {3, 4}})});
  EXPECT_EQ(a.Arities(), (std::vector<int>{1, 2}));
  EXPECT_EQ(a.TotalFacts(), 3u);
  EXPECT_EQ(a.Constants(), (std::vector<ConstId>{1, 2, 3, 4}));
}

TEST(InstanceTest, EmptyFromArities) {
  Instance a(std::vector<int>{3, 1});
  EXPECT_EQ(a.num_relations(), 2u);
  EXPECT_EQ(a.relation(0).arity(), 3);
  EXPECT_EQ(a.TotalFacts(), 0u);
}

TEST(InstanceTest, ContainsAllLocatedFacts) {
  Instance a({Relation(1, {{1}}), Relation(2, {{1, 2}})});
  EXPECT_TRUE(ContainsAll(a, {{0, {1}}, {1, {1, 2}}}));
  EXPECT_FALSE(ContainsAll(a, {{0, {2}}}));
  EXPECT_FALSE(ContainsAll(a, {{7, {1}}}));
}

}  // namespace
}  // namespace pw
