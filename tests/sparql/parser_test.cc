// Parser + AST tests, including the paper's Example 1 query text.

#include <gtest/gtest.h>

#include "relstore/executor.h"
#include "sparql/ast.h"
#include "sparql/bindings.h"
#include "sparql/parser.h"

namespace dskg::sparql {
namespace {

TEST(Parser, SimpleSelect) {
  auto q = Parser::Parse("SELECT ?x WHERE { ?x y:p y:o . }");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->select_vars, std::vector<std::string>{"x"});
  ASSERT_EQ(q->patterns.size(), 1u);
  EXPECT_TRUE(q->patterns[0].subject.is_variable);
  EXPECT_EQ(q->patterns[0].subject.text, "x");
  EXPECT_FALSE(q->patterns[0].predicate.is_variable);
  EXPECT_EQ(q->patterns[0].predicate.text, "y:p");
  EXPECT_EQ(q->patterns[0].object.text, "y:o");
}

TEST(Parser, PaperExampleOneParses) {
  // Verbatim shape from the paper's Example 1 (§3.1).
  constexpr const char* kText =
      "SELECT ?GivenName ?FamilyName WHERE{ "
      "?p y:hasGivenName ?GivenName. "
      "?p y:hasFamilyName ?FamilyName. "
      "?p y:wasBornIn ?city. "
      "?p y:hasAcademicAdvisor ?a. "
      "?a y:wasBornIn ?city. "
      "?p y:isMarriedTo ?p2. "
      "?p2 y:wasBornIn ?city.}";
  auto q = Parser::Parse(kText);
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->patterns.size(), 7u);
  EXPECT_EQ(q->select_vars,
            (std::vector<std::string>{"GivenName", "FamilyName"}));
  auto counts = q->VariableCounts();
  EXPECT_EQ(counts["p"], 5);
  EXPECT_EQ(counts["city"], 3);
  EXPECT_EQ(counts["a"], 2);
  EXPECT_EQ(counts["p2"], 2);
  EXPECT_EQ(counts["GivenName"], 1);
}

TEST(Parser, SelectStar) {
  auto q = Parser::Parse("SELECT * WHERE { ?s ?p ?o }");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(q->select_vars.empty());
  EXPECT_TRUE(q->patterns[0].predicate.is_variable);
}

TEST(Parser, CaseInsensitiveKeywords) {
  auto q = Parser::Parse("select ?x where { ?x p o . }");
  ASSERT_TRUE(q.ok()) << q.status();
}

TEST(Parser, IriRefAndLiteralTerms) {
  auto q = Parser::Parse(
      "SELECT ?x WHERE { ?x <http://example.org/name> \"Ada Lovelace\" . }");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->patterns[0].predicate.text, "<http://example.org/name>");
  EXPECT_EQ(q->patterns[0].object.text, "\"Ada Lovelace\"");
}

TEST(Parser, OptionalTrailingDotAndNoSpaces) {
  auto q = Parser::Parse("SELECT ?p WHERE {?p y:a ?x. ?p y:b ?y}");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->patterns.size(), 2u);
}

TEST(Parser, MultiplePatternsKeepOrder) {
  auto q = Parser::Parse(
      "SELECT ?a WHERE { ?a p1 ?b . ?b p2 ?c . ?c p3 ?a . }");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->patterns.size(), 3u);
  EXPECT_EQ(q->patterns[0].predicate.text, "p1");
  EXPECT_EQ(q->patterns[2].predicate.text, "p3");
}

struct BadInput {
  const char* label;
  const char* text;
};

class ParserErrorTest : public ::testing::TestWithParam<BadInput> {};

TEST_P(ParserErrorTest, Rejects) {
  auto q = Parser::Parse(GetParam().text);
  ASSERT_FALSE(q.ok()) << GetParam().label;
  EXPECT_TRUE(q.status().IsParseError()) << q.status();
}

INSTANTIATE_TEST_SUITE_P(
    BadQueries, ParserErrorTest,
    ::testing::Values(
        BadInput{"missing_select", "WHERE { ?a p ?b }"},
        BadInput{"missing_where", "SELECT ?a { ?a p ?b }"},
        BadInput{"no_projection", "SELECT WHERE { ?a p ?b }"},
        BadInput{"unterminated_block", "SELECT ?a WHERE { ?a p ?b"},
        BadInput{"empty_block", "SELECT * WHERE { }"},
        BadInput{"truncated_pattern", "SELECT ?a WHERE { ?a p }"},
        BadInput{"unterminated_iri", "SELECT ?a WHERE { ?a <p ?b }"},
        BadInput{"unterminated_literal", "SELECT ?a WHERE { ?a p \"x }"},
        BadInput{"unknown_projected_var", "SELECT ?z WHERE { ?a p ?b }"},
        BadInput{"empty_var_name", "SELECT ? WHERE { ?a p ?b }"}),
    [](const ::testing::TestParamInfo<BadInput>& info) {
      return info.param.label;
    });

TEST(Ast, AllVariablesFirstAppearanceOrder) {
  auto q = Parser::Parse("SELECT * WHERE { ?b p ?a . ?a q ?c . }");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->AllVariables(), (std::vector<std::string>{"b", "a", "c"}));
}

TEST(Ast, ConstantPredicatesDeduplicated) {
  auto q = Parser::Parse("SELECT * WHERE { ?a p ?b . ?b p ?c . ?c q ?d . }");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->ConstantPredicates(), (std::vector<std::string>{"p", "q"}));
}

TEST(Ast, ToStringRoundTripsThroughParser) {
  auto q = Parser::Parse(
      "SELECT ?p WHERE { ?p y:wasBornIn ?c . ?p y:likes \"x\" . }");
  ASSERT_TRUE(q.ok());
  auto q2 = Parser::Parse(q->ToString());
  ASSERT_TRUE(q2.ok()) << q2.status() << " text: " << q->ToString();
  EXPECT_EQ(*q, *q2);
}

TEST(Bindings, ProjectSelectsAndReorders) {
  BindingTable t;
  t.columns = {"a", "b", "c"};
  t.AppendRow({1, 2, 3});
  t.AppendRow({4, 5, 6});
  auto p = relstore::Executor::Project(t, {"c", "a"});
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_EQ(p->columns, (std::vector<std::string>{"c", "a"}));
  ASSERT_EQ(p->NumRows(), 2u);
  EXPECT_EQ(p->At(0, 0), 3u);
  EXPECT_EQ(p->At(0, 1), 1u);
}

TEST(Bindings, ProjectAllowsMissingColumnsOnlyWithoutRows) {
  // Joins cut short by an empty intermediate leave variables without a
  // column: the header is still the full projection. With rows, a missing
  // column is a bug, never silently dropped.
  BindingTable t;
  t.columns = {"a"};
  auto empty = relstore::Executor::Project(t, {"a", "zz"});
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_EQ(empty->columns, (std::vector<std::string>{"a", "zz"}));
  EXPECT_TRUE(empty->empty());
  t.AppendRow({7});
  auto rows = relstore::Executor::Project(t, {"a", "zz"});
  ASSERT_FALSE(rows.ok());
  EXPECT_TRUE(rows.status().IsInternal());
}

TEST(Bindings, SameRowsIgnoresOrderButNotMultiplicity) {
  BindingTable x, y;
  x.columns = y.columns = {"a"};
  for (rdf::TermId v : {1, 2, 2}) x.AppendRow({v});
  for (rdf::TermId v : {2, 1, 2}) y.AppendRow({v});
  EXPECT_TRUE(BindingTable::SameRows(x, y));
  y.ClearRows();
  for (rdf::TermId v : {2, 1}) y.AppendRow({v});
  EXPECT_FALSE(BindingTable::SameRows(x, y));
}

TEST(Bindings, ColumnIndexAndHasColumn) {
  BindingTable t;
  t.columns = {"x", "y"};
  EXPECT_EQ(t.ColumnIndex("y"), 1);
  EXPECT_EQ(t.ColumnIndex("z"), -1);
  EXPECT_TRUE(t.HasColumn("x"));
  EXPECT_FALSE(t.HasColumn("z"));
}

}  // namespace
}  // namespace dskg::sparql
