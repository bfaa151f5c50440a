// Tests for the OQL parser (src/oql/parser.*), including every query the
// paper prints.

#include "src/oql/parser.h"

#include <gtest/gtest.h>

#include <string>

#include "src/runtime/error.h"
#include "tests/test_util.h"

namespace ldb::oql {
namespace {

TEST(ParserTest, QueryA) {
  NodePtr q = Parse(
      "select distinct struct( E: e.name, C: c.name ) "
      "from e in Employees, c in e.children");
  ASSERT_EQ(q->kind, NodeKind::kSelect);
  EXPECT_TRUE(q->distinct);
  ASSERT_EQ(q->projection.size(), 1u);
  EXPECT_EQ(q->projection[0].expr->kind, NodeKind::kStruct);
  ASSERT_EQ(q->froms.size(), 2u);
  EXPECT_EQ(q->froms[0].var, "e");
  EXPECT_EQ(q->froms[1].var, "c");
  EXPECT_EQ(q->froms[1].domain->kind, NodeKind::kProj);
}

TEST(ParserTest, QueryBNestedSelectInStruct) {
  NodePtr q = Parse(
      "select distinct struct( D: d, E: ( select distinct e "
      "from e in Employees where e.dno = d.dno ) ) "
      "from d in Departments");
  ASSERT_EQ(q->kind, NodeKind::kSelect);
  const auto& fields = q->projection[0].expr->fields;
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[1].second->kind, NodeKind::kSelect);
  EXPECT_NE(fields[1].second->where, nullptr);
}

TEST(ParserTest, QueryDDoubleNested) {
  NodePtr q = Parse(
      "select distinct struct( E: e, M: count( select distinct c "
      "from c in e.children "
      "where for all d in e.manager.children: c.age > d.age ) ) "
      "from e in Employees");
  ASSERT_EQ(q->kind, NodeKind::kSelect);
  const NodePtr& m = q->projection[0].expr->fields[1].second;
  ASSERT_EQ(m->kind, NodeKind::kAgg);
  EXPECT_EQ(m->agg, OAgg::kCount);
  ASSERT_EQ(m->a->kind, NodeKind::kSelect);
  EXPECT_EQ(m->a->where->kind, NodeKind::kForAll);
}

TEST(ParserTest, QueryEForAllWithNakedSelectDomain) {
  NodePtr q = Parse(
      "select distinct s from s in Students "
      "where for all c in select c from c in Courses where c.title = 'DB': "
      "exists t in Transcripts: t.sid = s.sid and t.cno = c.cno");
  ASSERT_EQ(q->kind, NodeKind::kSelect);
  ASSERT_NE(q->where, nullptr);
  ASSERT_EQ(q->where->kind, NodeKind::kForAll);
  EXPECT_EQ(q->where->a->kind, NodeKind::kSelect);  // quantifier domain
  ASSERT_EQ(q->where->b->kind, NodeKind::kExists);  // body
  // exists body is the conjunction.
  EXPECT_EQ(q->where->b->b->kind, NodeKind::kBin);
  EXPECT_EQ(q->where->b->b->bin, OBin::kAnd);
}

TEST(ParserTest, GroupByQuery) {
  NodePtr q = Parse(
      "select distinct e.dno, avg(e.salary) from Employees e "
      "where e.age > 30 group by e.dno");
  ASSERT_EQ(q->kind, NodeKind::kSelect);
  ASSERT_EQ(q->projection.size(), 2u);
  EXPECT_EQ(q->projection[1].expr->kind, NodeKind::kAgg);
  EXPECT_EQ(q->projection[1].expr->agg, OAgg::kAvg);
  ASSERT_EQ(q->group_by.size(), 1u);
  EXPECT_EQ(q->group_by[0]->kind, NodeKind::kProj);
  EXPECT_EQ(q->froms[0].var, "e");  // "Employees e" form
}

TEST(ParserTest, HotelQueryWithInAndExists) {
  NodePtr q = Parse(
      "select distinct hotel.price "
      "from hotel in ( select h from c in Cities, h in c.hotels "
      "                where c.name = 'Arlington' ) "
      "where exists r in hotel.rooms: r.bed_num = 3 "
      "  and hotel.name in ( select t.name from s in States, "
      "                      t in s.attractions where s.name = 'Texas' )");
  ASSERT_EQ(q->kind, NodeKind::kSelect);
  EXPECT_EQ(q->froms[0].domain->kind, NodeKind::kSelect);
  // `exists ... : p and q in (...)` — body is maximal: the whole conjunction.
  ASSERT_EQ(q->where->kind, NodeKind::kExists);
  EXPECT_EQ(q->where->b->bin, OBin::kAnd);
  EXPECT_EQ(q->where->b->b->kind, NodeKind::kIn);
}

TEST(ParserTest, OperatorPrecedence) {
  NodePtr q = Parse("1 + 2 * 3 = 7 and not 4 > 5 or false");
  // ((1 + (2*3)) = 7 and (not (4 > 5))) or false
  ASSERT_EQ(q->kind, NodeKind::kBin);
  EXPECT_EQ(q->bin, OBin::kOr);
  EXPECT_EQ(q->a->bin, OBin::kAnd);
  EXPECT_EQ(q->a->a->bin, OBin::kEq);
  EXPECT_EQ(q->a->a->a->bin, OBin::kAdd);
  EXPECT_EQ(q->a->a->a->b->bin, OBin::kMul);
  EXPECT_EQ(q->a->b->kind, NodeKind::kUn);
}

TEST(ParserTest, UnaryMinusAndMod) {
  NodePtr q = Parse("-x mod 3");
  ASSERT_EQ(q->kind, NodeKind::kBin);
  EXPECT_EQ(q->bin, OBin::kMod);
  EXPECT_EQ(q->a->kind, NodeKind::kUn);
  EXPECT_EQ(q->a->un, OUn::kNeg);
}

TEST(ParserTest, Literals) {
  EXPECT_EQ(Parse("true")->literal, Value::Bool(true));
  EXPECT_EQ(Parse("FALSE")->literal, Value::Bool(false));
  EXPECT_TRUE(Parse("null")->literal.is_null());
  EXPECT_TRUE(Parse("nil")->literal.is_null());
  EXPECT_EQ(Parse("3.5")->literal, Value::Real(3.5));
}

TEST(ParserTest, NamedProjections) {
  NodePtr q = Parse("select e.name as nm, e.age from Employees e");
  EXPECT_EQ(q->projection[0].as, "nm");
  EXPECT_EQ(q->projection[1].as, "");
  EXPECT_FALSE(q->distinct);

  // Colon-style naming.
  NodePtr q2 = Parse("select nm: e.name from Employees e");
  EXPECT_EQ(q2->projection[0].as, "nm");
}

TEST(ParserTest, AggregatesOverCollections) {
  NodePtr q = Parse("count(e.children)");
  ASSERT_EQ(q->kind, NodeKind::kAgg);
  EXPECT_EQ(q->agg, OAgg::kCount);
  EXPECT_EQ(q->a->kind, NodeKind::kProj);

  NodePtr q2 = Parse("max( select m.salary from m in Managers )");
  EXPECT_EQ(q2->agg, OAgg::kMax);
  EXPECT_EQ(q2->a->kind, NodeKind::kSelect);
}

TEST(ParserTest, ExistsFunctionForm) {
  NodePtr q = Parse("exists( select e from e in Employees where e.age > 60 )");
  ASSERT_EQ(q->kind, NodeKind::kAgg);
  EXPECT_EQ(q->agg, OAgg::kExists);
}

TEST(ParserTest, Errors) {
  EXPECT_THROW(Parse("select"), ParseError);
  EXPECT_THROW(Parse("select x from"), ParseError);
  EXPECT_THROW(Parse("select x from Employees"), ParseError);  // no range var
  EXPECT_THROW(Parse("1 +"), ParseError);
  EXPECT_THROW(Parse("(1"), ParseError);
  EXPECT_THROW(Parse("1 2"), ParseError);  // trailing garbage
  EXPECT_THROW(Parse("struct(a 1)"), ParseError);
  EXPECT_THROW(Parse("for all x in D x > 1"), ParseError);  // missing ':'
}

TEST(ParserTest, KeywordsNotUsableAsRangeVariables) {
  EXPECT_THROW(Parse("select x from Employees select"), ParseError);
}

// `1+1+...+1` with `terms` operands: a left-deep tree as high as it is long.
std::string SumChain(int terms) {
  std::string out = "1";
  for (int i = 1; i < terms; ++i) out += "+1";
  return out;
}

// Nesting is bounded (kMaxParseDepth) so that one query cannot exhaust the
// stack: bracket nesting bounds the parser's own recursion, and an operator
// chain the height of the tree every later pass recurses over.
TEST(ParserTest, NestingDeeperThanTheLimitIsAParseError) {
  const std::string parens = "select e from e in Employees where " +
                             std::string(10000, '(') + "e.age > 1" +
                             std::string(10000, ')');
  EXPECT_THROW(Parse(parens), ParseError);
  EXPECT_THROW(Parse(SumChain(20000)), ParseError);
  EXPECT_THROW(Parse(SumChain(kMaxParseDepth + 1)), ParseError);
  std::string nots;
  for (int i = 0; i < kMaxParseDepth; ++i) nots += "not ";
  EXPECT_THROW(Parse(nots + "true"), ParseError);

  // A query exactly at the limit parses and runs through the whole engine.
  Database db = testing::TinyCompany();
  EXPECT_EQ(RunOQL(db, SumChain(kMaxParseDepth)), Value::Int(kMaxParseDepth));
}

}  // namespace
}  // namespace ldb::oql
