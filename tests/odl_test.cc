// Tests for the ODL schema parser (src/oql/odl.*).

#include "src/oql/odl.h"

#include <gtest/gtest.h>

#include "src/lambdadb.h"

namespace ldb {
namespace {

const char* kCompanyOdl = R"(
  class Person (extent Persons) {
    attribute string name;
    attribute long age;
  };
  class Manager (extent Managers) {
    attribute string name;
    attribute long age;
    attribute double salary;
    relationship set<Person> children;
  };
  class Employee (extent Employees) {
    attribute string name;
    attribute long age;
    attribute double salary;
    attribute long dno;
    relationship Manager manager;
    relationship set<Person> children;
  };
  class Department (extent Departments) {
    attribute long dno;
    attribute string name;
    attribute double budget;
  };
)";

TEST(OdlTest, ParsesCompanySchema) {
  Schema schema = oql::ParseODL(kCompanyOdl);
  const ClassDecl* emp = schema.FindClass("Employee");
  ASSERT_NE(emp, nullptr);
  EXPECT_EQ(emp->extent, "Employees");
  EXPECT_EQ(emp->attributes.size(), 6u);
  EXPECT_EQ(emp->AttributeType("salary")->kind(), Type::Kind::kReal);
  EXPECT_EQ(emp->AttributeType("manager")->class_name(), "Manager");
  TypePtr children = emp->AttributeType("children");
  ASSERT_EQ(children->kind(), Type::Kind::kSet);
  EXPECT_EQ(children->elem()->class_name(), "Person");
  EXPECT_TRUE(schema.IsExtent("Departments"));
}

TEST(OdlTest, ParsedSchemaRunsQueries) {
  // An ODL-defined schema is interchangeable with the hand-built one: the
  // whole pipeline runs against it.
  Database db(oql::ParseODL(kCompanyOdl));
  Value d = db.Insert("Department",
                      Value::Tuple({{"dno", Value::Int(1)},
                                    {"name", Value::Str("R&D")},
                                    {"budget", Value::Real(1)}}));
  (void)d;
  db.Insert("Employee", Value::Tuple({{"name", Value::Str("A")},
                                      {"age", Value::Int(30)},
                                      {"salary", Value::Real(10)},
                                      {"dno", Value::Int(1)},
                                      {"manager", Value::Null()},
                                      {"children", Value::Set({})}}));
  Value r = RunOQL(db,
                   "select distinct struct(D: d.name, n: count(select e from "
                   "e in Employees where e.dno = d.dno)) from d in Departments");
  EXPECT_EQ(r, Value::Set({Value::Tuple(
                   {{"D", Value::Str("R&D")}, {"n", Value::Int(1)}})}));
}

TEST(OdlTest, ForwardReferencesResolve) {
  // Employee references Manager before Manager is declared.
  Schema schema = oql::ParseODL(
      "class Employee (extent Es) { relationship Manager boss; } "
      "class Manager (extent Ms) { attribute string name; }");
  EXPECT_EQ(schema.FindClass("Employee")->AttributeType("boss")->class_name(),
            "Manager");
}

TEST(OdlTest, TypeSpellings) {
  Schema schema = oql::ParseODL(
      "class T (extent Ts) {"
      "  attribute boolean b; attribute int i; attribute integer j;"
      "  attribute short s; attribute long l; attribute float f;"
      "  attribute double d; attribute real r; attribute string str;"
      "  attribute bag<int> bi; attribute list<string> ls;"
      "  attribute set<set<int>> nested;"
      "}");
  const ClassDecl* t = schema.FindClass("T");
  EXPECT_EQ(t->AttributeType("b")->kind(), Type::Kind::kBool);
  EXPECT_EQ(t->AttributeType("i")->kind(), Type::Kind::kInt);
  EXPECT_EQ(t->AttributeType("f")->kind(), Type::Kind::kReal);
  EXPECT_EQ(t->AttributeType("bi")->kind(), Type::Kind::kBag);
  EXPECT_EQ(t->AttributeType("ls")->kind(), Type::Kind::kList);
  EXPECT_EQ(t->AttributeType("nested")->elem()->kind(), Type::Kind::kSet);
}

TEST(OdlTest, ClassWithoutExtent) {
  Schema schema = oql::ParseODL("class P { attribute string name; }");
  EXPECT_NE(schema.FindClass("P"), nullptr);
  EXPECT_TRUE(schema.FindClass("P")->extent.empty());
}

TEST(OdlTest, Errors) {
  EXPECT_THROW(oql::ParseODL("class"), ParseError);
  EXPECT_THROW(oql::ParseODL("class X { attribute string; }"), ParseError);
  EXPECT_THROW(oql::ParseODL("class X { string name; }"), ParseError);
  EXPECT_THROW(oql::ParseODL("class X { attribute set<string name; }"),
               ParseError);
  // Unknown class reference.
  EXPECT_THROW(oql::ParseODL("class X { relationship Nope r; }"), TypeError);
  // Duplicate class / extent.
  EXPECT_THROW(oql::ParseODL("class X {} class X {}"), TypeError);
  EXPECT_THROW(oql::ParseODL("class X (extent E) {} class Y (extent E) {}"),
               TypeError);
}

TEST(OdlTest, CommentsAndCase) {
  Schema schema = oql::ParseODL(
      "-- the person class\n"
      "CLASS Person (EXTENT Persons) { ATTRIBUTE STRING name; }");
  EXPECT_TRUE(schema.IsExtent("Persons"));
}

// A collection type nests by recursion; past kMaxParseDepth levels the
// parser must refuse, not overflow the stack.
TEST(OdlTest, DeeplyNestedTypeIsAParseError) {
  const int kLevels = 100000;
  std::string odl = "class A (extent As) { attribute ";
  for (int i = 0; i < kLevels; ++i) odl += "set<";
  odl += "long";
  for (int i = 0; i < kLevels; ++i) odl += ">";
  odl += " x; };";
  EXPECT_THROW(oql::ParseODL(odl), ParseError);

  // Inside the bound it still parses.
  std::string ok = "class A (extent As) { attribute ";
  for (int i = 1; i < kMaxParseDepth; ++i) ok += "set<";
  ok += "long";
  for (int i = 1; i < kMaxParseDepth; ++i) ok += ">";
  ok += " x; };";
  EXPECT_NO_THROW(oql::ParseODL(ok));
}

}  // namespace
}  // namespace ldb
