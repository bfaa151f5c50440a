// Tests for the synthetic workload generators (src/workload/*): determinism,
// requested cardinalities, referential integrity, and presence of the edge
// cases the unnesting experiments rely on.

#include <gtest/gtest.h>

#include "src/lambdadb.h"
#include "src/workload/company.h"
#include "src/workload/travel.h"
#include "src/workload/university.h"

namespace ldb {
namespace {

TEST(CompanyWorkloadTest, CardinalitiesMatchParams) {
  workload::CompanyParams p;
  p.n_departments = 7;
  p.n_employees = 33;
  p.n_managers = 4;
  Database db = workload::MakeCompanyDatabase(p);
  EXPECT_EQ(db.Extent("Departments").size(), 7u);
  EXPECT_EQ(db.Extent("Employees").size(), 33u);
  EXPECT_EQ(db.Extent("Managers").size(), 4u);
}

TEST(CompanyWorkloadTest, DeterministicForSameSeed) {
  workload::CompanyParams p;
  p.seed = 99;
  Database a = workload::MakeCompanyDatabase(p);
  Database b = workload::MakeCompanyDatabase(p);
  const char* q = "select distinct struct(n: e.name, s: e.salary, d: e.dno) "
                  "from e in Employees";
  EXPECT_EQ(RunOQLBaseline(a, q), RunOQLBaseline(b, q));

  p.seed = 100;
  Database c = workload::MakeCompanyDatabase(p);
  EXPECT_NE(RunOQLBaseline(a, q), RunOQLBaseline(c, q));
}

TEST(CompanyWorkloadTest, EdgeCasesPresent) {
  workload::CompanyParams p;
  p.n_departments = 10;
  p.n_employees = 200;
  Database db = workload::MakeCompanyDatabase(p);
  // Empty departments exist (outer-join padding / count bug fodder).
  Value empty_depts = RunOQLBaseline(
      db,
      "count(select d from d in Departments where count(select e from e in "
      "Employees where e.dno = d.dno) = 0)");
  EXPECT_GT(empty_depts.AsInt(), 0);
  // Childless employees exist.
  Value childless = RunOQLBaseline(
      db, "count(select e from e in Employees where count(e.children) = 0)");
  EXPECT_GT(childless.AsInt(), 0);
  // Employees without a manager exist (NULL navigation fodder).
  Value no_mgr = RunOQLBaseline(
      db, "count(select e from e in Employees "
          "where not (e.manager.age >= 0) and not (e.manager.age < 0))");
  EXPECT_GT(no_mgr.AsInt(), 0);
}

TEST(CompanyWorkloadTest, ReferentialIntegrity) {
  Database db = workload::MakeCompanyDatabase({});
  // Every child ref dereferences; every manager ref (if present) does too.
  for (const Value& eref : db.Extent("Employees")) {
    const Value& e = db.Deref(eref.AsRef());
    for (const Value& c : e.Field("children").AsElems()) {
      EXPECT_NO_THROW(db.Deref(c.AsRef()));
    }
    if (!e.Field("manager").is_null()) {
      EXPECT_NO_THROW(db.Deref(e.Field("manager").AsRef()));
    }
    int64_t dno = e.Field("dno").AsInt();
    EXPECT_GE(dno, 0);
    EXPECT_LT(dno, 10);
  }
}

TEST(UniversityWorkloadTest, PlantedStudentsQualify) {
  workload::UniversityParams p;
  p.n_students = 50;
  p.n_courses = 10;
  p.take_all_fraction = 0.2;
  p.seed = 7;
  Database db = workload::MakeUniversityDatabase(p);
  Value qualified = RunOQLBaseline(
      db,
      "count(select s from s in Students "
      "where for all c in select c from c in Courses where c.title = 'DB': "
      "exists t in Transcripts: t.sid = s.sid and t.cno = c.cno)");
  // The planted take-all students qualify; random enrollment may add more.
  EXPECT_GT(qualified.AsInt(), 0);
  EXPECT_LT(qualified.AsInt(), 50);
}

TEST(UniversityWorkloadTest, DBCoursesExist) {
  Database db = workload::MakeUniversityDatabase({});
  Value n = RunOQLBaseline(
      db, "count(select c from c in Courses where c.title = 'DB')");
  EXPECT_GT(n.AsInt(), 0);
}

TEST(TravelWorkloadTest, StructureMatchesParams) {
  workload::TravelParams p;
  p.n_cities = 3;
  p.hotels_per_city = 2;
  p.rooms_per_hotel = 5;
  Database db = workload::MakeTravelDatabase(p);
  EXPECT_EQ(db.Extent("Cities").size(), 3u);
  EXPECT_EQ(db.Extent("Hotels").size(), 6u);
  EXPECT_EQ(db.Extent("Rooms").size(), 30u);
  EXPECT_EQ(RunOQLBaseline(
                db, "count(select h from c in Cities, h in c.hotels)"),
            Value::Int(6));
}

TEST(TravelWorkloadTest, ArlingtonAndTexasPresent) {
  Database db = workload::MakeTravelDatabase({});
  EXPECT_EQ(RunOQLBaseline(db, "count(select c from c in Cities "
                               "where c.name = 'Arlington')"),
            Value::Int(1));
  EXPECT_EQ(RunOQLBaseline(db, "count(select s from s in States "
                               "where s.name = 'Texas')"),
            Value::Int(1));
}

TEST(DatabaseTest, InsertAndDeref) {
  Database db(workload::CompanySchema());
  Value ref = db.Insert("Person", Value::Tuple({{"name", Value::Str("X")},
                                                {"age", Value::Int(1)}}));
  EXPECT_EQ(db.Deref(ref.AsRef()).Field("name"), Value::Str("X"));
  EXPECT_EQ(db.Extent("Persons").size(), 1u);
  EXPECT_THROW(db.Insert("Nope", Value::Tuple({})), TypeError);
  EXPECT_THROW(db.Insert("Person", Value::Int(3)), EvalError);
  EXPECT_THROW(db.Deref(Value::MakeRef("Person", 99).AsRef()), EvalError);
  EXPECT_THROW(db.Extent("Nope"), TypeError);
}

// Objects that name the same fields share their class's Shape, whatever
// Shape they were built with.
TEST(DatabaseTest, InsertSharesTheClassShape) {
  Database db(workload::CompanySchema());
  Value a = db.Insert("Person", Value::Tuple({{"name", Value::Str("X")},
                                              {"age", Value::Int(1)}}));
  Value b = db.Insert("Person", Value::Tuple({{"name", Value::Str("Y")},
                                              {"age", Value::Int(2)}}));
  Value odd = db.Insert("Person", Value::Tuple({{"age", Value::Int(3)}}));
  const Shape* shape = db.Deref(a.AsRef()).AsTuple().shape().get();
  EXPECT_EQ(db.Deref(b.AsRef()).AsTuple().shape().get(), shape);
  EXPECT_NE(db.Deref(odd.AsRef()).AsTuple().shape().get(), shape);
  EXPECT_EQ(db.Deref(b.AsRef()).Field("name"), Value::Str("Y"));
}

TEST(DatabaseTest, NavigateThroughRefAndNull) {
  Database db(workload::CompanySchema());
  Value ref = db.Insert("Person", Value::Tuple({{"name", Value::Str("X")},
                                                {"age", Value::Int(1)}}));
  EXPECT_EQ(db.Navigate(ref, "age"), Value::Int(1));
  EXPECT_TRUE(db.Navigate(Value::Null(), "age").is_null());
  Value tuple = Value::Tuple({{"a", Value::Int(2)}});
  EXPECT_EQ(db.Navigate(tuple, "a"), Value::Int(2));
}

TEST(DatabaseTest, UpdatePatchesObject) {
  Database db(workload::CompanySchema());
  Value ref = db.Insert("Person", Value::Tuple({{"name", Value::Str("X")},
                                                {"age", Value::Int(1)}}));
  db.Update(ref, Value::Tuple({{"name", Value::Str("Y")},
                               {"age", Value::Int(2)}}));
  EXPECT_EQ(db.Deref(ref.AsRef()).Field("name"), Value::Str("Y"));
}

TEST(DatabaseTest, ObjectCount) {
  Database db = workload::MakeCompanyDatabase({});
  EXPECT_GT(db.ObjectCount(), 100u);
}

}  // namespace
}  // namespace ldb
