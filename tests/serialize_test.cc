// Tests for database serialization (src/runtime/serialize.*): round-trips,
// query equivalence across reloads, and malformed- and hostile-input
// rejection.

#include "src/runtime/serialize.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "src/lambdadb.h"
#include "src/workload/oo7.h"
#include "tests/test_util.h"

namespace {
// The largest single operator-new request while armed: lets a test show
// that the value reader never sizes an allocation from a declared length
// or count alone.
std::atomic<bool> g_track_allocs{false};
std::atomic<size_t> g_largest_alloc{0};
}  // namespace

void* operator new(std::size_t n) {
  // The tests that arm the tracker run on one thread.
  if (g_track_allocs.load(std::memory_order_relaxed) &&
      n > g_largest_alloc.load(std::memory_order_relaxed)) {
    g_largest_alloc.store(n, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Out of line, so that GCC does not pair an inlined free() with the new
// expression it releases (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace ldb {
namespace {

TEST(SerializeTest, TinyCompanyRoundTrips) {
  Database db = testing::TinyCompany();
  std::string dump = DumpDatabaseToString(db);
  Database loaded = LoadDatabaseFromString(dump);
  EXPECT_EQ(loaded.ObjectCount(), db.ObjectCount());
  // Dumping again yields the identical bytes (stable oids and ordering).
  EXPECT_EQ(DumpDatabaseToString(loaded), dump);
}

TEST(SerializeTest, QueriesAgreeAcrossReload) {
  Database db = testing::TinyCompany();
  Database loaded = LoadDatabaseFromString(DumpDatabaseToString(db));
  const char* queries[] = {
      "select distinct struct(D: d.name, E: (select distinct e.name "
      "from e in Employees where e.dno = d.dno)) from d in Departments",
      "select distinct e.manager.name from e in Employees",
      "select distinct struct(E: e.name, k: count(e.children)) "
      "from e in Employees",
  };
  for (const char* q : queries) {
    EXPECT_EQ(RunOQL(loaded, q), RunOQL(db, q)) << q;
  }
}

TEST(SerializeTest, GeneratedWorkloadsRoundTrip) {
  workload::CompanyParams p;
  p.n_employees = 200;
  Database db = workload::MakeCompanyDatabase(p);
  Database loaded = LoadDatabaseFromString(DumpDatabaseToString(db));
  EXPECT_EQ(RunOQL(loaded, "count(select e from e in Employees)"),
            Value::Int(200));
  EXPECT_EQ(RunOQL(loaded, "sum(select e.salary from e in Employees)"),
            RunOQL(db, "sum(select e.salary from e in Employees)"));

  Database oo7 = workload::MakeOO7Database({});
  Database oo7_loaded = LoadDatabaseFromString(DumpDatabaseToString(oo7));
  EXPECT_EQ(oo7_loaded.ObjectCount(), oo7.ObjectCount());
}

TEST(SerializeTest, SpecialValuesSurvive) {
  Schema schema;
  schema.AddClass(ClassDecl{
      "T",
      "Ts",
      {{"s", Type::Str()},
       {"r", Type::Real()},
       {"b", Type::Bool()},
       {"maybe", Type::Int()},
       {"bag", Type::Bag(Type::Str())},
       {"seq", Type::List(Type::Int())}}});
  Database db(schema);
  db.Insert("T", Value::Tuple({
                     {"s", Value::Str("line\nbreak 7:colon \"quote\"")},
                     {"r", Value::Real(0.1)},
                     {"b", Value::Bool(true)},
                     {"maybe", Value::Null()},
                     {"bag", Value::Bag({Value::Str("a"), Value::Str("a")})},
                     {"seq", Value::List({Value::Int(2), Value::Int(1)})},
                 }));
  Database loaded = LoadDatabaseFromString(DumpDatabaseToString(db));
  const Value& obj = loaded.Deref(loaded.Extent("Ts")[0].AsRef());
  EXPECT_EQ(obj.Field("s"), Value::Str("line\nbreak 7:colon \"quote\""));
  EXPECT_EQ(obj.Field("r"), Value::Real(0.1));  // %.17g round-trips doubles
  EXPECT_TRUE(obj.Field("maybe").is_null());
  EXPECT_EQ(obj.Field("bag").AsElems().size(), 2u);
  EXPECT_EQ(obj.Field("seq"), Value::List({Value::Int(2), Value::Int(1)}));
}

TEST(SerializeTest, CrossClassRefsResolveAfterLoad) {
  Database db = testing::TinyCompany();
  Database loaded = LoadDatabaseFromString(DumpDatabaseToString(db));
  // Ann's manager is Meg — navigation must still resolve.
  EXPECT_EQ(RunOQL(loaded,
                   "select distinct e.manager.name from e in Employees "
                   "where e.name = 'Ann'"),
            Value::Set({Value::Str("Meg")}));
}

// Loaded objects of a class share one Shape, so an extent stores its field
// names once.
TEST(SerializeTest, LoadedObjectsShareTheirClassShape) {
  Database loaded =
      LoadDatabaseFromString(DumpDatabaseToString(testing::TinyCompany()));
  const std::vector<Value>& refs = loaded.Extent("Employees");
  ASSERT_GE(refs.size(), 2u);
  const Shape* first = loaded.Deref(refs[0].AsRef()).AsTuple().shape().get();
  for (const Value& ref : refs) {
    EXPECT_EQ(loaded.Deref(ref.AsRef()).AsTuple().shape().get(), first);
  }
}

// The value text of a ref to object 0 of `cls`.
std::string RefText(const std::string& cls) {
  std::string text = "f";
  text += std::to_string(cls.size());
  text += ':';
  text += cls;
  text += "#0;";
  return text;
}

// Fills this process's class-name interner past its capacity; true when a
// value text and a dump naming one class too many are both ParseErrors and
// a name interned before still reads.
bool OverfilledInternerRejectsNewNames() {
  std::string text = "l";
  text += std::to_string(ClassNames::kCapacity + 1);
  text += '(';
  for (uint32_t i = 0; i <= ClassNames::kCapacity; ++i) {
    text += RefText("Cls" + std::to_string(i));
  }
  text += ')';
  bool value_rejected = false;
  bool dump_rejected = false;
  try {
    ValueFromText(text);
  } catch (const ParseError&) {
    value_rejected = true;
  }
  try {
    LoadDatabaseFromString(
        "lambdadb-dump 1\nclass Fresh Freshes 0\nobjects Fresh 1\nt0()\n"
        "end\n");
  } catch (const ParseError&) {
    dump_rejected = true;
  }
  return value_rejected && dump_rejected &&
         ValueFromText("f4:Cls0#5;") == Value::MakeRef("Cls0", 5);
}

// The class-name interner is fixed-size: a value text or dump that names
// more classes than it holds, or a longer name than it takes, is a
// ParseError. Filling the table lasts for the process, so it runs in a
// child.
TEST(SerializeTest, ClassNamesPastTheInternerBoundsAreParseErrors) {
  const std::string long_name(ClassNames::kMaxNameBytes + 1, 'L');
  EXPECT_THROW(ValueFromText(RefText(long_name)), ParseError);
  EXPECT_EXIT(std::exit(OverfilledInternerRejectsNewNames() ? 0 : 1),
              ::testing::ExitedWithCode(0), "");
}

TEST(SerializeTest, MalformedInputsRejected) {
  EXPECT_THROW(LoadDatabaseFromString(""), ParseError);
  EXPECT_THROW(LoadDatabaseFromString("wrong header"), ParseError);
  EXPECT_THROW(LoadDatabaseFromString("lambdadb-dump 1\nclass"), ParseError);
  EXPECT_THROW(LoadDatabaseFromString("lambdadb-dump 1\nnonsense\n"), ParseError);
  // Truncated object section.
  Database db = testing::TinyCompany();
  std::string dump = DumpDatabaseToString(db);
  EXPECT_THROW(LoadDatabaseFromString(dump.substr(0, dump.size() / 2)),
               ParseError);
}

// Value texts arrive from clients (BIND) and from dumps. Each of these is a
// ParseError, and no allocation exceeds one Value per input byte — the most
// a well-formed text of that size can need (`N` is a one-byte element).
TEST(SerializeTest, HostileValueTextsAreBoundedParseErrors) {
  std::string deep;
  for (int i = 0; i < 100000; ++i) deep += "l1(";
  const std::string inputs[] = {
      "s100000000:ab",            // declared length far beyond the input
      "s9223372036854775807:ab",  // the largest declared length
      "l2000000000(I1;)",         // declared count far beyond the input
      "s-5:ab",                   // negative length
      "I9223372036854775808;",    // overflows int64
      deep,                       // nesting past kMaxParseDepth
  };
  for (const std::string& text : inputs) {
    g_largest_alloc = 0;
    g_track_allocs = true;
    EXPECT_THROW(ValueFromText(text), ParseError) << text.substr(0, 24);
    g_track_allocs = false;
    EXPECT_LE(g_largest_alloc.load(), sizeof(Value) * text.size())
        << text.substr(0, 24);
  }

  // The extremes of int64 and nesting exactly at the limit still read back.
  EXPECT_EQ(ValueFromText("I-9223372036854775808;"),
            Value::Int(INT64_MIN));
  EXPECT_EQ(ValueFromText("I9223372036854775807;"), Value::Int(INT64_MAX));
  Value nested = Value::Int(1);
  for (int i = 1; i < kMaxParseDepth; ++i) nested = Value::List({nested});
  EXPECT_EQ(ValueFromText(ValueToText(nested)), nested);
  EXPECT_THROW(ValueFromText(ValueToText(Value::List({nested}))), ParseError);
}

TEST(SerializeTest, IndexContentsAreRebuiltNotSerialized) {
  // Only the index DECLARATION travels in the dump; loading records it as a
  // pending spec without building (hash tables are derived state).
  Database db = testing::TinyCompany();
  db.BuildIndex("Employees", "dno");
  std::string dump = DumpDatabaseToString(db);
  EXPECT_NE(dump.find("index Employees dno"), std::string::npos) << dump;
  Database loaded = LoadDatabaseFromString(dump);
  EXPECT_FALSE(loaded.HasIndex("Employees", "dno"));
  loaded.BuildIndex("Employees", "dno");
  EXPECT_EQ(loaded.IndexLookup("Employees", "dno", Value::Int(0)).size(), 2u);
}

TEST(SerializeTest, DeclaredIndexesSurviveRoundTripViaRebuild) {
  Database db = testing::TinyCompany();
  db.BuildIndex("Employees", "dno");
  db.BuildIndex("Departments", "dno");
  Database loaded = LoadDatabaseFromString(DumpDatabaseToString(db));
  ASSERT_EQ(loaded.IndexSpecs().size(), 2u);
  RebuildIndexes(loaded);
  EXPECT_TRUE(loaded.HasIndex("Employees", "dno"));
  EXPECT_TRUE(loaded.HasIndex("Departments", "dno"));
  EXPECT_EQ(loaded.IndexLookup("Employees", "dno", Value::Int(0)).size(), 2u);
  // Dumping the loaded database preserves the declarations again.
  std::string redump = DumpDatabaseToString(loaded);
  EXPECT_NE(redump.find("index Departments dno"), std::string::npos);
  EXPECT_NE(redump.find("index Employees dno"), std::string::npos);
}

}  // namespace
}  // namespace ldb
