// Unit tests for the runtime value model (src/runtime/value.*).

#include "src/runtime/value.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "src/runtime/error.h"

namespace ldb {
namespace {

TEST(ValueTest, PrimitivesRoundTrip) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).AsBool(), true);
  EXPECT_EQ(Value::Int(42).AsInt(), 42);
  EXPECT_DOUBLE_EQ(Value::Real(2.5).AsReal(), 2.5);
  EXPECT_EQ(Value::Str("hi").AsStr(), "hi");
}

TEST(ValueTest, WrongAccessorThrows) {
  EXPECT_THROW(Value::Int(1).AsBool(), EvalError);
  EXPECT_THROW(Value::Str("x").AsInt(), EvalError);
  EXPECT_THROW(Value::Null().AsElems(), EvalError);
  EXPECT_THROW(Value::Bool(true).AsTuple(), EvalError);
}

TEST(ValueTest, NumericWidening) {
  EXPECT_DOUBLE_EQ(Value::Int(3).AsNumeric(), 3.0);
  EXPECT_DOUBLE_EQ(Value::Real(3.5).AsNumeric(), 3.5);
  EXPECT_THROW(Value::Str("3").AsNumeric(), EvalError);
}

TEST(ValueTest, IntAndRealCompareNumerically) {
  EXPECT_EQ(Value::Int(3), Value::Real(3.0));
  EXPECT_LT(Value::Int(2), Value::Real(2.5));
  // Equal values must hash equal.
  EXPECT_EQ(Value::Int(3).Hash(), Value::Real(3.0).Hash());
}

TEST(ValueTest, TupleFieldAccess) {
  Value t = Value::Tuple({{"a", Value::Int(1)}, {"b", Value::Str("x")}});
  EXPECT_EQ(t.Field("a"), Value::Int(1));
  EXPECT_EQ(t.Field("b"), Value::Str("x"));
  EXPECT_TRUE(t.HasField("a"));
  EXPECT_FALSE(t.HasField("c"));
  EXPECT_THROW(t.Field("c"), EvalError);
}

TEST(ValueTest, SetIsSortedAndDeduplicated) {
  Value s = Value::Set({Value::Int(3), Value::Int(1), Value::Int(3), Value::Int(2)});
  ASSERT_EQ(s.AsElems().size(), 3u);
  EXPECT_EQ(s.AsElems()[0], Value::Int(1));
  EXPECT_EQ(s.AsElems()[1], Value::Int(2));
  EXPECT_EQ(s.AsElems()[2], Value::Int(3));
}

TEST(ValueTest, SetEqualityIsOrderInsensitive) {
  Value a = Value::Set({Value::Int(1), Value::Int(2)});
  Value b = Value::Set({Value::Int(2), Value::Int(1)});
  EXPECT_EQ(a, b);
}

TEST(ValueTest, BagKeepsDuplicates) {
  Value b = Value::Bag({Value::Int(2), Value::Int(1), Value::Int(2)});
  ASSERT_EQ(b.AsElems().size(), 3u);
  EXPECT_EQ(b.AsElems()[0], Value::Int(1));
  EXPECT_EQ(b.AsElems()[2], Value::Int(2));
}

TEST(ValueTest, BagAndSetWithSameElementsDiffer) {
  Value s = Value::Set({Value::Int(1)});
  Value b = Value::Bag({Value::Int(1)});
  EXPECT_NE(s, b);
}

TEST(ValueTest, ListPreservesOrder) {
  Value l = Value::List({Value::Int(2), Value::Int(1)});
  EXPECT_EQ(l.AsElems()[0], Value::Int(2));
  EXPECT_NE(l, Value::List({Value::Int(1), Value::Int(2)}));
}

TEST(ValueTest, NestedStructuralEquality) {
  Value a = Value::Set({Value::Tuple({{"x", Value::Int(1)}}),
                        Value::Tuple({{"x", Value::Int(2)}})});
  Value b = Value::Set({Value::Tuple({{"x", Value::Int(2)}}),
                        Value::Tuple({{"x", Value::Int(1)}})});
  EXPECT_EQ(a, b);
}

TEST(ValueTest, RefEqualityByClassAndOid) {
  EXPECT_EQ(Value::MakeRef("Employee", 3), Value::MakeRef("Employee", 3));
  EXPECT_NE(Value::MakeRef("Employee", 3), Value::MakeRef("Employee", 4));
  EXPECT_NE(Value::MakeRef("Employee", 3), Value::MakeRef("Manager", 3));
}

TEST(ValueTest, CompareTotalOrderAcrossKinds) {
  // Null < bool < numerics < string (by Kind rank).
  EXPECT_LT(Value::Null(), Value::Bool(false));
  EXPECT_LT(Value::Bool(true), Value::Int(0));
  EXPECT_LT(Value::Int(5), Value::Str(""));
}

TEST(ValueTest, ToStringRendersReadably) {
  Value v = Value::Set({Value::Tuple({{"n", Value::Str("a")}})});
  EXPECT_EQ(v.ToString(), "{<n=\"a\">}");
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::MakeRef("C", 7).ToString(), "C#7");
  EXPECT_EQ(Value::Bag({Value::Int(1)}).ToString(), "{|1|}");
  EXPECT_EQ(Value::List({Value::Int(1)}).ToString(), "[1]");
}

TEST(ValueTest, HashConsistentWithEquality) {
  Value a = Value::Set({Value::Int(1), Value::Int(2)});
  Value b = Value::Set({Value::Int(2), Value::Int(1), Value::Int(2)});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST(ValueTest, EmptyCollections) {
  EXPECT_TRUE(Value::Set({}).AsElems().empty());
  EXPECT_NE(Value::Set({}), Value::Bag({}));
  EXPECT_EQ(Value::Set({}), Value::Set({}));
}

TEST(ValueTest, TupleFieldOrderMattersForEquality) {
  Value a = Value::Tuple({{"x", Value::Int(1)}, {"y", Value::Int(2)}});
  Value b = Value::Tuple({{"y", Value::Int(2)}, {"x", Value::Int(1)}});
  EXPECT_NE(a, b);  // records are positional-with-names, like the calculus
}

// Ints compare as int64 and against reals exactly, never through double.
TEST(ValueTest, Int64CompareIsExact) {
  const Value above = Value::Int(9007199254740993);  // 2^53 + 1
  const Value at = Value::Int(9007199254740992);     // 2^53
  EXPECT_NE(above, at);
  EXPECT_GT(Value::Compare(above, at), 0);
  EXPECT_EQ(Value::Set({above, at}).AsElems().size(), 2u);

  const Value real = Value::Real(9007199254740992.0);
  EXPECT_EQ(at, real);
  EXPECT_GT(Value::Compare(above, real), 0);
  EXPECT_LT(Value::Compare(real, above), 0);
  EXPECT_LT(Value::Int(INT64_MAX), Value::Real(9223372036854775808.0));
  EXPECT_EQ(Value::Int(INT64_MIN), Value::Real(-9223372036854775808.0));
  EXPECT_LT(Value::Real(-INFINITY), Value::Int(INT64_MIN));
  EXPECT_LT(Value::Int(-3), Value::Real(-2.5));
  EXPECT_LT(Value::Real(-2.5), Value::Int(-2));
  // Ints still hash through double, so equal int and real hash alike.
  EXPECT_EQ(at.Hash(), real.Hash());
}

// Strings of up to 14 bytes are inline, longer ones on the heap; both
// behave as one kind.
TEST(ValueTest, InlineAndHeapStringsAreOneKind) {
  const std::string fourteen(Value::kInlineStr, 'a');
  const std::string fifteen(Value::kInlineStr + 1, 'a');
  const Value s14 = Value::Str(fourteen), s15 = Value::Str(fifteen);
  EXPECT_EQ(s14.AsStr(), fourteen);
  EXPECT_EQ(s15.AsStr(), fifteen);
  EXPECT_LT(s14, s15);
  EXPECT_LT(s15, Value::Str("b"));
  Value copy = s15;
  EXPECT_EQ(copy, s15);
  EXPECT_EQ(copy.Hash(), Value::Str(fifteen).Hash());
  EXPECT_EQ(EstimateValueBytes(s14), sizeof(Value));
  EXPECT_EQ(EstimateValueBytes(s15), sizeof(Value) + 8 + fifteen.size());
}

// A tuple's names live in its Shape; equality and hashing see the names,
// not which Shape holds them.
TEST(ValueTest, TuplesCompareByNamesNotShapes) {
  const Value own = Value::Tuple({{"x", Value::Int(1)}, {"y", Value::Str("s")}});
  const ShapePtr shape = Shape::Make({"x", "y"});
  const Value shared = Value::Tuple(shape, {Value::Int(1), Value::Str("s")});
  EXPECT_NE(own.AsTuple().shape().get(), shared.AsTuple().shape().get());
  EXPECT_EQ(own, shared);
  EXPECT_EQ(own.Hash(), shared.Hash());
  EXPECT_EQ(shared.Field("y"), Value::Str("s"));

  const Value reshaped = Value::ShareShape(own, shape);
  EXPECT_EQ(reshaped.AsTuple().shape().get(), shape.get());
  EXPECT_EQ(reshaped, own);
  const Value other = Value::ShareShape(Value::Tuple({{"z", Value::Int(1)}}), shape);
  EXPECT_NE(other.AsTuple().shape().get(), shape.get());
}

// Ref order and hash follow class names, never intern ids: a process that
// interned the same two classes in the other order renders the same set in
// the same order with the same hash.
TEST(ValueTest, RefOrderAndHashDoNotDependOnInternOrder) {
  auto fingerprint = [] {
    const Value set = Value::Set({Value::MakeRef("ZebraClass", 1),
                                  Value::MakeRef("AardvarkClass", 2),
                                  Value::MakeRef("AardvarkClass", 1)});
    return set.ToString() + " " + std::to_string(set.Hash());
  };
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {  // interns Zebra first
    close(fds[0]);
    const bool zebra_first = *ClassNames::Intern("ZebraClass") <
                             *ClassNames::Intern("AardvarkClass");
    const std::string out = fingerprint();
    const bool wrote =
        write(fds[1], out.data(), out.size()) == static_cast<ssize_t>(out.size());
    _exit(zebra_first && wrote ? 0 : 1);
  }
  close(fds[1]);
  const bool aardvark_first = *ClassNames::Intern("AardvarkClass") <
                              *ClassNames::Intern("ZebraClass");
  EXPECT_TRUE(aardvark_first);
  std::string theirs;
  char buf[256];
  for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) > 0;) theirs.append(buf, n);
  close(fds[0]);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "child did not intern Zebra first";
  const std::string ours = fingerprint();
  EXPECT_EQ(ours.rfind("{AardvarkClass#1, AardvarkClass#2, ZebraClass#1} ", 0), 0u)
      << ours;
  EXPECT_EQ(theirs, ours);
}

TEST(ValueTest, ClassNamesPastTheLengthBoundDoNotIntern) {
  const std::string longest(ClassNames::kMaxNameBytes, 'L');
  EXPECT_EQ(Value::MakeRef(longest, 3).AsRef().class_name(), longest);
  EXPECT_FALSE(ClassNames::Intern(longest + "L").has_value());
  EXPECT_THROW(Value::MakeRef(longest + "L", 3), EvalError);
}

}  // namespace
}  // namespace ldb
