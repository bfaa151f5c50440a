// Unit tests for the monoid registry and Accumulator (src/core/monoid.*),
// including the algebraic laws the unnesting algorithm relies on.

#include "src/core/monoid.h"

#include <gtest/gtest.h>

#include "src/runtime/error.h"

namespace ldb {
namespace {

const MonoidKind kAllMonoids[] = {
    MonoidKind::kSet,  MonoidKind::kBag, MonoidKind::kList, MonoidKind::kSum,
    MonoidKind::kProd, MonoidKind::kMax, MonoidKind::kMin,  MonoidKind::kSome,
    MonoidKind::kAll};

TEST(MonoidTest, Properties) {
  EXPECT_TRUE(IsCollectionMonoid(MonoidKind::kSet));
  EXPECT_TRUE(IsCollectionMonoid(MonoidKind::kBag));
  EXPECT_TRUE(IsCollectionMonoid(MonoidKind::kList));
  EXPECT_FALSE(IsCollectionMonoid(MonoidKind::kSum));
  EXPECT_TRUE(IsPrimitiveMonoid(MonoidKind::kAll));

  EXPECT_TRUE(IsIdempotentMonoid(MonoidKind::kSet));
  EXPECT_TRUE(IsIdempotentMonoid(MonoidKind::kMax));
  EXPECT_TRUE(IsIdempotentMonoid(MonoidKind::kSome));
  EXPECT_FALSE(IsIdempotentMonoid(MonoidKind::kSum));
  EXPECT_FALSE(IsIdempotentMonoid(MonoidKind::kBag));
  EXPECT_FALSE(IsIdempotentMonoid(MonoidKind::kList));

  EXPECT_FALSE(IsCommutativeMonoid(MonoidKind::kList));
  EXPECT_TRUE(IsCommutativeMonoid(MonoidKind::kBag));
}

// A structural law check: zero is a left and right identity of merge.
TEST(MonoidTest, ZeroIsIdentity) {
  struct Case {
    MonoidKind m;
    Value x;
  };
  const Case cases[] = {
      {MonoidKind::kSet, Value::Set({Value::Int(1)})},
      {MonoidKind::kBag, Value::Bag({Value::Int(1), Value::Int(1)})},
      {MonoidKind::kList, Value::List({Value::Int(2), Value::Int(1)})},
      {MonoidKind::kSum, Value::Int(7)},
      {MonoidKind::kProd, Value::Int(7)},
      {MonoidKind::kMax, Value::Int(-5)},
      {MonoidKind::kMin, Value::Int(5)},
      {MonoidKind::kSome, Value::Bool(true)},
      {MonoidKind::kAll, Value::Bool(false)},
  };
  for (const Case& c : cases) {
    Value z = MonoidZero(c.m);
    EXPECT_EQ(MonoidMerge(c.m, z, c.x), c.x) << MonoidName(c.m);
    EXPECT_EQ(MonoidMerge(c.m, c.x, z), c.x) << MonoidName(c.m);
  }
}

TEST(MonoidTest, MaxZeroIsNullNotZero) {
  // Deviation from the paper's (max, 0): max of {-5} must be -5, which a
  // zero of 0 would break.
  Accumulator acc(MonoidKind::kMax);
  acc.Add(Value::Int(-5));
  EXPECT_EQ(acc.Finish(), Value::Int(-5));
}

TEST(MonoidTest, MergeAssociativeOnSamples) {
  for (MonoidKind m : {MonoidKind::kSum, MonoidKind::kProd, MonoidKind::kMax,
                       MonoidKind::kMin}) {
    Value a = Value::Int(2), b = Value::Int(5), c = Value::Int(3);
    EXPECT_EQ(MonoidMerge(m, MonoidMerge(m, a, b), c),
              MonoidMerge(m, a, MonoidMerge(m, b, c)))
        << MonoidName(m);
  }
  Value a = Value::List({Value::Int(1)});
  Value b = Value::List({Value::Int(2)});
  Value c = Value::List({Value::Int(3)});
  EXPECT_EQ(MonoidMerge(MonoidKind::kList, MonoidMerge(MonoidKind::kList, a, b), c),
            Value::List({Value::Int(1), Value::Int(2), Value::Int(3)}));
}

TEST(MonoidTest, IdempotentMonoidsAreIdempotentOnSamples) {
  for (MonoidKind m : kAllMonoids) {
    if (!IsIdempotentMonoid(m)) continue;
    Value x = m == MonoidKind::kSet   ? Value::Set({Value::Int(4)})
              : m == MonoidKind::kSome ? Value::Bool(true)
              : m == MonoidKind::kAll  ? Value::Bool(false)
                                       : Value::Int(4);
    EXPECT_EQ(MonoidMerge(m, x, x), x) << MonoidName(m);
  }
}

TEST(MonoidTest, BagMergeIsAdditive) {
  Value a = Value::Bag({Value::Int(1)});
  Value merged = MonoidMerge(MonoidKind::kBag, a, a);
  EXPECT_EQ(merged.AsElems().size(), 2u);
}

TEST(MonoidTest, SetMergeDeduplicates) {
  Value a = Value::Set({Value::Int(1)});
  EXPECT_EQ(MonoidMerge(MonoidKind::kSet, a, a), a);
}

TEST(MonoidTest, UnitLiftsCollections) {
  EXPECT_EQ(MonoidUnit(MonoidKind::kSet, Value::Int(1)),
            Value::Set({Value::Int(1)}));
  EXPECT_EQ(MonoidUnit(MonoidKind::kSum, Value::Int(1)), Value::Int(1));
}

TEST(MonoidTest, NullIsIdentityForEveryMonoid) {
  // This is what lets nest convert outer-join padding into zeros.
  for (MonoidKind m : kAllMonoids) {
    Value x = IsCollectionMonoid(m) ? MonoidUnit(m, Value::Int(9))
              : (m == MonoidKind::kSome || m == MonoidKind::kAll)
                  ? Value::Bool(true)
                  : Value::Int(9);
    EXPECT_EQ(MonoidMerge(m, Value::Null(), x), x) << MonoidName(m);
    EXPECT_EQ(MonoidMerge(m, x, Value::Null()), x) << MonoidName(m);
  }
}

TEST(MonoidTest, AccumulatorEmptyYieldsZero) {
  for (MonoidKind m : kAllMonoids) {
    Accumulator acc(m);
    EXPECT_EQ(acc.Finish(), MonoidZero(m)) << MonoidName(m);
  }
}

TEST(MonoidTest, AccumulatorSumAndProd) {
  Accumulator sum(MonoidKind::kSum);
  sum.Add(Value::Int(2));
  sum.Add(Value::Int(3));
  EXPECT_EQ(sum.Finish(), Value::Int(5));

  Accumulator prod(MonoidKind::kProd);
  prod.Add(Value::Int(2));
  prod.Add(Value::Int(3));
  prod.Add(Value::Int(4));
  EXPECT_EQ(prod.Finish(), Value::Int(24));
}

// An int sum or product outside int64 is an EvalError, never a wrapped
// value; partial sums stay exact, so the order they are absorbed in cannot
// change the outcome.
TEST(MonoidTest, IntSumAndProdOverflowThrow) {
  Accumulator sum(MonoidKind::kSum);
  for (int i = 0; i < 100; ++i) sum.Add(Value::Int(INT64_MAX));
  EXPECT_THROW(sum.Finish(), EvalError);

  // Two partials that each leave int64 but total inside it.
  Accumulator up(MonoidKind::kSum), down(MonoidKind::kSum);
  for (int i = 0; i < 3; ++i) {
    up.Add(Value::Int(INT64_MAX));
    down.Add(Value::Int(-INT64_MAX));
  }
  up.Add(Value::Int(7));
  Accumulator total(MonoidKind::kSum);
  total.Absorb(down);
  total.Absorb(up);
  EXPECT_EQ(total.Finish(), Value::Int(7));

  // With a real among the inputs the sum is real and exact up to rounding.
  Accumulator widened(MonoidKind::kSum);
  for (int i = 0; i < 100; ++i) widened.Add(Value::Int(INT64_MAX));
  widened.Add(Value::Real(0.5));
  EXPECT_EQ(widened.Finish(), Value::Real(100 * 9223372036854775807.0));

  EXPECT_THROW(
      MonoidMerge(MonoidKind::kSum, Value::Int(INT64_MAX), Value::Int(1)),
      EvalError);
  Accumulator prod(MonoidKind::kProd);
  prod.Add(Value::Int(INT64_MAX));
  EXPECT_THROW(prod.Add(Value::Int(2)), EvalError);
  EXPECT_THROW(
      MonoidMerge(MonoidKind::kProd, Value::Int(INT64_MIN), Value::Int(-1)),
      EvalError);
}

// Two ints merge as int64, not through double: 2^53 + 1 survives max.
TEST(MonoidTest, IntMaxAndMinAreExact) {
  const Value big = Value::Int(9007199254740993);  // 2^53 + 1
  const Value below = Value::Int(9007199254740992);
  EXPECT_EQ(MonoidMerge(MonoidKind::kMax, big, below).AsInt(),
            9007199254740993);
  EXPECT_EQ(MonoidMerge(MonoidKind::kMin, big, below).AsInt(),
            9007199254740992);
  Accumulator max(MonoidKind::kMax);
  max.Add(below);
  max.Add(big);
  max.Add(below);
  EXPECT_EQ(max.Finish().AsInt(), 9007199254740993);
  EXPECT_EQ(MonoidMerge(MonoidKind::kSum, big, Value::Int(1)).AsInt(),
            9007199254740994);
}

TEST(MonoidTest, AccumulatorMixedNumericWidens) {
  Accumulator sum(MonoidKind::kSum);
  sum.Add(Value::Int(2));
  sum.Add(Value::Real(0.5));
  EXPECT_EQ(sum.Finish(), Value::Real(2.5));
}

TEST(MonoidTest, AccumulatorAvg) {
  Accumulator avg(MonoidKind::kAvg);
  avg.Add(Value::Int(2));
  avg.Add(Value::Int(4));
  EXPECT_EQ(avg.Finish(), Value::Real(3.0));

  Accumulator empty(MonoidKind::kAvg);
  EXPECT_TRUE(empty.Finish().is_null());
}

TEST(MonoidTest, AccumulatorSkipsNulls) {
  Accumulator avg(MonoidKind::kAvg);
  avg.Add(Value::Null());
  avg.Add(Value::Int(10));
  avg.Add(Value::Null());
  EXPECT_EQ(avg.Finish(), Value::Real(10.0));

  Accumulator set(MonoidKind::kSet);
  set.Add(Value::Null());
  EXPECT_EQ(set.Finish(), Value::Set({}));
}

TEST(MonoidTest, AccumulatorSaturation) {
  Accumulator some(MonoidKind::kSome);
  EXPECT_FALSE(some.Saturated());
  some.Add(Value::Bool(false));
  EXPECT_FALSE(some.Saturated());
  some.Add(Value::Bool(true));
  EXPECT_TRUE(some.Saturated());

  Accumulator all(MonoidKind::kAll);
  all.Add(Value::Bool(true));
  EXPECT_FALSE(all.Saturated());
  all.Add(Value::Bool(false));
  EXPECT_TRUE(all.Saturated());
  EXPECT_EQ(all.Finish(), Value::Bool(false));
}

TEST(MonoidTest, AccumulatorCollections) {
  Accumulator set(MonoidKind::kSet);
  set.Add(Value::Int(2));
  set.Add(Value::Int(1));
  set.Add(Value::Int(2));
  EXPECT_EQ(set.Finish(), Value::Set({Value::Int(1), Value::Int(2)}));

  Accumulator bag(MonoidKind::kBag);
  bag.Add(Value::Int(2));
  bag.Add(Value::Int(2));
  EXPECT_EQ(bag.Finish(), Value::Bag({Value::Int(2), Value::Int(2)}));

  Accumulator list(MonoidKind::kList);
  list.Add(Value::Int(2));
  list.Add(Value::Int(1));
  EXPECT_EQ(list.Finish(), Value::List({Value::Int(2), Value::Int(1)}));
}

TEST(MonoidTest, AccumulatorMergePreReduced) {
  Accumulator set(MonoidKind::kSet);
  set.Merge(Value::Set({Value::Int(1), Value::Int(2)}));
  set.Merge(Value::Set({Value::Int(2), Value::Int(3)}));
  EXPECT_EQ(set.Finish(),
            Value::Set({Value::Int(1), Value::Int(2), Value::Int(3)}));
}

TEST(MonoidTest, AvgValuesDoNotMerge) {
  EXPECT_THROW(MonoidMerge(MonoidKind::kAvg, Value::Real(1), Value::Real(2)),
               UnsupportedError);
}

TEST(MonoidTest, ResultTypes) {
  EXPECT_EQ(MonoidResultType(MonoidKind::kSet, Type::Int())->ToString(),
            "set(int)");
  EXPECT_EQ(MonoidResultType(MonoidKind::kSum, Type::Int())->kind(),
            Type::Kind::kInt);
  EXPECT_EQ(MonoidResultType(MonoidKind::kSum, Type::Real())->kind(),
            Type::Kind::kReal);
  EXPECT_EQ(MonoidResultType(MonoidKind::kAll, Type::Bool())->kind(),
            Type::Kind::kBool);
  EXPECT_EQ(MonoidResultType(MonoidKind::kAvg, Type::Int())->kind(),
            Type::Kind::kReal);
}

// first (internal: the reduce of a non-comprehension top level) keeps its
// left operand, with NULL as its zero.
TEST(MonoidTest, FirstKeepsItsLeftOperand) {
  const MonoidKind f = MonoidKind::kFirst;
  EXPECT_EQ(MonoidZero(f), Value::Null());
  EXPECT_EQ(MonoidUnit(f, Value::Int(4)), Value::Int(4));
  EXPECT_EQ(MonoidMerge(f, Value::Int(1), Value::Int(2)), Value::Int(1));
  EXPECT_EQ(MonoidMerge(f, Value::Int(2), Value::Int(1)), Value::Int(2));
  EXPECT_EQ(MonoidMerge(f, MonoidZero(f), Value::Int(2)), Value::Int(2));
  EXPECT_EQ(MonoidMerge(f, Value::Int(2), MonoidZero(f)), Value::Int(2));
  EXPECT_FALSE(IsCommutativeMonoid(f));
  EXPECT_TRUE(IsIdempotentMonoid(f));
  EXPECT_TRUE(IsPrimitiveMonoid(f));
  EXPECT_EQ(MonoidResultType(f, Type::Set(Type::Int()))->ToString(),
            Type::Set(Type::Int())->ToString());

  Accumulator empty(f);
  EXPECT_EQ(empty.Finish(), Value::Null());

  // Add keeps the first non-NULL value.
  Accumulator acc(f);
  acc.Add(Value::Null());
  acc.Add(Value::Set({Value::Int(1)}));
  acc.Add(Value::Set({Value::Int(2)}));
  EXPECT_EQ(acc.Finish(), Value::Set({Value::Int(1)}));

  // Absorbing partials in stream order keeps the earliest partial's value,
  // and an empty partial changes nothing.
  Accumulator early(f), late(f), none(f), merged(f);
  early.Add(Value::Str("early"));
  late.Add(Value::Str("late"));
  merged.Absorb(none);
  merged.Absorb(early);
  merged.Absorb(late);
  EXPECT_EQ(merged.Finish(), Value::Str("early"));
}

TEST(MonoidTest, HeadConstraints) {
  EXPECT_EQ(MonoidHeadConstraint(MonoidKind::kSet), nullptr);
  EXPECT_EQ(MonoidHeadConstraint(MonoidKind::kSome)->kind(), Type::Kind::kBool);
  EXPECT_EQ(MonoidHeadConstraint(MonoidKind::kSum)->kind(), Type::Kind::kReal);
}

}  // namespace
}  // namespace ldb
