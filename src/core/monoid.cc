#include "src/core/monoid.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "src/runtime/error.h"

namespace ldb {

bool IsCollectionMonoid(MonoidKind k) {
  return k == MonoidKind::kSet || k == MonoidKind::kBag || k == MonoidKind::kList;
}

bool IsIdempotentMonoid(MonoidKind k) {
  switch (k) {
    case MonoidKind::kSet:
    case MonoidKind::kMax:
    case MonoidKind::kMin:
    case MonoidKind::kSome:
    case MonoidKind::kAll:
    case MonoidKind::kFirst:
      return true;
    default:
      return false;
  }
}

bool IsCommutativeMonoid(MonoidKind k) {
  return k != MonoidKind::kList && k != MonoidKind::kFirst;
}

const char* MonoidName(MonoidKind k) {
  switch (k) {
    case MonoidKind::kSet:  return "set";
    case MonoidKind::kBag:  return "bag";
    case MonoidKind::kList: return "list";
    case MonoidKind::kSum:  return "sum";
    case MonoidKind::kProd: return "prod";
    case MonoidKind::kMax:  return "max";
    case MonoidKind::kMin:  return "min";
    case MonoidKind::kSome: return "some";
    case MonoidKind::kAll:  return "all";
    case MonoidKind::kAvg:  return "avg";
    case MonoidKind::kFirst: return "first";
  }
  return "?";
}

Value MonoidZero(MonoidKind k) {
  switch (k) {
    case MonoidKind::kSet:  return Value::Set({});
    case MonoidKind::kBag:  return Value::Bag({});
    case MonoidKind::kList: return Value::List({});
    case MonoidKind::kSum:  return Value::Int(0);
    case MonoidKind::kProd: return Value::Int(1);
    case MonoidKind::kMax:  return Value::Null();
    case MonoidKind::kMin:  return Value::Null();
    case MonoidKind::kSome: return Value::Bool(false);
    case MonoidKind::kAll:  return Value::Bool(true);
    case MonoidKind::kAvg:  return Value::Null();
    case MonoidKind::kFirst: return Value::Null();
  }
  throw InternalError("bad monoid");
}

Value MonoidUnit(MonoidKind k, const Value& v) {
  switch (k) {
    case MonoidKind::kSet:  return Value::Set({v});
    case MonoidKind::kBag:  return Value::Bag({v});
    case MonoidKind::kList: return Value::List({v});
    default:                return v;  // primitive monoids: unit is identity
  }
}

namespace {

Value NumericMerge(MonoidKind k, const Value& a, const Value& b) {
  if (a.kind() == Value::Kind::kInt && b.kind() == Value::Kind::kInt) {
    // Exact int64: no detour through double, and no silent wrap.
    const int64_t x = a.AsInt(), y = b.AsInt();
    int64_t out = 0;
    switch (k) {
      case MonoidKind::kSum:
        if (__builtin_add_overflow(x, y, &out)) {
          throw EvalError("integer overflow in sum");
        }
        return Value::Int(out);
      case MonoidKind::kProd:
        if (__builtin_mul_overflow(x, y, &out)) {
          throw EvalError("integer overflow in prod");
        }
        return Value::Int(out);
      case MonoidKind::kMax: return Value::Int(std::max(x, y));
      case MonoidKind::kMin: return Value::Int(std::min(x, y));
      default: throw InternalError("not numeric monoid");
    }
  }
  double x = a.AsNumeric(), y = b.AsNumeric();
  switch (k) {
    case MonoidKind::kSum:  return Value::Real(x + y);
    case MonoidKind::kProd: return Value::Real(x * y);
    case MonoidKind::kMax:  return Value::Real(std::max(x, y));
    case MonoidKind::kMin:  return Value::Real(std::min(x, y));
    default: throw InternalError("not numeric monoid");
  }
}

}  // namespace

Value MonoidMerge(MonoidKind k, const Value& a, const Value& b) {
  // NULL is an identity for every monoid.
  if (a.is_null()) return b;
  if (b.is_null()) return a;
  switch (k) {
    case MonoidKind::kSet:
    case MonoidKind::kBag:
    case MonoidKind::kList: {
      Elems out = a.AsElems();
      const Elems& more = b.AsElems();
      out.insert(out.end(), more.begin(), more.end());
      if (k == MonoidKind::kSet) return Value::Set(std::move(out));
      if (k == MonoidKind::kBag) return Value::Bag(std::move(out));
      return Value::List(std::move(out));
    }
    case MonoidKind::kSum:
    case MonoidKind::kProd:
    case MonoidKind::kMax:
    case MonoidKind::kMin:
      return NumericMerge(k, a, b);
    case MonoidKind::kSome:
      return Value::Bool(a.AsBool() || b.AsBool());
    case MonoidKind::kAll:
      return Value::Bool(a.AsBool() && b.AsBool());
    case MonoidKind::kAvg:
      throw UnsupportedError("avg values do not merge; use Accumulator");
    case MonoidKind::kFirst:
      return a;
  }
  throw InternalError("bad monoid");
}

TypePtr MonoidHeadConstraint(MonoidKind k) {
  switch (k) {
    case MonoidKind::kSum:
    case MonoidKind::kProd:
    case MonoidKind::kMax:
    case MonoidKind::kMin:
    case MonoidKind::kAvg:
      return Type::Real();  // numeric (int unifies with real)
    case MonoidKind::kSome:
    case MonoidKind::kAll:
      return Type::Bool();
    default:
      return nullptr;
  }
}

TypePtr MonoidResultType(MonoidKind k, const TypePtr& head) {
  switch (k) {
    case MonoidKind::kSet:  return Type::Set(head);
    case MonoidKind::kBag:  return Type::Bag(head);
    case MonoidKind::kList: return Type::List(head);
    case MonoidKind::kSum:
    case MonoidKind::kProd:
    case MonoidKind::kMax:
    case MonoidKind::kMin:
      return head->kind() == Type::Kind::kInt ? Type::Int() : Type::Real();
    case MonoidKind::kAvg:  return Type::Real();
    case MonoidKind::kSome:
    case MonoidKind::kAll:
      return Type::Bool();
    case MonoidKind::kFirst: return head;
  }
  throw InternalError("bad monoid");
}

// -- ExactSum ----------------------------------------------------------------

void ExactSum::Add(double v) {
  if (v == 0.0) return;  // ±0 contributes nothing
  if (!std::isfinite(v)) {
    nonfinite_ = has_nonfinite_ ? nonfinite_ + v : v;
    has_nonfinite_ = true;
    return;
  }
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  const bool neg = (bits >> 63) != 0;
  int exp = static_cast<int>((bits >> 52) & 0x7FF);
  uint64_t mant = bits & ((uint64_t{1} << 52) - 1);
  if (exp == 0) {
    exp = 1;  // subnormal: same scale, no implicit bit
  } else {
    mant |= uint64_t{1} << 52;
  }
  // v = ±mant * 2^(exp - 1075); the mantissa's lowest bit lands at array
  // bit index (exp - 1075) - kBias.
  const int pos = exp - 1075 - kBias;
  const int limb = pos >> 5;
  const int shift = pos & 31;
  const unsigned __int128 m = static_cast<unsigned __int128>(mant) << shift;
  const int64_t d0 = static_cast<uint32_t>(m);
  const int64_t d1 = static_cast<uint32_t>(m >> 32);
  const int64_t d2 = static_cast<uint32_t>(m >> 64);
  if (neg) {
    limbs_[limb] -= d0;
    limbs_[limb + 1] -= d1;
    limbs_[limb + 2] -= d2;
  } else {
    limbs_[limb] += d0;
    limbs_[limb + 1] += d1;
    limbs_[limb + 2] += d2;
  }
  if (++pending_ >= (1 << 29)) Normalize();
}

void ExactSum::AddInt(__int128 v) {
  // Split into 32-bit pieces, each exactly representable as a double: three
  // unsigned low pieces and a signed top one.
  for (int k = 0; k < 3; ++k) {
    const auto piece = static_cast<uint32_t>(v >> (32 * k));
    Add(std::ldexp(static_cast<double>(piece), 32 * k));
  }
  Add(std::ldexp(static_cast<double>(static_cast<int64_t>(v >> 96)), 96));
}

void ExactSum::Normalize() {
  int64_t carry = 0;
  for (int i = 0; i < kLimbs - 1; ++i) {
    const int64_t t = limbs_[i] + carry;
    carry = t >> 32;  // arithmetic shift: floor(t / 2^32)
    limbs_[i] = t - (carry << 32);
  }
  limbs_[kLimbs - 1] += carry;  // top limb stays 64-bit signed
  pending_ = 0;
}

void ExactSum::Absorb(const ExactSum& other) {
  ExactSum tmp = other;
  tmp.Normalize();
  Normalize();
  for (int i = 0; i < kLimbs; ++i) limbs_[i] += tmp.limbs_[i];
  pending_ = 1;
  if (tmp.has_nonfinite_) {
    nonfinite_ = has_nonfinite_ ? nonfinite_ + tmp.nonfinite_ : tmp.nonfinite_;
    has_nonfinite_ = true;
  }
}

double ExactSum::Round() const {
  if (has_nonfinite_) return nonfinite_;
  // Full carry propagation into unsigned 32-bit digits.
  uint64_t dig[kLimbs];
  int64_t carry = 0;
  for (int i = 0; i < kLimbs; ++i) {
    const int64_t t = limbs_[i] + carry;
    carry = t >> 32;
    dig[i] = static_cast<uint64_t>(t - (carry << 32));
  }
  int sign = 1;
  if (carry < 0) {  // negative total: two's-complement negate
    sign = -1;
    uint64_t c = 1;
    for (int i = 0; i < kLimbs; ++i) {
      const uint64_t d = (~dig[i] & 0xFFFFFFFFu) + c;
      dig[i] = d & 0xFFFFFFFFu;
      c = d >> 32;
    }
  } else if (carry > 0) {
    return HUGE_VAL;  // beyond double range (unreachable for in-range data)
  }
  int top = kLimbs - 1;
  while (top >= 0 && dig[top] == 0) --top;
  if (top < 0) return 0.0;
  const int msb_in = 31 - std::countl_zero(static_cast<uint32_t>(dig[top]));
  const long msb = 32L * top + msb_in + kBias;  // weight exponent of the MSB
  // Keep 53 bits for normal results, fewer when the result is subnormal.
  const int prec =
      msb >= -1022 ? 53 : static_cast<int>(msb + 1074 + 1);
  auto bit_at = [&](long w) -> uint64_t {  // bit of weight 2^w
    const long idx = w - kBias;
    if (idx < 0) return 0;
    return (dig[idx >> 5] >> (idx & 31)) & 1;
  };
  uint64_t mant = 0;
  for (int i = 0; i < prec; ++i) mant = (mant << 1) | bit_at(msb - i);
  const uint64_t round_bit = bit_at(msb - prec);
  bool sticky = false;
  const long low_idx = (msb - prec) - kBias;  // array index of the round bit
  for (long i = 0; i < low_idx >> 5 && !sticky; ++i) sticky = dig[i] != 0;
  if (!sticky && low_idx > 0) {
    const uint64_t below =
        dig[low_idx >> 5] & ((uint64_t{1} << (low_idx & 31)) - 1);
    sticky = below != 0;
  }
  if (round_bit && (sticky || (mant & 1))) ++mant;  // round half to even
  const double result =
      std::ldexp(static_cast<double>(mant), static_cast<int>(msb - prec + 1));
  return sign < 0 ? -result : result;
}

// -- Accumulator -------------------------------------------------------------

Accumulator::Accumulator(MonoidKind kind)
    : kind_(kind), current_(MonoidZero(kind)) {}

void Accumulator::Add(const Value& v) {
  if (v.is_null()) return;  // NULL contributes the zero element
  switch (kind_) {
    case MonoidKind::kSet:
    case MonoidKind::kBag:
    case MonoidKind::kList:
      elems_.push_back(v);
      return;
    case MonoidKind::kAvg:
      sum_.Add(v.AsNumeric());
      avg_count_ += 1;
      return;
    case MonoidKind::kSum:
      if (v.kind() == Value::Kind::kInt) {
        int_sum_ += v.AsInt();
      } else {
        sum_.Add(v.AsNumeric());
        sum_has_real_ = true;
      }
      has_value_ = true;
      return;
    default:
      if (!has_value_ && (kind_ == MonoidKind::kMax || kind_ == MonoidKind::kMin)) {
        current_ = v;
      } else {
        current_ = MonoidMerge(kind_, current_, v);
      }
      has_value_ = true;
      return;
  }
}

void Accumulator::Merge(const Value& v) {
  if (v.is_null()) return;
  switch (kind_) {
    case MonoidKind::kSet:
    case MonoidKind::kBag:
    case MonoidKind::kList: {
      const Elems& more = v.AsElems();
      elems_.insert(elems_.end(), more.begin(), more.end());
      return;
    }
    case MonoidKind::kAvg:
      throw UnsupportedError("avg values do not merge");
    default:
      Add(v);
      return;
  }
}

void Accumulator::Absorb(const Accumulator& other) {
  LDB_INTERNAL_CHECK(other.kind_ == kind_, "absorbing mismatched monoids");
  switch (kind_) {
    case MonoidKind::kSet:
    case MonoidKind::kBag:
    case MonoidKind::kList:
      elems_.insert(elems_.end(), other.elems_.begin(), other.elems_.end());
      return;
    case MonoidKind::kAvg:
      sum_.Absorb(other.sum_);
      avg_count_ += other.avg_count_;
      return;
    case MonoidKind::kSum:
      int_sum_ += other.int_sum_;
      sum_.Absorb(other.sum_);
      sum_has_real_ = sum_has_real_ || other.sum_has_real_;
      has_value_ = has_value_ || other.has_value_;
      return;
    default:
      if (other.has_value_) Add(other.current_);
      return;
  }
}

bool Accumulator::Saturated() const {
  if (kind_ == MonoidKind::kSome) {
    return has_value_ && current_.kind() == Value::Kind::kBool && current_.AsBool();
  }
  if (kind_ == MonoidKind::kAll) {
    return has_value_ && current_.kind() == Value::Kind::kBool && !current_.AsBool();
  }
  return false;
}

Value Accumulator::Finish() {
  switch (kind_) {
    case MonoidKind::kSet:  return Value::Set(std::move(elems_));
    case MonoidKind::kBag:  return Value::Bag(std::move(elems_));
    case MonoidKind::kList: return Value::List(std::move(elems_));
    case MonoidKind::kAvg:
      if (avg_count_ == 0) return Value::Null();
      return Value::Real(sum_.Round() / static_cast<double>(avg_count_));
    case MonoidKind::kSum:
      // Result is an int iff every input was an int (the zero is Int(0)).
      if (!sum_has_real_) {
        if (int_sum_ < INT64_MIN || int_sum_ > INT64_MAX) {
          throw EvalError("integer overflow in sum");
        }
        return Value::Int(static_cast<int64_t>(int_sum_));
      }
      {
        ExactSum total = sum_;
        total.AddInt(int_sum_);
        return Value::Real(total.Round());
      }
    default:
      return current_;
  }
}

}  // namespace ldb
