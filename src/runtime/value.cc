#include "src/runtime/value.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <new>
#include <sstream>

#include "src/core/thread_annotations.h"
#include "src/runtime/error.h"

namespace ldb {

namespace {

int KindRank(Value::Kind k) { return static_cast<int>(k); }

void SortCanonical(Elems* elems) {
  std::sort(elems->begin(), elems->end(),
            [](const Value& a, const Value& b) { return Value::Compare(a, b) < 0; });
}

// Orders an int against a real exactly, without rounding the int through
// double (2^53 + 1 is greater than 2^53 as a real). A NaN is neither less
// nor greater than anything.
int CompareIntReal(int64_t i, double d) {
  if (std::isnan(d)) return 0;
  constexpr double kTwo63 = 9223372036854775808.0;  // 2^63, exact
  if (d >= kTwo63) return -1;
  if (d < -kTwo63) return 1;
  const double whole = std::trunc(d);  // in [-2^63, 2^63): fits int64
  const auto t = static_cast<int64_t>(whole);
  if (i != t) return i < t ? -1 : 1;
  const double frac = d - whole;  // exact
  return frac > 0 ? -1 : frac < 0 ? 1 : 0;
}

// A heap string: the header's n is the length, the bytes follow it.
struct StrCell : detail::Cell {
  char* chars() { return reinterpret_cast<char*>(this + 1); }
};

// A collection's elements.
struct ElemsCell : detail::Cell {
  explicit ElemsCell(Elems e) : elems(std::move(e)) {}
  Elems elems;
};

// The interned class names. Ids below size_ name published entries; an
// entry is written once, under mu_, before size_ is released past it, so
// readers take no lock.
class ClassTable {
 public:
  struct Entry {
    std::string name;
    size_t hash = 0;
  };

  std::optional<uint32_t> Intern(std::string_view name) {
    const size_t hash = std::hash<std::string_view>()(name);
    const uint32_t published = size_.load(std::memory_order_acquire);
    if (auto id = Scan(name, hash, 0, published)) return id;
    if (name.size() > ClassNames::kMaxNameBytes) return std::nullopt;
    return Append(name, hash, published);
  }

  const Entry& entry(uint32_t id) const { return entries_[id]; }

 private:
  std::optional<uint32_t> Scan(std::string_view name, size_t hash,
                               uint32_t from, uint32_t to) const {
    for (uint32_t i = from; i < to; ++i) {
      if (entries_[i].hash == hash && entries_[i].name == name) return i;
    }
    return std::nullopt;
  }

  std::optional<uint32_t> Append(std::string_view name, size_t hash,
                                 uint32_t seen) LDB_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    const uint32_t size = size_.load(std::memory_order_relaxed);
    if (auto id = Scan(name, hash, seen, size)) return id;  // raced in
    if (size == ClassNames::kCapacity) return std::nullopt;
    entries_[size] = Entry{std::string(name), hash};
    size_.store(size + 1, std::memory_order_release);
    return size;
  }

  Mutex mu_;  // serializes Append
  std::atomic<uint32_t> size_{0};
  Entry entries_[ClassNames::kCapacity];
};

ClassTable& Classes() {
  static ClassTable* table = new ClassTable;  // outlives static destructors
  return *table;
}

}  // namespace

// -- ClassNames ----------------------------------------------------------------

std::optional<uint32_t> ClassNames::Intern(std::string_view name) {
  return Classes().Intern(name);
}

const std::string& ClassNames::Name(uint32_t id) {
  return Classes().entry(id).name;
}

size_t ClassNames::NameHash(uint32_t id) { return Classes().entry(id).hash; }

// -- Shape ---------------------------------------------------------------------

Shape::Shape(std::vector<std::string> names) {
  fields_.reserve(names.size());
  for (std::string& n : names) {
    const size_t hash = std::hash<std::string>()(n);
    fields_.push_back(Field{std::move(n), hash});
  }
}

ShapePtr Shape::Make(std::vector<std::string> names) {
  return ShapePtr(new Shape(std::move(names)));
}

int Shape::Find(std::string_view name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

bool Shape::SameNames(const Shape& other) const {
  return std::equal(fields_.begin(), fields_.end(), other.fields_.begin(),
                    other.fields_.end(), [](const Field& a, const Field& b) {
                      return a.hash == b.hash && a.name == b.name;
                    });
}

// -- Value: construction and lifetime ----------------------------------------

Value Value::Bool(bool b) { return Inline(Kind::kBool, b); }

Value Value::Int(int64_t i) { return Inline(Kind::kInt, i); }

Value Value::Real(double d) { return Inline(Kind::kReal, d); }

Value Value::Str(std::string_view s) {
  Value v;
  if (s.size() <= kInlineStr) {
    if (!s.empty()) std::memcpy(v.bytes_, s.data(), s.size());
    v.bytes_[kStrLen] = static_cast<unsigned char>(s.size());
    v.bytes_[kTag] = static_cast<unsigned char>(Kind::kStr);
    return v;
  }
  if (s.size() > UINT32_MAX) throw EvalError("string longer than 4 GiB");
  auto* c = new (::operator new(sizeof(StrCell) + s.size())) StrCell;
  c->n = static_cast<uint32_t>(s.size());
  std::memcpy(c->chars(), s.data(), s.size());
  v.SetCell(Kind::kStr, c);
  return v;
}

Value Value::Tuple(Fields fields) {
  std::vector<std::string> names;
  Elems values;
  names.reserve(fields.size());
  values.reserve(fields.size());
  for (auto& [n, f] : fields) {
    names.push_back(std::move(n));
    values.push_back(std::move(f));
  }
  return Tuple(Shape::Make(std::move(names)), std::move(values));
}

Value Value::Tuple(ShapePtr shape, Elems values) {
  LDB_INTERNAL_CHECK(shape->size() == values.size(),
                     "tuple values do not match its shape");
  auto* r = new (::operator new(sizeof(Record) + values.size() * sizeof(Value)))
      Record(std::move(shape));
  r->n = static_cast<uint32_t>(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    new (&r->values()[i]) Value(std::move(values[i]));
  }
  Value v;
  v.SetCell(Kind::kTuple, r);
  return v;
}

Value Value::Collection(Kind k, Elems elems) {
  Value v;
  v.SetCell(k, new ElemsCell(std::move(elems)));
  return v;
}

Value Value::Set(Elems elems) {
  SortCanonical(&elems);
  elems.erase(std::unique(elems.begin(), elems.end(),
                          [](const Value& a, const Value& b) {
                            return Compare(a, b) == 0;
                          }),
              elems.end());
  return Collection(Kind::kSet, std::move(elems));
}

Value Value::Bag(Elems elems) {
  SortCanonical(&elems);
  return Collection(Kind::kBag, std::move(elems));
}

Value Value::List(Elems elems) { return Collection(Kind::kList, std::move(elems)); }

Value Value::MakeRef(std::string_view class_name, int64_t oid) {
  std::optional<uint32_t> id = ClassNames::Intern(class_name);
  if (!id) {
    throw EvalError("class name '" + std::string(class_name.substr(0, 64)) +
                    "' does not intern: names are limited to " +
                    std::to_string(ClassNames::kCapacity) + " classes of " +
                    std::to_string(ClassNames::kMaxNameBytes) + " bytes");
  }
  return MakeRef(Ref{*id, oid});
}

Value Value::MakeRef(Ref ref) {
  Value v = Inline(Kind::kRef, ref.oid);
  std::memcpy(v.bytes_ + 8, &ref.class_id, sizeof ref.class_id);
  return v;
}

Value Value::ShareShape(Value tuple, const ShapePtr& shape) {
  auto* r = static_cast<Record*>(tuple.cell());
  if (r->shape_.get() == shape.get() || !r->shape_->SameNames(*shape)) {
    return tuple;
  }
  if (r->refs.load(std::memory_order_acquire) == 1) {
    r->shape_ = shape;  // the only owner: no reader can see the swap
    return tuple;
  }
  Elems values(r->values(), r->values() + r->size());
  return Tuple(shape, std::move(values));
}

void Value::ReleaseCell() {
  detail::Cell* c = cell();
  if (c->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  switch (kind()) {
    case Kind::kStr:
      static_cast<StrCell*>(c)->~StrCell();
      ::operator delete(c);
      return;
    case Kind::kTuple: {
      auto* r = static_cast<Record*>(c);
      for (size_t i = 0; i < r->size(); ++i) r->values()[i].~Value();
      r->~Record();
      ::operator delete(r);
      return;
    }
    default:
      delete static_cast<ElemsCell*>(c);
      return;
  }
}

// -- Value: accessors --------------------------------------------------------

bool Value::AsBool() const {
  if (kind() != Kind::kBool) throw EvalError("expected bool, got " + ToString());
  return Word<bool>();
}

int64_t Value::AsInt() const {
  if (kind() != Kind::kInt) throw EvalError("expected int, got " + ToString());
  return Word<int64_t>();
}

double Value::AsReal() const {
  if (kind() != Kind::kReal) throw EvalError("expected real, got " + ToString());
  return Word<double>();
}

double Value::AsNumeric() const {
  if (kind() == Kind::kInt) return static_cast<double>(Word<int64_t>());
  if (kind() == Kind::kReal) return Word<double>();
  throw EvalError("expected numeric, got " + ToString());
}

std::string_view Value::AsStr() const {
  if (kind() != Kind::kStr) throw EvalError("expected string, got " + ToString());
  if (on_heap()) {
    auto* c = static_cast<StrCell*>(cell());
    return {c->chars(), c->n};
  }
  return {reinterpret_cast<const char*>(bytes_), bytes_[kStrLen]};
}

const Record& Value::AsTuple() const {
  if (kind() != Kind::kTuple) throw EvalError("expected tuple, got " + ToString());
  return *static_cast<const Record*>(cell());
}

const Elems& Value::AsElems() const {
  if (!is_collection()) throw EvalError("expected collection, got " + ToString());
  return static_cast<const ElemsCell*>(cell())->elems;
}

Ref Value::AsRef() const {
  if (kind() != Kind::kRef) throw EvalError("expected ref, got " + ToString());
  Ref r;
  r.oid = Word<int64_t>();
  std::memcpy(&r.class_id, bytes_ + 8, sizeof r.class_id);
  return r;
}

const Value& Value::Field(std::string_view name) const {
  if (const Value* v = AsTuple().Find(name)) return *v;
  throw EvalError("tuple has no attribute '" + std::string(name) + "': " +
                  ToString());
}

bool Value::HasField(std::string_view name) const {
  return kind() == Kind::kTuple && AsTuple().Find(name) != nullptr;
}

// -- Value: order, hash, text --------------------------------------------------

int Value::Compare(const Value& a, const Value& b) {
  // Numeric values of different kinds (int vs real) compare by numeric value
  // so that 3 == 3.0; everything else ranks by kind first.
  if (a.is_numeric() && b.is_numeric()) {
    const bool ai = a.kind() == Kind::kInt, bi = b.kind() == Kind::kInt;
    if (ai && bi) {
      const int64_t x = a.Word<int64_t>(), y = b.Word<int64_t>();
      return x < y ? -1 : x > y ? 1 : 0;
    }
    if (ai) return CompareIntReal(a.Word<int64_t>(), b.Word<double>());
    if (bi) return -CompareIntReal(b.Word<int64_t>(), a.Word<double>());
    const double x = a.Word<double>(), y = b.Word<double>();
    return x < y ? -1 : x > y ? 1 : 0;
  }
  if (a.kind() != b.kind()) {
    return KindRank(a.kind()) < KindRank(b.kind()) ? -1 : 1;
  }
  switch (a.kind()) {
    case Kind::kNull:
      return 0;
    case Kind::kBool:
      return (a.Word<bool>() ? 1 : 0) - (b.Word<bool>() ? 1 : 0);
    case Kind::kInt:
    case Kind::kReal:
      return 0;  // handled above
    case Kind::kStr:
      return a.AsStr().compare(b.AsStr());
    case Kind::kTuple: {
      const Record& ta = a.AsTuple();
      const Record& tb = b.AsTuple();
      const bool same_shape = ta.shape().get() == tb.shape().get();
      size_t n = std::min(ta.size(), tb.size());
      for (size_t i = 0; i < n; ++i) {
        int c = same_shape ? 0 : ta.name(i).compare(tb.name(i));
        if (c != 0) return c;
        c = Compare(ta.value(i), tb.value(i));
        if (c != 0) return c;
      }
      if (ta.size() != tb.size()) return ta.size() < tb.size() ? -1 : 1;
      return 0;
    }
    case Kind::kSet:
    case Kind::kBag:
    case Kind::kList: {
      const Elems& ea = a.AsElems();
      const Elems& eb = b.AsElems();
      size_t n = std::min(ea.size(), eb.size());
      for (size_t i = 0; i < n; ++i) {
        int c = Compare(ea[i], eb[i]);
        if (c != 0) return c;
      }
      if (ea.size() != eb.size()) return ea.size() < eb.size() ? -1 : 1;
      return 0;
    }
    case Kind::kRef: {
      // By class name, not id: ids follow interning order, which differs
      // between processes.
      const Ref ra = a.AsRef(), rb = b.AsRef();
      if (ra.class_id != rb.class_id) {
        return ra.class_name() < rb.class_name() ? -1 : 1;
      }
      if (ra.oid != rb.oid) return ra.oid < rb.oid ? -1 : 1;
      return 0;
    }
  }
  return 0;
}

size_t Value::Hash() const {
  size_t h = static_cast<size_t>(kind()) * 0x9e3779b9;
  switch (kind()) {
    case Kind::kNull:
      return h;
    case Kind::kBool:
      return HashCombine(h, Word<bool>() ? 1 : 2);
    case Kind::kInt:
      // Hash ints through double so that 3 and 3.0 (which compare equal) hash
      // the same.
      return HashCombine(
          0x7f, std::hash<double>()(static_cast<double>(Word<int64_t>())));
    case Kind::kReal:
      return HashCombine(0x7f, std::hash<double>()(Word<double>()));
    case Kind::kStr:
      return HashCombine(h, std::hash<std::string_view>()(AsStr()));
    case Kind::kTuple: {
      const Record& t = AsTuple();
      for (size_t i = 0; i < t.size(); ++i) {
        h = HashCombine(h, t.shape()->name_hash(i));
        h = HashCombine(h, t.value(i).Hash());
      }
      return h;
    }
    case Kind::kSet:
    case Kind::kBag:
    case Kind::kList: {
      for (const Value& v : AsElems()) h = HashCombine(h, v.Hash());
      return h;
    }
    case Kind::kRef: {
      const Ref r = AsRef();
      h = HashCombine(h, ClassNames::NameHash(r.class_id));
      return HashCombine(h, std::hash<int64_t>()(r.oid));
    }
  }
  return h;
}

std::string Value::ToString() const {
  std::ostringstream os;
  switch (kind()) {
    case Kind::kNull:
      os << "NULL";
      break;
    case Kind::kBool:
      os << (Word<bool>() ? "true" : "false");
      break;
    case Kind::kInt:
      os << Word<int64_t>();
      break;
    case Kind::kReal:
      os << Word<double>();
      break;
    case Kind::kStr:
      os << '"' << AsStr() << '"';
      break;
    case Kind::kTuple: {
      const Record& t = AsTuple();
      os << '<';
      for (size_t i = 0; i < t.size(); ++i) {
        if (i > 0) os << ", ";
        os << t.name(i) << '=' << t.value(i).ToString();
      }
      os << '>';
      break;
    }
    case Kind::kSet:
    case Kind::kBag:
    case Kind::kList: {
      const Kind k = kind();
      const char* open = k == Kind::kSet ? "{" : k == Kind::kBag ? "{|" : "[";
      const char* close = k == Kind::kSet ? "}" : k == Kind::kBag ? "|}" : "]";
      os << open;
      bool first = true;
      for (const Value& v : AsElems()) {
        if (!first) os << ", ";
        first = false;
        os << v.ToString();
      }
      os << close;
      break;
    }
    case Kind::kRef: {
      const Ref r = AsRef();
      os << r.class_name() << '#' << r.oid;
      break;
    }
  }
  return os.str();
}

size_t EstimateValueBytes(const Value& v) {
  size_t bytes = sizeof(Value);
  switch (v.kind()) {
    case Value::Kind::kStr: {
      const size_t n = v.AsStr().size();
      if (n > Value::kInlineStr) bytes += sizeof(detail::Cell) + n;
      break;
    }
    case Value::Kind::kTuple: {
      const Record& t = v.AsTuple();
      bytes += sizeof(Record);
      for (size_t i = 0; i < t.size(); ++i) bytes += EstimateValueBytes(t.value(i));
      break;
    }
    case Value::Kind::kSet:
    case Value::Kind::kBag:
    case Value::Kind::kList:
      bytes += sizeof(detail::Cell) + sizeof(Elems);
      for (const Value& elem : v.AsElems()) bytes += EstimateValueBytes(elem);
      break;
    default:
      break;  // null / bool / int / real / ref are inline
  }
  return bytes;
}

}  // namespace ldb
