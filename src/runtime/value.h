// Runtime value model for the lambdadb query engine.
//
// Values are the data the engine computes over: the primitives of the monoid
// calculus (booleans, integers, reals, strings), the NULL value introduced by
// outer-joins and outer-unnests (Fegaras, SIGMOD'98, Section 3), records
// ("tuples" in the paper), the three collection kinds (set, bag, list), and
// references to objects stored in class extents (the OODB part).
//
// Layout. A Value is 16 bytes. NULL, booleans, ints, reals and refs are
// inline; a ref is an interned class id (ClassNames) plus the oid. Strings
// of up to 14 bytes are inline too. Longer strings, tuples and collections
// sit behind one pointer to an immutable, reference-counted heap cell, so
// copying a Value is a 16-byte copy plus, for a heap payload, one atomic
// increment, and rewriting passes and evaluators share structure freely.
// A tuple does not store its field names: they live in a Shape shared by
// every tuple built with it. Each object shares its class's shape
// (Database::Insert) and each record a compiled `struct(...)` builds shares
// that node's shape.
//
// Sets and bags are kept in a canonical order (sorted by Value::Compare; sets
// additionally deduplicated) so that operator== is plain structural equality
// and query results can be compared directly in tests. Compare and Hash
// depend on class and field names, never on intern ids or shape addresses,
// so canonical order is the same in every process.

#ifndef LAMBDADB_RUNTIME_VALUE_H_
#define LAMBDADB_RUNTIME_VALUE_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ldb {

class Value;

/// Named fields of a record value, in declaration order: what Value::Tuple
/// builds a tuple from. The built tuple keeps its names in a Shape.
using Fields = std::vector<std::pair<std::string, Value>>;
/// Elements of a collection value.
using Elems = std::vector<Value>;

/// The process's interned class names: a ref stores the id of its class
/// name, not the name. Ids are dense and never reused; the table is fixed
/// size, so no input can grow it past kCapacity names.
class ClassNames {
 public:
  /// Most distinct class names one process interns.
  static constexpr uint32_t kCapacity = 1024;
  /// Longest class name that interns, in bytes.
  static constexpr size_t kMaxNameBytes = 256;

  /// The id of `name`, interned on first use. Nullopt when the name is
  /// longer than kMaxNameBytes or the table is full.
  static std::optional<uint32_t> Intern(std::string_view name);
  /// The name of an id Intern returned. Takes no lock.
  static const std::string& Name(uint32_t id);
  /// std::hash of Name(id), computed once when it was interned.
  static size_t NameHash(uint32_t id);
};

/// A reference to an object living in a class extent of a Database.
struct Ref {
  uint32_t class_id = 0;  ///< ClassNames id of the object's class
  int64_t oid = 0;

  const std::string& class_name() const { return ClassNames::Name(class_id); }
};

namespace detail {
/// Header of every heap payload and of Shape: the reference count, plus a
/// size whose meaning is the payload's (string length, field count).
struct Cell {
  mutable std::atomic<uint32_t> refs{1};
  uint32_t n = 0;
};
}  // namespace detail

class Shape;

/// Shared ownership of a Shape.
class ShapePtr {
 public:
  ShapePtr() = default;
  ShapePtr(const ShapePtr& other);
  ShapePtr(ShapePtr&& other) noexcept
      : p_(std::exchange(other.p_, nullptr)) {}
  ShapePtr& operator=(ShapePtr other) noexcept {
    std::swap(p_, other.p_);
    return *this;
  }
  ~ShapePtr();

  const Shape* get() const { return p_; }
  const Shape& operator*() const { return *p_; }
  const Shape* operator->() const { return p_; }
  explicit operator bool() const { return p_ != nullptr; }

 private:
  friend class Shape;
  explicit ShapePtr(const Shape* adopted) : p_(adopted) {}

  const Shape* p_ = nullptr;
};

/// The field names of a tuple, in order, stored once and shared by every
/// tuple built with this shape. Immutable.
class Shape : private detail::Cell {
 public:
  static ShapePtr Make(std::vector<std::string> names);

  size_t size() const { return fields_.size(); }
  const std::string& name(size_t i) const { return fields_[i].name; }
  /// std::hash of name(i).
  size_t name_hash(size_t i) const { return fields_[i].hash; }
  /// Position of the named field, or -1.
  int Find(std::string_view name) const;
  bool SameNames(const Shape& other) const;

 private:
  friend class ShapePtr;
  struct Field {
    std::string name;
    size_t hash;
  };
  explicit Shape(std::vector<std::string> names);

  std::vector<Field> fields_;
};

inline ShapePtr::ShapePtr(const ShapePtr& other) : p_(other.p_) {
  if (p_ != nullptr) p_->refs.fetch_add(1, std::memory_order_relaxed);
}

inline ShapePtr::~ShapePtr() {
  if (p_ != nullptr && p_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    delete p_;
  }
}

class Record;

/// An immutable runtime value.
class Value {
 public:
  enum class Kind : uint8_t {
    kNull,    ///< The NULL value (outer-join padding). Distinct from any other.
    kBool,
    kInt,     ///< 64-bit signed integer.
    kReal,    ///< Double-precision float.
    kStr,
    kTuple,   ///< Record with named attributes.
    kSet,     ///< Canonical: sorted, deduplicated.
    kBag,     ///< Canonical: sorted, duplicates kept.
    kList,    ///< Order preserved as constructed.
    kRef,     ///< Reference to an object in a class extent.
  };

  /// Longest string kept inline, in bytes.
  static constexpr size_t kInlineStr = 14;

  /// Constructs NULL.
  Value() noexcept { std::memset(bytes_, 0, sizeof bytes_); }
  Value(const Value& other) noexcept {
    std::memcpy(bytes_, other.bytes_, sizeof bytes_);
    Retain();
  }
  Value(Value&& other) noexcept {
    std::memcpy(bytes_, other.bytes_, sizeof bytes_);
    std::memset(other.bytes_, 0, sizeof bytes_);
  }
  // Both assignments read `other` before releasing this value's payload,
  // which may own `other` (v = v.AsElems()[0]).
  Value& operator=(const Value& other) noexcept {
    unsigned char incoming[16];
    std::memcpy(incoming, other.bytes_, sizeof incoming);
    other.Retain();
    Release();
    std::memcpy(bytes_, incoming, sizeof bytes_);
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    unsigned char incoming[16];
    std::memcpy(incoming, other.bytes_, sizeof incoming);
    std::memset(other.bytes_, 0, sizeof other.bytes_);
    Release();
    std::memcpy(bytes_, incoming, sizeof bytes_);
    return *this;
  }
  ~Value() { Release(); }

  static Value Null() { return Value(); }
  static Value Bool(bool b);
  static Value Int(int64_t i);
  static Value Real(double d);
  static Value Str(std::string_view s);
  /// Builds a record value from named fields (order preserved), with a
  /// shape of its own.
  static Value Tuple(Fields fields);
  /// Builds a record of `shape` from one value per field, in shape order.
  static Value Tuple(ShapePtr shape, Elems values);
  /// Builds a set: elements are sorted and deduplicated.
  static Value Set(Elems elems);
  /// Builds a bag: elements are sorted, duplicates kept.
  static Value Bag(Elems elems);
  /// Builds a list: element order is preserved.
  static Value List(Elems elems);
  /// Builds an object reference, interning the class name. Throws
  /// EvalError when the name does not intern (ClassNames::Intern).
  static Value MakeRef(std::string_view class_name, int64_t oid);
  static Value MakeRef(Ref ref);

  /// `tuple` re-pointed at `shape` when both name the same fields, so that
  /// equal shapes are shared; otherwise `tuple` unchanged.
  static Value ShareShape(Value tuple, const ShapePtr& shape);

  Kind kind() const { return static_cast<Kind>(bytes_[kTag] & kKindMask); }
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_collection() const {
    const Kind k = kind();
    return k == Kind::kSet || k == Kind::kBag || k == Kind::kList;
  }
  bool is_numeric() const {
    return kind() == Kind::kInt || kind() == Kind::kReal;
  }

  /// Accessors. Calling the wrong accessor for the kind throws EvalError.
  bool AsBool() const;
  int64_t AsInt() const;
  double AsReal() const;
  /// Returns the numeric content widened to double (kInt or kReal).
  double AsNumeric() const;
  /// Points into this value (short strings are inline), so the view lives
  /// only as long as this Value.
  std::string_view AsStr() const;
  const Record& AsTuple() const;
  const Elems& AsElems() const;
  Ref AsRef() const;

  /// Looks up a record field; throws EvalError if absent or not a tuple.
  const Value& Field(std::string_view name) const;
  /// Returns true iff this is a tuple that has the named field.
  bool HasField(std::string_view name) const;

  /// Total order over all values: kinds rank first, then contents. Ints and
  /// reals compare exactly by numeric value (3 == 3.0). Returns <0, 0, >0.
  static int Compare(const Value& a, const Value& b);

  bool operator==(const Value& other) const { return Compare(*this, other) == 0; }
  bool operator!=(const Value& other) const { return !(*this == other); }
  bool operator<(const Value& other) const { return Compare(*this, other) < 0; }

  /// Structural hash, consistent with operator==.
  size_t Hash() const;

  /// Renders the value in a readable literal-like syntax, e.g.
  /// `{<name="Ann", age=7>, <name="Bo", age=9>}`.
  std::string ToString() const;

 private:
  // Byte kTag holds the Kind in its low bits and kHeapBit when bytes 0-7
  // hold a detail::Cell* this value owns one reference on. Inline payloads:
  // bool, int and real in bytes 0-7; a ref's oid in bytes 0-7 and its class
  // id in bytes 8-11; a short string's bytes from 0 and its length in byte
  // kStrLen.
  static constexpr int kTag = 15;
  static constexpr int kStrLen = 14;
  static constexpr unsigned char kKindMask = 0x0f;
  static constexpr unsigned char kHeapBit = 0x10;

  bool on_heap() const { return (bytes_[kTag] & kHeapBit) != 0; }
  detail::Cell* cell() const {
    detail::Cell* c = nullptr;
    std::memcpy(&c, bytes_, sizeof c);
    return c;
  }
  void SetCell(Kind k, detail::Cell* c) {
    std::memcpy(bytes_, &c, sizeof c);
    bytes_[kTag] = static_cast<unsigned char>(k) | kHeapBit;
  }
  template <class T>
  T Word() const {
    T w{};
    std::memcpy(&w, bytes_, sizeof w);
    return w;
  }
  template <class T>
  static Value Inline(Kind k, T w) {
    Value v;
    std::memcpy(v.bytes_, &w, sizeof w);
    v.bytes_[kTag] = static_cast<unsigned char>(k);
    return v;
  }
  static Value Collection(Kind k, Elems elems);

  void Retain() const {
    if (on_heap()) cell()->refs.fetch_add(1, std::memory_order_relaxed);
  }
  void Release() {
    if (on_heap()) ReleaseCell();
  }
  void ReleaseCell();

  alignas(8) unsigned char bytes_[16];
};

static_assert(sizeof(Value) == 16, "Value is one 16-byte tagged word pair");

/// The payload of a tuple Value: its shape plus one value per field, stored
/// in the same allocation right after this header.
class Record : private detail::Cell {
 public:
  size_t size() const { return n; }
  const ShapePtr& shape() const { return shape_; }
  const std::string& name(size_t i) const { return shape_->name(i); }
  const Value& value(size_t i) const { return values()[i]; }
  /// The named field, or nullptr.
  const Value* Find(std::string_view name) const {
    const int i = shape_->Find(name);
    return i < 0 ? nullptr : &values()[i];
  }

 private:
  friend class Value;
  explicit Record(ShapePtr shape) : shape_(std::move(shape)) {}

  const Value* values() const { return reinterpret_cast<const Value*>(this + 1); }
  Value* values() { return reinterpret_cast<Value*>(this + 1); }

  ShapePtr shape_;
};

static_assert(sizeof(Record) == 16, "Record header is followed by its values");

/// Hash functor so Value can key unordered containers.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

/// Byte footprint of a materialized value, derived from the layout above:
///
///   16 (the Value) plus, by kind,
///     heap string (> 14 bytes):  8 + length
///     tuple:                     16 + the estimate of every field
///     set / bag / list:          32 + the estimate of every element
///
/// Field names are not counted: one Shape holds them for every tuple built
/// with it. Used by the session memory budget and the per-query memory
/// tracker — a consistent estimate, not an accounting of malloc reality.
/// Shared substructure is counted every time it appears (a budget should
/// see the logical size).
size_t EstimateValueBytes(const Value& v);

}  // namespace ldb

#endif  // LAMBDADB_RUNTIME_VALUE_H_
