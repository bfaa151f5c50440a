#include "src/runtime/serialize.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>

#include "src/runtime/error.h"

namespace ldb {

namespace {

// -- writing ------------------------------------------------------------------

void WriteString(std::ostream& os, std::string_view s) {
  os << s.size() << ':' << s;
}

void WriteType(std::ostream& os, const TypePtr& t) {
  switch (t->kind()) {
    case Type::Kind::kBool: os << 'b'; return;
    case Type::Kind::kInt:  os << 'i'; return;
    case Type::Kind::kReal: os << 'r'; return;
    case Type::Kind::kStr:  os << 's'; return;
    case Type::Kind::kAny:  os << 'a'; return;
    case Type::Kind::kClass:
      os << 'C';
      WriteString(os, t->class_name());
      return;
    case Type::Kind::kSet:
    case Type::Kind::kBag:
    case Type::Kind::kList:
      os << (t->kind() == Type::Kind::kSet    ? 'S'
             : t->kind() == Type::Kind::kBag ? 'G'
                                             : 'L')
         << '(';
      WriteType(os, t->elem());
      os << ')';
      return;
    case Type::Kind::kTuple: {
      os << 'T' << t->fields().size() << '(';
      for (const auto& [n, f] : t->fields()) {
        WriteString(os, n);
        WriteType(os, f);
      }
      os << ')';
      return;
    }
    case Type::Kind::kFunc:
      throw UnsupportedError("function types do not serialize");
  }
}

void WriteValue(std::ostream& os, const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      os << 'N';
      return;
    case Value::Kind::kBool:
      os << (v.AsBool() ? "B1" : "B0");
      return;
    case Value::Kind::kInt:
      os << 'I' << v.AsInt() << ';';
      return;
    case Value::Kind::kReal: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v.AsReal());
      os << 'R' << buf << ';';
      return;
    }
    case Value::Kind::kStr:
      os << 's';
      WriteString(os, v.AsStr());
      return;
    case Value::Kind::kTuple: {
      const Record& t = v.AsTuple();
      os << 't' << t.size() << '(';
      for (size_t i = 0; i < t.size(); ++i) {
        WriteString(os, t.name(i));
        WriteValue(os, t.value(i));
      }
      os << ')';
      return;
    }
    case Value::Kind::kSet:
    case Value::Kind::kBag:
    case Value::Kind::kList: {
      char tag = v.kind() == Value::Kind::kSet    ? 'e'
                 : v.kind() == Value::Kind::kBag ? 'g'
                                                 : 'l';
      os << tag << v.AsElems().size() << '(';
      for (const Value& x : v.AsElems()) WriteValue(os, x);
      os << ')';
      return;
    }
    case Value::Kind::kRef: {
      const Ref r = v.AsRef();
      os << 'f';
      WriteString(os, r.class_name());
      os << '#' << r.oid << ';';
      return;
    }
  }
}

// -- reading ------------------------------------------------------------------

// Reads the text the writers above produce. The input may be hostile (a
// BIND parameter, a dump from elsewhere), so a declared length or count
// never sizes an allocation beyond what the input has supplied, nesting
// is bounded by kMaxParseDepth, and a class name that does not intern
// (ClassNames) is a ParseError. Tuples that name the same fields share one
// Shape, held by this reader, not by the process.
class Reader {
 public:
  explicit Reader(std::istream& is) : is_(is) {}

  char GetChar() {
    int c = is_.get();
    if (c == EOF) throw ParseError("dump: unexpected end of input");
    return static_cast<char>(c);
  }

  void Expect(char c) {
    char got = GetChar();
    if (got != c) {
      throw ParseError(std::string("dump: expected '") + c + "', got '" + got +
                       "'");
    }
  }

  int64_t ReadInt(bool allow_negative = true) {
    bool neg = false;
    int c = is_.peek();
    if (c == '-') {
      if (!allow_negative) throw ParseError("dump: negative count");
      neg = true;
      is_.get();
      c = is_.peek();
    }
    if (c < '0' || c > '9') throw ParseError("dump: expected integer");
    // The magnitude may reach 2^63 only when negative (INT64_MIN).
    const uint64_t limit = (uint64_t{1} << 63) - (neg ? 0 : 1);
    uint64_t out = 0;
    while (c >= '0' && c <= '9') {
      const auto digit = static_cast<uint64_t>(c - '0');
      if (out > (limit - digit) / 10) {
        throw ParseError("dump: integer overflows int64");
      }
      out = out * 10 + digit;
      is_.get();
      c = is_.peek();
    }
    return static_cast<int64_t>(neg ? 0 - out : out);
  }

  // A length or element count.
  int64_t ReadCount() { return ReadInt(/*allow_negative=*/false); }

  std::string ReadString() {
    int64_t len = ReadCount();
    Expect(':');
    // Bounded chunks: the string grows with the bytes actually read.
    std::string out;
    char chunk[4096];
    while (len > 0) {
      const auto want =
          static_cast<std::streamsize>(std::min<int64_t>(len, sizeof chunk));
      is_.read(chunk, want);
      if (is_.gcount() != want) throw ParseError("dump: truncated string");
      out.append(chunk, static_cast<size_t>(want));
      len -= want;
    }
    return out;
  }

  double ReadReal() {
    std::string num;
    int c = is_.peek();
    while (c != EOF && (std::isdigit(c) || c == '-' || c == '+' || c == '.' ||
                        c == 'e' || c == 'E' || c == 'n' || c == 'a' ||
                        c == 'i' || c == 'f')) {
      num.push_back(static_cast<char>(is_.get()));
      c = is_.peek();
    }
    try {
      return std::stod(num);
    } catch (...) {
      throw ParseError("dump: bad real '" + num + "'");
    }
  }

  TypePtr ReadType() {
    Nested nested(this);
    char tag = GetChar();
    switch (tag) {
      case 'b': return Type::Bool();
      case 'i': return Type::Int();
      case 'r': return Type::Real();
      case 's': return Type::Str();
      case 'a': return Type::Any();
      case 'C': return Type::Class(ReadString());
      case 'S':
      case 'G':
      case 'L': {
        Expect('(');
        TypePtr elem = ReadType();
        Expect(')');
        if (tag == 'S') return Type::Set(elem);
        if (tag == 'G') return Type::Bag(elem);
        return Type::List(elem);
      }
      case 'T': {
        int64_t n = ReadCount();
        Expect('(');
        std::vector<std::pair<std::string, TypePtr>> fields;
        for (int64_t i = 0; i < n; ++i) {
          std::string name = ReadString();
          fields.emplace_back(std::move(name), ReadType());
        }
        Expect(')');
        return Type::Tuple(std::move(fields));
      }
      default:
        throw ParseError(std::string("dump: bad type tag '") + tag + "'");
    }
  }

  Value ReadValue() {
    Nested nested(this);
    char tag = GetChar();
    switch (tag) {
      case 'N': return Value::Null();
      case 'B': return Value::Bool(GetChar() == '1');
      case 'I': {
        int64_t i = ReadInt();
        Expect(';');
        return Value::Int(i);
      }
      case 'R': {
        double d = ReadReal();
        Expect(';');
        return Value::Real(d);
      }
      case 's': return Value::Str(ReadString());
      case 't': {
        int64_t n = ReadCount();
        Expect('(');
        std::vector<std::string> names;
        Elems values;
        for (int64_t i = 0; i < n; ++i) {
          names.push_back(ReadString());
          values.push_back(ReadValue());
        }
        Expect(')');
        return Value::Tuple(SharedShape(std::move(names)), std::move(values));
      }
      case 'e':
      case 'g':
      case 'l': {
        int64_t n = ReadCount();
        Expect('(');
        Elems elems;
        // Each element takes at least one byte, so the input still buffered
        // caps the reservation.
        elems.reserve(static_cast<size_t>(std::min<int64_t>(
            n, std::max<std::streamsize>(0, is_.rdbuf()->in_avail()))));
        for (int64_t i = 0; i < n; ++i) elems.push_back(ReadValue());
        Expect(')');
        if (tag == 'e') return Value::Set(std::move(elems));
        if (tag == 'g') return Value::Bag(std::move(elems));
        return Value::List(std::move(elems));
      }
      case 'f': {
        const uint32_t cls = ClassId(ReadString());
        Expect('#');
        int64_t oid = ReadInt();
        Expect(';');
        return Value::MakeRef(Ref{cls, oid});
      }
      default:
        throw ParseError(std::string("dump: bad value tag '") + tag + "'");
    }
  }

  void SkipWhitespace() {
    while (is_.peek() == '\n' || is_.peek() == ' ' || is_.peek() == '\r') {
      is_.get();
    }
  }

  // The ClassNames id of a class name read from the input.
  static uint32_t ClassId(const std::string& name) {
    std::optional<uint32_t> id = ClassNames::Intern(name);
    if (!id) {
      throw ParseError("dump: class name does not intern (at most " +
                       std::to_string(ClassNames::kCapacity) +
                       " class names of at most " +
                       std::to_string(ClassNames::kMaxNameBytes) + " bytes)");
    }
    return *id;
  }

  std::string ReadWord() {
    SkipWhitespace();
    std::string out;
    int c = is_.peek();
    while (c != EOF && !std::isspace(c)) {
      out.push_back(static_cast<char>(is_.get()));
      c = is_.peek();
    }
    return out;
  }

 private:
  ShapePtr SharedShape(std::vector<std::string> names) {
    auto it = shapes_.find(names);
    if (it != shapes_.end()) return it->second;
    ShapePtr shape = Shape::Make(names);
    shapes_.emplace(std::move(names), shape);
    return shape;
  }

  // One level of nested value or type; deeper than kMaxParseDepth fails.
  class Nested {
   public:
    explicit Nested(Reader* r) : r_(r) {
      if (r_->depth_ >= kMaxParseDepth) {
        throw ParseError("dump: nesting deeper than " +
                         std::to_string(kMaxParseDepth) + " levels");
      }
      ++r_->depth_;
    }
    ~Nested() { --r_->depth_; }
    Nested(const Nested&) = delete;
    Nested& operator=(const Nested&) = delete;

   private:
    Reader* r_;
  };

  std::istream& is_;
  int depth_ = 0;
  std::map<std::vector<std::string>, ShapePtr> shapes_;
};

}  // namespace

void DumpDatabase(const Database& db, std::ostream& os) {
  os << "lambdadb-dump 1\n";
  const Schema& schema = db.schema();
  for (const auto& [name, decl] : schema.classes()) {
    os << "class " << name << ' ' << (decl.extent.empty() ? "-" : decl.extent)
       << ' ' << decl.attributes.size() << '\n';
    for (const auto& [attr, type] : decl.attributes) {
      os << "attr ";
      WriteString(os, attr);
      os << ' ';
      WriteType(os, type);
      os << '\n';
    }
  }
  // Objects, per class, in oid order (extents only reference by oid so a
  // full per-class walk needs the extent; classes without extents hold no
  // reachable objects of their own here — every Insert goes through a class
  // with storage, so walk via Deref over the extent refs).
  for (const auto& [name, decl] : schema.classes()) {
    if (decl.extent.empty()) continue;
    const std::vector<Value>& refs = db.Extent(decl.extent);
    os << "objects " << name << ' ' << refs.size() << '\n';
    for (const Value& ref : refs) {
      WriteValue(os, db.Deref(ref.AsRef()));
      os << '\n';
    }
  }
  // Index declarations (extent + attr are identifiers, so plain words are
  // safe, mirroring the `class` record). Only the spec is recorded — the
  // buckets are derivable, so RebuildIndexes reconstructs them after load.
  for (const auto& [extent, attr] : db.IndexSpecs()) {
    os << "index " << extent << ' ' << attr << '\n';
  }
  os << "end\n";
}

namespace {
int64_t ParseCount(const std::string& word) {
  try {
    size_t used = 0;
    int64_t out = std::stoll(word, &used);
    if (used != word.size() || out < 0) throw std::invalid_argument(word);
    return out;
  } catch (...) {
    throw ParseError("dump: bad count '" + word + "'");
  }
}
}  // namespace

Database LoadDatabase(std::istream& is) {
  Reader r(is);
  if (r.ReadWord() != "lambdadb-dump" || r.ReadWord() != "1") {
    throw ParseError("dump: bad header");
  }
  Schema schema;
  std::string word = r.ReadWord();
  // Classes must all be declared before objects (DumpDatabase's layout).
  std::vector<std::pair<std::string, int64_t>> object_sections;
  while (word == "class") {
    ClassDecl decl;
    decl.name = r.ReadWord();
    std::string extent = r.ReadWord();
    if (extent != "-") decl.extent = extent;
    int64_t n = ParseCount(r.ReadWord());
    for (int64_t i = 0; i < n; ++i) {
      if (r.ReadWord() != "attr") throw ParseError("dump: expected attr");
      r.SkipWhitespace();
      std::string attr_name = r.ReadString();
      r.SkipWhitespace();
      decl.attributes.emplace_back(std::move(attr_name), r.ReadType());
    }
    schema.AddClass(std::move(decl));
    word = r.ReadWord();
  }
  Database db(std::move(schema));
  while (word == "objects") {
    std::string cls = r.ReadWord();
    Reader::ClassId(cls);
    int64_t n = ParseCount(r.ReadWord());
    for (int64_t i = 0; i < n; ++i) {
      r.SkipWhitespace();
      Value object = r.ReadValue();
      Value ref = db.Insert(cls, std::move(object));
      // Oids must be stable for refs serialized inside other objects.
      if (ref.AsRef().oid != i) throw ParseError("dump: oid mismatch");
    }
    word = r.ReadWord();
  }
  while (word == "index") {
    std::string extent = r.ReadWord();
    std::string attr = r.ReadWord();
    db.DeclareIndex(extent, attr);
    word = r.ReadWord();
  }
  if (word != "end") throw ParseError("dump: expected 'end', got '" + word + "'");
  return db;
}

std::string DumpDatabaseToString(const Database& db) {
  std::ostringstream os;
  DumpDatabase(db, os);
  return os.str();
}

Database LoadDatabaseFromString(const std::string& dump) {
  std::istringstream is(dump);
  return LoadDatabase(is);
}

std::string ValueToText(const Value& v) {
  std::ostringstream os;
  WriteValue(os, v);
  return os.str();
}

Value ValueFromText(const std::string& text) {
  std::istringstream is(text);
  Reader r(is);
  Value v = r.ReadValue();
  if (is.peek() != EOF) {
    throw ParseError("value: trailing bytes after a complete value");
  }
  return v;
}

}  // namespace ldb
