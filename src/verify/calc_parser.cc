#include "src/verify/calc_parser.h"

#include <cctype>
#include <cstdlib>
#include <optional>
#include <vector>

#include "src/runtime/error.h"

namespace ldb {

namespace {

// Character-level recursive descent over the PrintExpr grammar. The printer
// is whitespace-disciplined — binary operators always have spaces around
// them, unary operators and applications abut their '(' — and the parser
// relies on that to disambiguate '-' (negative literal vs. negation vs.
// subtraction) and '(' (grouping vs. application vs. the (+) merge symbol).
class Parser {
 public:
  explicit Parser(const std::string& s) : s_(s) {}

  ExprPtr Parse() {
    ExprPtr e = ParseExpr();
    Skip();
    if (p_ != s_.size()) Fail("trailing input");
    return e;
  }

 private:
  [[noreturn]] void Fail(const std::string& why) const {
    throw ParseError("calculus syntax: " + why + " at offset " +
                     std::to_string(p_) + " in: " + s_);
  }

  // One level of term or value nesting, held while it is parsed; a parse
  // deeper than kMaxParseDepth fails before anything deeper is built. The
  // postfix chain of projections and applications counts as nesting too,
  // so the height of the returned tree is bounded as well.
  class Level {
   public:
    explicit Level(Parser* p) : p_(p), saved_(p->depth_) { p->Descend(); }
    ~Level() { p_->depth_ = saved_; }
    Level(const Level&) = delete;
    Level& operator=(const Level&) = delete;

   private:
    Parser* p_;
    int saved_;
  };

  void Descend() {
    if (++depth_ > kMaxParseDepth) {
      Fail("term nests deeper than " + std::to_string(kMaxParseDepth) +
           " levels");
    }
  }

  void Skip() {
    while (p_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[p_]))) {
      ++p_;
    }
  }

  char Peek() const { return p_ < s_.size() ? s_[p_] : '\0'; }
  char At(size_t off) const {
    return p_ + off < s_.size() ? s_[p_ + off] : '\0';
  }

  void Expect(char c) {
    Skip();
    if (Peek() != c) Fail(std::string("expected '") + c + "'");
    ++p_;
  }

  bool Accept(char c) {
    Skip();
    if (Peek() != c) return false;
    ++p_;
    return true;
  }

  static bool IdentStart(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
  }
  static bool IdentChar(char c) {
    // Gensym names contain '$' ("v$17"); it cannot open an identifier
    // (that position means a parameter).
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '$';
  }

  std::string ParseIdent() {
    Skip();
    if (!IdentStart(Peek())) Fail("expected identifier");
    size_t start = p_;
    while (IdentChar(Peek())) ++p_;
    return s_.substr(start, p_ - start);
  }

  // Peeks the identifier at the cursor without consuming it.
  std::string PeekIdent() {
    Skip();
    if (!IdentStart(Peek())) return "";
    size_t q = p_;
    while (q < s_.size() && IdentChar(s_[q])) ++q;
    return s_.substr(p_, q - p_);
  }

  static std::optional<MonoidKind> MonoidByName(const std::string& n) {
    if (n == "set") return MonoidKind::kSet;
    if (n == "bag") return MonoidKind::kBag;
    if (n == "list") return MonoidKind::kList;
    if (n == "sum") return MonoidKind::kSum;
    if (n == "prod") return MonoidKind::kProd;
    if (n == "max") return MonoidKind::kMax;
    if (n == "min") return MonoidKind::kMin;
    if (n == "some") return MonoidKind::kSome;
    if (n == "all") return MonoidKind::kAll;
    if (n == "avg") return MonoidKind::kAvg;
    return std::nullopt;
  }

  // -- values (Value::ToString grammar) ------------------------------------

  // A ref literal; a class name that does not intern fails the parse.
  Value MakeRef(const std::string& cls, int64_t oid) const {
    std::optional<uint32_t> id = ClassNames::Intern(cls);
    if (!id) Fail("class name '" + cls.substr(0, 64) + "' does not intern");
    return Value::MakeRef(Ref{*id, oid});
  }

  Value ParseNumberValue() {
    Skip();
    size_t start = p_;
    if (Peek() == '-') ++p_;
    bool real = false;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++p_;
    if (Peek() == '.') {
      real = true;
      ++p_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++p_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      real = true;
      ++p_;
      if (Peek() == '+' || Peek() == '-') ++p_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++p_;
    }
    if (p_ == start || (s_[start] == '-' && p_ == start + 1)) {
      Fail("expected number");
    }
    std::string text = s_.substr(start, p_ - start);
    if (real) return Value::Real(std::strtod(text.c_str(), nullptr));
    return Value::Int(std::strtoll(text.c_str(), nullptr, 10));
  }

  std::string ParseStringBody() {
    // ToString does not escape; the body runs to the next quote.
    Expect('"');
    size_t start = p_;
    while (p_ < s_.size() && s_[p_] != '"') ++p_;
    if (p_ == s_.size()) Fail("unterminated string");
    std::string out = s_.substr(start, p_ - start);
    ++p_;
    return out;
  }

  Elems ParseValueElems(char close1, char close2 = '\0') {
    Elems elems;
    Skip();
    while (true) {
      Skip();
      if (Peek() == close1 || (close2 && Peek() == close2)) break;
      if (!elems.empty()) {
        Expect(',');
      }
      Skip();
      if (Peek() == close1 || (close2 && Peek() == close2)) break;
      elems.push_back(ParseValue());
    }
    return elems;
  }

  Value ParseValue() {
    Level level(this);
    Skip();
    char c = Peek();
    if (c == '"') return Value::Str(ParseStringBody());
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      return ParseNumberValue();
    }
    if (c == '<') {
      ++p_;
      Fields fields;
      Skip();
      while (Peek() != '>') {
        if (!fields.empty()) Expect(',');
        std::string name = ParseIdent();
        Expect('=');
        fields.emplace_back(name, ParseValue());
        Skip();
      }
      ++p_;
      return Value::Tuple(std::move(fields));
    }
    if (c == '{') {
      if (At(1) == '|') {
        p_ += 2;
        Elems e = ParseValueElems('|');
        Expect('|');
        Expect('}');
        return Value::Bag(std::move(e));
      }
      ++p_;
      Elems e = ParseValueElems('}');
      Expect('}');
      return Value::Set(std::move(e));
    }
    if (c == '[') {
      ++p_;
      Elems e = ParseValueElems(']');
      Expect(']');
      return Value::List(std::move(e));
    }
    std::string word = ParseIdent();
    if (word == "NULL") return Value::Null();
    if (word == "true") return Value::Bool(true);
    if (word == "false") return Value::Bool(false);
    if (Peek() == '#') {
      ++p_;
      Value oid = ParseNumberValue();
      return MakeRef(word, oid.AsInt());
    }
    Fail("expected value, got '" + word + "'");
  }

  // -- expressions ---------------------------------------------------------

  std::optional<BinOpKind> ParseBinOp() {
    Skip();
    // Longest match first among the symbolic operators.
    auto take = [&](const char* t, BinOpKind k) -> std::optional<BinOpKind> {
      size_t n = std::char_traits<char>::length(t);
      if (s_.compare(p_, n, t) != 0) return std::nullopt;
      if (IdentStart(t[0]) && IdentChar(At(n))) return std::nullopt;
      p_ += n;
      return k;
    };
    if (auto k = take("!=", BinOpKind::kNe)) return k;
    if (auto k = take("<=", BinOpKind::kLe)) return k;
    if (auto k = take(">=", BinOpKind::kGe)) return k;
    if (auto k = take("<", BinOpKind::kLt)) return k;
    if (auto k = take(">", BinOpKind::kGt)) return k;
    if (auto k = take("=", BinOpKind::kEq)) return k;
    if (auto k = take("and", BinOpKind::kAnd)) return k;
    if (auto k = take("or", BinOpKind::kOr)) return k;
    if (auto k = take("mod", BinOpKind::kMod)) return k;
    if (auto k = take("+", BinOpKind::kAdd)) return k;
    if (auto k = take("-", BinOpKind::kSub)) return k;
    if (auto k = take("*", BinOpKind::kMul)) return k;
    if (auto k = take("/", BinOpKind::kDiv)) return k;
    return std::nullopt;
  }

  // '(' already consumed: either a binary operation, a merge, or (not
  // emitted by the printer, but harmless) a parenthesized group.
  ExprPtr ParseParenTail() {
    ExprPtr lhs = ParseExpr();
    Skip();
    if (Accept(')')) return lhs;
    if (Peek() == '(' && At(1) == '+' && At(2) == ')') {
      p_ += 3;
      std::string name = ParseIdent();
      auto m = MonoidByName(name);
      if (!m) Fail("unknown merge monoid '" + name + "'");
      ExprPtr rhs = ParseExpr();
      Expect(')');
      return Expr::Merge(*m, lhs, rhs);
    }
    std::optional<BinOpKind> op = ParseBinOp();
    if (!op) Fail("expected operator or ')'");
    ExprPtr rhs = ParseExpr();
    Expect(')');
    return Expr::Bin(*op, lhs, rhs);
  }

  std::vector<Qualifier> ParseQualifiers() {
    std::vector<Qualifier> quals;
    while (true) {
      Skip();
      // Generator lookahead: `ident <-` (the arrow distinguishes it from a
      // filter that happens to start with a variable).
      size_t save = p_;
      bool generator = false;
      std::string var;
      if (IdentStart(Peek())) {
        var = ParseIdent();
        Skip();
        if (Peek() == '<' && At(1) == '-') {
          p_ += 2;
          generator = true;
        } else {
          p_ = save;
        }
      }
      if (generator) {
        quals.push_back(Qualifier::Generator(var, ParseExpr()));
      } else {
        quals.push_back(Qualifier::Filter(ParseExpr()));
      }
      Skip();
      if (!Accept(',')) break;
    }
    return quals;
  }

  ExprPtr ParseComp(MonoidKind m) {
    Expect('{');
    ExprPtr head = ParseExpr();
    std::vector<Qualifier> quals;
    Skip();
    if (Accept('|')) quals = ParseQualifiers();
    Expect('}');
    return Expr::Comp(m, head, std::move(quals));
  }

  ExprPtr ParsePrimary() {
    Skip();
    char c = Peek();
    if (c == '(') {
      ++p_;
      return ParseParenTail();
    }
    if (c == '\\') {
      ++p_;
      std::string var = ParseIdent();
      Expect('.');
      return Expr::Lambda(var, ParseExpr());
    }
    if (c == '$') {
      ++p_;
      return Expr::Param(ParseIdent());
    }
    if (c == '<') {
      ++p_;
      std::vector<std::pair<std::string, ExprPtr>> fields;
      Skip();
      while (Peek() != '>') {
        if (!fields.empty()) Expect(',');
        std::string name = ParseIdent();
        Expect('=');
        fields.emplace_back(name, ParseExpr());
        Skip();
      }
      ++p_;
      return Expr::Record(std::move(fields));
    }
    if (c == '{' || c == '[' || c == '"') return Expr::Lit(ParseValue());
    if (c == '-') {
      if (At(1) == '(') {
        p_ += 2;
        ExprPtr e = ParseExpr();
        Expect(')');
        return Expr::Un(UnOpKind::kNeg, e);
      }
      return Expr::Lit(ParseNumberValue());
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      return Expr::Lit(ParseNumberValue());
    }
    if (!IdentStart(c)) Fail("expected expression");

    std::string word = ParseIdent();
    if (word == "if") {
      ExprPtr cond = ParseExpr();
      std::string kw = ParseIdent();
      if (kw != "then") Fail("expected 'then'");
      ExprPtr then_e = ParseExpr();
      kw = ParseIdent();
      if (kw != "else") Fail("expected 'else'");
      return Expr::If(cond, then_e, ParseExpr());
    }
    if ((word == "not" || word == "is_null") && Peek() == '(') {
      ++p_;
      ExprPtr e = ParseExpr();
      Expect(')');
      return Expr::Un(word == "not" ? UnOpKind::kNot : UnOpKind::kIsNull, e);
    }
    if (word == "zero" && Peek() == '[') {
      ++p_;
      std::string name = ParseIdent();
      auto m = MonoidByName(name);
      if (!m) Fail("unknown monoid '" + name + "'");
      Expect(']');
      return Expr::Zero(*m);
    }
    if (auto m = MonoidByName(word); m && Peek() == '{') {
      return ParseComp(*m);
    }
    if (word == "NULL") return Expr::Null();
    if (word == "true") return Expr::True();
    if (word == "false") return Expr::False();
    if (Peek() == '#') {
      ++p_;
      Value oid = ParseNumberValue();
      return Expr::Lit(MakeRef(word, oid.AsInt()));
    }
    return Expr::Var(word);
  }

  ExprPtr ParseExpr() {
    Level level(this);
    ExprPtr e = ParsePrimary();
    // Postfix: projections and applications abut their base (no space).
    while (true) {
      if (Peek() == '.' && IdentStart(At(1))) {
        Descend();
        ++p_;
        e = Expr::Proj(e, ParseIdent());
        continue;
      }
      if (Peek() == '(') {
        Descend();
        ++p_;
        ExprPtr arg = ParseExpr();
        Expect(')');
        e = Expr::Apply(e, arg);
        continue;
      }
      return e;
    }
  }

  const std::string& s_;
  size_t p_ = 0;
  int depth_ = 0;
};

}  // namespace

ExprPtr ParseCalculus(const std::string& text) {
  return Parser(text).Parse();
}

}  // namespace ldb
