#include "src/oql/parser.h"

#include "src/oql/lexer.h"
#include "src/runtime/error.h"

namespace ldb::oql {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> toks) : toks_(std::move(toks)) {}

  NodePtr ParseQuery() {
    NodePtr q = Query();
    Expect(TokKind::kEnd, "end of input");
    return q;
  }

 private:
  std::vector<Token> toks_;
  size_t pos_ = 0;
  // Nesting level of the construct being parsed; the top level is 1. Each
  // bracket, prefix operator, nested select and quantifier opens a level
  // for what it encloses, and each binary operator one for its right
  // operand, as does each `.` of a path (a left-associative chain thus
  // opens one per operand), so the level bounds both this parser's
  // recursion and the height of the tree it returns (kMaxParseDepth).
  int depth_ = 1;

  // Restores the nesting level when the construct that opened it is done.
  struct LevelScope {
    explicit LevelScope(Parser* p) : parser(p), saved(p->depth_) {}
    ~LevelScope() { parser->depth_ = saved; }
    LevelScope(const LevelScope&) = delete;
    LevelScope& operator=(const LevelScope&) = delete;
    Parser* parser;
    int saved;
  };

  // Opens one more level; fails before anything deeper is built.
  void Deepen() {
    if (depth_ >= kMaxParseDepth) {
      Fail("query nests deeper than " + std::to_string(kMaxParseDepth) +
           " levels");
    }
    ++depth_;
  }

  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  const Token& Advance() { return toks_[pos_ < toks_.size() - 1 ? pos_++ : pos_]; }

  [[noreturn]] void Fail(const std::string& msg) const {
    throw ParseError(msg + " near offset " + std::to_string(Peek().offset) +
                     (Peek().kind == TokKind::kEnd ? " (end of input)"
                                                   : " ('" + Peek().text + "')"));
  }

  bool IsKeyword(const char* kw, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.kind == TokKind::kIdent && t.lower == kw;
  }
  bool AcceptKeyword(const char* kw) {
    if (!IsKeyword(kw)) return false;
    Advance();
    return true;
  }
  void ExpectKeyword(const char* kw) {
    if (!AcceptKeyword(kw)) Fail(std::string("expected '") + kw + "'");
  }
  bool IsSymbol(const char* s, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.kind == TokKind::kSymbol && t.text == s;
  }
  bool AcceptSymbol(const char* s) {
    if (!IsSymbol(s)) return false;
    Advance();
    return true;
  }
  void ExpectSymbol(const char* s) {
    if (!AcceptSymbol(s)) Fail(std::string("expected '") + s + "'");
  }
  void Expect(TokKind k, const char* what) {
    if (Peek().kind != k) Fail(std::string("expected ") + what);
  }
  std::string ExpectIdent() {
    if (Peek().kind != TokKind::kIdent) Fail("expected identifier");
    return Advance().text;
  }

  static bool IsReserved(const std::string& lower) {
    static const char* kReserved[] = {
        "select", "distinct", "from", "where", "group",  "by",   "in",
        "as",     "exists",   "for",  "all",   "and",    "or",   "not",
        "struct", "true",     "false", "null",  "nil",   "count", "sum",
        "avg",    "max",      "min",   "mod",   "undefined",
        "order",  "asc",      "desc"};
    for (const char* kw : kReserved) {
      if (lower == kw) return true;
    }
    return false;
  }

  NodePtr Query() {
    if (IsKeyword("select")) return Select();
    return OrExpr();
  }

  NodePtr Select() {
    LevelScope level(this);
    Deepen();
    ExpectKeyword("select");
    auto node = Node::New(NodeKind::kSelect);
    node->distinct = AcceptKeyword("distinct");
    // projection list (stops at FROM)
    node->projection.push_back(ProjItemRule());
    while (AcceptSymbol(",")) node->projection.push_back(ProjItemRule());
    ExpectKeyword("from");
    node->froms.push_back(FromItemRule());
    while (AcceptSymbol(",")) node->froms.push_back(FromItemRule());
    if (AcceptKeyword("where")) node->where = OrExpr();
    if (AcceptKeyword("group")) {
      ExpectKeyword("by");
      node->group_by.push_back(OrExpr());
      while (AcceptSymbol(",")) node->group_by.push_back(OrExpr());
    }
    if (AcceptKeyword("order")) {
      ExpectKeyword("by");
      do {
        NodePtr key = OrExpr();
        bool desc = false;
        if (AcceptKeyword("desc")) {
          desc = true;
        } else {
          AcceptKeyword("asc");
        }
        node->order_by.emplace_back(std::move(key), desc);
      } while (AcceptSymbol(","));
    }
    return node;
  }

  ProjItem ProjItemRule() {
    ProjItem item;
    // `A : expr` named projection (OQL struct-less naming)
    if (Peek().kind == TokKind::kIdent && IsSymbol(":", 1) &&
        !IsReserved(Peek().lower)) {
      item.as = Advance().text;
      Advance();  // ':'
      item.expr = OrExpr();
      return item;
    }
    item.expr = OrExpr();
    if (AcceptKeyword("as")) item.as = ExpectIdent();
    return item;
  }

  FromItem FromItemRule() {
    FromItem item;
    // `ident in expr`
    if (Peek().kind == TokKind::kIdent && IsKeyword("in", 1) &&
        !IsReserved(Peek().lower)) {
      item.var = Advance().text;
      Advance();  // 'in'
      item.domain = IsKeyword("select") ? Select() : OrExpr();
      return item;
    }
    // `expr [as] ident`  ("Employees e" / "Employees as e")
    item.domain = OrExpr();
    AcceptKeyword("as");
    if (Peek().kind == TokKind::kIdent && !IsReserved(Peek().lower)) {
      item.var = Advance().text;
      return item;
    }
    Fail("expected range variable in from-clause");
  }

  NodePtr OrExpr() {
    LevelScope level(this);
    NodePtr l = AndExpr();
    while (AcceptKeyword("or")) {
      Deepen();
      l = Node::Bin(OBin::kOr, l, AndExpr());
    }
    return l;
  }

  NodePtr AndExpr() {
    LevelScope level(this);
    NodePtr l = NotExpr();
    while (AcceptKeyword("and")) {
      Deepen();
      l = Node::Bin(OBin::kAnd, l, NotExpr());
    }
    return l;
  }

  NodePtr NotExpr() {
    LevelScope level(this);
    if (AcceptKeyword("not")) {
      Deepen();
      return Node::Un(OUn::kNot, NotExpr());
    }
    // Quantifiers bind like NOT and their body extends maximally right.
    if (IsKeyword("exists") && Peek(1).kind == TokKind::kIdent &&
        IsKeyword("in", 2)) {
      Deepen();
      Advance();
      std::string var = ExpectIdent();
      ExpectKeyword("in");
      NodePtr domain = IsKeyword("select") ? Select() : Comparison();
      ExpectSymbol(":");
      NodePtr body = OrExpr();
      return Node::Quantifier(NodeKind::kExists, var, domain, body);
    }
    if (IsKeyword("for") && IsKeyword("all", 1)) {
      Deepen();
      Advance();
      Advance();
      std::string var = ExpectIdent();
      ExpectKeyword("in");
      NodePtr domain = IsKeyword("select") ? Select() : Comparison();
      ExpectSymbol(":");
      NodePtr body = OrExpr();
      return Node::Quantifier(NodeKind::kForAll, var, domain, body);
    }
    return Comparison();
  }

  NodePtr Comparison() {
    NodePtr l = Additive();
    if (Peek().kind == TokKind::kSymbol) {
      const std::string& s = Peek().text;
      OBin op;
      if (s == "=") {
        op = OBin::kEq;
      } else if (s == "!=") {
        op = OBin::kNe;
      } else if (s == "<") {
        op = OBin::kLt;
      } else if (s == "<=") {
        op = OBin::kLe;
      } else if (s == ">") {
        op = OBin::kGt;
      } else if (s == ">=") {
        op = OBin::kGe;
      } else {
        return MaybeIn(l);
      }
      Advance();
      LevelScope level(this);
      Deepen();
      return Node::Bin(op, l, Additive());
    }
    return MaybeIn(l);
  }

  NodePtr MaybeIn(NodePtr l) {
    if (!AcceptKeyword("in")) return l;
    LevelScope level(this);
    Deepen();
    return Node::In(l, Additive());
  }

  NodePtr Additive() {
    LevelScope level(this);
    NodePtr l = Multiplicative();
    while (true) {
      OBin op;
      if (AcceptSymbol("+")) {
        op = OBin::kAdd;
      } else if (AcceptSymbol("-")) {
        op = OBin::kSub;
      } else {
        return l;
      }
      Deepen();
      l = Node::Bin(op, l, Multiplicative());
    }
  }

  NodePtr Multiplicative() {
    LevelScope level(this);
    NodePtr l = Unary();
    while (true) {
      OBin op;
      if (AcceptSymbol("*")) {
        op = OBin::kMul;
      } else if (AcceptSymbol("/")) {
        op = OBin::kDiv;
      } else if (AcceptKeyword("mod")) {
        op = OBin::kMod;
      } else {
        return l;
      }
      Deepen();
      l = Node::Bin(op, l, Unary());
    }
  }

  NodePtr Unary() {
    if (AcceptSymbol("-")) {
      LevelScope level(this);
      Deepen();
      return Node::Un(OUn::kNeg, Unary());
    }
    return Postfix();
  }

  NodePtr Postfix() {
    LevelScope level(this);
    NodePtr e = Primary();
    while (AcceptSymbol(".")) {
      Deepen();
      e = Node::Proj(e, ExpectIdent());
    }
    return e;
  }

  static bool AggFromKeyword(const std::string& lower, OAgg* out) {
    if (lower == "count") *out = OAgg::kCount;
    else if (lower == "sum") *out = OAgg::kSum;
    else if (lower == "avg") *out = OAgg::kAvg;
    else if (lower == "max") *out = OAgg::kMax;
    else if (lower == "min") *out = OAgg::kMin;
    else if (lower == "exists") *out = OAgg::kExists;
    else return false;
    return true;
  }

  NodePtr Primary() {
    LevelScope level(this);
    const Token& t = Peek();
    switch (t.kind) {
      case TokKind::kInt: {
        Advance();
        return Node::Lit(Value::Int(t.int_value));
      }
      case TokKind::kReal: {
        Advance();
        return Node::Lit(Value::Real(t.real_value));
      }
      case TokKind::kString: {
        Advance();
        return Node::Lit(Value::Str(t.text));
      }
      case TokKind::kParam: {
        Advance();
        return Node::Param(t.text);
      }
      case TokKind::kSymbol:
        if (t.text == "(") {
          Deepen();
          Advance();
          NodePtr q = Query();
          ExpectSymbol(")");
          return q;
        }
        Fail("expected expression");
      case TokKind::kIdent: {
        if (t.lower == "true") {
          Advance();
          return Node::Lit(Value::Bool(true));
        }
        if (t.lower == "false") {
          Advance();
          return Node::Lit(Value::Bool(false));
        }
        if (t.lower == "null" || t.lower == "nil" || t.lower == "undefined") {
          Advance();
          return Node::Lit(Value::Null());
        }
        if (t.lower == "struct" && IsSymbol("(", 1)) {
          Deepen();
          Advance();
          Advance();
          std::vector<std::pair<std::string, NodePtr>> fields;
          if (!IsSymbol(")")) {
            do {
              std::string name = ExpectIdent();
              ExpectSymbol(":");
              fields.emplace_back(name, OrExpr());
            } while (AcceptSymbol(","));
          }
          ExpectSymbol(")");
          return Node::Struct(std::move(fields));
        }
        OAgg agg;
        if (AggFromKeyword(t.lower, &agg) && IsSymbol("(", 1)) {
          Deepen();
          Advance();
          Advance();
          NodePtr arg = Query();
          ExpectSymbol(")");
          return Node::Agg(agg, arg);
        }
        Advance();
        return Node::Ident(t.text);
      }
      case TokKind::kEnd:
        Fail("unexpected end of input");
    }
    Fail("expected expression");
  }
};

}  // namespace

NodePtr Parse(const std::string& input) {
  Parser p(Lex(input));
  return p.ParseQuery();
}

}  // namespace ldb::oql
