#include "src/oql/odl.h"

#include <set>
#include <vector>

#include "src/oql/lexer.h"
#include "src/runtime/error.h"

namespace ldb::oql {

namespace {

class OdlParser {
 public:
  explicit OdlParser(std::vector<Token> toks) : toks_(std::move(toks)) {}

  Schema Parse() {
    std::vector<ClassDecl> decls;
    while (Peek().kind != TokKind::kEnd) {
      decls.push_back(ClassDecl());
      ParseClass(&decls.back());
    }
    // Validate forward references: every class-typed member must name a
    // declared class.
    std::set<std::string> names;
    for (const ClassDecl& d : decls) names.insert(d.name);
    for (const ClassDecl& d : decls) {
      for (const auto& [attr, type] : d.attributes) {
        ValidateType(type, names, d.name + "." + attr);
      }
    }
    Schema schema;
    for (ClassDecl& d : decls) schema.AddClass(std::move(d));
    return schema;
  }

 private:
  std::vector<Token> toks_;
  size_t pos_ = 0;

  const Token& Peek() const { return toks_[pos_]; }
  const Token& Advance() { return toks_[pos_ < toks_.size() - 1 ? pos_++ : pos_]; }

  [[noreturn]] void Fail(const std::string& msg) const {
    throw ParseError("ODL: " + msg + " near offset " +
                     std::to_string(Peek().offset));
  }

  bool AcceptKeyword(const char* kw) {
    if (Peek().kind == TokKind::kIdent && Peek().lower == kw) {
      Advance();
      return true;
    }
    return false;
  }
  void ExpectKeyword(const char* kw) {
    if (!AcceptKeyword(kw)) Fail(std::string("expected '") + kw + "'");
  }
  bool AcceptSymbol(const char* s) {
    if (Peek().kind == TokKind::kSymbol && Peek().text == s) {
      Advance();
      return true;
    }
    return false;
  }
  void ExpectSymbol(const char* s) {
    if (!AcceptSymbol(s)) Fail(std::string("expected '") + s + "'");
  }
  std::string ExpectIdent() {
    if (Peek().kind != TokKind::kIdent) Fail("expected identifier");
    return Advance().text;
  }

  void ParseClass(ClassDecl* decl) {
    ExpectKeyword("class");
    decl->name = ExpectIdent();
    if (AcceptSymbol("(")) {
      ExpectKeyword("extent");
      decl->extent = ExpectIdent();
      ExpectSymbol(")");
    }
    ExpectSymbol("{");
    while (!AcceptSymbol("}")) {
      if (!AcceptKeyword("attribute") && !AcceptKeyword("relationship")) {
        Fail("expected 'attribute' or 'relationship'");
      }
      TypePtr type = ParseType();
      std::string name = ExpectIdent();
      ExpectSymbol(";");
      decl->attributes.emplace_back(std::move(name), std::move(type));
    }
    AcceptSymbol(";");  // optional trailing semicolon
  }

  // `depth` counts the collection types enclosing this one; deeper than
  // kMaxParseDepth fails before the deeper type is read.
  TypePtr ParseType(int depth = 1) {
    if (depth > kMaxParseDepth) {
      Fail("type nests deeper than " + std::to_string(kMaxParseDepth) +
           " levels");
    }
    std::string name = ExpectIdent();
    std::string lower;
    for (char c : name) lower.push_back(static_cast<char>(std::tolower(c)));
    if (lower == "boolean" || lower == "bool") return Type::Bool();
    if (lower == "short" || lower == "int" || lower == "integer" ||
        lower == "long") {
      return Type::Int();
    }
    if (lower == "float" || lower == "double" || lower == "real") {
      return Type::Real();
    }
    if (lower == "string") return Type::Str();
    if (lower == "set" || lower == "bag" || lower == "list") {
      ExpectSymbol("<");
      TypePtr elem = ParseType(depth + 1);
      ExpectSymbol(">");
      if (lower == "set") return Type::Set(elem);
      if (lower == "bag") return Type::Bag(elem);
      return Type::List(elem);
    }
    return Type::Class(name);  // resolved after the whole schema is read
  }

  static void ValidateType(const TypePtr& t, const std::set<std::string>& classes,
                           const std::string& where) {
    if (t->kind() == Type::Kind::kClass) {
      if (classes.count(t->class_name()) == 0) {
        throw TypeError("ODL: unknown class '" + t->class_name() + "' in " +
                        where);
      }
      return;
    }
    if (t->is_collection()) ValidateType(t->elem(), classes, where);
  }
};

}  // namespace

Schema ParseODL(const std::string& input) {
  OdlParser parser(Lex(input));
  return parser.Parse();
}

}  // namespace ldb::oql
