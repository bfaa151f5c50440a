// Recursive-descent parser for the OQL subset (see ast.h). Grammar sketch:
//
//   query      := select | expr
//   select     := SELECT [DISTINCT] proj_list FROM from_item ("," from_item)*
//                 [WHERE expr] [GROUP BY path ("," path)*]
//   proj_list  := proj_item ("," proj_item)*           (implicit struct if >1)
//   proj_item  := expr [AS ident]
//   from_item  := ident IN expr | expr [AS] ident      ("Employees e")
//   expr       := or-precedence expression with NOT, comparisons (= != <>
//                 < <= > >=), IN, arithmetic, unary minus
//   quantifier := EXISTS ident IN expr ":" expr
//               | FOR ALL ident IN expr ":" expr
//   primary    := literal | ident | "(" query ")" | struct "(" a ":" e, .. ")"
//               | (count|sum|avg|max|min|exists) "(" query ")"
//               | primary "." ident
//
// Quantifier bodies extend maximally to the right, as in the paper's
// examples ("for all d in e.manager.children: c.age > d.age").

#ifndef LAMBDADB_OQL_PARSER_H_
#define LAMBDADB_OQL_PARSER_H_

#include <string>

#include "src/oql/ast.h"

namespace ldb::oql {

/// Parses one OQL query (a select or a bare expression). Throws ParseError,
/// also for nesting deeper than kMaxParseDepth (runtime/error.h).
NodePtr Parse(const std::string& input);

}  // namespace ldb::oql

#endif  // LAMBDADB_OQL_PARSER_H_
