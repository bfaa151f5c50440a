// Database serialization: dump a schema + all objects to a stream and load
// them back. This gives the in-memory store the persistence role the paper
// planned to delegate to SHORE (Section 6) — enough to snapshot generated
// workloads, ship regression databases with tests, and reload them byte-
// identically.
//
// The format is a line-oriented text format with length-prefixed strings
// (so arbitrary content round-trips):
//
//   lambdadb-dump 1
//   class <name> <extent-or-"-"> <n-attrs>
//   attr <len>:<name> <type>
//   ...
//   objects <class> <count>
//   <value>          (one per line)
//   index <extent> <attr>
//
// Types serialize as: b | i | r | s | C<len>:<name> | S(<t>) | G(<t>) |
// L(<t>) | T<n>(<len>:<name><t>...). Values as: N | B0/B1 | I<int>; |
// R<%.17g>; | s<len>:<bytes> | t<n>(<len>:<name><v>...) | e/g/l<n>(<v>...) |
// f<len>:<class>#<oid>; (numeric atoms are ';'-terminated so they cannot
// run into a following length prefix).

#ifndef LAMBDADB_RUNTIME_SERIALIZE_H_
#define LAMBDADB_RUNTIME_SERIALIZE_H_

#include <iosfwd>
#include <string>

#include "src/runtime/database.h"

namespace ldb {

/// Writes the database (schema + every object, in oid order) to `os`.
void DumpDatabase(const Database& db, std::ostream& os);

/// Reads a database previously written by DumpDatabase. Index contents are
/// not part of the dump: their (extent, attr) declarations load as pending
/// specs (Database::DeclareIndex) and RebuildIndexes materializes them.
/// Throws ParseError on malformed input.
Database LoadDatabase(std::istream& is);

/// Convenience: round-trip through a string.
std::string DumpDatabaseToString(const Database& db);
Database LoadDatabaseFromString(const std::string& dump);

/// Serializes one value in the dump's value syntax (see the format comment
/// above). The encoding is self-delimiting, so values can be concatenated
/// and read back one at a time — the wire protocol (src/net/) uses it to
/// ship result rows and parameter bindings.
std::string ValueToText(const Value& v);

/// Parses one value in the dump syntax; the whole string must be consumed.
/// Throws ParseError on malformed input, including a length or count the
/// text does not carry, an integer outside int64, and nesting deeper than
/// kMaxParseDepth. A declared size never sizes an allocation beyond the
/// text.
Value ValueFromText(const std::string& text);

}  // namespace ldb

#endif  // LAMBDADB_RUNTIME_SERIALIZE_H_
