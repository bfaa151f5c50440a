// In-memory object store: one vector of objects per class, addressed by
// (class id, oid) references.
//
// Objects are record Values; relationship attributes hold Ref values (or
// collections of Refs). Path navigation `e.manager.children` dereferences
// through the store.

#ifndef LAMBDADB_RUNTIME_DATABASE_H_
#define LAMBDADB_RUNTIME_DATABASE_H_

#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/runtime/schema.h"
#include "src/runtime/value.h"

namespace ldb {

/// An in-memory OODB instance: a schema plus populated class extents.
class Database {
 public:
  explicit Database(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }

  /// Inserts an object (a tuple Value) into the class and returns a Ref to
  /// it. Objects that name the same fields share the class's Shape. Throws
  /// TypeError if the class is unknown, EvalError if not a tuple.
  Value Insert(const std::string& class_name, Value object);

  /// Replaces the attributes of an existing object (used by generators to
  /// patch cyclic references after allocation). Throws on a dangling ref.
  void Update(const Value& ref, Value object);

  /// Returns the object a Ref points to. Throws EvalError on dangling refs.
  const Value& Deref(const Ref& ref) const;

  /// The whole object store of one class (a ClassNames id), indexed by oid.
  /// Lets evaluators that dereference many Refs of the same class resolve
  /// the store once instead of per Deref. Throws EvalError if the class has
  /// no store.
  const std::vector<Value>& ObjectsOf(uint32_t class_id) const;

  /// Returns the extent of a class as a vector of Refs, in insertion order.
  /// Throws TypeError if `extent_name` is not a declared extent.
  const std::vector<Value>& Extent(const std::string& extent_name) const;

  /// Navigates one attribute step: if `v` is a Ref it is dereferenced first;
  /// NULL propagates to NULL (paper: every domain contains NULL and the only
  /// operations are creation and testing, so navigation from NULL yields
  /// NULL rather than an error).
  Value Navigate(const Value& v, const std::string& attr) const;

  /// Total number of stored objects, across all classes.
  size_t ObjectCount() const;

  // -- access paths (paper Section 6: "choosing access paths") --------------

  /// Builds (or rebuilds) a hash index on `extent_name` keyed by the value
  /// of `attr` of each object. NULL-keyed objects are not indexed (an
  /// equality with NULL never matches). Throws TypeError on unknown extents
  /// or attributes.
  void BuildIndex(const std::string& extent_name, const std::string& attr);

  /// True if BuildIndex was called for (extent, attr).
  bool HasIndex(const std::string& extent_name, const std::string& attr) const;

  /// Refs of the extent's objects whose `attr` equals `key`; empty if the
  /// index has no entry. Requires HasIndex.
  const std::vector<Value>& IndexLookup(const std::string& extent_name,
                                        const std::string& attr,
                                        const Value& key) const;

  /// Records that (extent, attr) should carry an index without building it.
  /// LoadDatabase uses this for the dump's `index` records so loading stays
  /// cheap; RebuildIndexes turns declarations into live indexes. Throws
  /// TypeError on unknown extents or attributes.
  void DeclareIndex(const std::string& extent_name, const std::string& attr);

  /// Every (extent, attr) pair this database indexes: built ones plus
  /// declared-but-unbuilt ones, sorted, deduplicated. Feeds DumpDatabase and
  /// RebuildIndexes.
  std::vector<std::pair<std::string, std::string>> IndexSpecs() const;

 private:
  // One class's objects, indexed by oid, and the shape they share.
  struct ClassStore {
    std::vector<Value> objects;
    ShapePtr shape;
  };

  // The class's ClassNames id, with a (possibly empty) store at it.
  uint32_t StoreFor(const std::string& class_name);
  Value Adopt(ClassStore& store, Value object);

  Schema schema_;
  std::vector<ClassStore> stores_;  // indexed by ClassNames id
  std::map<std::string, std::vector<Value>> extents_;  // extent -> refs

  using IndexKey = std::pair<std::string, std::string>;  // (extent, attr)
  using IndexMap = std::unordered_map<Value, std::vector<Value>, ValueHash>;
  std::map<IndexKey, IndexMap> indexes_;
  std::vector<IndexKey> declared_;  // DeclareIndex'd, not yet built
};

/// Builds every declared-but-unbuilt index (Database::IndexSpecs). The dump
/// format records index declarations but not their contents, so a loaded
/// database answers HasIndex false until this runs; the query service calls
/// it right after LoadDatabase so index-backed access paths keep firing
/// across a serialize round-trip.
void RebuildIndexes(Database& db);

}  // namespace ldb

#endif  // LAMBDADB_RUNTIME_DATABASE_H_
