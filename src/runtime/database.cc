#include "src/runtime/database.h"

#include <algorithm>

#include "src/runtime/error.h"

namespace ldb {

uint32_t Database::StoreFor(const std::string& class_name) {
  std::optional<uint32_t> id = ClassNames::Intern(class_name);
  if (!id) throw TypeError("class name '" + class_name + "' does not intern");
  if (*id >= stores_.size()) stores_.resize(*id + 1);
  return *id;
}

// Points `object` at the class's shape when it names the same fields, so an
// extent keeps its field names once; the first object sets the shape.
Value Database::Adopt(ClassStore& store, Value object) {
  if (!store.shape) {
    store.shape = object.AsTuple().shape();
    return object;
  }
  return Value::ShareShape(std::move(object), store.shape);
}

Value Database::Insert(const std::string& class_name, Value object) {
  const ClassDecl* decl = schema_.FindClass(class_name);
  if (decl == nullptr) throw TypeError("unknown class '" + class_name + "'");
  if (object.kind() != Value::Kind::kTuple) {
    throw EvalError("object must be a tuple: " + object.ToString());
  }
  const uint32_t id = StoreFor(class_name);
  ClassStore& store = stores_[id];
  const int64_t oid = static_cast<int64_t>(store.objects.size());
  store.objects.push_back(Adopt(store, std::move(object)));
  Value ref = Value::MakeRef(Ref{id, oid});
  if (!decl->extent.empty()) extents_[decl->extent].push_back(ref);
  return ref;
}

void Database::Update(const Value& ref, Value object) {
  const Ref r = ref.AsRef();
  if (r.class_id >= stores_.size() || r.oid < 0 ||
      r.oid >= static_cast<int64_t>(stores_[r.class_id].objects.size())) {
    throw EvalError("dangling reference " + ref.ToString());
  }
  ClassStore& store = stores_[r.class_id];
  if (object.kind() == Value::Kind::kTuple) object = Adopt(store, std::move(object));
  store.objects[static_cast<size_t>(r.oid)] = std::move(object);
}

const std::vector<Value>& Database::ObjectsOf(uint32_t class_id) const {
  if (class_id >= stores_.size()) {
    throw EvalError("no objects of class " + ClassNames::Name(class_id));
  }
  return stores_[class_id].objects;
}

const Value& Database::Deref(const Ref& ref) const {
  if (ref.class_id >= stores_.size() || ref.oid < 0 ||
      ref.oid >= static_cast<int64_t>(stores_[ref.class_id].objects.size())) {
    throw EvalError("dangling reference " + ref.class_name() + "#" +
                    std::to_string(ref.oid));
  }
  return stores_[ref.class_id].objects[static_cast<size_t>(ref.oid)];
}

const std::vector<Value>& Database::Extent(const std::string& extent_name) const {
  if (!schema_.IsExtent(extent_name)) {
    throw TypeError("unknown extent '" + extent_name + "'");
  }
  static const std::vector<Value> kEmpty;
  auto it = extents_.find(extent_name);
  return it == extents_.end() ? kEmpty : it->second;
}

Value Database::Navigate(const Value& v, const std::string& attr) const {
  if (v.is_null()) return Value::Null();
  if (v.kind() == Value::Kind::kRef) {
    return Deref(v.AsRef()).Field(attr);
  }
  return v.Field(attr);
}

size_t Database::ObjectCount() const {
  size_t n = 0;
  for (const ClassStore& store : stores_) n += store.objects.size();
  return n;
}

void Database::BuildIndex(const std::string& extent_name,
                          const std::string& attr) {
  const ClassDecl* cls = schema_.FindExtent(extent_name);
  if (cls == nullptr) throw TypeError("unknown extent '" + extent_name + "'");
  if (!cls->AttributeType(attr)) {
    throw TypeError("class " + cls->name + " has no attribute '" + attr + "'");
  }
  IndexMap index;
  for (const Value& ref : Extent(extent_name)) {
    const Value& key = Deref(ref.AsRef()).Field(attr);
    if (key.is_null()) continue;  // equality with NULL never matches
    index[key].push_back(ref);
  }
  indexes_[IndexKey{extent_name, attr}] = std::move(index);
}

bool Database::HasIndex(const std::string& extent_name,
                        const std::string& attr) const {
  return indexes_.count(IndexKey{extent_name, attr}) > 0;
}

const std::vector<Value>& Database::IndexLookup(const std::string& extent_name,
                                                const std::string& attr,
                                                const Value& key) const {
  static const std::vector<Value> kEmpty;
  auto it = indexes_.find(IndexKey{extent_name, attr});
  if (it == indexes_.end()) {
    throw EvalError("no index on " + extent_name + "." + attr);
  }
  auto hit = it->second.find(key);
  return hit == it->second.end() ? kEmpty : hit->second;
}

void Database::DeclareIndex(const std::string& extent_name,
                            const std::string& attr) {
  const ClassDecl* cls = schema_.FindExtent(extent_name);
  if (cls == nullptr) throw TypeError("unknown extent '" + extent_name + "'");
  if (!cls->AttributeType(attr)) {
    throw TypeError("class " + cls->name + " has no attribute '" + attr + "'");
  }
  IndexKey key{extent_name, attr};
  for (const IndexKey& d : declared_) {
    if (d == key) return;
  }
  declared_.push_back(std::move(key));
}

std::vector<std::pair<std::string, std::string>> Database::IndexSpecs() const {
  std::vector<IndexKey> out;
  for (const auto& [key, index] : indexes_) out.push_back(key);
  for (const IndexKey& d : declared_) {
    if (indexes_.count(d) == 0) out.push_back(d);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void RebuildIndexes(Database& db) {
  for (const auto& [extent, attr] : db.IndexSpecs()) {
    if (!db.HasIndex(extent, attr)) db.BuildIndex(extent, attr);
  }
}

}  // namespace ldb
