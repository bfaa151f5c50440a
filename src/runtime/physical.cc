#include "src/runtime/physical.h"

#include <algorithm>
#include <set>

#include "src/runtime/database.h"
#include "src/runtime/error.h"

namespace ldb {

// Names with '$' are generated range variables; extent names never appear
// in join keys, so a plain subset test suffices — an extent-referencing
// conjunct simply stays in the residual.
bool ReadsOnly(const ExprPtr& e, const std::vector<std::string>& vars) {
  std::set<std::string> fv = FreeVars(e);
  for (const std::string& v : fv) {
    if (std::find(vars.begin(), vars.end(), v) == vars.end()) return false;
  }
  return true;
}

JoinKeys ExtractEquiKeys(const ExprPtr& pred,
                         const std::vector<std::string>& left_vars,
                         const std::vector<std::string>& right_vars) {
  JoinKeys out;
  std::vector<ExprPtr> residual;
  for (const ExprPtr& c : SplitConjuncts(pred)) {
    if (c->kind == ExprKind::kBinOp && c->bin_op == BinOpKind::kEq) {
      if (ReadsOnly(c->a, left_vars) && ReadsOnly(c->b, right_vars)) {
        out.left_keys.push_back(c->a);
        out.right_keys.push_back(c->b);
        continue;
      }
      if (ReadsOnly(c->b, left_vars) && ReadsOnly(c->a, right_vars)) {
        out.left_keys.push_back(c->b);
        out.right_keys.push_back(c->a);
        continue;
      }
    }
    residual.push_back(c);
  }
  out.residual = MakeConjunction(residual);
  return out;
}

bool MatchIndexScan(const AlgOp& scan, const Database& db, IndexMatch* out) {
  LDB_INTERNAL_CHECK(scan.kind == AlgKind::kScan, "not a scan");
  std::vector<ExprPtr> conjuncts = SplitConjuncts(scan.pred);
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    const ExprPtr& c = conjuncts[i];
    if (c->kind != ExprKind::kBinOp || c->bin_op != BinOpKind::kEq) continue;
    for (bool flipped : {false, true}) {
      const ExprPtr& attr_side = flipped ? c->b : c->a;
      const ExprPtr& key_side = flipped ? c->a : c->b;
      if (attr_side->kind != ExprKind::kProj ||
          attr_side->a->kind != ExprKind::kVar ||
          attr_side->a->name != scan.var) {
        continue;
      }
      if (!FreeVars(key_side).empty()) continue;  // not a constant
      if (!db.HasIndex(scan.extent, attr_side->name)) continue;
      out->attr = attr_side->name;
      out->key = key_side;
      std::vector<ExprPtr> residual = conjuncts;
      residual.erase(residual.begin() + static_cast<long>(i));
      out->residual = MakeConjunction(residual);
      return true;
    }
  }
  return false;
}

}  // namespace ldb
