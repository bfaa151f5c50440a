#include "src/core/cost.h"

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "src/runtime/error.h"

namespace ldb {

Catalog Catalog::FromDatabase(const Database& db) {
  Catalog cat;
  for (const auto& [name, decl] : db.schema().classes()) {
    if (!decl.extent.empty()) {
      cat.SetExtentCardinality(decl.extent,
                               static_cast<double>(db.Extent(decl.extent).size()));
    }
  }
  return cat;
}

namespace {

double PredSelectivity(const ExprPtr& pred) {
  double s = 1.0;
  for (const ExprPtr& c : SplitConjuncts(pred)) {
    bool is_eq = c->kind == ExprKind::kBinOp && c->bin_op == BinOpKind::kEq;
    s *= is_eq ? Catalog::kEqSelectivity : Catalog::kOtherSelectivity;
  }
  return s;
}

}  // namespace

double EstimateCardinality(const AlgPtr& op, const Catalog& catalog) {
  if (!op) return 0;
  switch (op->kind) {
    case AlgKind::kUnit:
      return 1;
    case AlgKind::kScan:
      return catalog.ExtentCardinality(op->extent) * PredSelectivity(op->pred);
    case AlgKind::kSelect:
      return EstimateCardinality(op->left, catalog) * PredSelectivity(op->pred);
    case AlgKind::kJoin:
      return EstimateCardinality(op->left, catalog) *
             EstimateCardinality(op->right, catalog) * PredSelectivity(op->pred);
    case AlgKind::kOuterJoin:
      // At least one output row per left row.
      return std::max(EstimateCardinality(op->left, catalog),
                      EstimateCardinality(op->left, catalog) *
                          EstimateCardinality(op->right, catalog) *
                          PredSelectivity(op->pred));
    case AlgKind::kUnnest:
      return EstimateCardinality(op->left, catalog) * Catalog::kUnnestFanout *
             PredSelectivity(op->pred);
    case AlgKind::kOuterUnnest:
      return std::max(EstimateCardinality(op->left, catalog),
                      EstimateCardinality(op->left, catalog) *
                          Catalog::kUnnestFanout * PredSelectivity(op->pred));
    case AlgKind::kNest: {
      // One row per distinct group key; assume grouping halves per key level.
      double in = EstimateCardinality(op->left, catalog);
      double groups = in;
      for (size_t i = 0; i < op->group_by.size() && groups > 1; ++i) {
        groups /= 2;
      }
      return std::max(1.0, op->group_by.empty() ? 1.0 : groups);
    }
    case AlgKind::kReduce:
      return 1;
  }
  return 1;
}

double EstimatePhysicalCardinality(const PhysPtr& op, const Catalog& catalog) {
  if (!op) return 0;
  switch (op->kind) {
    case PhysKind::kUnitRow:
      return 1;
    case PhysKind::kTableScan:
      return catalog.ExtentCardinality(op->extent) * PredSelectivity(op->pred);
    case PhysKind::kIndexScan:
      // The index lookup is an equality the planner stripped from the
      // residual predicate; account for it explicitly.
      return catalog.ExtentCardinality(op->extent) * Catalog::kEqSelectivity *
             PredSelectivity(op->pred);
    case PhysKind::kFilter:
      return EstimatePhysicalCardinality(op->left, catalog) *
             PredSelectivity(op->pred);
    case PhysKind::kNLJoin:
    case PhysKind::kHashJoin: {
      double sel = PredSelectivity(op->pred);
      for (size_t i = 0; i < op->build_keys.size(); ++i) {
        sel *= Catalog::kEqSelectivity;  // each extracted key pair is an "="
      }
      return EstimatePhysicalCardinality(op->left, catalog) *
             EstimatePhysicalCardinality(op->right, catalog) * sel;
    }
    case PhysKind::kNLOuterJoin:
    case PhysKind::kHashOuterJoin: {
      double sel = PredSelectivity(op->pred);
      for (size_t i = 0; i < op->build_keys.size(); ++i) {
        sel *= Catalog::kEqSelectivity;
      }
      double left = EstimatePhysicalCardinality(op->left, catalog);
      // At least one output row per left row (NULL padding).
      return std::max(left,
                      left * EstimatePhysicalCardinality(op->right, catalog) *
                          sel);
    }
    case PhysKind::kUnnest:
      return EstimatePhysicalCardinality(op->left, catalog) *
             Catalog::kUnnestFanout * PredSelectivity(op->pred);
    case PhysKind::kOuterUnnest: {
      double left = EstimatePhysicalCardinality(op->left, catalog);
      return std::max(left, left * Catalog::kUnnestFanout *
                                PredSelectivity(op->pred));
    }
    case PhysKind::kHashNest: {
      // One row per distinct group key; assume grouping halves per key level
      // (mirrors the logical kNest estimate).
      double in = EstimatePhysicalCardinality(op->left, catalog);
      double groups = in;
      for (size_t i = 0; i < op->group_by.size() && groups > 1; ++i) {
        groups /= 2;
      }
      return std::max(1.0, op->group_by.empty() ? 1.0 : groups);
    }
    case PhysKind::kGroupJoin:
      // One row per left row: the left input's rows are its groups.
      return EstimatePhysicalCardinality(op->left, catalog);
    case PhysKind::kReduce:
      return 1;
  }
  return 1;
}

namespace {

// Collects the inputs and predicate conjuncts of a maximal inner-join chain
// rooted at `op` (op->kind == kJoin). Inputs are the non-kJoin subtrees.
void CollectChain(const AlgPtr& op, std::vector<AlgPtr>* inputs,
                  std::vector<ExprPtr>* conjuncts) {
  if (op->kind == AlgKind::kJoin) {
    CollectChain(op->left, inputs, conjuncts);
    CollectChain(op->right, inputs, conjuncts);
    for (const ExprPtr& c : SplitConjuncts(op->pred)) conjuncts->push_back(c);
    return;
  }
  inputs->push_back(op);
}

struct ChainInput {
  AlgPtr plan;
  std::set<std::string> vars;
  double card;
};

// Rebuilds the chain greedily. `all_chain_vars` is the union of variables
// bound by the chain's inputs; conjuncts whose in-chain variables are
// covered attach as early as possible.
AlgPtr RebuildChain(std::vector<ChainInput> inputs,
                    std::vector<ExprPtr> conjuncts,
                    const std::set<std::string>& all_chain_vars) {
  // Conjunct placement test: every free variable that belongs to the chain
  // must be available; out-of-chain variables (extents / outer scope) do not
  // gate placement.
  auto placeable = [&](const ExprPtr& c, const std::set<std::string>& avail) {
    for (const std::string& v : FreeVars(c)) {
      if (all_chain_vars.count(v) > 0 && avail.count(v) == 0) return false;
    }
    return true;
  };

  // Start with the smallest input.
  size_t best = 0;
  for (size_t i = 1; i < inputs.size(); ++i) {
    if (inputs[i].card < inputs[best].card) best = i;
  }
  ChainInput current = inputs[best];
  inputs.erase(inputs.begin() + static_cast<long>(best));

  while (!inputs.empty()) {
    // Pick the input minimizing the estimated intermediate size, counting
    // the selectivity of the conjuncts that would become placeable. Inputs
    // connected to the current prefix by at least one conjunct are preferred
    // over cartesian products (the Selinger heuristic); a cross product is
    // taken only when nothing connects.
    double best_cost = std::numeric_limits<double>::infinity();
    size_t best_i = 0;
    bool best_connected = false;
    for (size_t i = 0; i < inputs.size(); ++i) {
      std::set<std::string> avail = current.vars;
      avail.insert(inputs[i].vars.begin(), inputs[i].vars.end());
      double sel = 1.0;
      bool connected = false;
      for (const ExprPtr& c : conjuncts) {
        if (!placeable(c, avail)) continue;
        connected = true;
        bool is_eq = c->kind == ExprKind::kBinOp && c->bin_op == BinOpKind::kEq;
        sel *= is_eq ? Catalog::kEqSelectivity : Catalog::kOtherSelectivity;
      }
      double cost = current.card * inputs[i].card * sel;
      if ((connected && !best_connected) ||
          (connected == best_connected && cost < best_cost)) {
        best_cost = cost;
        best_i = i;
        best_connected = connected;
      }
    }
    ChainInput next = inputs[best_i];
    inputs.erase(inputs.begin() + static_cast<long>(best_i));

    std::set<std::string> avail = current.vars;
    avail.insert(next.vars.begin(), next.vars.end());
    std::vector<ExprPtr> here;
    auto it = conjuncts.begin();
    while (it != conjuncts.end()) {
      if (placeable(*it, avail)) {
        here.push_back(*it);
        it = conjuncts.erase(it);
      } else {
        ++it;
      }
    }
    current.plan = AlgOp::Join(current.plan, next.plan, MakeConjunction(here));
    current.vars = std::move(avail);
    current.card = best_cost;
  }
  LDB_INTERNAL_CHECK(conjuncts.empty(), "join conjunct left unplaced");
  return current.plan;
}

AlgPtr Reorder(const AlgPtr& op, const Catalog& catalog) {
  if (!op) return op;
  if (op->kind == AlgKind::kJoin) {
    std::vector<AlgPtr> raw_inputs;
    std::vector<ExprPtr> conjuncts;
    CollectChain(op, &raw_inputs, &conjuncts);
    std::vector<ChainInput> inputs;
    std::set<std::string> all_vars;
    for (const AlgPtr& in : raw_inputs) {
      AlgPtr reordered = Reorder(in, catalog);  // recurse below the chain
      ChainInput ci;
      ci.plan = reordered;
      for (const std::string& v : OutputVars(reordered)) {
        ci.vars.insert(v);
        all_vars.insert(v);
      }
      ci.card = EstimateCardinality(reordered, catalog);
      inputs.push_back(std::move(ci));
    }
    if (inputs.size() < 2) return op;
    return RebuildChain(std::move(inputs), std::move(conjuncts), all_vars);
  }
  AlgPtr left = Reorder(op->left, catalog);
  AlgPtr right = Reorder(op->right, catalog);
  if (left == op->left && right == op->right) return op;
  auto out = std::make_shared<AlgOp>(*op);
  out->left = left;
  out->right = right;
  return out;
}

}  // namespace

AlgPtr ReorderJoins(const AlgPtr& plan, const Catalog& catalog) {
  return Reorder(plan, catalog);
}

}  // namespace ldb
