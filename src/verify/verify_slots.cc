// Slot-plan dataflow verification. See verify.h and docs/VERIFIER.md.
//
// The analysis mirrors the scoping rules of CompileSlotPlan exactly: it
// recomputes, per operator, the set of slots the executor guarantees to have
// written before the operator's expressions run (the "available" set), the
// set of slots that may legitimately hold NULL padding, and checks every
// compiled expression against them. Because morsel workers execute against
// private frames, the concurrency invariant ("no two concurrent pipelines
// write the same non-accumulator slot") reduces to a static single-writer
// property of the shared plan: no two operators may claim the same slot.

#include <chrono>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "src/verify/verify.h"

namespace ldb {

namespace {

std::string SlotOpLabel(const SlotOp& op) {
  std::ostringstream os;
  os << PhysKindName(op.kind) << "#" << op.id << " span[" << op.out_lo << ","
     << op.out_hi << ")";
  return os.str();
}

class SlotChecker {
 public:
  SlotChecker(const SlotPlan& plan, VerifyReport* report)
      : plan_(plan), report_(report) {}

  void Run() {
    if (!plan_.root) {
      Finding("arity", "slot plan has no root", "");
      return;
    }
    Require(plan_.root->kind == PhysKind::kReduce, "root-reduce",
            "slot plan root is not a reduce", *plan_.root);
    CollectWriters(plan_.root);
    CheckParams();
    Flow f = CheckOp(plan_.root, /*is_root=*/true);
    (void)f;
  }

 private:
  // Available (guaranteed-written) and possibly-NULL (padding) slots of an
  // operator's output stream, plus the slots bound by the stream's leftmost
  // scan (the branch seed): the unnester null-converts every inner-box
  // generator, and an uncorrelated box's first generator is introduced by a
  // plain seed scan — never NULL, but a legitimate null-slot.
  struct Flow {
    std::set<int> avail;
    std::set<int> pads;
    std::set<int> seeds;
  };

  // -- pass 1: writer collection -------------------------------------------

  void Claim(int slot, const SlotOp& op, const char* what) {
    Require(slot >= 0 && slot < plan_.n_slots, "slot-range",
            std::string(what) + " slot " + std::to_string(slot) +
                " outside frame of " + std::to_string(plan_.n_slots),
            op);
    auto [it, inserted] = writers_.emplace(slot, op.id);
    ++report_->checks;
    if (!inserted) {
      Finding("single-writer",
              std::string(what) + " slot " + std::to_string(slot) +
                  " already written by operator #" + std::to_string(it->second),
              SlotOpLabel(op));
    }
  }

  void CollectWriters(const SlotOpPtr& op) {
    if (!op) return;
    switch (op->kind) {
      case PhysKind::kTableScan:
      case PhysKind::kIndexScan:
      case PhysKind::kUnnest:
      case PhysKind::kOuterUnnest:
        Claim(op->var_slot, *op, "binding");
        break;
      case PhysKind::kHashNest:
      case PhysKind::kGroupJoin:
        for (const auto& [slot, key] : op->group_slots) {
          (void)key;
          Claim(slot, *op, "group");
        }
        Claim(op->var_slot, *op, "binding");
        break;
      default:
        break;
    }
    CollectWriters(op->left);
    CollectWriters(op->right);
  }

  void CheckParams() {
    std::set<std::string> names;
    for (const auto& [name, slot] : plan_.param_slots) {
      Require(names.insert(name).second, "param-init",
              "parameter '" + name + "' reserved twice", *plan_.root);
      Require(slot >= 0 && slot < plan_.n_slots, "slot-range",
              "parameter slot " + std::to_string(slot) + " outside frame",
              *plan_.root);
      // Parameter slots are written once, before any row flows; an operator
      // claiming the same slot would clobber the binding mid-query.
      ++report_->checks;
      if (writers_.count(slot)) {
        Finding("param-init",
                "parameter '" + name + "' shares slot " +
                    std::to_string(slot) + " with operator #" +
                    std::to_string(writers_.at(slot)),
                SlotOpLabel(*plan_.root));
      }
      params_.insert(slot);
    }
  }

  // -- pass 2: dataflow ----------------------------------------------------

  Flow CheckOp(const SlotOpPtr& op, bool is_root) {
    if (!op) {
      Finding("arity", "null slot operator", "");
      return {};
    }
    // The pre-order id numbering is load-bearing: the profiler and EXPLAIN
    // ANALYZE match operators to stats by reproducing this walk.
    Require(op->id == next_pre_id_++, "preorder-id",
            "operator id " + std::to_string(op->id) +
                " breaks the pre-order numbering",
            *op);
    Require(op->out_lo <= op->out_hi && op->out_lo >= 0 &&
                op->out_hi <= plan_.n_slots,
            "span", "malformed covering span", *op);
    Require(op->kind == PhysKind::kReduce ? is_root : true, "root-reduce",
            "reduce operator below the slot-plan root", *op);

    Flow out;
    switch (op->kind) {
      case PhysKind::kUnitRow:
        break;
      case PhysKind::kTableScan: {
        BindCheck(*op);
        out.avail.insert(op->var_slot);
        out.seeds.insert(op->var_slot);
        CheckExpr(op->pred, out, *op, "predicate");
        break;
      }
      case PhysKind::kIndexScan: {
        BindCheck(*op);
        // The index iterator is opened before any row flows, so its key may
        // read only parameter slots and constants.
        CheckExpr(op->index_key, Flow{}, *op, "index key");
        out.avail.insert(op->var_slot);
        out.seeds.insert(op->var_slot);
        CheckExpr(op->pred, out, *op, "predicate");
        break;
      }
      case PhysKind::kFilter: {
        out = CheckOp(op->left, false);
        SpanContains(*op, out);
        CheckExpr(op->pred, out, *op, "predicate");
        break;
      }
      case PhysKind::kUnnest:
      case PhysKind::kOuterUnnest: {
        out = CheckOp(op->left, false);
        SpanContains(*op, out);
        CheckExpr(op->path, out, *op, "path");  // before the variable binds
        BindCheck(*op);
        out.avail.insert(op->var_slot);
        if (op->kind == PhysKind::kOuterUnnest) {
          out.pads.insert(op->var_slot);  // empty collections pad with NULL
        }
        CheckExpr(op->pred, out, *op, "predicate");
        break;
      }
      case PhysKind::kNLJoin:
      case PhysKind::kNLOuterJoin:
      case PhysKind::kHashJoin:
      case PhysKind::kHashOuterJoin: {
        Flow l = CheckOp(op->left, false);
        Flow r = CheckOp(op->right, false);
        out.avail = l.avail;
        out.avail.insert(r.avail.begin(), r.avail.end());
        out.pads = l.pads;
        out.pads.insert(r.pads.begin(), r.pads.end());
        // The combined stream's seed stays the leftmost one; right-side vars
        // were joined in, not seeded.
        out.seeds = l.seeds;
        SpanContains(*op, out);
        const bool outer = op->kind == PhysKind::kNLOuterJoin ||
                           op->kind == PhysKind::kHashOuterJoin;
        if (outer && op->right) {
          // A failed match NULL-fills the right subtree's whole covering
          // span (a range fill, which is why spans must nest).
          for (int s = op->right->out_lo; s < op->right->out_hi; ++s) {
            out.pads.insert(s);
          }
        }
        const Flow& build = op->build_is_left ? l : r;
        const Flow& probe = op->build_is_left ? r : l;
        for (const CExprPtr& k : op->build_keys) {
          CheckExpr(k, build, *op, "build key");
        }
        for (const CExprPtr& k : op->probe_keys) {
          CheckExpr(k, probe, *op, "probe key");
        }
        CheckExpr(op->pred, out, *op, "predicate");
        break;
      }
      case PhysKind::kHashNest: {
        Flow child = CheckOp(op->left, false);
        // The nest's output slots live after its child's (the child scope is
        // dead above the nest — its slots are never read again, only copied
        // or NULL-filled as part of an enclosing span).
        if (op->left) {
          Require(op->out_lo >= op->left->out_hi, "span",
                  "nest output span overlaps its child's slots", *op);
        }
        for (const auto& [slot, key] : op->group_slots) {
          CheckExpr(key, child, *op, "group-by key");
          out.avail.insert(slot);
          // A group key that is a plain read of a padding slot carries the
          // padded NULL through as a group key (and a seed slot its
          // seed-ness); anything computed is treated as non-NULL.
          if (key && key->kind == CExprKind::kSlot) {
            if (child.pads.count(key->slot) > 0) out.pads.insert(slot);
            if (child.seeds.count(key->slot) > 0) out.seeds.insert(slot);
          }
        }
        // O7: the null→zero conversion may only target genuine padding
        // slots — or the branch's seed slot, which the unnester lists for
        // an uncorrelated box although it can never be NULL (vacuous
        // conversion). Anything else means the compiled g function
        // disagrees with the plan that introduced the padding.
        for (int s : op->null_slots) {
          Require(child.pads.count(s) > 0 || child.seeds.count(s) > 0,
                  "O7-null-zero",
                  "null-slot " + std::to_string(s) +
                      " is neither a padding slot nor the seed slot of the "
                      "nest input",
                  *op);
        }
        CheckExpr(op->pred, child, *op, "predicate");
        CheckExpr(op->head, child, *op, "head");
        BindCheck(*op);
        out.avail.insert(op->var_slot);
        SpanContains(*op, out);
        break;
      }
      case PhysKind::kGroupJoin:
        out = CheckGroupJoin(*op);
        break;
      case PhysKind::kReduce: {
        out = CheckOp(op->left, false);
        SpanContains(*op, out);
        CheckExpr(op->pred, out, *op, "predicate");
        CheckExpr(op->head, out, *op, "head");
        break;
      }
    }
    ChildSpans(*op);
    return out;
  }

  // A GroupJoin equals Figure 5's nest over the outer join only if every
  // left row is its own group: its group keys must be the left input's row.
  // Its summaries are built before any left row flows, so what they
  // evaluate may read only the right input.
  Flow CheckGroupJoin(const SlotOp& op) {
    Flow l = CheckOp(op.left, false);
    Flow r = CheckOp(op.right, false);
    Flow joined = l;
    joined.avail.insert(r.avail.begin(), r.avail.end());
    for (const SlotOpPtr& child : {op.left, op.right}) {
      if (child) {
        Require(op.out_lo >= child->out_hi, "span",
                "group-join output span overlaps its inputs' slots", op);
      }
    }
    Flow out;
    std::set<int> read;
    for (const auto& [slot, key] : op.group_slots) {
      const bool plain = key && key->kind == CExprKind::kSlot &&
                         l.avail.count(key->slot) > 0;
      Require(plain, "groupjoin-keys",
              "group key for slot " + std::to_string(slot) +
                  " is not a plain read of a left-input slot",
              op);
      out.avail.insert(slot);
      if (!plain) continue;
      read.insert(key->slot);
      if (l.pads.count(key->slot) > 0) out.pads.insert(slot);
      if (l.seeds.count(key->slot) > 0) out.seeds.insert(slot);
    }
    for (int s : l.avail) {
      Require(read.count(s) > 0, "groupjoin-keys",
              "left-input slot " + std::to_string(s) +
                  " is not a group key, so left rows may share a group",
              op);
    }
    // O7: the null-to-zero conversion targets the right input's bindings.
    for (int s : op.null_slots) {
      Require(op.right && s >= op.right->out_lo && s < op.right->out_hi,
              "O7-null-zero",
              "null-slot " + std::to_string(s) +
                  " lies outside the right input's span",
              op);
    }
    const char* kSummary = "groupjoin-summary";
    const bool summarized = op.strategy != GroupJoinStrategy::kLoop;
    Require(op.probe_keys.size() == op.build_keys.size(), "arity",
            "group-join probe and build keys differ in number", op);
    Require(op.strategy != GroupJoinStrategy::kSorted ||
                op.probe_keys.size() == 1,
            "arity", "sorted group-join without exactly one comparison", op);
    for (const CExprPtr& k : op.probe_keys) {
      CheckExpr(k, l, op, "probe key", kSummary);
    }
    CheckExpr(op.guard, l, op, "guard", kSummary);
    for (const CExprPtr& k : op.build_keys) {
      CheckExpr(k, r, op, "build key", kSummary);
    }
    CheckExpr(op.pred, summarized ? r : joined, op, "predicate",
              summarized ? kSummary : "read-before-write");
    CheckExpr(op.head, summarized ? r : joined, op, "head",
              summarized ? kSummary : "read-before-write");
    BindCheck(op);
    out.avail.insert(op.var_slot);
    SpanContains(op, out);
    return out;
  }

  void BindCheck(const SlotOp& op) {
    Require(op.var_slot >= 0, "arity", "binding operator without a slot", op);
    Require(op.var_slot >= op.out_lo && op.var_slot < op.out_hi, "span",
            "bound slot " + std::to_string(op.var_slot) +
                " outside the operator's covering span",
            op);
  }

  void SpanContains(const SlotOp& op, const Flow& f) {
    for (int s : f.avail) {
      Require(s >= op.out_lo && s < op.out_hi, "span",
              "available slot " + std::to_string(s) +
                  " escapes the covering span",
              op);
    }
  }

  void ChildSpans(const SlotOp& op) {
    // Covering spans nest: each child's span lies inside the parent's —
    // except under HashNest and GroupJoin, whose child scopes are replaced
    // (checked above).
    if (op.kind == PhysKind::kHashNest || op.kind == PhysKind::kGroupJoin) {
      return;
    }
    for (const SlotOpPtr& child : {op.left, op.right}) {
      if (!child) continue;
      Require(child->out_lo >= op.out_lo && child->out_hi <= op.out_hi,
              "span", "child span escapes the parent's covering span", op);
    }
  }

  // `rule` names the finding for a slot read outside `flow`.
  void CheckExpr(const CExprPtr& e, const Flow& flow, const SlotOp& op,
                 const char* what, const char* rule = "read-before-write") {
    std::set<int> lets;
    CheckExprRec(e, flow, &lets, op, what, rule);
  }

  void CheckExprRec(const CExprPtr& e, const Flow& flow, std::set<int>* lets,
                    const SlotOp& op, const char* what, const char* rule) {
    if (!e) {
      // Predicates are never null by construction (compiled True()); paths,
      // heads and keys only exist on operators that use them.
      if (std::string(what) == "predicate") {
        Finding("arity", "operator missing compiled predicate",
                SlotOpLabel(op));
      }
      return;
    }
    switch (e->kind) {
      case CExprKind::kSlot:
        ++report_->checks;
        if (flow.avail.count(e->slot) == 0 && params_.count(e->slot) == 0 &&
            lets->count(e->slot) == 0) {
          Finding(rule,
                  std::string(what) + " reads slot " +
                      std::to_string(e->slot) +
                      " before any operator writes it",
                  SlotOpLabel(op));
        }
        break;
      case CExprKind::kLit:
        break;
      case CExprKind::kRecord:
        for (const CExprPtr& f : e->fields) {
          CheckExprRec(f, flow, lets, op, what, rule);
        }
        break;
      case CExprKind::kProj:
      case CExprKind::kUnOp:
        CheckExprRec(e->a, flow, lets, op, what, rule);
        break;
      case CExprKind::kIf:
        CheckExprRec(e->a, flow, lets, op, what, rule);
        CheckExprRec(e->b, flow, lets, op, what, rule);
        CheckExprRec(e->c, flow, lets, op, what, rule);
        break;
      case CExprKind::kBinOp:
      case CExprKind::kMerge:
        CheckExprRec(e->a, flow, lets, op, what, rule);
        CheckExprRec(e->b, flow, lets, op, what, rule);
        break;
      case CExprKind::kLet: {
        // The scratch target must be a dedicated slot: not an operator's,
        // not a parameter's, not another let's (scratch slots are assigned
        // fresh per compiled application site).
        Require(e->slot >= 0 && e->slot < plan_.n_slots, "slot-range",
                "let scratch slot " + std::to_string(e->slot) +
                    " outside frame",
                op);
        ++report_->checks;
        if (writers_.count(e->slot) || params_.count(e->slot) ||
            !let_slots_.insert(e->slot).second) {
          Finding("single-writer",
                  "let scratch slot " + std::to_string(e->slot) +
                      " is not exclusively owned",
                  SlotOpLabel(op));
        }
        CheckExprRec(e->a, flow, lets, op, what, rule);
        lets->insert(e->slot);
        CheckExprRec(e->b, flow, lets, op, what, rule);
        lets->erase(e->slot);
        break;
      }
    }
  }

  void Require(bool cond, const std::string& rule, const std::string& detail,
               const SlotOp& at) {
    ++report_->checks;
    if (!cond) Finding(rule, detail, SlotOpLabel(at));
  }

  void Finding(const std::string& rule, const std::string& detail,
               const std::string& subtree) {
    report_->findings.push_back({report_->stage, rule, detail, subtree});
  }

  const SlotPlan& plan_;
  VerifyReport* report_;
  std::map<int, int> writers_;  ///< operator-claimed slot -> operator id
  std::set<int> params_;
  std::set<int> let_slots_;
  int next_pre_id_ = 0;
};

}  // namespace

VerifyReport VerifySlotPlan(const SlotPlan& plan) {
  auto t0 = std::chrono::steady_clock::now();
  VerifyReport report;
  report.stage = "slot-plan";
  SlotChecker(plan, &report).Run();
  auto t1 = std::chrono::steady_clock::now();
  report.ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return report;
}

}  // namespace ldb
