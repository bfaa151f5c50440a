#include "src/core/pretty.h"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <vector>

#include "src/core/cost.h"
#include "src/core/optimizer.h"
#include "src/runtime/error.h"
#include "src/runtime/profile.h"

namespace ldb {

namespace {

void Print(const ExprPtr& e, std::ostringstream& os);

void PrintQuals(const std::vector<Qualifier>& quals, std::ostringstream& os) {
  bool first = true;
  for (const Qualifier& q : quals) {
    if (!first) os << ", ";
    first = false;
    if (q.is_generator) {
      os << q.var << " <- ";
      Print(q.expr, os);
    } else {
      Print(q.expr, os);
    }
  }
}

void Print(const ExprPtr& e, std::ostringstream& os) {
  if (!e) {
    os << "<null-expr>";
    return;
  }
  switch (e->kind) {
    case ExprKind::kVar:
      os << e->name;
      return;
    case ExprKind::kParam:
      os << '$' << e->name;
      return;
    case ExprKind::kLiteral:
      os << e->literal.ToString();
      return;
    case ExprKind::kRecord: {
      os << '<';
      bool first = true;
      for (const auto& [n, f] : e->fields) {
        if (!first) os << ", ";
        first = false;
        os << n << '=';
        Print(f, os);
      }
      os << '>';
      return;
    }
    case ExprKind::kProj:
      Print(e->a, os);
      os << '.' << e->name;
      return;
    case ExprKind::kIf:
      os << "if ";
      Print(e->a, os);
      os << " then ";
      Print(e->b, os);
      os << " else ";
      Print(e->c, os);
      return;
    case ExprKind::kBinOp:
      os << '(';
      Print(e->a, os);
      os << ' ' << BinOpName(e->bin_op) << ' ';
      Print(e->b, os);
      os << ')';
      return;
    case ExprKind::kUnOp:
      os << UnOpName(e->un_op) << '(';
      Print(e->a, os);
      os << ')';
      return;
    case ExprKind::kLambda:
      os << "\\" << e->name << ". ";
      Print(e->a, os);
      return;
    case ExprKind::kApply:
      Print(e->a, os);
      os << '(';
      Print(e->b, os);
      os << ')';
      return;
    case ExprKind::kComp: {
      os << MonoidName(e->monoid) << "{ ";
      Print(e->a, os);
      if (!e->quals.empty()) {
        os << " | ";
        PrintQuals(e->quals, os);
      }
      os << " }";
      return;
    }
    case ExprKind::kMerge:
      os << '(';
      Print(e->a, os);
      os << " (+)" << MonoidName(e->monoid) << ' ';
      Print(e->b, os);
      os << ')';
      return;
    case ExprKind::kZero:
      os << "zero[" << MonoidName(e->monoid) << ']';
      return;
  }
}

void PrintOp(const AlgPtr& op, int indent, std::ostringstream& os) {
  os << std::string(static_cast<size_t>(indent) * 2, ' ');
  if (!op) {
    os << "<null-plan>\n";
    return;
  }
  auto pred_suffix = [&]() -> std::string {
    if (op->pred && !op->pred->IsTrueLiteral()) {
      return " if " + PrintExpr(op->pred);
    }
    return "";
  };
  switch (op->kind) {
    case AlgKind::kUnit:
      os << "Unit\n";
      return;
    case AlgKind::kScan:
      os << "Scan[" << op->var << " <- " << op->extent << pred_suffix() << "]\n";
      return;
    case AlgKind::kSelect:
      os << "Select[" << PrintExpr(op->pred) << "]\n";
      PrintOp(op->left, indent + 1, os);
      return;
    case AlgKind::kJoin:
    case AlgKind::kOuterJoin:
      os << (op->kind == AlgKind::kJoin ? "Join[" : "OuterJoin[")
         << PrintExpr(op->pred) << "]\n";
      PrintOp(op->left, indent + 1, os);
      PrintOp(op->right, indent + 1, os);
      return;
    case AlgKind::kUnnest:
    case AlgKind::kOuterUnnest:
      os << (op->kind == AlgKind::kUnnest ? "Unnest[" : "OuterUnnest[")
         << op->var << " := " << PrintExpr(op->path) << pred_suffix() << "]\n";
      PrintOp(op->left, indent + 1, os);
      return;
    case AlgKind::kNest: {
      os << "Nest[" << MonoidName(op->monoid) << '/' << PrintExpr(op->head)
         << " -> " << op->var << " group_by(";
      bool first = true;
      for (const auto& [n, k] : op->group_by) {
        if (!first) os << ", ";
        first = false;
        if (k->kind == ExprKind::kVar && k->name == n) {
          os << n;
        } else {
          os << n << '=' << PrintExpr(k);
        }
      }
      os << ") nulls(";
      first = true;
      for (const std::string& v : op->null_vars) {
        if (!first) os << ", ";
        first = false;
        os << v;
      }
      os << ')' << pred_suffix() << "]\n";
      PrintOp(op->left, indent + 1, os);
      return;
    }
    case AlgKind::kReduce:
      os << "Reduce[" << MonoidName(op->monoid) << '/' << PrintExpr(op->head)
         << pred_suffix() << "]\n";
      PrintOp(op->left, indent + 1, os);
      return;
  }
}

void WriteShape(const AlgPtr& op, std::ostringstream& os) {
  if (!op) return;
  switch (op->kind) {
    case AlgKind::kUnit:
      os << "Unit";
      return;
    case AlgKind::kScan:
      os << "Scan(" << op->extent << ')';
      return;
    case AlgKind::kSelect:
      os << "Select(";
      WriteShape(op->left, os);
      os << ')';
      return;
    case AlgKind::kJoin:
    case AlgKind::kOuterJoin:
      os << (op->kind == AlgKind::kJoin ? "Join(" : "OuterJoin(");
      WriteShape(op->left, os);
      os << ',';
      WriteShape(op->right, os);
      os << ')';
      return;
    case AlgKind::kUnnest:
    case AlgKind::kOuterUnnest:
      os << (op->kind == AlgKind::kUnnest ? "Unnest(" : "OuterUnnest(");
      WriteShape(op->left, os);
      os << ')';
      return;
    case AlgKind::kNest:
      os << "Nest(";
      WriteShape(op->left, os);
      os << ')';
      return;
    case AlgKind::kReduce:
      os << "Reduce(";
      WriteShape(op->left, os);
      os << ')';
      return;
  }
}

}  // namespace

std::string PrintExpr(const ExprPtr& e) {
  std::ostringstream os;
  Print(e, os);
  return os.str();
}

std::string PrintPlan(const AlgPtr& op) {
  std::ostringstream os;
  PrintOp(op, 0, os);
  return os.str();
}

std::string PlanShape(const AlgPtr& op) {
  std::ostringstream os;
  WriteShape(op, os);
  return os.str();
}

namespace {

std::string FormatMs(double ns) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3) << (ns / 1e6) << "ms";
  return os.str();
}

std::string FormatEst(double card) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(0) << card;
  return os.str();
}

struct ExplainRow {
  std::string node;   // indented DescribePhysOp text
  std::string annot;  // est/rows/time column
};

// Walks the plan in the pre-order used by CompileSlotPlan (id at node entry,
// left child before right) so `*next_id` reproduces each operator's stats id.
void ExplainWalk(const PhysPtr& op, int indent, int* next_id,
                 const QueryProfiler& profiler, const Catalog* catalog,
                 std::vector<ExplainRow>* rows) {
  if (!op) return;
  const int id = (*next_id)++;
  ExplainRow row;
  row.node = std::string(static_cast<size_t>(indent) * 2, ' ') +
             DescribePhysOp(*op);
  std::ostringstream a;
  if (catalog) {
    a << "est=" << FormatEst(EstimatePhysicalCardinality(op, *catalog))
      << "  ";
  }
  if (const OperatorStats* s = profiler.Find(id)) {
    a << "rows=" << s->rows_out;
    if (s->build_rows > 0) a << "  build=" << s->build_rows;
    if (s->groups > 0) a << "  groups=" << s->groups;
    if (s->short_circuits > 0) a << "  short_circuit=" << s->short_circuits;
    if (s->mem_bytes > 0) a << "  mem=" << s->mem_bytes << "B";
    a << "  time=" << FormatMs(static_cast<double>(s->open_ns + s->next_ns));
  } else {
    a << "(no stats)";
  }
  row.annot = a.str();
  rows->push_back(std::move(row));
  ExplainWalk(op->left, indent + 1, next_id, profiler, catalog, rows);
  ExplainWalk(op->right, indent + 1, next_id, profiler, catalog, rows);
}

}  // namespace

std::string ExplainAnalyze(const PhysPtr& plan, const QueryProfiler& profiler,
                           const Catalog* catalog) {
  std::ostringstream os;
  const ExecTotals& run = profiler.run;
  os << "EXPLAIN ANALYZE (mode=" << (run.mode.empty() ? "?" : run.mode)
     << " threads=" << run.threads;
  if (run.morsel_size > 0) os << " morsel=" << run.morsel_size;
  os << " wall=" << FormatMs(run.wall_ns);
  if (profiler.cache_hits + profiler.cache_misses > 0) {
    os << " plan=" << (profiler.plan_cached ? "cached" : "compiled")
       << " cache=" << profiler.cache_hits << "h/" << profiler.cache_misses
       << "m/" << profiler.cache_evictions << "e";
  }
  os << ")\n";

  std::vector<ExplainRow> rows;
  int next_id = 0;
  ExplainWalk(plan, 0, &next_id, profiler, catalog, &rows);
  size_t width = 0;
  for (const ExplainRow& r : rows) width = std::max(width, r.node.size());
  for (const ExplainRow& r : rows) {
    os << r.node << std::string(width - r.node.size() + 2, ' ') << r.annot
       << "\n";
  }

  if (!run.workers.empty()) {
    os << "workers:\n";
    for (const WorkerStats& w : run.workers) {
      os << "  w" << w.worker << ": morsels=" << w.morsels
         << " rows=" << w.rows
         << " busy=" << FormatMs(static_cast<double>(w.busy_ns)) << "\n";
    }
  }
  return os.str();
}

std::string PrintCompileTrace(const CompileTrace& trace) {
  std::ostringstream os;
  os << "compile trace (total " << std::fixed << std::setprecision(3)
     << trace.total_ms << " ms)\n";
  for (const StageTiming& st : trace.stages) {
    os << "  " << st.stage;
    if (st.stage.size() < 20) os << std::string(20 - st.stage.size(), ' ');
    os << std::fixed << std::setprecision(3) << st.ms << " ms\n";
  }
  if (!trace.normalize_rules.empty()) {
    os << "normalize rules:";
    bool first = true;
    for (const RuleFiring& r : trace.normalize_rules) {
      os << (first ? " " : ", ") << r.rule << " x" << r.count;
      first = false;
    }
    os << "\n";
  }
  if (!trace.unnest_steps.empty()) {
    os << "unnest steps:\n";
    for (const UnnestStep& s : trace.unnest_steps) {
      os << "  " << s.rule << ": " << s.description << "\n";
    }
  }
  os << "simplify rewrites: " << trace.simplify_rewrites << "\n";
  if (!trace.verify_stages.empty()) {
    os << "verify stages:\n";
    for (const VerifyStageSummary& v : trace.verify_stages) {
      os << "  " << v.stage;
      if (v.stage.size() < 20) os << std::string(20 - v.stage.size(), ' ');
      os << v.checks << " checks, " << v.findings << " findings, "
         << std::fixed << std::setprecision(3) << v.ms << " ms\n";
    }
  }
  return os.str();
}

}  // namespace ldb
