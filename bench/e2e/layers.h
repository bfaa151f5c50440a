// In-process per-layer probes for the traced run: each workload statement
// is pushed through the public function of every compile and execution
// layer (parse, translate, typecheck, normalize, cache key, unnest,
// simplify, physical planning, slot compilation, verification, serial /
// parallel / profiled execution, result text), timed around each call, and
// the paper's nested-loop baseline is set against the unnested plans at
// fixed scales.

#ifndef LAMBDADB_BENCH_E2E_LAYERS_H_
#define LAMBDADB_BENCH_E2E_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench/e2e/spans.h"
#include "bench/e2e/workloads.h"
#include "src/runtime/database.h"

namespace ldb::e2e {

/// One reported number: name, value, unit, and how many samples it
/// summarizes.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

/// Serial / parallel execution time of one workload statement.
struct StatementCost {
  std::string label;  ///< e.g. "stmt1" or "adhoc17"
  double serial_ms = 0;
  double parallel_ms = 0;
  uint64_t rows = 0;
};

/// oql.*, core.*, runtime.*, verify.* and obs.profiler_ratio over the
/// workload's representative statements, measured on `db`.
std::vector<Metric> MeasureLayers(const Database& db, const Workload& w,
                                  SpanLog* spans,
                                  std::vector<StatementCost>* costs);

/// core.unnest_speedup.{P-N,P-J,P-A,P-JA,forall,CB}: RunOQLBaseline time
/// over RunOQL (unnested, hash operators) time at fixed scales, on data
/// from kDataSeed. `*agree` turns false if any row's two results differ.
std::vector<Metric> MeasurePaperRows(bool* agree);

}  // namespace ldb::e2e

#endif  // LAMBDADB_BENCH_E2E_LAYERS_H_
