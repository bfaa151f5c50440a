#include "src/runtime/exec_pipeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/monoid.h"
#include "src/core/thread_annotations.h"
#include "src/obs/resource.h"
#include "src/runtime/cancel.h"
#include "src/runtime/error.h"
#include "src/runtime/expr_eval.h"
#include "src/runtime/profile.h"

namespace ldb {

namespace {

// Cooperative cancellation poll (docs/SERVICE.md). Free when no token is
// attached (one pointer test); one relaxed atomic load when attached; a
// steady-clock read additionally only when the token armed a deadline.
inline void PollCancel(const CancelToken* cancel) {
  if (cancel != nullptr) cancel->ThrowIfCancelled();
}

// -- memory accounting helpers -----------------------------------------------
//
// The operators that hold state (join builds, nest groups, collection folds)
// charge their buffered bytes through the owning evaluator's MemoryTracker
// (src/obs/resource.h) and release them in Close() AND the destructor, so an
// abort unwind (cancel, budget, error) leaves no reservation behind. Byte
// sizing is gated on `tracker.armed() || stats != nullptr` at every build and
// drain (on `armed()` alone in the root fold, whose bytes are the result's)
// — untracked unprofiled runs never walk a value.

// Charges `bytes` of held state to operator class `cls`. *charged grows
// first, so an over-budget throw still leaves every applied byte for the
// caller to release.
void ChargeBytes(FrameEvaluator* fev, PhysKind cls, size_t bytes,
                 size_t* charged) {
  *charged += bytes;
  fev->mem().Charge(static_cast<int>(cls), bytes);
}

// Releases a root fold's collection-element charges on scope exit: the
// result Value leaves the engine when the fold finishes, so its bytes stop
// being engine-held exactly then (and a fold abort must return them too).
struct FoldChargeGuard {
  obs::MemoryTracker* mem;
  const size_t* charged;
  ~FoldChargeGuard() {
    if (*charged > 0) {
      mem->Release(static_cast<int>(PhysKind::kReduce), *charged);
    }
  }
};

// -- profiling helpers -------------------------------------------------------
//
// Profiling is gated on ExecOptions::profiler. When it is null the iterator
// trees below are built without decorators; when set, every operator is
// wrapped in a timing/counting decorator, and the builds, the nest drain's
// caller and the root fold report through a nullable OperatorStats*, which
// they write once, when they finish.

using ProfClock = std::chrono::steady_clock;

double NsSince(ProfClock::time_point t0) {
  return std::chrono::duration<double, std::nano>(ProfClock::now() - t0)
      .count();
}

// Short operator label: the kind plus the extent for scans.
std::string ProfLabel(PhysKind kind, const std::string& extent) {
  std::string out = PhysKindName(kind);
  if (!extent.empty()) {
    out += '(';
    out += extent;
    out += ')';
  }
  return out;
}

// `op`'s stats slot in `prof`, or null when the run is not profiled.
OperatorStats* StatsFor(QueryProfiler* prof, const SlotOp& op) {
  return prof == nullptr
             ? nullptr
             : prof->Register(op.id, op.kind, ProfLabel(op.kind, op.extent));
}

// ===========================================================================
// Slot-frame engine.
// ===========================================================================

// A buffered row: a copy of a subtree's covering slot span [out_lo, out_hi).
using BufRow = std::vector<Value>;
// Hash-join build table over span copies.
using JoinTable = std::unordered_map<Value, std::vector<BufRow>, ValueHash>;

// A summary's fold, or the EvalError computing it raised (an int sum or
// product leaving int64). The error reaches only the left rows that select
// the fold, as under the nested-loop semantics, instead of ending the build.
struct SummaryFold {
  Value value;
  std::exception_ptr error;

  const Value& Get() const {
    if (error) std::rethrow_exception(error);
    return value;
  }
};

// A GroupJoin's right side, built once per execution (after parameters are
// written, so never part of the cached SlotPlan) by BuildGroupJoinSide.
struct GroupJoinSide {
  Value zero;  // the monoid's empty fold: a left row with no matches
  // kLoop: right rows by equality key (one bucket under the empty-list key
  // when there are no keys), in build order.
  JoinTable table;
  // kAggregate: each key's fold over its qualifying right rows.
  std::unordered_map<Value, SummaryFold, ValueHash> folds_by_key;
  // kSorted: the qualifying rows' (b, head) pairs in build order, kept only
  // when some b (or a NaN head) defeats Value::Compare's ordering, in which
  // case each left row folds over them in order (the loop strategy).
  std::vector<std::pair<Value, Value>> entries;
  // kSorted, ordered: the b values ascending, and folds[i], the fold over
  // keys [0, i) for > and >=, or over keys [i, n) for < and <=.
  bool ordered = false;
  std::vector<Value> keys;
  std::vector<SummaryFold> folds;
};

// Build-side tables prebuilt once and shared read-only by all workers,
// keyed by the owning operator's SlotOp::id.
struct SharedTables {
  std::unordered_map<int, JoinTable> join_tables;
  std::unordered_map<int, std::vector<BufRow>> buffers;
  std::unordered_map<int, GroupJoinSide> group_joins;
};

struct NestGroup {
  Elems key;
  Accumulator acc;
};

// Per-morsel (and serial) grouping state for HashNest.
struct PartialGroups {
  std::vector<NestGroup> groups;  // first-encounter order
  std::unordered_map<Value, size_t, ValueHash> index;
  size_t charged = 0;  // bytes charged for this state
};

// A spine HashNest's groups, merged from parallel mode B's per-morsel
// tables, for the serial driver to replay instead of draining the nest's
// input.
struct PrebuiltNest {
  int id;
  std::vector<NestGroup> groups;
  size_t bytes = 0;  // the workers' charges; the parallel executor owns them
};

void LoadSpan(Frame& frame, int lo, const BufRow& row) {
  std::copy(row.begin(), row.end(), frame.begin() + lo);
}

void FillNullSpan(Frame& frame, int lo, int hi) {
  for (int i = lo; i < hi; ++i) frame[i] = Value::Null();
}

BufRow CopySpan(const Frame& frame, int lo, int hi) {
  return BufRow(frame.begin() + lo, frame.begin() + hi);
}

size_t SpanBytes(const BufRow& row) {
  size_t b = 0;
  for (const Value& v : row) b += EstimateValueBytes(v);
  return b;
}

// Composite hash key; a single-key join uses the key value directly instead
// of allocating a one-element list per row. NULL keys never match.
Value EvalKeyTuple(FrameEvaluator* fev, Frame& frame,
                   const std::vector<CExprPtr>& keys) {
  if (keys.size() == 1) return fev->Eval(*keys[0], frame);
  Elems parts;
  parts.reserve(keys.size());
  for (const CExprPtr& k : keys) {
    Value v = fev->Eval(*k, frame);
    if (v.is_null()) return Value::Null();
    parts.push_back(std::move(v));
  }
  return Value::List(std::move(parts));
}

// Probe-side variant of EvalKeyTuple: the key is only looked up, never
// stored, so a single-key probe can use the pointer path and skip copying
// (and, for a heap-backed key, reference-counting) a Value per probe row.
const Value* EvalKeyPtr(FrameEvaluator* fev, Frame& frame,
                        const std::vector<CExprPtr>& keys, Value* scratch) {
  if (keys.size() == 1) return fev->EvalPtr(*keys[0], frame, scratch);
  *scratch = EvalKeyTuple(fev, frame, keys);
  return scratch;
}

// Writes the caller's parameter bindings into the plan's reserved slots.
// Every parameter the plan declares must be bound (a missing binding is an
// EvalError); extra bindings are ignored.
void FillParams(const SlotPlan& sp, const ExecOptions& opt, Frame& frame) {
  for (const auto& [name, slot] : sp.param_slots) {
    if (opt.params != nullptr) {
      auto it = opt.params->find(name);
      if (it != opt.params->end()) {
        frame[static_cast<size_t>(slot)] = it->second;
        continue;
      }
    }
    throw EvalError("unbound parameter $" + name);
  }
}

// One executing thread's evaluator and frame (the serial driver, the
// prebuild, each worker): armed with the caller's cancellation token and
// resource context, with the plan's parameters written, so parameters are
// plain slot reads afterwards. Iterators keep pointers into it.
struct ThreadFrame {
  FrameEvaluator fev;
  Frame frame;

  ThreadFrame(const SlotPlan& sp, const Database& db, const ExecOptions& opt)
      : fev(db), frame(static_cast<size_t>(sp.n_slots)) {
    fev.SetCancel(opt.cancel);
    fev.SetResource(opt.resource);
    FillParams(sp, opt, frame);
  }
  ThreadFrame(const ThreadFrame&) = delete;
  ThreadFrame& operator=(const ThreadFrame&) = delete;
};

// The O7 padding test: a row whose null-var slots hold NULL adds nothing.
bool NullPadded(const SlotOp& op, const Frame& frame) {
  for (int s : op.null_slots) {
    if (frame[s].is_null()) return true;
  }
  return false;
}

// A hash join's build input, the side it hashes.
const SlotOpPtr& BuildInput(const SlotOp& op) {
  return op.build_is_left ? op.left : op.right;
}

// The input a row streams in from: a hash join's probe side, every other
// operator's left input (null below a scan).
const SlotOpPtr& StreamedInput(const SlotOp& op) {
  const bool hash_join =
      op.kind == PhysKind::kHashJoin || op.kind == PhysKind::kHashOuterJoin;
  return hash_join && op.build_is_left ? op.right : op.left;
}

// Iterators communicate through the shared per-thread frame: Next() writes
// the operator's output slots and returns whether a row was produced.
class FrameIter {
 public:
  virtual ~FrameIter() = default;
  virtual void Open() = 0;
  virtual bool Next() = 0;
  virtual void Close() {}
};

// Counting/timing decorator around any frame iterator.
class FProfiledIter : public FrameIter {
 public:
  FProfiledIter(std::unique_ptr<FrameIter> inner, OperatorStats* stats)
      : inner_(std::move(inner)), stats_(stats) {}

  void Open() override {
    ++stats_->opens;
    auto t0 = ProfClock::now();
    inner_->Open();
    stats_->open_ns += NsSince(t0);
  }
  bool Next() override {
    ++stats_->next_calls;
    auto t0 = ProfClock::now();
    bool ok = inner_->Next();
    stats_->next_ns += NsSince(t0);
    if (ok) ++stats_->rows_out;
    return ok;
  }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<FrameIter> inner_;
  OperatorStats* stats_;
};

class FUnitRowIter : public FrameIter {
 public:
  void Open() override { done_ = false; }
  bool Next() override {
    if (done_) return false;
    done_ = true;
    return true;
  }

 private:
  bool done_ = true;
};

class FTableScanIter : public FrameIter {
 public:
  FTableScanIter(const SlotOp& op, FrameEvaluator* fev, Frame* frame)
      : op_(op), fev_(fev), frame_(frame) {}

  /// Restricts the scan to extent rows [lo, hi) — the morsel handed to a
  /// worker. Takes effect at the next Open().
  void SetRange(size_t lo, size_t hi) {
    ranged_ = true;
    lo_ = lo;
    hi_ = hi;
  }

  void Open() override {
    extent_ = &fev_->db().Extent(op_.extent);
    pos_ = ranged_ ? lo_ : 0;
    end_ = ranged_ ? hi_ : extent_->size();
  }
  bool Next() override {
    while (pos_ < end_) {
      PollCancel(fev_->cancel());
      (*frame_)[op_.var_slot] = (*extent_)[pos_++];
      if (fev_->EvalPred(*op_.pred, *frame_)) return true;
    }
    return false;
  }

 private:
  const SlotOp& op_;
  FrameEvaluator* fev_;
  Frame* frame_;
  const std::vector<Value>* extent_ = nullptr;
  size_t pos_ = 0, end_ = 0;
  bool ranged_ = false;
  size_t lo_ = 0, hi_ = 0;
};

class FIndexScanIter : public FrameIter {
 public:
  FIndexScanIter(const SlotOp& op, FrameEvaluator* fev, Frame* frame)
      : op_(op), fev_(fev), frame_(frame) {}

  void Open() override {
    pos_ = 0;
    Value key = fev_->Eval(*op_.index_key, *frame_);
    bucket_ = key.is_null()
                  ? nullptr  // = NULL never matches
                  : &fev_->db().IndexLookup(op_.extent, op_.index_attr, key);
  }
  bool Next() override {
    if (bucket_ == nullptr) return false;
    while (pos_ < bucket_->size()) {
      (*frame_)[op_.var_slot] = (*bucket_)[pos_++];
      if (fev_->EvalPred(*op_.pred, *frame_)) return true;
    }
    return false;
  }

 private:
  const SlotOp& op_;
  FrameEvaluator* fev_;
  Frame* frame_;
  const std::vector<Value>* bucket_ = nullptr;
  size_t pos_ = 0;
};

class FFilterIter : public FrameIter {
 public:
  FFilterIter(const SlotOp& op, std::unique_ptr<FrameIter> child,
              FrameEvaluator* fev, Frame* frame)
      : op_(op), child_(std::move(child)), fev_(fev), frame_(frame) {}

  void Open() override { child_->Open(); }
  bool Next() override {
    while (child_->Next()) {
      if (fev_->EvalPred(*op_.pred, *frame_)) return true;
    }
    return false;
  }
  void Close() override { child_->Close(); }

 private:
  const SlotOp& op_;
  std::unique_ptr<FrameIter> child_;
  FrameEvaluator* fev_;
  Frame* frame_;
};

class FUnnestIter : public FrameIter {
 public:
  FUnnestIter(const SlotOp& op, std::unique_ptr<FrameIter> child,
              FrameEvaluator* fev, Frame* frame)
      : op_(op), outer_(op.kind == PhysKind::kOuterUnnest),
        child_(std::move(child)), fev_(fev), frame_(frame) {}

  void Open() override {
    child_->Open();
    have_row_ = false;
  }

  bool Next() override {
    while (true) {
      if (!have_row_) {
        if (!child_->Next()) return false;
        coll_ = fev_->Eval(*op_.path, *frame_);
        elems_ = coll_.is_null() ? nullptr : &coll_.AsElems();
        pos_ = 0;
        emitted_ = false;
        have_row_ = true;
      }
      if (elems_ != nullptr) {
        while (pos_ < elems_->size()) {
          (*frame_)[op_.var_slot] = (*elems_)[pos_++];
          if (fev_->EvalPred(*op_.pred, *frame_)) {
            emitted_ = true;
            return true;
          }
        }
      }
      have_row_ = false;
      if (outer_ && !emitted_) {
        (*frame_)[op_.var_slot] = Value::Null();
        return true;
      }
    }
  }
  void Close() override { child_->Close(); }

 private:
  const SlotOp& op_;
  bool outer_;
  std::unique_ptr<FrameIter> child_;
  FrameEvaluator* fev_;
  Frame* frame_;
  Value coll_;
  const Elems* elems_ = nullptr;
  size_t pos_ = 0;
  bool have_row_ = false;
  bool emitted_ = false;
};

// -- builds and the nest drain -----------------------------------------------
//
// One build per buffering operator, called by its iterator's Open and by
// the parallel prebuild alike. Each opens and drains its input, polls
// cancellation per row, charges what it keeps to the operator's class when
// the tracker is armed or the run is profiled (see ChargeBytes), and writes
// its stats once, after the loop. DrainNest is the HashNest's counterpart.

// An NL join's right side, buffered as span copies.
void BuildBuffer(const SlotOp& op, FrameIter* right, FrameEvaluator* fev,
                 Frame& frame, OperatorStats* stats, size_t* charged,
                 std::vector<BufRow>* buffer) {
  const bool sized = fev->mem().armed() || stats != nullptr;
  const size_t charged0 = *charged;
  right->Open();
  while (right->Next()) {
    PollCancel(fev->cancel());
    buffer->push_back(CopySpan(frame, op.right->out_lo, op.right->out_hi));
    if (sized) ChargeBytes(fev, op.kind, SpanBytes(buffer->back()), charged);
  }
  right->Close();
  if (stats != nullptr) {
    stats->build_rows += buffer->size();
    stats->mem_bytes += *charged - charged0;
  }
}

// A hash join's build side, hashed on the build keys as span copies; rows
// with a NULL key never match and are dropped.
void BuildJoinTable(const SlotOp& op, FrameIter* build, FrameEvaluator* fev,
                    Frame& frame, OperatorStats* stats, size_t* charged,
                    JoinTable* table) {
  const bool sized = fev->mem().armed() || stats != nullptr;
  const size_t charged0 = *charged;
  const SlotOp& input = *BuildInput(op);
  uint64_t built = 0;
  build->Open();
  while (build->Next()) {
    PollCancel(fev->cancel());
    Value key = EvalKeyTuple(fev, frame, op.build_keys);
    if (key.is_null()) continue;
    BufRow row = CopySpan(frame, input.out_lo, input.out_hi);
    if (sized) ChargeBytes(fev, op.kind, SpanBytes(row), charged);
    (*table)[std::move(key)].push_back(std::move(row));
    ++built;
  }
  build->Close();
  if (stats != nullptr) {
    stats->build_rows += built;
    stats->mem_bytes += *charged - charged0;
  }
}

// A value Value::Compare orders strictly: anything else (NaN, bools, records)
// sends a sorted GroupJoin back to its loop.
bool Orderable(const Value& v) {
  return v.kind() == Value::Kind::kInt || v.kind() == Value::Kind::kStr ||
         (v.kind() == Value::Kind::kReal && std::isfinite(v.AsReal()));
}

// A summary fold's step: an EvalError it raises is kept in *error, and once
// one is kept the fold takes no more steps.
template <class Step>
void FoldStep(std::exception_ptr* error, Step step) {
  if (*error) return;
  try {
    step();
  } catch (const EvalError&) {
    *error = std::current_exception();
  }
}

// Finishes `acc`, unless a step of it already failed with `error`.
SummaryFold FinishFold(Accumulator& acc, std::exception_ptr error) {
  SummaryFold out{Value(), std::move(error)};
  FoldStep(&out.error, [&] { out.value = acc.Finish(); });
  return out;
}

// The finished fold of what `acc` has seen so far; `acc` keeps folding.
SummaryFold Snapshot(const Accumulator& acc) {
  Accumulator copy = acc;
  return FinishFold(copy, nullptr);
}

// A GroupJoin's right side: drains `right`, keeping what the plan's strategy
// needs (docs/EXECUTOR.md).
void BuildGroupJoinSide(const SlotOp& op, FrameIter* right, FrameEvaluator* fev,
                        Frame& frame, OperatorStats* stats, size_t* charged,
                        GroupJoinSide* side) {
  const bool sized = fev->mem().armed() || stats != nullptr;
  const size_t charged0 = *charged;
  side->zero = Accumulator(op.monoid).Finish();
  struct KeyFold {
    Accumulator acc;
    std::exception_ptr error;
  };
  std::unordered_map<Value, KeyFold, ValueHash> accs;  // kAggregate
  uint64_t read = 0;
  Value scratch;
  right->Open();
  while (right->Next()) {
    PollCancel(fev->cancel());
    ++read;
    switch (op.strategy) {
      case GroupJoinStrategy::kLoop: {
        Value key = EvalKeyTuple(fev, frame, op.build_keys);
        if (key.is_null()) break;
        BufRow row = CopySpan(frame, op.right->out_lo, op.right->out_hi);
        if (sized) ChargeBytes(fev, op.kind, SpanBytes(row), charged);
        side->table[std::move(key)].push_back(std::move(row));
        break;
      }
      case GroupJoinStrategy::kAggregate: {
        Value key = EvalKeyTuple(fev, frame, op.build_keys);
        if (key.is_null() || !fev->EvalPred(*op.pred, frame) ||
            NullPadded(op, frame)) {
          break;
        }
        auto [it, inserted] = accs.try_emplace(
            std::move(key), KeyFold{Accumulator(op.monoid), nullptr});
        if (inserted && sized) {
          ChargeBytes(fev, op.kind, EstimateValueBytes(it->first), charged);
        }
        const Value* hv = fev->EvalPtr(*op.head, frame, &scratch);
        if (sized && IsCollectionMonoid(op.monoid)) {
          ChargeBytes(fev, op.kind, EstimateValueBytes(*hv), charged);
        }
        KeyFold& fold = it->second;
        FoldStep(&fold.error, [&] { fold.acc.Add(*hv); });
        break;
      }
      case GroupJoinStrategy::kSorted: {
        Value b = fev->Eval(*op.build_keys[0], frame);
        if (b.is_null() || !fev->EvalPred(*op.pred, frame) ||
            NullPadded(op, frame)) {
          break;
        }
        Value h = fev->Eval(*op.head, frame);
        if (sized) {
          ChargeBytes(fev, op.kind,
                      EstimateValueBytes(b) + EstimateValueBytes(h), charged);
        }
        side->entries.emplace_back(std::move(b), std::move(h));
        break;
      }
    }
  }
  right->Close();

  size_t summary = 0;
  if (op.strategy == GroupJoinStrategy::kAggregate) {
    side->folds_by_key.reserve(accs.size());
    for (auto& [key, fold] : accs) {
      side->folds_by_key.emplace(key, FinishFold(fold.acc, fold.error));
    }
    summary = side->folds_by_key.size();
  } else if (op.strategy == GroupJoinStrategy::kSorted) {
    // Value::Compare is a strict weak order only on finite numbers and
    // strings, and max/min of a NaN depends on the order rows arrive in.
    side->ordered = std::all_of(
        side->entries.begin(), side->entries.end(), [](const auto& e) {
          return Orderable(e.first) &&
                 !(e.second.kind() == Value::Kind::kReal &&
                   std::isnan(e.second.AsReal()));
        });
    summary = side->entries.size();
    if (side->ordered) {
      std::vector<std::pair<Value, Value>>& entries = side->entries;
      std::stable_sort(entries.begin(), entries.end(),
                       [](const auto& x, const auto& y) {
                         return Value::Compare(x.first, y.first) < 0;
                       });
      const size_t n = entries.size();
      const bool prefix = op.sort_op == BinOpKind::kGt ||
                          op.sort_op == BinOpKind::kGe;
      side->folds.resize(n + 1);
      Accumulator acc(op.monoid);
      side->folds[prefix ? 0 : n] = SummaryFold{side->zero, nullptr};
      for (size_t i = 0; i < n; ++i) {
        PollCancel(fev->cancel());
        const size_t at = prefix ? i : n - 1 - i;
        acc.Add(entries[at].second);
        side->folds[prefix ? i + 1 : at] = Snapshot(acc);
      }
      side->keys.reserve(n);
      for (auto& e : entries) side->keys.push_back(std::move(e.first));
      entries.clear();
    }
  }
  if (stats != nullptr) {
    stats->build_rows += read;
    stats->groups += summary;
    stats->mem_bytes += *charged - charged0;
  }
}

// The HashNest drain, shared by the serial iterator and parallel mode B's
// workers so grouping cannot drift between them: folds every row `child`
// yields into *pg, grouping by the nest's keys in first-encounter order.
// With `sized`, group keys (and heads, for collection monoids) are charged
// to the HashNest class and added up in pg->charged, which the caller owns
// once the drain returns; on an unwind the drain returns them itself, since
// *pg dies with the unwind. Returns the rows drained.
uint64_t DrainNest(const SlotOp& nest, FrameIter* child, FrameEvaluator* fev,
                   Frame& frame, bool sized, PartialGroups* pg) {
  uint64_t rows = 0;
  Value scratch;
  child->Open();
  try {
    while (child->Next()) {
      PollCancel(fev->cancel());
      ++rows;
      Elems key;
      key.reserve(nest.group_slots.size());
      for (const auto& [slot, expr] : nest.group_slots) {
        key.push_back(fev->Eval(*expr, frame));
      }
      auto [it, inserted] =
          pg->index.emplace(Value::List(key), pg->groups.size());
      if (inserted) {
        pg->groups.push_back(
            NestGroup{std::move(key), Accumulator(nest.monoid)});
        if (sized) {
          ChargeBytes(fev, PhysKind::kHashNest, EstimateValueBytes(it->first),
                      &pg->charged);
        }
      }
      if (NullPadded(nest, frame) || !fev->EvalPred(*nest.pred, frame)) {
        continue;
      }
      const Value* hv = fev->EvalPtr(*nest.head, frame, &scratch);
      if (sized && IsCollectionMonoid(nest.monoid)) {
        ChargeBytes(fev, PhysKind::kHashNest, EstimateValueBytes(*hv),
                    &pg->charged);
      }
      pg->groups[it->second].acc.Add(*hv);
    }
  } catch (...) {
    fev->mem().Release(static_cast<int>(PhysKind::kHashNest), pg->charged);
    pg->charged = 0;
    fev->mem().FlushNoThrow();
    throw;
  }
  child->Close();
  return rows;
}

// A buffering operator's built side (an NL join's buffer, a hash join's
// table, a GroupJoin's right side): shared read-only from the parallel
// prebuild, which owns its charge, or built from `input` by `build` on each
// Open, its charge released on Close and on destruction, an unwind included.
template <typename Side>
class BuiltSide {
 public:
  using Build = void (*)(const SlotOp&, FrameIter*, FrameEvaluator*, Frame&,
                         OperatorStats*, size_t*, Side*);

  BuiltSide(Build build, const SlotOp& op, std::unique_ptr<FrameIter> input,
            const Side* shared, FrameEvaluator* fev, Frame* frame,
            OperatorStats* stats)
      : build_(build), op_(op), input_(std::move(input)), shared_(shared),
        fev_(fev), frame_(frame), stats_(stats) {}
  BuiltSide(const BuiltSide&) = delete;
  BuiltSide& operator=(const BuiltSide&) = delete;
  ~BuiltSide() { Release(); }

  const Side& Open() {
    Release();
    if (shared_ != nullptr) return *shared_;
    own_ = Side{};
    build_(op_, input_.get(), fev_, *frame_, stats_, &charged_, &own_);
    return own_;
  }
  void Close() {
    own_ = Side{};
    Release();
  }

 private:
  void Release() {
    fev_->mem().Release(static_cast<int>(op_.kind), charged_);
    charged_ = 0;
  }

  Build build_;
  const SlotOp& op_;
  std::unique_ptr<FrameIter> input_;  // null when shared
  const Side* shared_;
  FrameEvaluator* fev_;
  Frame* frame_;
  OperatorStats* stats_;
  Side own_;
  size_t charged_ = 0;
};

// Streams the left child against the right side's buffered span copies.
class FNLJoinIter : public FrameIter {
 public:
  FNLJoinIter(const SlotOp& op, std::unique_ptr<FrameIter> left,
              std::unique_ptr<FrameIter> right,
              const std::vector<BufRow>* shared, FrameEvaluator* fev,
              Frame* frame, OperatorStats* stats)
      : op_(op), outer_(op.kind == PhysKind::kNLOuterJoin),
        left_(std::move(left)),
        built_(BuildBuffer, op, std::move(right), shared, fev, frame, stats),
        fev_(fev), frame_(frame) {}

  void Open() override {
    buffer_ = &built_.Open();
    left_->Open();
    have_row_ = false;
  }

  bool Next() override {
    while (true) {
      if (!have_row_) {
        if (!left_->Next()) return false;
        pos_ = 0;
        matched_ = false;
        have_row_ = true;
      }
      while (pos_ < buffer_->size()) {
        LoadSpan(*frame_, op_.right->out_lo, (*buffer_)[pos_++]);
        if (fev_->EvalPred(*op_.pred, *frame_)) {
          matched_ = true;
          return true;
        }
      }
      have_row_ = false;
      if (outer_ && !matched_) {
        FillNullSpan(*frame_, op_.right->out_lo, op_.right->out_hi);
        return true;
      }
    }
  }
  void Close() override {
    left_->Close();
    built_.Close();
  }

 private:
  const SlotOp& op_;
  bool outer_;
  std::unique_ptr<FrameIter> left_;
  BuiltSide<std::vector<BufRow>> built_;
  FrameEvaluator* fev_;
  Frame* frame_;
  const std::vector<BufRow>* buffer_ = nullptr;
  size_t pos_ = 0;
  bool have_row_ = false;
  bool matched_ = false;
};

class FHashJoinIter : public FrameIter {
 public:
  FHashJoinIter(const SlotOp& op, std::unique_ptr<FrameIter> probe,
                std::unique_ptr<FrameIter> build, const JoinTable* shared,
                FrameEvaluator* fev, Frame* frame, OperatorStats* stats)
      : op_(op), outer_(op.kind == PhysKind::kHashOuterJoin),
        build_op_(*BuildInput(op)), probe_(std::move(probe)),
        built_(BuildJoinTable, op, std::move(build), shared, fev, frame,
               stats),
        fev_(fev), frame_(frame) {}

  void Open() override {
    table_ = &built_.Open();
    probe_->Open();
    have_row_ = false;
  }

  bool Next() override {
    while (true) {
      if (!have_row_) {
        if (!probe_->Next()) return false;
        Value key_scratch;
        const Value* key = EvalKeyPtr(fev_, *frame_, op_.probe_keys,
                                      &key_scratch);
        bucket_ = nullptr;
        if (!key->is_null()) {
          auto it = table_->find(*key);
          if (it != table_->end()) bucket_ = &it->second;
        }
        pos_ = 0;
        matched_ = false;
        have_row_ = true;
      }
      if (bucket_ != nullptr) {
        while (pos_ < bucket_->size()) {
          LoadSpan(*frame_, build_op_.out_lo, (*bucket_)[pos_++]);
          if (fev_->EvalPred(*op_.pred, *frame_)) {
            matched_ = true;
            return true;
          }
        }
      }
      have_row_ = false;
      if (outer_ && !matched_) {
        // Outer joins always probe left, so the padded side is the right.
        FillNullSpan(*frame_, op_.right->out_lo, op_.right->out_hi);
        return true;
      }
    }
  }
  void Close() override {
    probe_->Close();
    built_.Close();
  }

 private:
  const SlotOp& op_;
  bool outer_;
  const SlotOp& build_op_;
  std::unique_ptr<FrameIter> probe_;
  BuiltSide<JoinTable> built_;
  FrameEvaluator* fev_;
  Frame* frame_;
  const JoinTable* table_ = nullptr;
  const std::vector<BufRow>* bucket_ = nullptr;
  size_t pos_ = 0;
  bool have_row_ = false;
  bool matched_ = false;
};

// Blocking grouping: drains its child on Open, or replays the groups
// parallel mode B's workers merged (`prebuilt`; then there is no child).
class FHashNestIter : public FrameIter {
 public:
  FHashNestIter(const SlotOp& op, std::unique_ptr<FrameIter> child,
                PrebuiltNest* prebuilt, FrameEvaluator* fev, Frame* frame,
                OperatorStats* stats)
      : op_(op), child_(std::move(child)), prebuilt_(prebuilt), fev_(fev),
        frame_(frame), stats_(stats) {}

  ~FHashNestIter() override { ReleaseCharge(); }

  void Open() override {
    ReleaseCharge();
    size_t bytes;
    if (prebuilt_ != nullptr) {
      groups_ = std::move(prebuilt_->groups);
      bytes = prebuilt_->bytes;  // the parallel executor releases these
    } else {
      PartialGroups pg;
      DrainNest(op_, child_.get(), fev_, *frame_,
                fev_->mem().armed() || stats_ != nullptr, &pg);
      groups_ = std::move(pg.groups);
      bytes = charged_ = pg.charged;
    }
    // Scalar aggregation (no keys) always yields one row (see eval_algebra).
    if (op_.group_slots.empty() && groups_.empty()) {
      groups_.push_back(NestGroup{{}, Accumulator(op_.monoid)});
    }
    if (stats_ != nullptr) {
      stats_->groups += groups_.size();
      stats_->mem_bytes += bytes;
    }
    pos_ = 0;
  }

  bool Next() override {
    if (pos_ >= groups_.size()) return false;
    NestGroup& g = groups_[pos_++];
    for (size_t i = 0; i < op_.group_slots.size(); ++i) {
      (*frame_)[op_.group_slots[i].first] = g.key[i];
    }
    (*frame_)[op_.var_slot] = g.acc.Finish();
    return true;
  }
  void Close() override {
    groups_.clear();
    ReleaseCharge();
  }

 private:
  void ReleaseCharge() {
    fev_->mem().Release(static_cast<int>(PhysKind::kHashNest), charged_);
    charged_ = 0;
  }

  const SlotOp& op_;
  std::unique_ptr<FrameIter> child_;
  PrebuiltNest* prebuilt_;
  FrameEvaluator* fev_;
  Frame* frame_;
  OperatorStats* stats_;
  size_t charged_ = 0;
  std::vector<NestGroup> groups_;
  size_t pos_ = 0;
};

// Adds one match to a left row's fold; true when the fold saturated
// (some/all), which ends it and counts as a short circuit.
bool AddMatch(Accumulator* acc, const Value& v, OperatorStats* stats) {
  acc->Add(v);
  if (!acc->Saturated()) return false;
  if (stats) ++stats->short_circuits;
  return true;
}

Value FoldGroupJoinRow(const SlotOp& op, const GroupJoinSide& side,
                       FrameEvaluator* fev, Frame& frame,
                       OperatorStats* stats) {
  Value scratch;
  switch (op.strategy) {
    case GroupJoinStrategy::kAggregate: {
      auto it = side.folds_by_key.begin();  // no keys: the one total, if any
      if (!op.probe_keys.empty()) {
        const Value* key = EvalKeyPtr(fev, frame, op.probe_keys, &scratch);
        if (key->is_null()) return side.zero;
        it = side.folds_by_key.find(*key);
      }
      if (it == side.folds_by_key.end() || !fev->EvalPred(*op.guard, frame)) {
        return side.zero;
      }
      return it->second.Get();
    }
    case GroupJoinStrategy::kSorted: {
      const Value* a = fev->EvalPtr(*op.probe_keys[0], frame, &scratch);
      if (a->is_null() || !fev->EvalPred(*op.guard, frame)) return side.zero;
      if (side.ordered) {
        // Keys below a (k < a), or at most a (k <= a): b < a is a prefix of
        // the sorted keys for >, b <= a for >=; the suffix past them holds
        // b >= a for <=, b > a for <.
        const bool inclusive = op.sort_op == BinOpKind::kGe ||
                               op.sort_op == BinOpKind::kLt;
        auto end = std::partition_point(
            side.keys.begin(), side.keys.end(), [&](const Value& k) {
              const int c = Value::Compare(k, *a);
              return inclusive ? c <= 0 : c < 0;
            });
        return side.folds[static_cast<size_t>(end - side.keys.begin())].Get();
      }
      Accumulator acc(op.monoid);
      for (const auto& [b, h] : side.entries) {
        if (ApplyCompareOp(op.sort_op, *a, b).AsBool() &&
            AddMatch(&acc, h, stats)) {
          break;
        }
      }
      return acc.Finish();
    }
    case GroupJoinStrategy::kLoop: {
      auto it = side.table.begin();  // no keys: the one buffer, if any
      if (!op.probe_keys.empty()) {
        const Value* key = EvalKeyPtr(fev, frame, op.probe_keys, &scratch);
        if (key->is_null()) return side.zero;
        it = side.table.find(*key);
      }
      if (it == side.table.end() || !fev->EvalPred(*op.guard, frame)) {
        return side.zero;
      }
      Accumulator acc(op.monoid);
      Value head_scratch;
      for (const BufRow& row : it->second) {
        LoadSpan(frame, op.right->out_lo, row);
        if (!fev->EvalPred(*op.pred, frame) || NullPadded(op, frame)) continue;
        if (AddMatch(&acc, *fev->EvalPtr(*op.head, frame, &head_scratch),
                     stats)) {
          break;
        }
      }
      return acc.Finish();
    }
  }
  throw InternalError("unhandled group-join strategy");
}

// Nest(OuterJoin(L, R)) in one pass over L: each left row leaves with its
// group slots copied from the row (HashNest's output convention) and the
// aggregate of its matches against the built right side.
class FGroupJoinIter : public FrameIter {
 public:
  FGroupJoinIter(const SlotOp& op, std::unique_ptr<FrameIter> left,
                 std::unique_ptr<FrameIter> right, const GroupJoinSide* shared,
                 FrameEvaluator* fev, Frame* frame, OperatorStats* stats)
      : op_(op), left_(std::move(left)),
        built_(BuildGroupJoinSide, op, std::move(right), shared, fev, frame,
               stats),
        fev_(fev), frame_(frame), stats_(stats) {}

  void Open() override {
    side_ = &built_.Open();
    left_->Open();
    emitted_ = false;
    done_ = false;
  }

  bool Next() override {
    if (done_) return false;
    if (!left_->Next()) {
      done_ = true;
      // Like HashNest, a nest without group keys yields one row even over
      // an empty input.
      if (!op_.group_slots.empty() || emitted_) return false;
      (*frame_)[op_.var_slot] = side_->zero;
      return true;
    }
    emitted_ = true;
    PollCancel(fev_->cancel());
    Value agg = FoldGroupJoinRow(op_, *side_, fev_, *frame_, stats_);
    for (const auto& [slot, key] : op_.group_slots) {
      (*frame_)[slot] = fev_->Eval(*key, *frame_);
    }
    (*frame_)[op_.var_slot] = std::move(agg);
    return true;
  }

  void Close() override {
    left_->Close();
    built_.Close();
  }

 private:
  const SlotOp& op_;
  std::unique_ptr<FrameIter> left_;
  BuiltSide<GroupJoinSide> built_;
  FrameEvaluator* fev_;
  Frame* frame_;
  OperatorStats* stats_;
  const GroupJoinSide* side_ = nullptr;
  bool emitted_ = false;
  bool done_ = false;
};

// Construction context: the thread's frame and evaluator, plus the parallel
// executor's injections (shared build tables, the morsel-ranged driver scan,
// a spine HashNest's merged groups for mode B's serial tail).
struct FrameExecCtx {
  FrameExecCtx(ThreadFrame& t, QueryProfiler* prof)
      : fev(&t.fev), frame(&t.frame), profiler(prof) {}

  FrameEvaluator* fev;
  Frame* frame;
  QueryProfiler* profiler;  // null = build the uninstrumented tree
  const SharedTables* shared = nullptr;
  int driver_id = -1;
  FTableScanIter* driver = nullptr;  // out: the driver scan, if driver_id hit
  PrebuiltNest* nest = nullptr;
};

// The side the parallel prebuild made for operator `id`, if any.
template <typename Side>
const Side* SharedSide(const std::unordered_map<int, Side>& sides, int id) {
  auto it = sides.find(id);
  return it == sides.end() ? nullptr : &it->second;
}

std::unique_ptr<FrameIter> MakeFrameIterator(const SlotOpPtr& op,
                                             FrameExecCtx& ctx) {
  LDB_INTERNAL_CHECK(op != nullptr, "null slot operator");
  OperatorStats* stats = StatsFor(ctx.profiler, *op);
  const SharedTables* shared = ctx.shared;
  std::unique_ptr<FrameIter> out;
  // A side that is shared never instantiates the subtree it was built from.
  switch (op->kind) {
    case PhysKind::kUnitRow:
      out = std::make_unique<FUnitRowIter>();
      break;
    case PhysKind::kTableScan: {
      auto it = std::make_unique<FTableScanIter>(*op, ctx.fev, ctx.frame);
      if (op->id == ctx.driver_id) ctx.driver = it.get();
      out = std::move(it);
      break;
    }
    case PhysKind::kIndexScan:
      out = std::make_unique<FIndexScanIter>(*op, ctx.fev, ctx.frame);
      break;
    case PhysKind::kFilter:
      out = std::make_unique<FFilterIter>(
          *op, MakeFrameIterator(op->left, ctx), ctx.fev, ctx.frame);
      break;
    case PhysKind::kUnnest:
    case PhysKind::kOuterUnnest:
      out = std::make_unique<FUnnestIter>(
          *op, MakeFrameIterator(op->left, ctx), ctx.fev, ctx.frame);
      break;
    case PhysKind::kNLJoin:
    case PhysKind::kNLOuterJoin: {
      auto* buffer = shared ? SharedSide(shared->buffers, op->id) : nullptr;
      out = std::make_unique<FNLJoinIter>(
          *op, MakeFrameIterator(op->left, ctx),
          buffer ? nullptr : MakeFrameIterator(op->right, ctx), buffer,
          ctx.fev, ctx.frame, stats);
      break;
    }
    case PhysKind::kHashJoin:
    case PhysKind::kHashOuterJoin: {
      auto* table = shared ? SharedSide(shared->join_tables, op->id) : nullptr;
      out = std::make_unique<FHashJoinIter>(
          *op, MakeFrameIterator(StreamedInput(*op), ctx),
          table ? nullptr : MakeFrameIterator(BuildInput(*op), ctx), table,
          ctx.fev, ctx.frame, stats);
      break;
    }
    case PhysKind::kHashNest: {
      PrebuiltNest* nest =
          ctx.nest != nullptr && ctx.nest->id == op->id ? ctx.nest : nullptr;
      out = std::make_unique<FHashNestIter>(
          *op, nest ? nullptr : MakeFrameIterator(op->left, ctx), nest,
          ctx.fev, ctx.frame, stats);
      break;
    }
    case PhysKind::kGroupJoin: {
      auto* side = shared ? SharedSide(shared->group_joins, op->id) : nullptr;
      out = std::make_unique<FGroupJoinIter>(
          *op, MakeFrameIterator(op->left, ctx),
          side ? nullptr : MakeFrameIterator(op->right, ctx), side, ctx.fev,
          ctx.frame, stats);
      break;
    }
    case PhysKind::kReduce:
      throw InternalError("reduce is driven by ExecuteSlotPlan, not pulled");
  }
  if (stats != nullptr) {
    return std::make_unique<FProfiledIter>(std::move(out), stats);
  }
  return out;
}

// The root fold: the one loop where a pipeline's rows reach the Reduce, run
// by the serial driver and by every morsel of parallel mode A. It opens
// `input` and folds the head of each row that passes the Reduce's predicate
// into *acc, until the input ends or *acc saturates (a saturated quantifier
// stops the pull). Per row it polls cancellation and, when the tracker is
// armed, charges a collection head to the Reduce class (*charged, see
// ChargeBytes). Its counters stay in locals and land once, on the way out,
// an unwind included: the folded rows in *rows (when given) and in `rc`'s
// live rows-so-far, in batches of 1024 (docs/OBSERVABILITY.md), and the
// Reduce's counters and time in *stats when profiled.
void FoldRoot(const SlotOp& root, FrameIter* input, FrameEvaluator* fev,
              Frame& frame, obs::QueryResourceContext* rc,
              OperatorStats* stats, Accumulator* acc, size_t* charged,
              uint64_t* rows) {
  const bool sized = fev->mem().armed() && IsCollectionMonoid(root.monoid);
  const size_t charged0 = *charged;
  uint64_t pulled = 0, folded = 0;
  input->Open();
  const ProfClock::time_point t0 =
      stats != nullptr ? ProfClock::now() : ProfClock::time_point();
  auto land = [&] {
    if (rc != nullptr) rc->AddRows(folded & 1023u);
    if (rows != nullptr) *rows += folded;
    if (stats == nullptr) return;
    ++stats->opens;
    stats->next_calls += pulled;
    stats->rows_out += folded;
    if (acc->Saturated()) ++stats->short_circuits;
    stats->mem_bytes += *charged - charged0;
    stats->next_ns += NsSince(t0);
  };
  Value scratch;
  try {
    while (input->Next()) {
      PollCancel(fev->cancel());
      ++pulled;
      if (!fev->EvalPred(*root.pred, frame)) continue;
      const Value* hv = fev->EvalPtr(*root.head, frame, &scratch);
      if (sized) {
        ChargeBytes(fev, PhysKind::kReduce, EstimateValueBytes(*hv), charged);
      }
      acc->Add(*hv);
      if ((++folded & 1023u) == 0 && rc != nullptr) rc->AddRows(1024);
      if (acc->Saturated()) break;
    }
  } catch (...) {
    land();
    throw;
  }
  land();
  input->Close();
}

// The one serial driver: the serial execution, and parallel mode B's tail
// above the spine HashNest whose merged groups `nest` hands in (else null).
// It builds the iterator tree on this thread and runs the root fold over
// it, accumulating straight into the caller's profiler and run record
// (ExecuteSlotPlan always sets opt.totals).
Value RunSerial(const SlotPlan& sp, const Database& db, const ExecOptions& opt,
                PrebuiltNest* nest) {
  ThreadFrame t(sp, db, opt);
  FrameExecCtx ctx(t, opt.profiler);
  ctx.nest = nest;
  std::unique_ptr<FrameIter> input = MakeFrameIterator(sp.root->left, ctx);
  Accumulator acc(sp.root->monoid);
  size_t charged = 0;
  FoldChargeGuard fold_guard{&t.fev.mem(), &charged};
  FoldRoot(*sp.root, input.get(), &t.fev, t.frame, opt.resource,
           StatsFor(opt.profiler, *sp.root), &acc, &charged,
           &opt.totals->root_rows);
  return acc.Finish();
}

// ===========================================================================
// Morsel-driven parallel execution.
// ===========================================================================

// The streaming spine: the chain of operators a driver-scan row flows
// through without being buffered, following StreamedInput. HashNest is a
// barrier but is still spine (mode B parallelizes below the lowest one).
struct SpineInfo {
  SlotOpPtr driver;       // the driving kTableScan (null = not parallelizable)
  SlotOpPtr lowest_nest;  // deepest kHashNest on the spine, if any
};

SpineInfo AnalyzeSpine(const SlotOpPtr& root) {
  SpineInfo info;
  for (SlotOpPtr cur = root->left; cur; cur = StreamedInput(*cur)) {
    switch (cur->kind) {
      case PhysKind::kHashNest:
        info.lowest_nest = cur;
        break;
      case PhysKind::kTableScan:
        info.driver = cur;
        return info;
      case PhysKind::kUnitRow:  // kUnitRow / kIndexScan drivers: stay serial
      case PhysKind::kIndexScan:
        return SpineInfo{};
      default:
        break;
    }
  }
  return SpineInfo{};
}

// Bytes charged for state that outlives the tracker that charged it — the
// prebuilt tables, mode A's partial folds, mode B's partial group tables —
// as (op class, bytes). Every applied byte is recorded before anything can
// throw past it (a worker writes only its own morsel's entry), and all of it
// is released when the parallel run's scope ends, an unwind included. The
// release goes through a tracker armed like the ones that charged, so a run
// that charged nothing (no context, or -DLDB_METRICS=OFF) releases nothing.
struct HeldCharges {
  explicit HeldCharges(obs::QueryResourceContext* context) : rc(context) {}
  HeldCharges(const HeldCharges&) = delete;
  HeldCharges& operator=(const HeldCharges&) = delete;
  ~HeldCharges() {
    obs::MemoryTracker mem;
    mem.Arm(rc);
    for (const auto& [cls, bytes] : charges) mem.Release(cls, bytes);
  }

  obs::QueryResourceContext* rc;
  std::vector<std::pair<int, size_t>> charges;
};

// Builds every spine join's build side or buffer, and every spine
// GroupJoin's right side, once, serially, so workers share them read-only.
// With a profiler, the build subtrees' counters and the builds' stats land
// in the caller's profiler once, matching the serial run, while the workers
// (who only read the shared tables) record nothing for them. Each build's
// time goes to its operator's open_ns, where the serial Open() puts it.
void PrebuildSpineTables(const SlotOpPtr& sub_root, const SlotPlan& sp,
                         const Database& db, const ExecOptions& opt,
                         SharedTables* shared, HeldCharges* held) {
  ThreadFrame t(sp, db, opt);
  FrameExecCtx ctx(t, opt.profiler);
  auto prebuild = [&](const SlotOp& op, const SlotOpPtr& input, auto build,
                      auto& sides) {
    std::unique_ptr<FrameIter> it = MakeFrameIterator(input, ctx);
    held->charges.emplace_back(static_cast<int>(op.kind), 0);
    OperatorStats* stats = StatsFor(opt.profiler, op);
    const ProfClock::time_point t0 = ProfClock::now();
    build(op, it.get(), &t.fev, t.frame, stats, &held->charges.back().second,
          &sides[op.id]);
    if (stats != nullptr) stats->open_ns += NsSince(t0);
  };
  for (const SlotOp* op = sub_root.get(); op != nullptr;
       op = StreamedInput(*op).get()) {
    switch (op->kind) {
      case PhysKind::kNLJoin:
      case PhysKind::kNLOuterJoin:
        prebuild(*op, op->right, BuildBuffer, shared->buffers);
        break;
      case PhysKind::kHashJoin:
      case PhysKind::kHashOuterJoin:
        prebuild(*op, BuildInput(*op), BuildJoinTable, shared->join_tables);
        break;
      case PhysKind::kGroupJoin:
        prebuild(*op, op->right, BuildGroupJoinSide, shared->group_joins);
        break;
      default:  // streams, or the driver scan
        break;
    }
  }
}

// Hands out extent ranges [i*morsel, (i+1)*morsel) by atomic counter.
struct MorselQueue {
  size_t total;
  size_t morsel;
  std::atomic<size_t> next{0};

  size_t count() const { return (total + morsel - 1) / morsel; }
  bool Grab(size_t* idx, size_t* lo, size_t* hi) {
    size_t i = next.fetch_add(1, std::memory_order_relaxed);
    size_t l = i * morsel;
    if (l >= total) return false;
    *idx = i;
    *lo = l;
    *hi = std::min(total, l + morsel);
    return true;
  }
};

// First-writer-wins exception slot shared by the morsel workers. The
// annotated struct (rather than a local mutex + local exception_ptr, which
// the thread-safety analysis cannot guard) makes the scheduler's merge
// state checkable: Record is the only concurrent entry point.
struct GuardedFirstError {
  Mutex mu;
  std::exception_ptr error LDB_GUARDED_BY(mu);

  void Record(std::exception_ptr e) LDB_EXCLUDES(mu) {
    MutexLock lock(&mu);
    if (!error) error = std::move(e);
  }
  /// Safe unguarded: called only after every writer thread has joined.
  std::exception_ptr TakeAfterJoin() LDB_NO_THREAD_SAFETY_ANALYSIS {
    return error;
  }
};

// Runs `body(idx, lo, hi, worker_state)` over all morsels on `n_workers`
// threads; per-morsel exceptions are captured and the lowest-indexed one
// recorded rethrown (the closest parallel analogue of where the serial
// execution would have failed first).
template <typename MakeState, typename Body>
void RunMorsels(MorselQueue& mq, int n_workers, std::atomic<bool>& stop,
                MakeState make_state, Body body) {
  std::vector<std::exception_ptr> errors(mq.count());
  GuardedFirstError setup_error;
  auto work = [&]() {
    // The state is heap-allocated: iterators keep pointers into it, so its
    // address must be stable.
    auto state = make_state();
    size_t idx, lo, hi;
    while (!stop.load(std::memory_order_relaxed) && mq.Grab(&idx, &lo, &hi)) {
      try {
        body(idx, lo, hi, *state);
      } catch (...) {
        errors[idx] = std::current_exception();
        stop.store(true, std::memory_order_relaxed);
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(n_workers));
  for (int t = 0; t < n_workers; ++t) {
    threads.emplace_back([&]() {
      try {
        work();
      } catch (...) {
        // Worker setup failures surface after join.
        setup_error.Record(std::current_exception());
        stop.store(true, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (std::exception_ptr e = setup_error.TakeAfterJoin()) {
    std::rethrow_exception(e);
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

// Per-worker pipeline over the parallel sub-spine, with its utilization
// totals. Under profiling each worker also owns a private QueryProfiler
// (its iterators are wrapped against it — no shared counters, no atomics);
// TryExecuteParallel merges them into the caller's profiler after join.
struct WorkerPipeline : ThreadFrame {
  std::unique_ptr<FrameIter> pipe;
  FTableScanIter* driver = nullptr;
  QueryProfiler prof;   // used only when `profiled`
  WorkerStats wstats;
  bool profiled = false;

  WorkerPipeline(const Database& db, const SlotPlan& sp,
                 const ExecOptions& opt, const SlotOpPtr& sub_root,
                 const SharedTables& shared, int driver_id, int worker_id,
                 bool with_profiling)
      : ThreadFrame(sp, db, opt), profiled(with_profiling) {
    wstats.worker = worker_id;
    FrameExecCtx ctx(*this, profiler());
    ctx.shared = &shared;
    ctx.driver_id = driver_id;
    pipe = MakeFrameIterator(sub_root, ctx);
    driver = ctx.driver;
    LDB_INTERNAL_CHECK(driver != nullptr, "parallel driver scan not found");
  }

  QueryProfiler* profiler() { return profiled ? &prof : nullptr; }
};

// Collects the per-worker pipeline states created during a parallel run so
// their utilization counters and private profilers survive the join and can
// be merged. Add races between workers (hence the annotated mutex); the
// merge side only runs once every worker thread has joined.
struct WorkerStateRegistry {
  Mutex mu;
  std::vector<std::shared_ptr<WorkerPipeline>> states LDB_GUARDED_BY(mu);

  void Add(std::shared_ptr<WorkerPipeline> state) LDB_EXCLUDES(mu) {
    MutexLock lock(&mu);
    states.push_back(std::move(state));
  }
  /// Safe unguarded: called only after every writer thread has joined.
  std::vector<std::shared_ptr<WorkerPipeline>>& AfterJoin()
      LDB_NO_THREAD_SAFETY_ANALYSIS {
    return states;
  }
};

// True if a parallel run of this plan is guaranteed bit-identical to the
// serial run when per-morsel partials merge in morsel order. The only
// exclusion is a floating-point product at the root: Accumulator folds
// kProd pairwise in arrival order and FP multiplication is not associative.
// (kSum/kAvg are exact via ExactSum; max/min/some/all are order-independent;
// first keeps the earliest morsel's value; collections either canonicalize
// (set/bag) or concatenate in morsel order (list); a spine HashNest merges
// whole groups in morsel order, which restores the serial stream order
// within every group.)
bool ParallelRootEligible(MonoidKind root_monoid) {
  return root_monoid != MonoidKind::kProd;
}

// Runs the plan morsel-parallel when its spine allows, filling the run
// record *opt.totals; morsel offsets count from `start`, the execution's
// start. Returns false, having done nothing, when the run must be serial.
bool TryExecuteParallel(const SlotPlan& sp, const Database& db,
                        const ExecOptions& opt, ProfClock::time_point start,
                        Value* out) {
  const SlotOpPtr& root = sp.root;
  SpineInfo spine = AnalyzeSpine(root);
  if (!spine.driver) return false;
  if (!spine.lowest_nest && !ParallelRootEligible(root->monoid)) return false;
  const std::vector<Value>& extent = db.Extent(spine.driver->extent);
  const size_t morsel = std::max<size_t>(1, opt.morsel_size);
  if (extent.size() <= morsel) return false;  // one morsel: serial is exact

  ExecTotals& run = *opt.totals;
  QueryProfiler* uprof = opt.profiler;
  const bool profiling = uprof != nullptr;

  const SlotOpPtr sub_root = spine.lowest_nest ? spine.lowest_nest->left
                                               : root->left;
  HeldCharges held(opt.resource);
  SharedTables shared;
  const ProfClock::time_point prebuild_start = ProfClock::now();
  PrebuildSpineTables(sub_root, sp, db, opt, &shared, &held);
  run.prebuild_ns = NsSince(prebuild_start);

  MorselQueue mq{extent.size(), morsel};
  const size_t n_morsels = mq.count();
  const int n_workers = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(opt.n_threads), n_morsels));
  std::atomic<bool> stop{false};
  // One held entry per morsel for its partial state: mode A's fold, mode B's
  // group table. The entries exist before any worker starts.
  const size_t first_part = held.charges.size();
  held.charges.resize(
      first_part + n_morsels,
      {static_cast<int>(spine.lowest_nest ? PhysKind::kHashNest
                                          : PhysKind::kReduce),
       0});

  // Worker states are kept alive past RunMorsels (which drops its own
  // reference at thread exit) so their counters can be harvested.
  std::atomic<int> worker_seq{0};
  WorkerStateRegistry registry;
  std::vector<MorselStats> morsel_stats(n_morsels);

  auto make_state = [&]() {
    auto state = std::make_shared<WorkerPipeline>(
        db, sp, opt, sub_root, shared, spine.driver->id,
        worker_seq.fetch_add(1, std::memory_order_relaxed), profiling);
    registry.Add(state);
    return state;
  };

  // Ends a morsel: flushes the worker's pending tracker deltas to the
  // context now (HeldCharges releases against the context, so nothing may
  // stay batched past the join; this is also where a morsel's charges meet
  // the budget), then records the morsel into the worker's totals and the
  // per-morsel table (only ever this worker's slot: each index is grabbed
  // exactly once).
  auto finish_morsel = [&](WorkerPipeline& w, size_t idx, size_t lo,
                           size_t hi, uint64_t rows, ProfClock::time_point t0) {
    w.fev.mem().Flush();
    double dur = NsSince(t0);
    w.wstats.morsels += 1;
    w.wstats.rows += rows;
    w.wstats.busy_ns += dur;
    double offset =
        std::chrono::duration<double, std::nano>(t0 - start).count();
    morsel_stats[idx] =
        MorselStats{idx, lo, hi, rows, w.wstats.worker, offset, dur};
  };

  // Fills the run record from the workers and merges their profilers into
  // *uprof. Runs exactly once — on the success path or on a
  // QueryCancelled/error unwind, never both. The exactly-once flag matters
  // beyond idempotence: mode B's serial tail executes *after* this and
  // accumulates straight into *uprof and the record, so a second merge
  // (e.g. from a catch-all around the tail) would double-count every
  // sub-spine operator.
  bool finished = false;
  auto finish = [&](const char* mode, bool rows_are_root) {
    if (finished) return;
    finished = true;
    // Workers are joined on every path that reaches here; AfterJoin is the
    // registry's single-threaded view.
    std::vector<std::shared_ptr<WorkerPipeline>>& states = registry.AfterJoin();
    std::sort(states.begin(), states.end(),
              [](const auto& a, const auto& b) {
                return a->wstats.worker < b->wstats.worker;
              });
    run.mode = mode;
    run.threads = n_workers;
    run.morsel_size = morsel;
    for (const auto& s : states) {
      run.workers.push_back(s->wstats);
      if (rows_are_root) run.root_rows += s->wstats.rows;
      if (profiling) uprof->MergeFrom(s->prof);
    }
    for (const MorselStats& m : morsel_stats) {
      if (m.hi > m.lo) run.morsels.push_back(m);  // hi == 0: never grabbed
    }
  };

  if (!spine.lowest_nest) {
    // Mode A: workers run the whole spine including the root fold; one
    // partial accumulator per morsel, merged in morsel order.
    std::vector<std::optional<Accumulator>> parts(n_morsels);
    try {
      RunMorsels(mq, n_workers, stop, make_state,
                 [&](size_t idx, size_t lo, size_t hi, WorkerPipeline& w) {
                   auto t0 = ProfClock::now();
                   w.driver->SetRange(lo, hi);
                   Accumulator acc(root->monoid);
                   uint64_t rows = 0;
                   FoldRoot(*root, w.pipe.get(), &w.fev, w.frame, opt.resource,
                            StatsFor(w.profiler(), *root), &acc,
                            &held.charges[first_part + idx].second, &rows);
                   // The saturated value is the final result whichever
                   // morsel produces it first; stop dispatching.
                   if (acc.Saturated()) {
                     stop.store(true, std::memory_order_relaxed);
                   }
                   finish_morsel(w, idx, lo, hi, rows, t0);
                   parts[idx].emplace(std::move(acc));
                 });
    } catch (...) {
      // Cancellation (or any per-morsel error) still merges the worker
      // profilers into *uprof — exactly once — before the unwind continues.
      finish("spine-reduce", /*rows_are_root=*/true);
      throw;
    }
    Accumulator final_acc(root->monoid);
    for (std::optional<Accumulator>& p : parts) {
      if (p) final_acc.Absorb(*p);
    }
    finish("spine-reduce", /*rows_are_root=*/true);
    *out = final_acc.Finish();
    return true;
  }

  // Mode B: workers drain the sub-spine below the lowest HashNest into
  // per-morsel group tables; groups merge in morsel order (first-encounter
  // group order and within-group stream order both match the serial run),
  // then the serial driver runs the plan above the nest over the merged
  // groups. Workers size their groups when profiled too, so the nest's
  // mem_bytes matches the serial run's.
  const SlotOp& nest = *spine.lowest_nest;
  std::vector<std::optional<PartialGroups>> parts(n_morsels);
  try {
    RunMorsels(mq, n_workers, stop, make_state,
               [&](size_t idx, size_t lo, size_t hi, WorkerPipeline& w) {
                 auto t0 = ProfClock::now();
                 w.driver->SetRange(lo, hi);
                 PartialGroups pg;
                 const uint64_t rows =
                     DrainNest(nest, w.pipe.get(), &w.fev, w.frame,
                               w.fev.mem().armed() || w.profiled, &pg);
                 held.charges[first_part + idx].second = pg.charged;
                 finish_morsel(w, idx, lo, hi, rows, t0);
                 parts[idx].emplace(std::move(pg));
               });
  } catch (...) {
    finish("spine-nest", /*rows_are_root=*/false);
    throw;
  }

  PrebuiltNest merged{nest.id, {}, 0};
  std::unordered_map<Value, size_t, ValueHash> index;
  for (std::optional<PartialGroups>& p : parts) {
    if (!p) continue;
    merged.bytes += p->charged;
    for (NestGroup& g : p->groups) {
      auto [it, inserted] =
          index.emplace(Value::List(g.key), merged.groups.size());
      if (inserted) {
        merged.groups.push_back(
            NestGroup{std::move(g.key), Accumulator(nest.monoid)});
      }
      merged.groups[it->second].acc.Absorb(g.acc);
    }
  }
  // `finish` runs before the tail, so a tail unwind cannot re-merge the
  // worker profilers; the tail adds its root rows to the record itself.
  finish("spine-nest", /*rows_are_root=*/false);
  *out = RunSerial(sp, db, opt, &merged);
  return true;
}

}  // namespace

Value ExecuteSlotPlan(const SlotPlan& plan, const Database& db,
                      const ExecOptions& options) {
  LDB_INTERNAL_CHECK(plan.root && plan.root->kind == PhysKind::kReduce,
                     "slot execution expects a Reduce root");
  // Every run fills one run record: the caller's, else the profiler's,
  // else a local one. Its wall time, and the profiler's copy, are written
  // on every exit: a cancelled (or failed) run still records how long it
  // ran and what its workers did.
  ExecTotals local;
  ExecOptions opt = options;
  if (opt.totals == nullptr) {
    opt.totals = opt.profiler != nullptr ? &opt.profiler->run : &local;
  }
  *opt.totals = ExecTotals{};
  const ProfClock::time_point start = ProfClock::now();
  auto seal = [&] {
    opt.totals->wall_ns = NsSince(start);
    if (opt.profiler != nullptr && opt.totals != &opt.profiler->run) {
      opt.profiler->run = *opt.totals;
    }
  };
  Value out;
  try {
    if (opt.n_threads <= 1 ||
        !TryExecuteParallel(plan, db, opt, start, &out)) {
      opt.totals->mode = "serial";
      out = RunSerial(plan, db, opt, nullptr);
    }
  } catch (...) {
    seal();
    throw;
  }
  seal();
  return out;
}

Value ExecutePipelined(const PhysPtr& plan, const Database& db,
                       const ExecOptions& options) {
  LDB_INTERNAL_CHECK(plan && plan->kind == PhysKind::kReduce,
                     "pipelined execution expects a Reduce root");
  return ExecuteSlotPlan(CompileSlotPlan(plan, db), db, options);
}

}  // namespace ldb
