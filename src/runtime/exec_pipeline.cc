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
// sizing is gated on `tracker.armed() || stats != nullptr` at every site —
// untracked unprofiled runs never walk a value.

// Publishes root-fold rows into the resource context in batches of 1024
// (the live rows-so-far of the active-query view; docs/OBSERVABILITY.md)
// and flushes the remainder on scope exit, including unwinds.
struct RowPulse {
  obs::QueryResourceContext* rc;
  uint64_t pending = 0;
  void Tick() {
    if (rc != nullptr && (++pending & 1023u) == 0) rc->AddRows(1024);
  }
  ~RowPulse() {
    if (rc != nullptr) rc->AddRows(pending & 1023u);
  }
};

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
// trees below are built exactly as before (no decorator, no per-row branch);
// when set, every operator is wrapped in a timing/counting decorator and the
// operators that buffer state (joins, nests) additionally report build sizes
// through a nullable OperatorStats* they carry.

using ProfClock = std::chrono::steady_clock;

double NsSince(ProfClock::time_point t0) {
  return std::chrono::duration<double, std::nano>(ProfClock::now() - t0)
      .count();
}

// Flushes a serial run's root-row count into ExecOptions::totals on scope
// exit, so a QueryCancelled unwind still reports the partial total. The
// counter stays a plain local on the fold loop's hot path.
struct SerialTotalsGuard {
  ExecTotals* totals;
  const uint64_t* rows;
  ~SerialTotalsGuard() {
    if (totals != nullptr) {
      totals->root_rows += *rows;
      totals->mode = "serial";
    }
  }
};

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

// ===========================================================================
// Slot-frame engine.
// ===========================================================================

// A buffered row: a copy of a subtree's covering slot span [out_lo, out_hi).
using BufRow = std::vector<Value>;
// Hash-join build table over span copies.
using JoinTable = std::unordered_map<Value, std::vector<BufRow>, ValueHash>;

// A GroupJoin's right side, built once per execution (after parameters are
// written, so never part of the cached SlotPlan) by BuildGroupJoinSide.
struct GroupJoinSide {
  Value zero;  // the monoid's empty fold: a left row with no matches
  // kLoop: right rows by equality key (one bucket under the empty-list key
  // when there are no keys), in build order.
  JoinTable table;
  // kAggregate: each key's fold over its qualifying right rows.
  std::unordered_map<Value, Value, ValueHash> folds_by_key;
  // kSorted: the qualifying rows' (b, head) pairs in build order, kept only
  // when some b (or a NaN head) defeats Value::Compare's ordering, in which
  // case each left row folds over them in order (the loop strategy).
  std::vector<std::pair<Value, Value>> entries;
  // kSorted, ordered: the b values ascending, and folds[i], the fold over
  // keys [0, i) for > and >=, or over keys [i, n) for < and <=.
  bool ordered = false;
  std::vector<Value> keys;
  std::vector<Value> folds;
};

// Build-side tables prebuilt once and shared read-only by all workers,
// keyed by the owning operator's SlotOp::id.
struct SharedTables {
  std::unordered_map<int, JoinTable> join_tables;
  std::unordered_map<int, std::vector<BufRow>> buffers;
  std::unordered_map<int, GroupJoinSide> group_joins;
  // (op class, bytes) charged per prebuilt table. Entries are pushed before
  // the rows charge against them, so an over-budget throw mid-build still
  // leaves every applied byte recorded; the parallel executor's scope guard
  // releases them when the tables die.
  std::vector<std::pair<int, size_t>> charges;
};

struct NestGroup {
  Elems key;
  Accumulator acc;
};

// Per-morsel (and serial) grouping state for HashNest.
struct PartialGroups {
  std::vector<NestGroup> groups;  // first-encounter order
  std::unordered_map<Value, size_t, ValueHash> index;
  size_t charged = 0;  // bytes charged for this state, updated pre-Charge so
                       // an over-budget throw still leaves it releasable
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
// stored, so a single-key probe can use the pointer path and skip the
// 128-byte Value copy per probe row.
const Value* EvalKeyPtr(FrameEvaluator* fev, Frame& frame,
                        const std::vector<CExprPtr>& keys, Value* scratch) {
  if (keys.size() == 1) return fev->EvalPtr(*keys[0], frame, scratch);
  *scratch = EvalKeyTuple(fev, frame, keys);
  return scratch;
}

// Writes the caller's parameter bindings into the plan's reserved slots.
// Every parameter the plan declares must be bound (a missing binding is an
// EvalError); extra bindings are ignored. Called once per frame — each
// executing thread (serial, prebuild, worker, tail) owns its frame, so
// parameters are plain slot reads afterwards.
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

// Routes the caller's cancellation token and resource context onto a
// thread's frame evaluator.
void ArmEvaluator(FrameEvaluator* fev, const ExecOptions& opt) {
  fev->SetCancel(opt.cancel);
  fev->SetResource(opt.resource);
}

// The O7 padding test: a row whose null-var slots hold NULL adds nothing.
bool NullPadded(const SlotOp& op, const Frame& frame) {
  for (int s : op.null_slots) {
    if (frame[s].is_null()) return true;
  }
  return false;
}

// Folds the current frame into the group table exactly the way the serial
// HashNest does; shared by the serial iterator and the parallel workers so
// grouping logic cannot drift between them. Buffered bytes (group keys, and
// head values for collection monoids) are charged through the evaluator and
// recorded in pg->charged; the caller owns the release.
void AccumulateNestRow(const SlotOp& nest, FrameEvaluator* fev, Frame& frame,
                       PartialGroups* pg, OperatorStats* stats) {
  const bool sized = fev->mem().armed() || stats != nullptr;
  Elems key;
  key.reserve(nest.group_slots.size());
  for (const auto& [slot, expr] : nest.group_slots) {
    key.push_back(fev->Eval(*expr, frame));
  }
  auto [it, inserted] = pg->index.emplace(Value::List(key), pg->groups.size());
  if (inserted) {
    pg->groups.push_back(NestGroup{std::move(key), Accumulator(nest.monoid)});
    if (sized) {
      size_t b = EstimateValueBytes(it->first);
      if (stats) stats->mem_bytes += b;
      pg->charged += b;
      fev->mem().Charge(static_cast<int>(PhysKind::kHashNest), b);
    }
  }
  NestGroup& g = pg->groups[it->second];
  if (!NullPadded(nest, frame) && fev->EvalPred(*nest.pred, frame)) {
    Value scratch;
    const Value* hv = fev->EvalPtr(*nest.head, frame, &scratch);
    if (sized && IsCollectionMonoid(nest.monoid)) {
      size_t b = EstimateValueBytes(*hv);
      if (stats) stats->mem_bytes += b;
      pg->charged += b;
      fev->mem().Charge(static_cast<int>(PhysKind::kHashNest), b);
    }
    g.acc.Add(*hv);
  }
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

// Streams the left child; the right child is buffered as span copies (or
// injected prebuilt by the parallel executor, in which case right_ is null).
class FNLJoinIter : public FrameIter {
 public:
  FNLJoinIter(const SlotOp& op, std::unique_ptr<FrameIter> left,
              std::unique_ptr<FrameIter> right, FrameEvaluator* fev,
              Frame* frame, const std::vector<BufRow>* shared_buffer)
      : op_(op), outer_(op.kind == PhysKind::kNLOuterJoin),
        left_(std::move(left)), right_(std::move(right)), fev_(fev),
        frame_(frame), shared_buffer_(shared_buffer) {}

  ~FNLJoinIter() override { ReleaseCharge(); }

  void set_stats(OperatorStats* s) { stats_ = s; }

  void Open() override {
    ReleaseCharge();
    if (shared_buffer_ != nullptr) {
      buffer_ = shared_buffer_;  // prebuilt: the parallel executor owns the charge
    } else {
      own_buffer_.clear();
      right_->Open();
      const bool sized = fev_->mem().armed() || stats_ != nullptr;
      while (right_->Next()) {
        PollCancel(fev_->cancel());
        own_buffer_.push_back(
            CopySpan(*frame_, op_.right->out_lo, op_.right->out_hi));
        if (sized) {
          size_t b = SpanBytes(own_buffer_.back());
          if (stats_) stats_->mem_bytes += b;
          charged_ += b;
          fev_->mem().Charge(static_cast<int>(op_.kind), b);
        }
      }
      right_->Close();
      if (stats_) stats_->build_rows += own_buffer_.size();
      buffer_ = &own_buffer_;
    }
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
    own_buffer_.clear();
    ReleaseCharge();
  }

 private:
  void ReleaseCharge() {
    if (charged_ > 0) {
      fev_->mem().Release(static_cast<int>(op_.kind), charged_);
      charged_ = 0;
    }
  }

  const SlotOp& op_;
  bool outer_;
  std::unique_ptr<FrameIter> left_, right_;
  FrameEvaluator* fev_;
  Frame* frame_;
  OperatorStats* stats_ = nullptr;
  size_t charged_ = 0;
  const std::vector<BufRow>* shared_buffer_;
  std::vector<BufRow> own_buffer_;
  const std::vector<BufRow>* buffer_ = nullptr;
  size_t pos_ = 0;
  bool have_row_ = false;
  bool matched_ = false;
};

class FHashJoinIter : public FrameIter {
 public:
  FHashJoinIter(const SlotOp& op, std::unique_ptr<FrameIter> left,
                std::unique_ptr<FrameIter> right, FrameEvaluator* fev,
                Frame* frame, const JoinTable* shared_table)
      : op_(op), outer_(op.kind == PhysKind::kHashOuterJoin),
        left_(std::move(left)), right_(std::move(right)), fev_(fev),
        frame_(frame), shared_table_(shared_table) {
    build_op_ = (op_.build_is_left ? op_.left : op_.right).get();
  }

  ~FHashJoinIter() override { ReleaseCharge(); }

  void set_stats(OperatorStats* s) { stats_ = s; }

  void Open() override {
    ReleaseCharge();
    FrameIter* build = op_.build_is_left ? left_.get() : right_.get();
    probe_ = op_.build_is_left ? right_.get() : left_.get();
    if (shared_table_ != nullptr) {
      table_ = shared_table_;  // prebuilt: the parallel executor owns the charge
    } else {
      own_table_.clear();
      size_t built = 0;
      build->Open();
      const bool sized = fev_->mem().armed() || stats_ != nullptr;
      while (build->Next()) {
        PollCancel(fev_->cancel());
        Value key = EvalKeyTuple(fev_, *frame_, op_.build_keys);
        if (!key.is_null()) {
          BufRow row = CopySpan(*frame_, build_op_->out_lo, build_op_->out_hi);
          if (sized) {
            size_t b = SpanBytes(row);
            if (stats_) stats_->mem_bytes += b;
            charged_ += b;
            fev_->mem().Charge(static_cast<int>(op_.kind), b);
          }
          own_table_[std::move(key)].push_back(std::move(row));
          ++built;
        }
      }
      build->Close();
      if (stats_) stats_->build_rows += built;
      table_ = &own_table_;
    }
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
          LoadSpan(*frame_, build_op_->out_lo, (*bucket_)[pos_++]);
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
    if (left_) left_->Close();
    if (right_) right_->Close();
    own_table_.clear();
    ReleaseCharge();
  }

 private:
  void ReleaseCharge() {
    if (charged_ > 0) {
      fev_->mem().Release(static_cast<int>(op_.kind), charged_);
      charged_ = 0;
    }
  }

  const SlotOp& op_;
  bool outer_;
  std::unique_ptr<FrameIter> left_, right_;
  FrameEvaluator* fev_;
  Frame* frame_;
  OperatorStats* stats_ = nullptr;
  size_t charged_ = 0;
  const SlotOp* build_op_;
  const JoinTable* shared_table_;
  JoinTable own_table_;
  FrameIter* probe_ = nullptr;
  const JoinTable* table_ = nullptr;
  const std::vector<BufRow>* bucket_ = nullptr;
  size_t pos_ = 0;
  bool have_row_ = false;
  bool matched_ = false;
};

// Blocking grouping. Either drains its child on Open, or replays groups
// merged from parallel workers (prebuilt constructor; no child).
class FHashNestIter : public FrameIter {
 public:
  FHashNestIter(const SlotOp& op, std::unique_ptr<FrameIter> child,
                FrameEvaluator* fev, Frame* frame)
      : op_(op), child_(std::move(child)), fev_(fev), frame_(frame) {}

  // Prebuilt groups were charged by the parallel executor (which owns the
  // release); `prebuilt_bytes` only feeds this operator's profile line.
  FHashNestIter(const SlotOp& op, std::vector<NestGroup> prebuilt,
                size_t prebuilt_bytes, FrameEvaluator* fev, Frame* frame)
      : op_(op), fev_(fev), frame_(frame),
        prebuilt_(std::move(prebuilt)), prebuilt_bytes_(prebuilt_bytes),
        has_prebuilt_(true) {}

  ~FHashNestIter() override { ReleaseCharge(); }

  void set_stats(OperatorStats* s) { stats_ = s; }

  void Open() override {
    ReleaseCharge();
    if (has_prebuilt_) {
      groups_ = std::move(prebuilt_);
      has_prebuilt_ = false;
      if (stats_) stats_->mem_bytes += prebuilt_bytes_;
    } else {
      PartialGroups pg;
      child_->Open();
      try {
        while (child_->Next()) {
          PollCancel(fev_->cancel());
          AccumulateNestRow(op_, fev_, *frame_, &pg, stats_);
        }
      } catch (...) {
        // pg dies with the unwind; its reservation must die with it.
        charged_ = pg.charged;
        ReleaseCharge();
        throw;
      }
      child_->Close();
      charged_ = pg.charged;
      groups_ = std::move(pg.groups);
    }
    // Scalar aggregation (no keys) always yields one row (see eval_algebra).
    if (op_.group_slots.empty() && groups_.empty()) {
      groups_.push_back(NestGroup{{}, Accumulator(op_.monoid)});
    }
    if (stats_) stats_->groups += groups_.size();
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
    if (charged_ > 0) {
      fev_->mem().Release(static_cast<int>(PhysKind::kHashNest), charged_);
      charged_ = 0;
    }
  }

  const SlotOp& op_;
  std::unique_ptr<FrameIter> child_;
  FrameEvaluator* fev_;
  Frame* frame_;
  OperatorStats* stats_ = nullptr;
  size_t charged_ = 0;
  std::vector<NestGroup> prebuilt_;
  size_t prebuilt_bytes_ = 0;
  bool has_prebuilt_ = false;
  std::vector<NestGroup> groups_;
  size_t pos_ = 0;
};

// A value Value::Compare orders strictly: anything else (NaN, bools, records)
// sends a sorted GroupJoin back to its loop.
bool Orderable(const Value& v) {
  return v.kind() == Value::Kind::kInt || v.kind() == Value::Kind::kStr ||
         (v.kind() == Value::Kind::kReal && std::isfinite(v.AsReal()));
}

// The finished fold of what `acc` has seen so far; `acc` keeps folding.
Value Snapshot(const Accumulator& acc) {
  Accumulator copy = acc;
  return copy.Finish();
}

// Builds a GroupJoin's right side: drains `right`, keeping what the plan's
// strategy needs (docs/EXECUTOR.md). The one build path for the serial
// iterator and the parallel prebuild. Charges go to the GroupJoin class, and
// *charged grows before each charge so an over-budget throw mid-build still
// leaves every applied byte for the caller to release.
void BuildGroupJoinSide(const SlotOp& op, FrameIter* right, FrameEvaluator* fev,
                        Frame& frame, OperatorStats* stats, size_t* charged,
                        GroupJoinSide* side) {
  const bool sized = fev->mem().armed() || stats != nullptr;
  auto charge = [&](size_t b) {
    if (stats) stats->mem_bytes += b;
    *charged += b;
    fev->mem().Charge(static_cast<int>(PhysKind::kGroupJoin), b);
  };
  side->zero = Accumulator(op.monoid).Finish();
  std::unordered_map<Value, Accumulator, ValueHash> accs;  // kAggregate
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
        if (sized) charge(SpanBytes(row));
        side->table[std::move(key)].push_back(std::move(row));
        break;
      }
      case GroupJoinStrategy::kAggregate: {
        Value key = EvalKeyTuple(fev, frame, op.build_keys);
        if (key.is_null() || !fev->EvalPred(*op.pred, frame) ||
            NullPadded(op, frame)) {
          break;
        }
        auto [it, inserted] = accs.try_emplace(std::move(key), op.monoid);
        if (inserted && sized) charge(EstimateValueBytes(it->first));
        const Value* hv = fev->EvalPtr(*op.head, frame, &scratch);
        if (sized && IsCollectionMonoid(op.monoid)) {
          charge(EstimateValueBytes(*hv));
        }
        it->second.Add(*hv);
        break;
      }
      case GroupJoinStrategy::kSorted: {
        Value b = fev->Eval(*op.build_keys[0], frame);
        if (b.is_null() || !fev->EvalPred(*op.pred, frame) ||
            NullPadded(op, frame)) {
          break;
        }
        Value h = fev->Eval(*op.head, frame);
        if (sized) charge(EstimateValueBytes(b) + EstimateValueBytes(h));
        side->entries.emplace_back(std::move(b), std::move(h));
        break;
      }
    }
  }
  right->Close();

  size_t summary = 0;
  if (op.strategy == GroupJoinStrategy::kAggregate) {
    side->folds_by_key.reserve(accs.size());
    for (auto& [key, acc] : accs) side->folds_by_key.emplace(key, acc.Finish());
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
      side->folds[prefix ? 0 : n] = side->zero;
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
  if (stats) {
    stats->build_rows += read;
    stats->groups += summary;
  }
}

// Folds one left row's matches into its aggregate.
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
      return it->second;
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
        return side.folds[static_cast<size_t>(end - side.keys.begin())];
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
// aggregate of its matches. The right side is built on Open, or injected
// prebuilt by the parallel executor (then right_ is null).
class FGroupJoinIter : public FrameIter {
 public:
  FGroupJoinIter(const SlotOp& op, std::unique_ptr<FrameIter> left,
                 std::unique_ptr<FrameIter> right, FrameEvaluator* fev,
                 Frame* frame, const GroupJoinSide* shared_side)
      : op_(op), left_(std::move(left)), right_(std::move(right)), fev_(fev),
        frame_(frame), shared_side_(shared_side) {}

  ~FGroupJoinIter() override { ReleaseCharge(); }

  void set_stats(OperatorStats* s) { stats_ = s; }

  void Open() override {
    ReleaseCharge();
    if (shared_side_ != nullptr) {
      side_ = shared_side_;  // prebuilt: the parallel executor owns the charge
    } else {
      own_side_ = GroupJoinSide{};
      BuildGroupJoinSide(op_, right_.get(), fev_, *frame_, stats_, &charged_,
                         &own_side_);
      side_ = &own_side_;
    }
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
    own_side_ = GroupJoinSide{};
    ReleaseCharge();
  }

 private:
  void ReleaseCharge() {
    if (charged_ > 0) {
      fev_->mem().Release(static_cast<int>(PhysKind::kGroupJoin), charged_);
      charged_ = 0;
    }
  }

  const SlotOp& op_;
  std::unique_ptr<FrameIter> left_, right_;
  FrameEvaluator* fev_;
  Frame* frame_;
  OperatorStats* stats_ = nullptr;
  size_t charged_ = 0;
  const GroupJoinSide* shared_side_;
  GroupJoinSide own_side_;
  const GroupJoinSide* side_ = nullptr;
  bool emitted_ = false;
  bool done_ = false;
};

// Construction context: the per-thread frame/evaluator, plus the parallel
// executor's injections (shared build tables, the morsel-ranged driver scan,
// pre-merged nest groups for the serial tail).
struct FrameExecCtx {
  FrameEvaluator* fev = nullptr;
  Frame* frame = nullptr;
  const SharedTables* shared = nullptr;
  int driver_id = -1;
  FTableScanIter* driver = nullptr;  // out: the driver scan, if driver_id hit
  int prebuilt_nest_id = -1;
  std::vector<NestGroup>* prebuilt_groups = nullptr;  // moved from when hit
  size_t prebuilt_bytes = 0;  // bytes the executor charged for those groups
  QueryProfiler* profiler = nullptr;  // null = build the uninstrumented tree
};

std::unique_ptr<FrameIter> MakeFrameIterator(const SlotOpPtr& op,
                                             FrameExecCtx& ctx) {
  LDB_INTERNAL_CHECK(op != nullptr, "null slot operator");
  OperatorStats* stats =
      ctx.profiler == nullptr
          ? nullptr
          : ctx.profiler->Register(op->id, op->kind,
                                   ProfLabel(op->kind, op->extent));
  std::unique_ptr<FrameIter> out;
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
      const std::vector<BufRow>* shared_buffer = nullptr;
      if (ctx.shared != nullptr) {
        auto it = ctx.shared->buffers.find(op->id);
        if (it != ctx.shared->buffers.end()) shared_buffer = &it->second;
      }
      // With a shared buffer the buffered subtree is never instantiated.
      auto right = shared_buffer ? nullptr : MakeFrameIterator(op->right, ctx);
      auto join = std::make_unique<FNLJoinIter>(
          *op, MakeFrameIterator(op->left, ctx), std::move(right), ctx.fev,
          ctx.frame, shared_buffer);
      join->set_stats(stats);
      out = std::move(join);
      break;
    }
    case PhysKind::kHashJoin:
    case PhysKind::kHashOuterJoin: {
      const JoinTable* shared_table = nullptr;
      if (ctx.shared != nullptr) {
        auto it = ctx.shared->join_tables.find(op->id);
        if (it != ctx.shared->join_tables.end()) shared_table = &it->second;
      }
      const SlotOpPtr& build = op->build_is_left ? op->left : op->right;
      const SlotOpPtr& probe = op->build_is_left ? op->right : op->left;
      std::unique_ptr<FrameIter> build_it =
          shared_table ? nullptr : MakeFrameIterator(build, ctx);
      std::unique_ptr<FrameIter> probe_it = MakeFrameIterator(probe, ctx);
      auto left = op->build_is_left ? std::move(build_it) : std::move(probe_it);
      auto right = op->build_is_left ? std::move(probe_it) : std::move(build_it);
      auto join = std::make_unique<FHashJoinIter>(*op, std::move(left),
                                                  std::move(right), ctx.fev,
                                                  ctx.frame, shared_table);
      join->set_stats(stats);
      out = std::move(join);
      break;
    }
    case PhysKind::kHashNest: {
      std::unique_ptr<FHashNestIter> nest;
      if (op->id == ctx.prebuilt_nest_id) {
        nest = std::make_unique<FHashNestIter>(
            *op, std::move(*ctx.prebuilt_groups), ctx.prebuilt_bytes,
            ctx.fev, ctx.frame);
      } else {
        nest = std::make_unique<FHashNestIter>(
            *op, MakeFrameIterator(op->left, ctx), ctx.fev, ctx.frame);
      }
      nest->set_stats(stats);
      out = std::move(nest);
      break;
    }
    case PhysKind::kGroupJoin: {
      const GroupJoinSide* shared_side = nullptr;
      if (ctx.shared != nullptr) {
        auto it = ctx.shared->group_joins.find(op->id);
        if (it != ctx.shared->group_joins.end()) shared_side = &it->second;
      }
      auto right = shared_side ? nullptr : MakeFrameIterator(op->right, ctx);
      auto gj = std::make_unique<FGroupJoinIter>(
          *op, MakeFrameIterator(op->left, ctx), std::move(right), ctx.fev,
          ctx.frame, shared_side);
      gj->set_stats(stats);
      out = std::move(gj);
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

Value ExecuteSlotSerial(const SlotPlan& sp, const Database& db,
                        const ExecOptions& opt, QueryProfiler* prof) {
  FrameEvaluator fev(db);
  ArmEvaluator(&fev, opt);
  Frame frame(static_cast<size_t>(sp.n_slots));
  FillParams(sp, opt, frame);
  FrameExecCtx ctx;
  ctx.fev = &fev;
  ctx.frame = &frame;
  ctx.profiler = prof;
  Accumulator acc(sp.root->monoid);
  Value scratch;
  uint64_t folded = 0;
  SerialTotalsGuard totals_guard{opt.totals, &folded};
  RowPulse pulse{opt.resource};
  const bool fold_sized =
      fev.mem().armed() && IsCollectionMonoid(sp.root->monoid);
  size_t fold_charged = 0;
  FoldChargeGuard fold_guard{&fev.mem(), &fold_charged};
  if (prof == nullptr) {
    std::unique_ptr<FrameIter> input = MakeFrameIterator(sp.root->left, ctx);
    input->Open();
    while (input->Next()) {
      PollCancel(opt.cancel);
      if (!fev.EvalPred(*sp.root->pred, frame)) continue;
      const Value* hv = fev.EvalPtr(*sp.root->head, frame, &scratch);
      if (fold_sized) {
        size_t b = EstimateValueBytes(*hv);
        fold_charged += b;
        fev.mem().Charge(static_cast<int>(PhysKind::kReduce), b);
      }
      acc.Add(*hv);
      ++folded;
      pulse.Tick();
      if (acc.Saturated()) break;  // the pipeline stops pulling here
    }
    input->Close();
    return acc.Finish();
  }
  prof->parallel_mode = "serial";
  OperatorStats* rstats =
      prof->Register(sp.root->id, PhysKind::kReduce, "Reduce");
  std::unique_ptr<FrameIter> input = MakeFrameIterator(sp.root->left, ctx);
  input->Open();
  ++rstats->opens;
  auto t0 = ProfClock::now();
  while (input->Next()) {
    PollCancel(opt.cancel);
    ++rstats->next_calls;
    if (!fev.EvalPred(*sp.root->pred, frame)) continue;
    const Value* hv = fev.EvalPtr(*sp.root->head, frame, &scratch);
    if (fold_sized) {
      size_t b = EstimateValueBytes(*hv);
      rstats->mem_bytes += b;
      fold_charged += b;
      fev.mem().Charge(static_cast<int>(PhysKind::kReduce), b);
    }
    acc.Add(*hv);
    ++rstats->rows_out;
    ++folded;
    pulse.Tick();
    if (acc.Saturated()) {
      ++rstats->short_circuits;
      break;
    }
  }
  rstats->next_ns += NsSince(t0);
  input->Close();
  return acc.Finish();
}

// ===========================================================================
// Morsel-driven parallel execution.
// ===========================================================================

// The streaming spine: the chain of operators a driver-scan row flows
// through without being buffered. Joins and GroupJoins continue along their
// probe/streamed side; HashNest is a barrier but is still spine (mode B
// parallelizes below the lowest one).
struct SpineInfo {
  SlotOpPtr driver;       // the driving kTableScan (null = not parallelizable)
  SlotOpPtr lowest_nest;  // deepest kHashNest on the spine, if any
};

SpineInfo AnalyzeSpine(const SlotOpPtr& root) {
  SpineInfo info;
  SlotOpPtr cur = root->left;
  while (cur) {
    switch (cur->kind) {
      case PhysKind::kFilter:
      case PhysKind::kUnnest:
      case PhysKind::kOuterUnnest:
      case PhysKind::kNLJoin:
      case PhysKind::kNLOuterJoin:
      case PhysKind::kGroupJoin:
        cur = cur->left;
        break;
      case PhysKind::kHashJoin:
      case PhysKind::kHashOuterJoin:
        cur = cur->build_is_left ? cur->right : cur->left;
        break;
      case PhysKind::kHashNest:
        info.lowest_nest = cur;
        cur = cur->left;
        break;
      case PhysKind::kTableScan:
        info.driver = cur;
        return info;
      default:  // kUnitRow / kIndexScan drivers: stay serial
        return SpineInfo{};
    }
  }
  return SpineInfo{};
}

// Builds every spine join's build/buffer side (and every spine GroupJoin's
// right side) once, serially, so workers share them read-only. With a profiler, the build subtrees' counters
// and the joins' build_rows land in *prof — once, matching the serial run —
// while the workers (who only read the shared tables) record nothing for
// them.
void PrebuildSpineTables(const SlotOpPtr& sub_root, const Database& db,
                         const SlotPlan& sp, const ExecOptions& opt,
                         SharedTables* shared, QueryProfiler* prof) {
  FrameEvaluator fev(db);
  ArmEvaluator(&fev, opt);
  Frame frame(static_cast<size_t>(sp.n_slots));
  FillParams(sp, opt, frame);
  for (SlotOpPtr cur = sub_root; cur;) {
    switch (cur->kind) {
      case PhysKind::kFilter:
      case PhysKind::kUnnest:
      case PhysKind::kOuterUnnest:
        cur = cur->left;
        break;
      case PhysKind::kNLJoin:
      case PhysKind::kNLOuterJoin: {
        FrameExecCtx ctx;
        ctx.fev = &fev;
        ctx.frame = &frame;
        ctx.profiler = prof;
        auto it = MakeFrameIterator(cur->right, ctx);
        it->Open();
        std::vector<BufRow> buf;
        const bool sized = fev.mem().armed() || prof != nullptr;
        shared->charges.emplace_back(static_cast<int>(cur->kind), 0);
        size_t& bytes = shared->charges.back().second;
        while (it->Next()) {
          PollCancel(opt.cancel);
          buf.push_back(CopySpan(frame, cur->right->out_lo, cur->right->out_hi));
          if (sized) {
            size_t b = SpanBytes(buf.back());
            bytes += b;
            fev.mem().Charge(static_cast<int>(cur->kind), b);
          }
        }
        it->Close();
        if (prof) {
          OperatorStats* s = prof->Register(
              cur->id, cur->kind, ProfLabel(cur->kind, cur->extent));
          s->build_rows += buf.size();
          s->mem_bytes += bytes;
        }
        shared->buffers.emplace(cur->id, std::move(buf));
        cur = cur->left;
        break;
      }
      case PhysKind::kHashJoin:
      case PhysKind::kHashOuterJoin: {
        const SlotOpPtr& build = cur->build_is_left ? cur->left : cur->right;
        FrameExecCtx ctx;
        ctx.fev = &fev;
        ctx.frame = &frame;
        ctx.profiler = prof;
        auto it = MakeFrameIterator(build, ctx);
        it->Open();
        JoinTable table;
        size_t built = 0;
        const bool sized = fev.mem().armed() || prof != nullptr;
        shared->charges.emplace_back(static_cast<int>(cur->kind), 0);
        size_t& bytes = shared->charges.back().second;
        while (it->Next()) {
          PollCancel(opt.cancel);
          Value key = EvalKeyTuple(&fev, frame, cur->build_keys);
          if (!key.is_null()) {
            BufRow row = CopySpan(frame, build->out_lo, build->out_hi);
            if (sized) {
              size_t b = SpanBytes(row);
              bytes += b;
              fev.mem().Charge(static_cast<int>(cur->kind), b);
            }
            table[std::move(key)].push_back(std::move(row));
            ++built;
          }
        }
        it->Close();
        if (prof) {
          OperatorStats* s = prof->Register(
              cur->id, cur->kind, ProfLabel(cur->kind, cur->extent));
          s->build_rows += built;
          s->mem_bytes += bytes;
        }
        shared->join_tables.emplace(cur->id, std::move(table));
        cur = cur->build_is_left ? cur->right : cur->left;
        break;
      }
      case PhysKind::kGroupJoin: {
        FrameExecCtx ctx;
        ctx.fev = &fev;
        ctx.frame = &frame;
        ctx.profiler = prof;
        auto it = MakeFrameIterator(cur->right, ctx);
        OperatorStats* s =
            prof == nullptr ? nullptr
                            : prof->Register(cur->id, cur->kind,
                                             ProfLabel(cur->kind, cur->extent));
        shared->charges.emplace_back(static_cast<int>(cur->kind), 0);
        BuildGroupJoinSide(*cur, it.get(), &fev, frame, s,
                           &shared->charges.back().second,
                           &shared->group_joins[cur->id]);
        cur = cur->left;
        break;
      }
      default:  // the driver scan
        return;
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

// Per-worker pipeline over the parallel sub-spine. Under profiling each
// worker also owns a private QueryProfiler (its iterators are wrapped
// against it — no shared counters, no atomics) plus its utilization totals;
// TryExecuteParallel merges them into the caller's profiler after join.
struct WorkerPipeline {
  FrameEvaluator fev;
  Frame frame;
  std::unique_ptr<FrameIter> pipe;
  FTableScanIter* driver = nullptr;
  QueryProfiler prof;   // used only when `profiled`
  WorkerStats wstats;
  bool profiled = false;

  WorkerPipeline(const Database& db, const SlotPlan& sp,
                 const ExecOptions& opt, const SlotOpPtr& sub_root,
                 const SharedTables& shared, int driver_id, int worker_id,
                 bool with_profiling)
      : fev(db), frame(static_cast<size_t>(sp.n_slots)),
        profiled(with_profiling) {
    ArmEvaluator(&fev, opt);
    FillParams(sp, opt, frame);
    wstats.worker = worker_id;
    FrameExecCtx ctx;
    ctx.fev = &fev;
    ctx.frame = &frame;
    ctx.shared = &shared;
    ctx.driver_id = driver_id;
    ctx.profiler = profiled ? &prof : nullptr;
    pipe = MakeFrameIterator(sub_root, ctx);
    driver = ctx.driver;
    LDB_INTERNAL_CHECK(driver != nullptr, "parallel driver scan not found");
  }
};

// Collects the per-worker pipeline states created during a parallel run so
// their private profilers / utilization counters survive the join and can
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

bool TryExecuteParallel(const SlotPlan& sp, const Database& db,
                        const ExecOptions& opt, Value* out) {
  const SlotOpPtr& root = sp.root;
  SpineInfo spine = AnalyzeSpine(root);
  if (!spine.driver) return false;
  if (!spine.lowest_nest && !ParallelRootEligible(root->monoid)) return false;
  const std::vector<Value>& extent = db.Extent(spine.driver->extent);
  const size_t morsel = std::max<size_t>(1, opt.morsel_size);
  if (extent.size() <= morsel) return false;  // one morsel: serial is exact

  QueryProfiler* uprof = opt.profiler;
  const bool profiling = uprof != nullptr;
  // ExecTotals collection rides on the same per-worker counters profiling
  // uses (plain fields, summed after the join) — worker states are retained
  // whenever either consumer is attached.
  const bool track = profiling || opt.totals != nullptr;

  const SlotOpPtr sub_root = spine.lowest_nest ? spine.lowest_nest->left
                                               : root->left;
  SharedTables shared;
  // The prebuilt tables' reservations live exactly as long as the tables:
  // released here on every exit path (success, cancel, over-budget unwind).
  struct SharedChargeGuard {
    const ExecOptions* opt;
    const SharedTables* shared;
    ~SharedChargeGuard() {
      if (opt->resource == nullptr) return;
      for (const auto& [cls, b] : shared->charges) {
        if (b > 0) opt->resource->Apply(cls, -static_cast<int64_t>(b));
      }
    }
  } shared_guard{&opt, &shared};
  PrebuildSpineTables(sub_root, db, sp, opt, &shared, uprof);

  MorselQueue mq{extent.size(), morsel};
  const size_t n_morsels = mq.count();
  const int n_workers = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(opt.n_threads), n_morsels));
  std::atomic<bool> stop{false};

  // Worker states are kept alive past RunMorsels (which drops its own
  // reference at thread exit) so their private profilers can be harvested.
  std::atomic<int> worker_seq{0};
  WorkerStateRegistry registry;
  std::vector<MorselStats> morsel_stats(profiling ? n_morsels : 0);

  auto make_state = [&]() {
    auto state = std::make_shared<WorkerPipeline>(
        db, sp, opt, sub_root, shared, spine.driver->id,
        worker_seq.fetch_add(1, std::memory_order_relaxed), profiling);
    if (track) registry.Add(state);
    return state;
  };

  // Timeline origin for MorselStats spans (trace export draws one lane per
  // worker from these offsets).
  const auto run_epoch = ProfClock::now();

  // Records the morsel into the worker's totals and the per-morsel table
  // (only ever this worker's slot: each index is grabbed exactly once).
  auto record_morsel = [&](WorkerPipeline& w, size_t idx, size_t lo, size_t hi,
                           uint64_t rows, ProfClock::time_point t0) {
    double dur = NsSince(t0);
    w.wstats.morsels += 1;
    w.wstats.rows += rows;
    w.wstats.busy_ns += dur;
    if (profiling) {
      double start =
          std::chrono::duration<double, std::nano>(t0 - run_epoch).count();
      morsel_stats[idx] =
          MorselStats{idx, lo, hi, rows, w.wstats.worker, start, dur};
    }
  };

  // Merges prebuild/worker counters and parallel metadata into *uprof and
  // flushes ExecTotals. Runs exactly once — on the success path or on a
  // QueryCancelled/error unwind, never both. The exactly-once flag matters
  // beyond idempotence: mode B's serial tail executes *after* this and
  // accumulates straight into *uprof, so a second merge of the worker
  // profilers (e.g. from a catch-all around the tail) would double-count
  // every sub-spine operator.
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
    if (opt.totals != nullptr) {
      ExecTotals& t = *opt.totals;
      t.mode = mode;
      t.workers = static_cast<int>(states.size());
      for (const auto& s : states) {
        t.morsels += s->wstats.morsels;
        t.busy_ns += s->wstats.busy_ns;
        if (rows_are_root) t.root_rows += s->wstats.rows;
      }
    }
    if (!profiling) return;
    uprof->parallel_mode = mode;
    uprof->threads_used = n_workers;
    uprof->morsel_size = morsel;
    for (const auto& s : states) {
      uprof->MergeFrom(s->prof);
      uprof->workers.push_back(s->wstats);
    }
    for (const MorselStats& m : morsel_stats) {
      if (m.hi > m.lo) uprof->morsels.push_back(m);  // hi == 0: never grabbed
    }
  };

  if (!spine.lowest_nest) {
    // Mode A: workers run the whole spine including the root reduce; one
    // partial accumulator per morsel, merged in morsel order.
    std::vector<std::optional<Accumulator>> parts(n_morsels);
    // Collection-monoid fold charges, recorded per morsel slot as they are
    // applied (each slot is written by exactly one worker) and released when
    // the partials die with this scope — merged or unwound alike.
    std::vector<size_t> part_charged(n_morsels, 0);
    const bool fold_coll = IsCollectionMonoid(root->monoid);
    struct PartsChargeGuard {
      const ExecOptions* opt;
      const std::vector<size_t>* charged;
      ~PartsChargeGuard() {
        if (opt->resource == nullptr) return;
        size_t total = 0;
        for (size_t b : *charged) total += b;
        if (total > 0) {
          opt->resource->Apply(static_cast<int>(PhysKind::kReduce),
                               -static_cast<int64_t>(total));
        }
      }
    } parts_guard{&opt, &part_charged};
    auto run_a = [&] {
      RunMorsels(mq, n_workers, stop, make_state,
               [&](size_t idx, size_t lo, size_t hi, WorkerPipeline& w) {
                 auto t0 = ProfClock::now();
                 w.driver->SetRange(lo, hi);
                 w.pipe->Open();
                 Accumulator acc(root->monoid);
                 Value scratch;
                 const bool fold_sized = fold_coll && w.fev.mem().armed();
                 size_t& pb = part_charged[idx];
                 if (!w.profiled) {
                   uint64_t plain_rows = 0;
                   while (w.pipe->Next()) {
                     if (!w.fev.EvalPred(*root->pred, w.frame)) continue;
                     const Value* hv =
                         w.fev.EvalPtr(*root->head, w.frame, &scratch);
                     if (fold_sized) {
                       size_t b = EstimateValueBytes(*hv);
                       pb += b;
                       w.fev.mem().Charge(static_cast<int>(PhysKind::kReduce),
                                          b);
                     }
                     acc.Add(*hv);
                     ++plain_rows;
                     if (acc.Saturated()) {
                       // The saturated value is the final result whichever
                       // morsel produces it first; stop dispatching.
                       stop.store(true, std::memory_order_relaxed);
                       break;
                     }
                   }
                   w.pipe->Close();
                   // Land this morsel's pending deltas in the context now:
                   // the fold-charge guard releases against the context
                   // directly, so nothing may stay batched past the join.
                   w.fev.mem().Flush();
                   parts[idx].emplace(std::move(acc));
                   if (opt.resource != nullptr) opt.resource->AddRows(plain_rows);
                   if (track) record_morsel(w, idx, lo, hi, plain_rows, t0);
                   return;
                 }
                 OperatorStats* rstats =
                     w.prof.Register(root->id, PhysKind::kReduce, "Reduce");
                 ++rstats->opens;
                 uint64_t folded = 0;
                 while (w.pipe->Next()) {
                   ++rstats->next_calls;
                   if (!w.fev.EvalPred(*root->pred, w.frame)) continue;
                   const Value* hv =
                       w.fev.EvalPtr(*root->head, w.frame, &scratch);
                   if (fold_sized) {
                     size_t b = EstimateValueBytes(*hv);
                     rstats->mem_bytes += b;
                     pb += b;
                     w.fev.mem().Charge(static_cast<int>(PhysKind::kReduce), b);
                   }
                   acc.Add(*hv);
                   ++folded;
                   if (acc.Saturated()) {
                     ++rstats->short_circuits;
                     stop.store(true, std::memory_order_relaxed);
                     break;
                   }
                 }
                 rstats->rows_out += folded;
                 w.pipe->Close();
                 w.fev.mem().Flush();
                 parts[idx].emplace(std::move(acc));
                 if (opt.resource != nullptr) opt.resource->AddRows(folded);
                 record_morsel(w, idx, lo, hi, folded, t0);
               });
    };
    try {
      run_a();
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

  // Mode B: workers run the sub-spine below the lowest HashNest and group
  // into per-morsel tables; groups merge in morsel order (first-encounter
  // group order and within-group stream order both match the serial run),
  // then the plan above the nest executes serially over the merged groups.
  const SlotOp& nest = *spine.lowest_nest;
  std::vector<std::optional<PartialGroups>> parts(n_morsels);
  // Per-morsel nest charges stay reserved while the groups live on — through
  // the merge and the prebuilt tail — and are released here when the merged
  // groups die with this scope, or on the unwind after summing the partials'
  // records below.
  size_t nest_outstanding = 0;
  struct NestChargeGuard {
    const ExecOptions* opt;
    const size_t* bytes;
    ~NestChargeGuard() {
      if (opt->resource != nullptr && *bytes > 0) {
        opt->resource->Apply(static_cast<int>(PhysKind::kHashNest),
                             -static_cast<int64_t>(*bytes));
      }
    }
  } nest_guard{&opt, &nest_outstanding};
  try {
    RunMorsels(mq, n_workers, stop, make_state,
             [&](size_t idx, size_t lo, size_t hi, WorkerPipeline& w) {
               auto t0 = ProfClock::now();
               w.driver->SetRange(lo, hi);
               w.pipe->Open();
               PartialGroups pg;
               uint64_t rows = 0;
               try {
                 while (w.pipe->Next()) {
                   AccumulateNestRow(nest, &w.fev, w.frame, &pg, nullptr);
                   ++rows;
                 }
               } catch (...) {
                 // pg dies with this morsel; return its reservation through
                 // the worker's own tracker before the unwind continues.
                 w.fev.mem().Release(static_cast<int>(PhysKind::kHashNest),
                                     pg.charged);
                 w.fev.mem().FlushNoThrow();
                 throw;
               }
               w.pipe->Close();
               w.fev.mem().Flush();
               parts[idx].emplace(std::move(pg));
               if (track) record_morsel(w, idx, lo, hi, rows, t0);
             });
  } catch (...) {
    for (std::optional<PartialGroups>& p : parts) {
      if (p) nest_outstanding += p->charged;
    }
    finish("spine-nest", /*rows_are_root=*/false);
    throw;
  }

  PartialGroups merged;
  for (std::optional<PartialGroups>& p : parts) {
    if (!p) continue;
    nest_outstanding += p->charged;
    for (NestGroup& g : p->groups) {
      auto [it, inserted] =
          merged.index.emplace(Value::List(g.key), merged.groups.size());
      if (inserted) {
        merged.groups.push_back(
            NestGroup{std::move(g.key), Accumulator(nest.monoid)});
      }
      merged.groups[it->second].acc.Absorb(g.acc);
    }
  }
  finish("spine-nest", /*rows_are_root=*/false);

  // The serial tail above the nest accumulates straight into the caller's
  // profiler (it runs once, exactly like the serial path). `finish` already
  // ran, so a tail unwind cannot re-merge the worker profilers; the guard
  // below still flushes the tail's partial root-row count into the totals.
  FrameEvaluator fev(db);
  ArmEvaluator(&fev, opt);
  Frame frame(static_cast<size_t>(sp.n_slots));
  FillParams(sp, opt, frame);
  FrameExecCtx ctx;
  ctx.fev = &fev;
  ctx.frame = &frame;
  ctx.prebuilt_nest_id = nest.id;
  ctx.prebuilt_groups = &merged.groups;
  ctx.prebuilt_bytes = nest_outstanding;
  ctx.profiler = uprof;
  Accumulator acc(root->monoid);
  Value scratch;
  uint64_t tail_rows = 0;
  struct TailTotalsGuard {
    ExecTotals* totals;
    const uint64_t* rows;
    ~TailTotalsGuard() {
      if (totals != nullptr) totals->root_rows += *rows;
    }
  } tail_guard{opt.totals, &tail_rows};
  RowPulse pulse{opt.resource};
  const bool fold_sized =
      fev.mem().armed() && IsCollectionMonoid(root->monoid);
  size_t fold_charged = 0;
  FoldChargeGuard fold_guard{&fev.mem(), &fold_charged};
  if (!profiling) {
    std::unique_ptr<FrameIter> input = MakeFrameIterator(root->left, ctx);
    input->Open();
    while (input->Next()) {
      PollCancel(opt.cancel);
      if (!fev.EvalPred(*root->pred, frame)) continue;
      const Value* hv = fev.EvalPtr(*root->head, frame, &scratch);
      if (fold_sized) {
        size_t b = EstimateValueBytes(*hv);
        fold_charged += b;
        fev.mem().Charge(static_cast<int>(PhysKind::kReduce), b);
      }
      acc.Add(*hv);
      ++tail_rows;
      pulse.Tick();
      if (acc.Saturated()) break;
    }
    input->Close();
    *out = acc.Finish();
    return true;
  }
  OperatorStats* rstats =
      uprof->Register(root->id, PhysKind::kReduce, "Reduce");
  std::unique_ptr<FrameIter> input = MakeFrameIterator(root->left, ctx);
  input->Open();
  ++rstats->opens;
  auto t0 = ProfClock::now();
  while (input->Next()) {
    PollCancel(opt.cancel);
    ++rstats->next_calls;
    if (!fev.EvalPred(*root->pred, frame)) continue;
    const Value* hv = fev.EvalPtr(*root->head, frame, &scratch);
    if (fold_sized) {
      size_t b = EstimateValueBytes(*hv);
      rstats->mem_bytes += b;
      fold_charged += b;
      fev.mem().Charge(static_cast<int>(PhysKind::kReduce), b);
    }
    acc.Add(*hv);
    ++rstats->rows_out;
    ++tail_rows;
    pulse.Tick();
    if (acc.Saturated()) {
      ++rstats->short_circuits;
      break;
    }
  }
  rstats->next_ns += NsSince(t0);
  input->Close();
  *out = acc.Finish();
  return true;
}

}  // namespace

Value ExecuteSlotPlan(const SlotPlan& plan, const Database& db,
                      const ExecOptions& options) {
  LDB_INTERNAL_CHECK(plan.root && plan.root->kind == PhysKind::kReduce,
                     "slot execution expects a Reduce root");
  if (options.profiler == nullptr) {
    if (options.n_threads > 1) {
      Value out;
      if (TryExecuteParallel(plan, db, options, &out)) return out;
    }
    return ExecuteSlotSerial(plan, db, options, nullptr);
  }
  auto wall0 = ProfClock::now();
  Value result;
  bool done = false;
  try {
    if (options.n_threads > 1) {
      done = TryExecuteParallel(plan, db, options, &result);
    }
    if (!done) result = ExecuteSlotSerial(plan, db, options, options.profiler);
  } catch (...) {
    // A cancelled (or failed) run still records how long it ran; the worker
    // profilers were already merged by the executor's unwind path.
    options.profiler->wall_ns += NsSince(wall0);
    throw;
  }
  options.profiler->wall_ns += NsSince(wall0);
  return result;
}

Value ExecutePipelined(const PhysPtr& plan, const Database& db,
                       const ExecOptions& options) {
  LDB_INTERNAL_CHECK(plan && plan->kind == PhysKind::kReduce,
                     "pipelined execution expects a Reduce root");
  return ExecuteSlotPlan(CompileSlotPlan(plan, db), db, options);
}

}  // namespace ldb
