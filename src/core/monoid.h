// Monoids of the monoid comprehension calculus (Fegaras, SIGMOD'98, Sec. 2).
//
// A monoid is a pair (merge, zero) with merge associative and zero its
// identity. Collection monoids (set, bag, list) additionally have a unit
// function lifting an element into a singleton collection. Primitive monoids
// (+, *, max, min, or, and) produce primitive values.
//
// Properties used by the algorithms:
//  * commutative  — all monoids here except list and first;
//  * idempotent   — set, max, min, or, and, first. Rules (D7)/(N6)/(N8) have
//    idempotence side conditions; treating + as idempotent yields the 1 = 2
//    inconsistency the paper shows in Section 2.
//
// Deviation from the paper (documented in DESIGN.md): the paper uses 0 as the
// zero of max, which is only correct for non-negative numbers. We use NULL as
// the zero of max/min/avg; merge(NULL, x) = x makes NULL a genuine identity,
// and an empty max/min/avg evaluates to NULL (the SQL convention).

#ifndef LAMBDADB_CORE_MONOID_H_
#define LAMBDADB_CORE_MONOID_H_

#include <string>

#include "src/core/type.h"
#include "src/runtime/value.h"

namespace ldb {

/// The monoids the calculus supports. kAvg is a pseudo-monoid implemented by
/// the (sum, count) pair; it is provided because OQL has avg() and the
/// paper's Section 5 example groups with avg.
enum class MonoidKind {
  kSet,   ///< (∪, {})          collection, commutative, idempotent
  kBag,   ///< (⊎, {||})        collection, commutative
  kList,  ///< (++, [])         collection
  kSum,   ///< (+, 0)
  kProd,  ///< (*, 1)
  kMax,   ///< (max, NULL)      idempotent
  kMin,   ///< (min, NULL)      idempotent
  kSome,  ///< (∨, false)       idempotent — existential quantification
  kAll,   ///< (∧, true)        idempotent — universal quantification
  kAvg,   ///< pseudo-monoid over (sum, count)
  kFirst, ///< (keep-left, NULL) idempotent, internal: no OQL syntax. The
          ///< reduce of a query whose top level is not a comprehension
          ///< (Optimizer::Compile unnests it as first{ e | })
};

/// True for set/bag/list.
bool IsCollectionMonoid(MonoidKind k);
/// True if merge(x, x) = x.
bool IsIdempotentMonoid(MonoidKind k);
/// True if merge(x, y) = merge(y, x).
bool IsCommutativeMonoid(MonoidKind k);
/// True for monoids producing primitive values (everything but set/bag/list).
inline bool IsPrimitiveMonoid(MonoidKind k) { return !IsCollectionMonoid(k); }

/// Short printable name ("set", "sum", "all", ...).
const char* MonoidName(MonoidKind k);

/// The zero element. For max/min/avg this is NULL (see header comment).
Value MonoidZero(MonoidKind k);

/// unit(v): lifts an element into the monoid ({v} for set, v itself for
/// primitive monoids, (v, 1) handling for avg is internal to Accumulator).
Value MonoidUnit(MonoidKind k, const Value& v);

/// merge(a, b). NULL is an identity for every monoid (merge(NULL, x) = x),
/// which is what lets nest convert outer-join padding into zeros uniformly.
/// Not defined for kAvg (averages do not merge; use Accumulator). Two ints
/// merge exactly in int64; a sum or product outside it is an EvalError.
Value MonoidMerge(MonoidKind k, const Value& a, const Value& b);

/// The element type a comprehension over this monoid expects its *head* to
/// produce, given nothing; used by the type checker: sum/prod/max/min/avg
/// require numeric heads, some/all require bool heads, collections accept
/// any head type. Returns nullptr for collection monoids (no constraint).
TypePtr MonoidHeadConstraint(MonoidKind k);

/// The result type of a comprehension over this monoid whose head has type
/// `head`. set(head) for kSet, bool for kAll, real for kAvg, etc.
TypePtr MonoidResultType(MonoidKind k, const TypePtr& head);

/// Exact, order-independent accumulation of doubles. The running sum is held
/// as a wide fixed-point integer (a superaccumulator spanning the full double
/// exponent range), so adding a value is exact and the single rounding step
/// happens in Round(). Consequently the result is independent of the order
/// (and grouping) in which values were added — which is what lets the
/// parallel executor merge per-morsel partial sums and still produce results
/// bit-identical to the serial fold.
class ExactSum {
 public:
  /// Adds a double exactly. Non-finite inputs degrade to IEEE semantics.
  void Add(double v);
  /// Adds an integer exactly (no 2^53 mantissa truncation).
  void AddInt(__int128 v);
  /// Folds another partial sum in; exact, so order does not matter.
  void Absorb(const ExactSum& other);
  /// The correctly-rounded double value of the exact sum.
  double Round() const;

 private:
  void Normalize();

  // 32-bit digits in signed 64-bit limbs. Limb i carries weight 2^(32*i+kBias)
  // with kBias placing the smallest subnormal bit in limb 0. Signed limbs
  // absorb ~2^31 additions before a carry pass is needed.
  static constexpr int kLimbs = 67;
  static constexpr int kBias = -1080;  // limb 0 covers bits 2^-1080..2^-1049
  int64_t limbs_[kLimbs] = {};
  int32_t pending_ = 0;   // adds since the last carry normalization
  double nonfinite_ = 0;  // inf/nan inputs fold here with IEEE rules
  bool has_nonfinite_ = false;
};

/// Incremental accumulation of head values into a monoid, used by both
/// evaluators (baseline D-rules interpreter and the algebra executor).
///
/// Accumulates e1 ⊕ e2 ⊕ ... ⊕ en; Finish() returns the zero element if
/// nothing was added. Handles kAvg via a (sum, count) pair. Real-valued
/// sums and averages accumulate through ExactSum, so the result does not
/// depend on accumulation order (see ExactSum); this makes Absorb an exact
/// commutative merge for every monoid except kList and kFirst
/// (order-sensitive by definition — callers must absorb partials in stream
/// order) and kProd (floating-point products are merged left-to-right, so
/// partials must also arrive in stream order for bit-reproducibility).
class Accumulator {
 public:
  explicit Accumulator(MonoidKind kind);

  /// Accumulates unit(v). NULL values are identities: they are skipped (this
  /// is the "nest converts nulls into zeros" behaviour from Section 3).
  void Add(const Value& v);

  /// Merges an already-reduced value of this monoid (e.g. a subgroup result).
  void Merge(const Value& v);

  /// Folds another accumulator's partial state into this one, including
  /// kAvg (which has no mergeable Value form). Used by the parallel executor
  /// to combine per-morsel partials; bit-identical to having Add-ed the
  /// other's inputs here directly (for kList/kFirst/kProd: when absorbed in
  /// stream order).
  void Absorb(const Accumulator& other);

  /// True if the result can no longer change (false seen under kAll, true
  /// under kSome); lets evaluators short-circuit quantifiers.
  bool Saturated() const;

  /// The reduced value. May be called once.
  Value Finish();

  MonoidKind kind() const { return kind_; }

 private:
  MonoidKind kind_;
  Elems elems_;         // collection monoids
  bool has_value_ = false;
  Value current_;       // kProd/kMax/kMin/kSome/kAll
  ExactSum sum_;        // kSum (real part) and kAvg
  // kSum over ints: exact, range-checked against int64 only in Finish, so
  // the order partials are absorbed in cannot change the outcome.
  __int128 int_sum_ = 0;
  bool sum_has_real_ = false;
  int64_t avg_count_ = 0;  // kAvg
};

}  // namespace ldb

#endif  // LAMBDADB_CORE_MONOID_H_
