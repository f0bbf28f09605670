// ColumnarMatcher: decides candidate pairs over a RelationArena using
// the plan's columnar kernels — the batched replacement for the
// per-pair TupleMatcher virtual-call path in the match hot loop.
//
// One matcher instance is per-worker mutable scratch (its SimScratch,
// score grid and comparison-vector buffers are reused across pairs and
// never reallocate after warmup); the plan and arena it reads are
// shared and immutable. The executor constructs one matcher per worker
// thread / per shard worker.
//
// Bit-identity contract: Decide(i, j) returns exactly what
// plan.DecidePair(rel.xtuple(i), rel.xtuple(j)) returns, bit for bit.
// That holds because
//   * the arena stores the expanded alternatives in the order
//     Value::Expanded produces (the same expansion MatchAttribute does
//     per pair),
//   * the per-value loop replicates ExpectedSimilarity's accumulation
//     order (outer a-alternatives, inner b-alternatives, then the
//     ⊥·⊥ term),
//   * each kernel is bit-identical to its registry comparator, and
//   * the weighted-sum fast path replicates
//     WeightedSumCombination::Combine's flat loop (same order, same
//     arithmetic); other φ implementations go through the same
//     Combine virtual call the scalar path uses.
//
// Decide walks the plan's stage graph like DetectionPlan::DecidePair,
// but the columnar match stage computes φ inline while the comparison
// values are hot (fusing match + combine), so with timings on the
// fused cost is billed to match_seconds and combine_seconds stays 0 on
// the columnar path.

#ifndef PDD_MATCH_COLUMNAR_MATCHER_H_
#define PDD_MATCH_COLUMNAR_MATCHER_H_

#include <vector>

#include "columnar/relation_arena.h"
#include "derive/xtuple_decision_model.h"
#include "pipeline/detection_plan.h"
#include "pipeline/detection_result.h"
#include "sim/columnar_kernels.h"
#include "sim/sim_scratch.h"

namespace pdd {

class ColumnarMatcher {
 public:
  /// `plan` must have use_columnar_kernels(); both referents must
  /// outlive the matcher.
  ColumnarMatcher(const DetectionPlan& plan, const RelationArena& arena);

  /// Decides the pair of arena tuples (t1, t2); bit-identical to
  /// plan.DecidePair on the corresponding x-tuples. Non-null `timings`
  /// accumulates per-stage wall times (match_seconds carries the fused
  /// match+combine cost); null reads no clock.
  XPairDecision Decide(size_t t1, size_t t2, StageTimings* timings = nullptr);

  /// The arena this matcher decides over (precomputed tuple digests
  /// for the executor's cache path live here).
  const RelationArena& arena() const { return arena_; }

 private:
  /// Fused match+combine: fills scores_ for the pair.
  void FillScores(size_t t1, size_t t2);

  /// ExpectedSimilarity of two arena values under `kernel` (Eq. 5),
  /// replicated term for term.
  double MatchValue(ColumnarKernelFn kernel, size_t v1, size_t v2);

  const DetectionPlan& plan_;
  const RelationArena& arena_;
  /// Non-null iff φ is a weighted sum (the fast fused-combine path).
  const std::vector<double>* weights_ = nullptr;
  SimScratch scratch_;
  AlternativePairScores scores_;
  std::vector<double> c_;  // comparison-vector buffer, arity entries
};

}  // namespace pdd

#endif  // PDD_MATCH_COLUMNAR_MATCHER_H_
