// StageExecutor: drains a CandidateStream in fixed-size batches and
// runs every candidate through the plan's stage graph (match → combine
// → derive → classify). Every run shape — serial, pooled, sharded and
// the standing live drain — goes through one drain loop over N workers
// × M shards: an unsharded stream is one shard, and workers <= 1 is
// the calling thread draining the shards inline, in shard order.
// Within a shard, pulls serialize on the shard's mutex, so batch k's
// content depends on pull order alone, and decided batches commit in
// pull order whichever worker finished them. A single shard commits
// straight into DetectionResult::decisions; M > 1 shards commit into
// per-shard runs that are k-way merged after the drain. Either way a
// batch's records are freed as they commit (or merge), so decisions
// are held once, and the result is byte-identical to the serial drain
// for any worker and shard count — parallelism is purely a throughput
// knob. The drain is streaming: live candidates are bounded by the
// in-flight batches plus whatever the stream itself buffers (nothing
// for native-streaming reductions), and the drain accounting lands in
// DetectionResult::stream_stats.
//
// With a DecisionCache attached, each pair is first looked up by
// (plan decision fingerprint, pair content digest); hits skip the
// stage graph entirely and misses insert the freshly decided outcome,
// so repeated, incremental and swept runs only pay for pairs no
// equivalent plan has decided before. Cached values are the bit
// patterns the stages produced, so cached ≡ uncached ≡ serial ≡
// parallel output. Per-stage wall times (plus the cache-lookup path)
// are accumulated into DetectionResult::stage_timings when
// stage_timings is enabled; the stage walks read no clock otherwise.

#ifndef PDD_PIPELINE_STAGE_EXECUTOR_H_
#define PDD_PIPELINE_STAGE_EXECUTOR_H_

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "cache/decision_cache.h"
#include "pipeline/candidate_stream.h"
#include "pipeline/detection_plan.h"
#include "pipeline/detection_result.h"
#include "util/status.h"

namespace pdd {

struct StageExecutorOptions {
  /// Candidates per batch handed to the stage pipeline.
  size_t batch_size = 256;
  /// Worker threads; 0 or 1 executes serially on the calling thread.
  size_t workers = 0;
  /// Accumulate per-stage wall times into the result. Off by default:
  /// the clock reads cost real time in the innermost decide loop
  /// (perfbench measured 2–46% of detect time, the most on cheap
  /// columnar comparators). Enabled by consumers that render the
  /// breakdown (`pddcli --cache-stats`, bench_fig03's stage table,
  /// ExecutionStatsReport users).
  bool stage_timings = false;
  /// Decision memoization store shared across runs/plans/threads;
  /// null runs uncached. Ignored (with stats reporting zero lookups)
  /// when the plan is cache-ineligible (decision_fingerprint() == 0).
  std::shared_ptr<DecisionCache> cache;
  /// Called once per committed decision record, as batches commit.
  /// The executor serializes calls (one sink invocation at a time).
  /// Within a shard, records arrive in pull order, so an unsharded
  /// drain (serial or pooled) emits them in result order; across the
  /// shards of a sharded drain the EMISSION ORDER depends on worker
  /// timing, and only the merged DetectionResult carries the
  /// deterministic order. A standing consumer (pddserve) streams
  /// decisions out of the drain through this; batch callers leave it
  /// null for zero overhead.
  std::function<void(const PairDecisionRecord&)> decision_sink;
};

class ColumnarMatcher;

class StageExecutor {
 public:
  /// The plan is shared (and must be non-null); options are validated
  /// lazily by Execute.
  StageExecutor(std::shared_ptr<const DetectionPlan> plan,
                StageExecutorOptions options = {});

  /// Drains `stream` and returns the detection result. The stream is
  /// left exhausted (callers reuse one via CandidateStream::Reset).
  /// A 0-candidate pull does not end the drain by itself: the stream's
  /// AwaitMore() decides between *exhausted* (finite batch sources) and
  /// *idle but open* (a standing ingest source blocks there until more
  /// tuples arrive or the feed closes), so the same decide path serves
  /// batch runs and the standing loop.
  /// A ShardedCandidateStream with more than one shard drains shard by
  /// shard through ShardNextBatch: exactly `workers` threads split into
  /// per-shard worker sets (a thread covers several shards
  /// sequentially when workers < shards) pulling under per-shard
  /// mutexes, the one attached DecisionCache handle shared by every
  /// shard worker, per-shard accounting in
  /// DetectionResult::stream_stats.per_shard, and the per-shard
  /// decision runs merged deterministically (ascending
  /// (first, second), stable shard tie-break) — byte-identical to the
  /// unsharded drain of the same plan and scenario. Shard sources are
  /// finite, so their 0-pull stays terminal through the default
  /// AwaitMore().
  Result<DetectionResult> Execute(CandidateStream& stream) const;

  const StageExecutorOptions& options() const { return options_; }

 private:
  /// Lazily memoized per-tuple content digests for one run, sized to
  /// the stream's relation. 0 = not yet computed; entries fill in as
  /// candidate pairs touch their tuples, so sparse runs (incremental
  /// streams over large bases) only digest what they examine. Benign
  /// write races: the digest is a pure function of content, every
  /// writer stores the same value.
  using TupleDigestMemo = std::vector<std::atomic<uint64_t>>;

  /// Runs the stage graph over one batch and returns its decision
  /// records in batch order. `digest_memo` serves the scalar path's
  /// tuple digests; `matcher`, when non-null, is this worker's columnar
  /// matcher: pairs decide through the batched kernels and digests come
  /// from the arena instead. Non-null `timings` accumulates stage wall
  /// times; `cache_stats` counts the cache activity.
  std::vector<PairDecisionRecord> DecideBatch(
      const XRelation& rel, const std::vector<CandidatePair>& batch,
      TupleDigestMemo* digest_memo, ColumnarMatcher* matcher,
      StageTimings* timings, CacheRunStats* cache_stats) const;

  std::shared_ptr<const DetectionPlan> plan_;
  StageExecutorOptions options_;
};

}  // namespace pdd

#endif  // PDD_PIPELINE_STAGE_EXECUTOR_H_
