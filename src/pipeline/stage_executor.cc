#include "pipeline/stage_executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <iterator>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "cache/pair_digest.h"
#include "match/columnar_matcher.h"
#include "obs/run_telemetry.h"
#include "pipeline/sharded_stream.h"

namespace pdd {

namespace {

using Clock = std::chrono::steady_clock;

inline double Elapsed(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Lazily memoized TupleContentDigest. 0 doubles as the "unset"
/// sentinel: a genuine zero digest just recomputes (correct, merely
/// unmemoized).
inline uint64_t MemoizedDigest(const XRelation& rel, size_t index,
                               std::atomic<uint64_t>* slot) {
  uint64_t digest = slot->load(std::memory_order_relaxed);
  if (digest == 0) {
    digest = TupleContentDigest(rel.xtuple(index));
    slot->store(digest, std::memory_order_relaxed);
  }
  return digest;
}

inline uint64_t MicrosFromSeconds(double seconds) {
  if (!(seconds > 0.0)) return 0;
  return static_cast<uint64_t>(std::llround(seconds * 1e6));
}

/// Per-drain-thread span accounting. Each thread owns one slot, so the
/// hot loop mutates it lock-free; the slots fold into the telemetry's
/// generate span, worker.N spans and decide-latency histogram after
/// the pool joins. Batch/candidate counts per worker vary with thread
/// timing — they live on spans, which the identity gates never diff.
struct WorkerStats {
  size_t batches = 0;
  size_t candidates = 0;
  /// Time inside the stream's NextBatch pulls (candidate generation).
  double pull_seconds = 0.0;
  /// Time inside DecideBatch.
  double decide_seconds = 0.0;
  /// Per-batch decide latency in microseconds.
  LogHistogram decide_micros;
  /// Stage wall times and cache activity of this thread's batches,
  /// summed into the result after the join.
  StageTimings timings;
  CacheRunStats cache;
};

/// One shard's drain state; an unsharded stream is one shard. Pulls
/// serialize on `pull_mu`, so batch k's content depends on pull order
/// alone, never on which worker claims it. Decided batches commit in
/// pull order: a batch that finishes early waits in `decided` until
/// every earlier batch has committed, and each batch's records are
/// freed as they commit (into the result, or for a multi-shard drain
/// into `run`, whose chunks are freed as the merge consumes them).
struct ShardDrain {
  std::mutex pull_mu;
  bool exhausted = false;
  size_t batches = 0;
  size_t candidate_count = 0;
  size_t high_water = 0;
  /// Candidates of the batches workers pulled and have not yet come
  /// back from (deciding or committing them).
  size_t in_flight = 0;
  std::mutex commit_mu;
  /// Guarded by commit_mu: a thread is committing this shard, the pull
  /// index of the next batch to commit, and the batches waiting.
  bool committing = false;
  size_t committed = 0;
  std::map<size_t, std::vector<PairDecisionRecord>> decided;
  /// Owned by the committing thread.
  std::deque<std::vector<PairDecisionRecord>> run;
};

/// Builds the run's unified telemetry — registry from the result's stat
/// fields, generate/drain/worker spans from the per-thread slots — then
/// reassigns the legacy stat structs from the registry views, so every
/// struct a caller reads is provably a projection of the one registry.
void FinalizeTelemetry(const StageExecutorOptions& options,
                       std::vector<WorkerStats> workers,
                       DetectionResult* result) {
  auto telemetry =
      std::make_shared<RunTelemetry>(TelemetryFromResult(*result));
  MetricsRegistry& m = telemetry->metrics;
  m.SetCounter("exec.config.workers", options.workers);
  m.SetCounter("exec.config.batch_size", options.batch_size);

  TelemetrySpan generate("generate");
  LogHistogram decide_micros;
  double pull_total = 0.0;
  double decide_total = 0.0;
  uint64_t pulled_batches = 0;
  uint64_t pulled_candidates = 0;
  for (const WorkerStats& w : workers) {
    pull_total += w.pull_seconds;
    decide_total += w.decide_seconds;
    pulled_batches += w.batches;
    pulled_candidates += w.candidates;
    decide_micros.Merge(w.decide_micros);
  }
  generate.seconds = pull_total;
  generate.counts["batches"] = pulled_batches;
  generate.counts["candidates"] = pulled_candidates;
  // Generate precedes drain in the span tree (insert before grabbing
  // the drain pointer — insertion shifts the children).
  telemetry->root.children.insert(telemetry->root.children.begin(),
                                  std::move(generate));
  TelemetrySpan* drain = telemetry->root.FindChild("drain");
  drain->seconds = decide_total;
  for (size_t i = 0; i < workers.size(); ++i) {
    TelemetrySpan* span = drain->AddChild("worker." + std::to_string(i));
    span->seconds = workers[i].decide_seconds;
    span->counts["batches"] = workers[i].batches;
    span->counts["candidates"] = workers[i].candidates;
  }
  telemetry->root.seconds = pull_total + decide_total;
  if (options.stage_timings) {
    m.MutableHistogram(kMetricBatchDecideMicros)->Merge(decide_micros);
  }

  result->stage_timings = StageTimingsView(*telemetry);
  result->cache_stats = CacheRunStatsView(*telemetry);
  result->stream_stats = StreamRunStatsView(*telemetry);
  result->telemetry = std::move(telemetry);
}

}  // namespace

StageExecutor::StageExecutor(std::shared_ptr<const DetectionPlan> plan,
                             StageExecutorOptions options)
    : plan_(std::move(plan)), options_(std::move(options)) {}

std::vector<PairDecisionRecord> StageExecutor::DecideBatch(
    const XRelation& rel, const std::vector<CandidatePair>& batch,
    TupleDigestMemo* digest_memo, ColumnarMatcher* matcher,
    StageTimings* timings, CacheRunStats* cache_stats) const {
  std::vector<PairDecisionRecord> out;
  out.reserve(batch.size());
  // A cache-ineligible plan (custom comparators: decision fingerprint
  // 0) runs uncached rather than risking cross-instance collisions.
  const bool use_cache =
      options_.cache != nullptr && plan_->decision_fingerprint() != 0;
  DecisionCache* cache = options_.cache.get();
  PairDecisionKey key;
  key.plan_fingerprint = plan_->decision_fingerprint();
  for (const CandidatePair& pair : batch) {
    const XTuple& t1 = rel.xtuple(pair.first);
    const XTuple& t2 = rel.xtuple(pair.second);
    // Digests + lookup bill to cache_lookup_seconds; an untimed warm
    // run's per-pair cost stays digest + lookup, nothing else.
    StageLapTimer lookup_timer(use_cache ? timings : nullptr);
    // Columnar runs read the arena's precomputed tuple digests; scalar
    // runs take the lazy memo.
    const uint64_t d1 =
        matcher != nullptr
            ? matcher->arena().tuple_digest(pair.first)
            : MemoizedDigest(rel, pair.first, &(*digest_memo)[pair.first]);
    const uint64_t d2 =
        matcher != nullptr
            ? matcher->arena().tuple_digest(pair.second)
            : MemoizedDigest(rel, pair.second, &(*digest_memo)[pair.second]);
    if (use_cache) {
      key.pair_digest = CombineTupleDigests(d1, d2);
      std::optional<CachedPairDecision> cached = cache->Lookup(key);
      lookup_timer.Lap(&StageTimings::cache_lookup_seconds);
      ++cache_stats->lookups;
      if (cached.has_value()) {
        ++cache_stats->hits;
        out.push_back({t1.id(), t2.id(), pair.first, pair.second,
                       cached->similarity, cached->match_class});
        continue;
      }
      ++cache_stats->misses;
    }
    // Canonical decide orientation. The cache key is an UNORDERED pair
    // digest, but floating-point similarity is not bit-symmetric in
    // its operands (summation order differs), so the value stored
    // under that key must not depend on presentation order: every path
    // — cached or not, scalar or columnar, batch order or standing
    // arrival order — decides (smaller digest, larger digest).
    // Equal digests mean content-identical tuples, where orientation
    // cannot matter. The record keeps the presentation ids/indices.
    const bool flip = d2 < d1;
    const XPairDecision decision =
        matcher != nullptr
            ? matcher->Decide(flip ? pair.second : pair.first,
                              flip ? pair.first : pair.second, timings)
            : plan_->DecidePair(flip ? t2 : t1, flip ? t1 : t2, timings);
    if (use_cache) {
      cache->Insert(key, {decision.similarity, decision.match_class});
      ++cache_stats->inserts;
    }
    out.push_back({t1.id(), t2.id(), pair.first, pair.second,
                   decision.similarity, decision.match_class});
  }
  return out;
}

Result<DetectionResult> StageExecutor::Execute(CandidateStream& stream) const {
  if (plan_ == nullptr) {
    return Status::InvalidArgument("stage executor has no plan");
  }
  if (options_.batch_size == 0) {
    return Status::InvalidArgument("batch_size must be positive");
  }
  const XRelation& rel = stream.relation();
  // Factory-built streams were checked against their own plan; a custom
  // stream (RunStream seam) may carry any relation, so re-check here.
  if (!rel.schema().CompatibleWith(plan_->schema())) {
    return Status::InvalidArgument(
        "stream relation schema incompatible with plan schema");
  }
  DetectionResult result;
  result.plan_fingerprint = plan_->fingerprint();
  result.stage_timings_collected = options_.stage_timings;
  if (options_.cache != nullptr) result.cache_stats = CacheRunStats{};
  // Columnar kernel path: the plan resolved it at compile time and the
  // stream factory attached an arena over its relation. A custom
  // stream without an arena (or an arena for a different relation, or
  // an overflowed build) falls back to the scalar path — same results.
  const RelationArena* arena = stream.arena().get();
  const bool columnar = plan_->use_columnar_kernels() && arena != nullptr &&
                        arena->tuple_count() == rel.size();
  result.match_kernel = columnar ? "columnar" : "scalar";
  // Per-tuple digest memo for the run: filled lazily as candidates
  // touch tuples (a sparse incremental stream over a large base never
  // digests the untouched base), then reused by every later pair, so
  // the hit path never re-hashes tuple content. Scalar runs need it
  // even uncached, for the canonical decide orientation (see
  // DecideBatch) — that is what keeps uncached, cold-cached and
  // warm-cached runs bit-identical. Columnar batches take the arena's
  // precomputed digests instead, so the memo stays empty there. Sized
  // from the stream's tuple CAPACITY, not its current size: a standing
  // ingest stream's relation grows during the drain, and the memo must
  // already have a slot for every tuple that can still arrive.
  TupleDigestMemo digest_memo(columnar ? 0 : stream.tuple_capacity());

  // A ShardedCandidateStream with several shards drains shard by shard
  // (per-shard pulls, accounting and decision runs, merged at the end);
  // every other stream is the one shard, pulled through NextBatch.
  auto* sharded = dynamic_cast<ShardedCandidateStream*>(&stream);
  if (sharded != nullptr && sharded->shard_count() <= 1) sharded = nullptr;
  const size_t shard_count = sharded != nullptr ? sharded->shard_count() : 1;
  if (shard_count == 1) {
    if (std::optional<size_t> hint = stream.candidate_count_hint()) {
      result.decisions.reserve(*hint);
    }
  }
  std::vector<ShardDrain> drains(shard_count);
  // Serializes sink calls across shards: they interleave across
  // workers and shards in commit order — an execution-shape-dependent
  // order by design (see StageExecutorOptions::decision_sink).
  std::mutex sink_mu;
  const bool timed = options_.stage_timings;
  const size_t batch_size = options_.batch_size;

  // The one drain body: pull a batch of `shard`, decide it, commit every
  // batch that is now next in pull order. Any number of threads may
  // drain one shard; each brings its own matcher (thread-local scratch).
  auto drain_shard = [&](size_t shard, WorkerStats* ws) {
    ShardDrain& drain = drains[shard];
    std::optional<ColumnarMatcher> matcher;
    if (columnar) matcher.emplace(*plan_, *arena);
    std::vector<CandidatePair> batch;
    size_t deciding = 0;  // this worker's share of drain.in_flight
    while (true) {
      size_t seq;
      {
        std::lock_guard<std::mutex> lock(drain.pull_mu);
        drain.in_flight -= deciding;
        deciding = 0;
        if (drain.exhausted) return;
        Clock::time_point pull_start;
        if (timed) pull_start = Clock::now();
        const size_t pulled =
            sharded != nullptr
                ? sharded->ShardNextBatch(shard, batch_size, &batch)
                : stream.NextBatch(batch_size, &batch);
        if (timed) ws->pull_seconds += Elapsed(pull_start);
        if (pulled == 0) {
          // Exhausted vs idle-but-open: a standing stream blocks in
          // AwaitMore until tuples arrive (resume pulling) or its feed
          // closes (drain ends); finite streams — every shard source
          // among them — return false immediately. Waiting with pull_mu
          // held parks this shard's other workers on the pull mutex —
          // correct (there is nothing to pull) and free of lock cycles:
          // AwaitMore blocks on the stream's own condition, signalled
          // by producers that never take a drain mutex.
          if (!stream.AwaitMore()) {
            drain.exhausted = true;
            return;
          }
          continue;
        }
        seq = drain.batches++;
        drain.candidate_count += batch.size();
        deciding = batch.size();
        drain.in_flight += deciding;
        const size_t buffered = sharded != nullptr
                                    ? sharded->ShardBufferedCandidates(shard)
                                    : stream.buffered_candidates();
        drain.high_water =
            std::max(drain.high_water, drain.in_flight + buffered);
      }
      ++ws->batches;
      ws->candidates += batch.size();
      Clock::time_point decide_start;
      if (timed) decide_start = Clock::now();
      std::vector<PairDecisionRecord> records =
          DecideBatch(rel, batch, &digest_memo,
                      matcher.has_value() ? &*matcher : nullptr,
                      timed ? &ws->timings : nullptr, &ws->cache);
      if (timed) {
        double decide = Elapsed(decide_start);
        ws->decide_seconds += decide;
        ws->decide_micros.Record(MicrosFromSeconds(decide));
      }

      // Deposit the batch, then commit every batch that is next in pull
      // order. One thread at a time commits a shard — the one that
      // finds no commit in progress — with the lock released, so a long
      // append (the result vector reallocating) never stalls the other
      // workers: they deposit and go back to pulling.
      std::unique_lock<std::mutex> lock(drain.commit_mu);
      drain.decided.emplace(seq, std::move(records));
      if (drain.committing) continue;
      drain.committing = true;
      while (!drain.decided.empty() &&
             drain.decided.begin()->first == drain.committed) {
        std::vector<PairDecisionRecord> ready =
            std::move(drain.decided.begin()->second);
        drain.decided.erase(drain.decided.begin());
        ++drain.committed;
        lock.unlock();
        if (options_.decision_sink) {
          std::lock_guard<std::mutex> sink_lock(sink_mu);
          for (const PairDecisionRecord& rec : ready) {
            options_.decision_sink(rec);
          }
        }
        if (shard_count == 1) {
          result.decisions.insert(result.decisions.end(),
                                  std::make_move_iterator(ready.begin()),
                                  std::make_move_iterator(ready.end()));
        } else {
          drain.run.push_back(std::move(ready));
        }
        lock.lock();
      }
      drain.committing = false;
    }
  };

  // Thread t of n drains shards t % shards, then every n-th shard after
  // it, each to completion. With workers <= 1 that is the calling
  // thread draining the shards in shard order. Otherwise exactly
  // `workers` threads run — the configured bound is a resource cap and
  // holds regardless of the shard count: with workers >= shards,
  // thread t joins shard t % shards' worker set (sets differ in size by
  // at most one); with fewer workers than shards, each thread drains
  // shards t, t + workers, ... one after another.
  const size_t threads = std::max<size_t>(options_.workers, 1);
  std::vector<WorkerStats> workers(threads);
  auto drain_thread = [&](size_t t) {
    for (size_t shard = t % shard_count; shard < shard_count;
         shard += threads) {
      drain_shard(shard, &workers[t]);
    }
  };
  if (threads == 1) {
    drain_thread(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (size_t t = 0; t < threads; ++t) pool.emplace_back(drain_thread, t);
    for (std::thread& t : pool) t.join();
  }

  for (const WorkerStats& ws : workers) {
    result.stage_timings += ws.timings;
    if (result.cache_stats.has_value()) *result.cache_stats += ws.cache;
  }
  if (sharded != nullptr) result.stream_stats.per_shard.resize(shard_count);
  for (size_t shard = 0; shard < shard_count; ++shard) {
    const ShardDrain& drain = drains[shard];
    result.candidate_count += drain.candidate_count;
    result.stream_stats.batches += drain.batches;
    result.stream_stats.live_candidate_high_water += drain.high_water;
    if (sharded != nullptr) {
      result.stream_stats.per_shard[shard].batches = drain.batches;
      result.stream_stats.per_shard[shard].live_candidate_high_water =
          drain.high_water;
    }
  }
  if (shard_count > 1) {
    // K-way merge of the per-shard runs by ascending (first, second) —
    // stable tie-break by shard index — reconstructing the order the
    // unsharded drain produces. Each run chunk is freed once consumed.
    result.decisions.reserve(result.candidate_count);
    std::vector<size_t> cursor(shard_count, 0);
    while (true) {
      size_t best = shard_count;
      for (size_t shard = 0; shard < shard_count; ++shard) {
        if (drains[shard].run.empty()) continue;
        if (best == shard_count) {
          best = shard;
          continue;
        }
        const PairDecisionRecord& a = drains[shard].run.front()[cursor[shard]];
        const PairDecisionRecord& b = drains[best].run.front()[cursor[best]];
        if (a.index1 != b.index1 ? a.index1 < b.index1
                                 : a.index2 < b.index2) {
          best = shard;
        }
      }
      if (best == shard_count) break;
      std::deque<std::vector<PairDecisionRecord>>& run = drains[best].run;
      result.decisions.push_back(std::move(run.front()[cursor[best]]));
      if (++cursor[best] == run.front().size()) {
        run.pop_front();
        cursor[best] = 0;
      }
    }
  }
  // Read after the drain: a standing stream's pair universe grows as
  // tuples are admitted (finite streams report the same value).
  result.total_pairs = stream.total_pairs();
  FinalizeTelemetry(options_, std::move(workers), &result);
  return result;
}

}  // namespace pdd
