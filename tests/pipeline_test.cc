// Tests for the staged pipeline layer: DetectionPlan compilation,
// CandidateStream scenarios and the serial/parallel StageExecutor.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <tuple>

#include "core/detector.h"
#include "core/paper_examples.h"
#include "datagen/person_generator.h"
#include "pipeline/candidate_stream.h"
#include "pipeline/detection_plan.h"
#include "pipeline/detection_result.h"
#include "pipeline/sharded_stream.h"
#include "pipeline/stage_executor.h"

namespace pdd {
namespace {

DetectorConfig PersonConfig() {
  DetectorConfig config;
  config.key = {{"name", 3}, {"job", 2}};
  config.weights = {0.5, 0.3, 0.2};
  config.final_thresholds = {0.4, 0.7};
  // CMake registers a second ctest pass of this binary with
  // PDD_BATCH_SIZE=2 so every Run() path crosses batch boundaries
  // constantly (streaming refill edges, incremental filter re-pulls),
  // a third with PDD_SHARDS=3 so every Run() drains through the
  // sharded stream's per-shard sources and deterministic merge, and a
  // fourth with PDD_WORKERS=4 so every Run() decides on a thread pool
  // (the TSan CI job leans on this one: the pooled drain is the main
  // data-race surface).
  if (const char* batch = std::getenv("PDD_BATCH_SIZE")) {
    long parsed = std::strtol(batch, nullptr, 10);
    if (parsed > 0) config.batch_size = static_cast<size_t>(parsed);
  }
  if (const char* shards = std::getenv("PDD_SHARDS")) {
    long parsed = std::strtol(shards, nullptr, 10);
    if (parsed > 0) config.shard_count = static_cast<size_t>(parsed);
  }
  if (const char* workers = std::getenv("PDD_WORKERS")) {
    long parsed = std::strtol(workers, nullptr, 10);
    if (parsed > 0) config.workers = static_cast<size_t>(parsed);
  }
  return config;
}

GeneratedData SeededPersons(size_t entities = 60) {
  PersonGenOptions options;
  options.num_entities = entities;
  options.duplicate_rate = 0.8;
  options.seed = 20100301;  // fixed: results must be reproducible
  return GeneratePersons(options);
}

void ExpectIdenticalResults(const DetectionResult& a,
                            const DetectionResult& b) {
  EXPECT_EQ(a.candidate_count, b.candidate_count);
  EXPECT_EQ(a.total_pairs, b.total_pairs);
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  for (size_t i = 0; i < a.decisions.size(); ++i) {
    const PairDecisionRecord& ra = a.decisions[i];
    const PairDecisionRecord& rb = b.decisions[i];
    EXPECT_EQ(ra.id1, rb.id1) << "record " << i;
    EXPECT_EQ(ra.id2, rb.id2) << "record " << i;
    EXPECT_EQ(ra.index1, rb.index1) << "record " << i;
    EXPECT_EQ(ra.index2, rb.index2) << "record " << i;
    // Bit-identical, not approximately equal: the parallel executor must
    // evaluate exactly the same arithmetic per pair.
    EXPECT_EQ(ra.similarity, rb.similarity) << "record " << i;
    EXPECT_EQ(ra.match_class, rb.match_class) << "record " << i;
  }
}

TEST(DetectionPlanTest, CompileResolvesStagesAndComponents) {
  Result<std::shared_ptr<const DetectionPlan>> plan =
      DetectionPlan::Compile(PersonConfig(), PersonSchema());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ((*plan)->stages().size(), 4u);
  EXPECT_EQ((*plan)->stages()[0], PipelineStage::kMatch);
  EXPECT_EQ((*plan)->stages()[3], PipelineStage::kClassify);
  EXPECT_STREQ(PipelineStageName(PipelineStage::kCombine), "combine");
}

TEST(DetectionPlanTest, StagedDecisionMatchesModel) {
  Result<std::shared_ptr<const DetectionPlan>> plan =
      DetectionPlan::Compile(PersonConfig(), PersonSchema());
  ASSERT_TRUE(plan.ok());
  GeneratedData data = SeededPersons(10);
  for (size_t i = 1; i < data.relation.size(); ++i) {
    const XTuple& t1 = data.relation.xtuple(0);
    const XTuple& t2 = data.relation.xtuple(i);
    XPairDecision staged = (*plan)->DecidePair(t1, t2);
    EXPECT_EQ(staged.similarity, (*plan)->model().Similarity(t1, t2));
    EXPECT_EQ(staged.match_class,
              (*plan)->model().Decide(t1, t2).match_class);
  }
}

TEST(StageExecutorTest, ParallelIsIdenticalToSerial) {
  GeneratedData data = SeededPersons();
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(PersonConfig(), PersonSchema());
  ASSERT_TRUE(detector.ok()) << detector.status().ToString();
  Result<DetectionResult> serial = detector->Run(data.relation);
  ASSERT_TRUE(serial.ok());
  EXPECT_GT(serial->decisions.size(), 0u);
  for (size_t workers : {1u, 2u, 4u}) {
    for (size_t batch_size : {1u, 7u, 256u}) {
      Result<std::unique_ptr<CandidateStream>> stream =
          MakeFullStream(detector->plan(), data.relation);
      ASSERT_TRUE(stream.ok());
      StageExecutorOptions options;
      options.workers = workers;
      options.batch_size = batch_size;
      StageExecutor executor(detector->shared_plan(), options);
      Result<DetectionResult> parallel = executor.Execute(**stream);
      ASSERT_TRUE(parallel.ok())
          << "workers=" << workers << " batch=" << batch_size;
      ExpectIdenticalResults(*serial, *parallel);
    }
  }
}

TEST(StageExecutorTest, WorkersConfiguredOnDetectorMatchSerial) {
  GeneratedData data = SeededPersons();
  DetectorConfig serial_config = PersonConfig();
  DetectorConfig parallel_config = PersonConfig();
  parallel_config.workers = 4;
  parallel_config.batch_size = 32;
  Result<DuplicateDetector> serial =
      DuplicateDetector::Make(serial_config, PersonSchema());
  Result<DuplicateDetector> parallel =
      DuplicateDetector::Make(parallel_config, PersonSchema());
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  Result<DetectionResult> a = serial->Run(data.relation);
  Result<DetectionResult> b = parallel->Run(data.relation);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectIdenticalResults(*a, *b);
}

TEST(StageExecutorTest, RejectsZeroBatchSize) {
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(PersonConfig(), PersonSchema());
  ASSERT_TRUE(detector.ok());
  GeneratedData data = SeededPersons(5);
  Result<std::unique_ptr<CandidateStream>> stream =
      MakeFullStream(detector->plan(), data.relation);
  ASSERT_TRUE(stream.ok());
  StageExecutorOptions zero_batch;
  zero_batch.batch_size = 0;
  StageExecutor executor(detector->shared_plan(), zero_batch);
  EXPECT_FALSE(executor.Execute(**stream).ok());
}

TEST(CandidateStreamTest, BatchOrderIsIndependentOfBatchSize) {
  GeneratedData data = SeededPersons(20);
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(PersonConfig(), PersonSchema());
  ASSERT_TRUE(detector.ok());
  Result<std::unique_ptr<CandidateStream>> stream =
      MakeFullStream(detector->plan(), data.relation);
  ASSERT_TRUE(stream.ok());
  std::vector<CandidatePair> all;
  std::vector<CandidatePair> batch;
  while ((*stream)->NextBatch(17, &batch) > 0) {
    all.insert(all.end(), batch.begin(), batch.end());
  }
  EXPECT_GT(all.size(), 0u);
  (*stream)->Reset();
  std::vector<CandidatePair> again;
  while ((*stream)->NextBatch(97, &batch) > 0) {
    again.insert(again.end(), batch.begin(), batch.end());
  }
  EXPECT_EQ(all, again);
}

// Regression: GeneratorCandidateStream::Reset() must re-open the
// underlying PairBatchSource — a drained pull-based stream would
// otherwise stay empty, breaking cache-warm re-runs and pddcli-style
// double drains.
TEST(CandidateStreamTest, ResetReopensThePullSource) {
  GeneratedData data = SeededPersons(25);
  DetectorConfig config = PersonConfig();
  config.reduction = ReductionMethod::kSnmCertainKeys;  // native streaming
  config.window = 4;
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(config, PersonSchema());
  ASSERT_TRUE(detector.ok());
  Result<std::unique_ptr<CandidateStream>> stream =
      MakeFullStream(detector->plan(), data.relation);
  ASSERT_TRUE(stream.ok());
  StageExecutorOptions batch32;
  batch32.batch_size = 32;
  StageExecutor executor(detector->shared_plan(), batch32);
  Result<DetectionResult> first = executor.Execute(**stream);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first->decisions.size(), 0u);
  // Drained: without Reset the stream serves nothing.
  std::vector<CandidatePair> batch;
  EXPECT_EQ((*stream)->NextBatch(8, &batch), 0u);
  (*stream)->Reset();
  Result<DetectionResult> second = executor.Execute(**stream);
  ASSERT_TRUE(second.ok());
  ExpectIdenticalResults(*first, *second);
}

TEST(CandidateStreamTest, IncrementalExaminesExactlyCrossingPairs) {
  GeneratedData existing = SeededPersons(30);
  // Additions with distinct ids (different seed and name prefix via a
  // fresh generation run; ids are remapped below to guarantee
  // uniqueness).
  PersonGenOptions options;
  options.num_entities = 10;
  options.seed = 77;
  GeneratedData additions_data = GeneratePersons(options);
  XRelation additions("additions", additions_data.relation.schema());
  size_t n = 0;
  for (const XTuple& t : additions_data.relation.xtuples()) {
    XTuple renamed("new" + std::to_string(n++), t.alternatives());
    ASSERT_TRUE(additions.Append(std::move(renamed)).ok());
  }
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(PersonConfig(), PersonSchema());
  ASSERT_TRUE(detector.ok());
  const size_t base_count = existing.relation.size();
  const size_t new_count = additions.size();

  Result<std::unique_ptr<CandidateStream>> stream =
      MakeIncrementalStream(detector->plan(), existing.relation, additions);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  EXPECT_EQ((*stream)->total_pairs(),
            base_count * new_count + new_count * (new_count - 1) / 2);

  // Every streamed candidate crosses into the additions...
  std::vector<CandidatePair> streamed;
  std::vector<CandidatePair> batch;
  while ((*stream)->NextBatch(64, &batch) > 0) {
    streamed.insert(streamed.end(), batch.begin(), batch.end());
  }
  for (const CandidatePair& pair : streamed) {
    EXPECT_GE(pair.second, base_count)
        << "intra-existing pair (" << pair.first << "," << pair.second
        << ") leaked into the incremental stream";
  }
  // ...and the stream is exactly the crossing subset of the full-run
  // candidates over the union.
  Result<XRelation> merged =
      XRelation::Union(existing.relation, additions, "merged");
  ASSERT_TRUE(merged.ok());
  Result<std::unique_ptr<CandidateStream>> full =
      MakeFullStream(detector->plan(), *merged);
  ASSERT_TRUE(full.ok());
  std::vector<CandidatePair> expected;
  while ((*full)->NextBatch(64, &batch) > 0) {
    for (const CandidatePair& pair : batch) {
      if (pair.second >= base_count) expected.push_back(pair);
    }
  }
  EXPECT_EQ(streamed, expected);

  // RunIncremental routes through the same stream: decisions agree.
  Result<DetectionResult> result =
      detector->RunIncremental(existing.relation, additions);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->decisions.size(), streamed.size());
  for (size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(result->decisions[i].index1, streamed[i].first);
    EXPECT_EQ(result->decisions[i].index2, streamed[i].second);
  }
}

TEST(DetectionResultTest, ClassFiltersShareOneHelper) {
  DetectionResult result;
  result.decisions = {
      {"a", "b", 0, 1, 0.9, MatchClass::kMatch},
      {"a", "c", 0, 2, 0.5, MatchClass::kPossible},
      {"b", "c", 1, 2, 0.1, MatchClass::kUnmatch},
      {"a", "d", 0, 3, 0.8, MatchClass::kMatch},
  };
  EXPECT_EQ(result.CountClass(MatchClass::kMatch), 2u);
  EXPECT_EQ(result.Matches(),
            (std::vector<IdPair>{MakeIdPair("a", "b"), MakeIdPair("a", "d")}));
  EXPECT_EQ(result.PossibleMatches(),
            (std::vector<IdPair>{MakeIdPair("a", "c")}));
  EXPECT_EQ(result.Unmatches(),
            (std::vector<IdPair>{MakeIdPair("b", "c")}));
  EXPECT_EQ(result.RecordsOfClass(MatchClass::kPossible).size(), 1u);
}

TEST(RunOnSourcesTest, RoutesThroughUnionStream) {
  PersonGenOptions options;
  options.num_entities = 25;
  options.seed = 4242;
  GeneratedSources sources = GeneratePersonSources(options);
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(PersonConfig(), PersonSchema());
  ASSERT_TRUE(detector.ok());
  Result<DetectionResult> via_detector =
      detector->RunOnSources(sources.source1, sources.source2);
  ASSERT_TRUE(via_detector.ok());
  Result<std::unique_ptr<CandidateStream>> stream =
      MakeUnionStream(detector->plan(), sources.source1, sources.source2);
  ASSERT_TRUE(stream.ok());
  Result<DetectionResult> via_stream = detector->RunStream(**stream);
  ASSERT_TRUE(via_stream.ok());
  ExpectIdenticalResults(*via_detector, *via_stream);
}

// One executor drain over a fresh full stream of `rel`: `shards` > 1
// takes the sharded stream, so the drain pulls shard by shard.
Result<DetectionResult> DrainFull(
    const std::shared_ptr<const DetectionPlan>& plan, const XRelation& rel,
    size_t shards, StageExecutorOptions options) {
  ShardOptions shard_options;
  shard_options.count = shards;
  Result<std::unique_ptr<CandidateStream>> stream =
      shards > 1 ? MakeShardedFullStream(*plan, rel, shard_options)
                 : MakeFullStream(*plan, rel);
  if (!stream.ok()) return stream.status();
  return StageExecutor(plan, std::move(options)).Execute(**stream);
}

TEST(StageExecutorTest, TimedRunsDecideLikeUntimedRuns) {
  GeneratedData data = SeededPersons(40);
  DetectorConfig columnar_config = PersonConfig();
  // soundex has no columnar kernel, so this plan decides on the
  // scalar path (DetectionPlan::DecidePair).
  DetectorConfig scalar_config = PersonConfig();
  scalar_config.comparators = {"soundex", "hamming", "hamming"};
  const std::vector<std::pair<DetectorConfig, std::string>> paths = {
      {columnar_config, "columnar"}, {scalar_config, "scalar"}};
  for (const auto& [config, kernel] : paths) {
    Result<std::shared_ptr<const DetectionPlan>> plan =
        DetectionPlan::Compile(config, PersonSchema());
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    for (size_t workers : {0u, 3u}) {
      for (size_t shards : {1u, 3u}) {
        StageExecutorOptions options;
        options.batch_size = config.batch_size;
        options.workers = workers;
        Result<DetectionResult> untimed =
            DrainFull(*plan, data.relation, shards, options);
        options.stage_timings = true;
        Result<DetectionResult> timed =
            DrainFull(*plan, data.relation, shards, options);
        ASSERT_TRUE(untimed.ok() && timed.ok());
        SCOPED_TRACE(kernel + " workers=" +
                     std::to_string(workers) +
                     " shards=" + std::to_string(shards));
        EXPECT_EQ(timed->match_kernel, kernel);
        EXPECT_GT(timed->decisions.size(), 0u);
        EXPECT_EQ(timed->ContentDigest(), untimed->ContentDigest());
        EXPECT_GT(timed->stage_timings.match_seconds, 0.0);
        EXPECT_EQ(untimed->stage_timings.TotalSeconds(), 0.0);
      }
    }
  }
}

TEST(StageExecutorTest, DecisionSinkSeesEveryBatchDecisionOnce) {
  GeneratedData data = SeededPersons(40);
  Result<std::shared_ptr<const DetectionPlan>> plan =
      DetectionPlan::Compile(PersonConfig(), PersonSchema());
  ASSERT_TRUE(plan.ok());
  using Key = std::tuple<size_t, size_t, std::string, std::string, double,
                         MatchClass>;
  auto key = [](const PairDecisionRecord& r) {
    return Key(r.index1, r.index2, r.id1, r.id2, r.similarity,
               r.match_class);
  };
  // serial, pooled, sharded with workers < shards, sharded with
  // workers > shards. Across shards the sink order depends on timing,
  // so the records are compared as multisets.
  const std::vector<std::pair<size_t, size_t>> shapes = {
      {0, 1}, {4, 1}, {2, 3}, {5, 3}};
  for (const auto& [workers, shards] : shapes) {
    SCOPED_TRACE("workers=" + std::to_string(workers) +
                 " shards=" + std::to_string(shards));
    // The executor serializes sink calls, so the sink takes no lock of
    // its own (a race here is the executor's, and TSan reports it).
    std::vector<Key> seen;
    StageExecutorOptions options;
    options.batch_size = 16;
    options.workers = workers;
    options.decision_sink = [&seen, &key](const PairDecisionRecord& r) {
      seen.push_back(key(r));
    };
    Result<DetectionResult> result =
        DrainFull(*plan, data.relation, shards, options);
    ASSERT_TRUE(result.ok());
    std::vector<Key> decided;
    for (const PairDecisionRecord& r : result->decisions) {
      decided.push_back(key(r));
    }
    EXPECT_GT(decided.size(), 0u);
    // One shard commits in pull order: the sink sees the result order.
    if (shards == 1) {
      EXPECT_EQ(seen, decided);
    }
    std::sort(seen.begin(), seen.end());
    std::sort(decided.begin(), decided.end());
    EXPECT_EQ(seen, decided);
  }
}

}  // namespace
}  // namespace pdd
