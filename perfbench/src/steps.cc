#include "steps.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <unordered_set>
#include <utility>

#include "columnar/relation_arena.h"
#include "core/report_writer.h"
#include "index/index_builder.h"
#include "pdb/text_format.h"
#include "prep/standardizer.h"
#include "reduction/pair_batch_source.h"
#include "reduction/pair_generator.h"

namespace perfbench {

namespace {

uint64_t PairKey(size_t a, size_t b) {
  const uint64_t lo = std::min(a, b);
  const uint64_t hi = std::max(a, b);
  return lo << 32 | hi;
}

uint64_t AnswerValue(const std::optional<pdd::IndexedDecision>& answer) {
  if (!answer.has_value()) return 0;
  uint64_t bits = 0;
  std::memcpy(&bits, &answer->similarity, sizeof(bits));
  return bits + static_cast<uint64_t>(answer->match_class) + 1;
}

uint64_t Mix(uint64_t checksum, uint64_t value) {
  return (checksum ^ value) * 0x100000001b3ULL;
}

// Byte offset of the start of 1-based `line` in `text`, or the whole
// text when the line is past its end.
size_t LineOffset(const std::string& text, size_t line) {
  size_t offset = 0;
  for (size_t current = 1; current < line; ++current) {
    offset = text.find('\n', offset);
    if (offset == std::string::npos) return text.size();
    ++offset;
  }
  return offset;
}

// The line number a parse error names ("... line N: ..."), or 0.
size_t ErrorLine(const std::string& message) {
  const size_t at = message.find("line ");
  if (at == std::string::npos) return 0;
  size_t line = 0;
  for (size_t i = at + 5; i < message.size() && message[i] >= '0' &&
                          message[i] <= '9';
       ++i) {
    line = line * 10 + static_cast<size_t>(message[i] - '0');
  }
  return line;
}

}  // namespace

pdd::GeneratedData GeneratePersonTuples(size_t tuples, double duplicate_rate,
                                        uint64_t seed) {
  // An entity yields 1 + Poisson(duplicate_rate) records; 5% more
  // entities than the mean needs puts the target over 4 standard
  // deviations below the expected count at these sizes.
  pdd::PersonGenOptions options;
  options.num_entities = static_cast<size_t>(
      static_cast<double>(tuples) / (1.0 + duplicate_rate) * 1.05 + 20.0);
  options.duplicate_rate = duplicate_rate;
  options.seed = seed;
  pdd::GeneratedData generated = pdd::GeneratePersons(options);
  const pdd::XRelation& all = generated.relation;

  pdd::GeneratedData out;
  out.relation = pdd::XRelation(all.name(), all.schema());
  const size_t kept = std::min(tuples, all.size());
  out.relation.Reserve(kept);
  std::unordered_set<std::string> ids;
  for (size_t i = 0; i < kept; ++i) {
    out.relation.AppendUnchecked(all.xtuple(i));
    ids.insert(all.xtuple(i).id());
  }
  for (const pdd::IdPair& pair : generated.gold.Pairs()) {
    if (ids.count(pair.first) > 0 && ids.count(pair.second) > 0) {
      out.gold.AddMatch(pair.first, pair.second);
    }
  }
  out.num_entities = generated.num_entities;
  return out;
}

pdd::DetectorConfig PddcliConfig(pdd::ReductionMethod reduction,
                                 size_t window, size_t workers) {
  pdd::DetectorConfig config;
  config.key = {{"name", 3}, {"job", 2}};
  const size_t arity = pdd::PersonSchema().arity();
  config.weights.assign(arity, 1.0 / static_cast<double>(arity));
  config.reduction = reduction;
  config.window = window;
  config.workers = workers;
  return config;
}

void TimeParse(const std::string& text, Context* ctx) {
  SpanRecorder::Scope span = ctx->spans->Begin("pdb.parse");
  pdd::Result<pdd::XRelation> parsed = pdd::ParseXRelation(text);
  const double seconds = span.End();
  ctx->report->Attempt();
  size_t parsed_bytes = text.size();
  if (!parsed.ok()) {
    const std::string message = parsed.status().ToString();
    ctx->report->Failed("parse of the serialized relation: " + message);
    parsed_bytes = LineOffset(text, ErrorLine(message));
  }
  ctx->report->Set("pdb.parse_s", seconds, "s");
  ctx->report->Set("pdb.parse_mb_per_s",
                   seconds > 0.0 ? static_cast<double>(parsed_bytes) / 1e6 /
                                       seconds
                                 : 0.0,
                   "MB/s");
  ctx->report->Set("pdb.parse_failed", parsed.ok() ? 0.0 : 1.0, "count");
}

void ProbeRelationLayers(const pdd::XRelation& rel, Context* ctx) {
  {
    pdd::Standardizer standard;
    standard.LowerCase().TrimWhitespace().CollapseWhitespace();
    const pdd::DataPreparation preparation =
        pdd::DataPreparation::UniformAll(std::move(standard));
    SpanRecorder::Scope span = ctx->spans->Begin("prep.prepare");
    pdd::XRelation prepared = preparation.Prepare(rel);
    ctx->report->Add("prep.prepare_s", span.End(), "s");
  }
  SpanRecorder::Scope span = ctx->spans->Begin("columnar.arena_build");
  std::shared_ptr<const pdd::RelationArena> arena =
      pdd::RelationArena::Build(rel);
  ctx->report->Add("columnar.arena_build_s", span.End(), "s");
  double bytes = 0.0;
  if (arena != nullptr) {
    // Text bytes plus the fixed-width columns, from the arena's counts.
    const double rows = static_cast<double>(arena->row_count());
    bytes = static_cast<double>(arena->byte_count()) +
            32.0 * static_cast<double>(arena->alternative_count()) +
            8.0 * rows + 16.0 * rows * static_cast<double>(arena->arity()) +
            16.0 * static_cast<double>(arena->tuple_count());
  }
  ctx->report->Add("columnar.arena_bytes", bytes, "bytes");
}

void ProbeReduction(const pdd::DetectionPlan& plan, const pdd::XRelation& rel,
                    double* seconds, double* candidates, Context* ctx) {
  std::unique_ptr<pdd::PairGenerator> generator = plan.MakePairGenerator();
  SpanRecorder::Scope span = ctx->spans->Begin("reduction.generate");
  pdd::Result<std::unique_ptr<pdd::PairBatchSource>> source =
      generator->Stream(rel);
  size_t count = 0;
  if (source.ok()) {
    std::vector<pdd::CandidatePair> batch;
    while ((*source)->NextBatch(4096, &batch) > 0) count += batch.size();
  }
  *seconds += span.End();
  *candidates += static_cast<double>(count);
  if (!source.ok()) {
    ctx->report->Mismatch("candidate stream: " + source.status().ToString());
  }
}

void PipelineReading::Add(const pdd::DetectionResult& result, double seconds,
                          double rss_growth_mb) {
  stages += result.stage_timings;
  run_s += seconds;
  decisions += static_cast<double>(result.decisions.size());
  result_mb += rss_growth_mb;
}

void PipelineReading::Record(Context* ctx) const {
  RunReport& report = *ctx->report;
  report.Add("match.kernel_s", stages.match_seconds, "s");
  report.Add("decision.combine_s", stages.combine_seconds, "s");
  report.Add("derive.derive_s", stages.derive_seconds, "s");
  report.Add("decision.classify_s", stages.classify_seconds, "s");
  report.Add("cache.lookup_s", stages.cache_lookup_seconds, "s");
  report.Add("pipeline.run_s", run_s, "s");
  // Stage timings are busy time summed over the executor's workers;
  // divided by the worker count they estimate the wall time they cover.
  report.Add("pipeline.self_s", run_s - stages.TotalSeconds() / workers, "s");
  report.Add("pipeline.decisions", decisions, "count");
  report.Add("pipeline.result_mb", result_mb, "MB");
}

Detection Detect(const pdd::DuplicateDetector& detector,
                 const pdd::XRelation& rel, const pdd::GoldStandard* gold,
                 PipelineReading* reading, Context* ctx) {
  Detection out;
  const double rss_before = ProcStatusMb("VmRSS");
  SpanRecorder::Scope run_span = ctx->spans->Begin("pipeline.run");
  pdd::Result<pdd::DetectionResult> result = detector.Run(rel);
  out.run_s = run_span.End();
  const double rss_growth = ProcStatusMb("VmRSS") - rss_before;
  ctx->report->Attempt();
  if (!result.ok()) {
    ctx->report->Mismatch("detection run: " + result.status().ToString());
    return out;
  }
  SpanRecorder::Scope render_span = ctx->spans->Begin("core.render");
  out.report = pdd::DetectionReport(*result, gold);
  out.render_s = render_span.End();
  ctx->report->Attempt();
  if (reading != nullptr) reading->Add(*result, out.run_s, rss_growth);
  out.result = std::move(result).value();
  return out;
}

void RecordCacheStats(const pdd::DecisionCacheStats& stats, Context* ctx) {
  RunReport& report = *ctx->report;
  report.Add("cache.lookups", static_cast<double>(stats.hits + stats.misses),
             "count");
  report.Add("cache.hit_ratio", stats.HitRate(), "ratio");
  report.Add("cache.inserts", static_cast<double>(stats.inserts), "count");
  report.Add("cache.evictions", static_cast<double>(stats.evictions), "count");
  report.Add("cache.resident", static_cast<double>(stats.size), "count");
}

QueryPlan MakeQueryPlan(const pdd::XRelation& rel,
                        const pdd::DetectionResult& result, uint64_t seed) {
  constexpr size_t kQueries = 500'000;
  // The decided pairs by key, to know the answer to any drawn pair.
  std::vector<std::pair<uint64_t, const pdd::PairDecisionRecord*>> decided;
  decided.reserve(result.decisions.size());
  for (const pdd::PairDecisionRecord& rec : result.decisions) {
    decided.emplace_back(PairKey(rec.index1, rec.index2), &rec);
  }
  std::sort(decided.begin(), decided.end());
  auto answer = [&](uint32_t a, uint32_t b) {
    const uint64_t key = PairKey(a, b);
    auto it = std::lower_bound(
        decided.begin(), decided.end(), key,
        [](const auto& entry, uint64_t k) { return entry.first < k; });
    std::optional<pdd::IndexedDecision> expected;
    if (it != decided.end() && it->first == key) {
      expected = pdd::IndexedDecision{it->second->match_class,
                                      it->second->similarity};
    }
    return AnswerValue(expected);
  };

  QueryPlan plan;
  plan.queries.reserve(kQueries);
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  const uint32_t records = static_cast<uint32_t>(rel.size());
  std::uniform_int_distribution<uint32_t> record(0, records - 1);
  std::uniform_int_distribution<size_t> pick(
      0, result.decisions.empty() ? 0 : result.decisions.size() - 1);
  std::uniform_int_distribution<int> percent(0, 99);
  uint64_t checksum = 0;
  for (size_t i = 0; i < kQueries; ++i) {
    QueryPlan::Query query;
    const int p = percent(rng);
    if (p < 70) {
      query.kind = QueryPlan::kLookup;
      if (p < 50 && !result.decisions.empty()) {
        const pdd::PairDecisionRecord& rec = result.decisions[pick(rng)];
        query.a = static_cast<uint32_t>(rec.index1);
        query.b = static_cast<uint32_t>(rec.index2);
      } else {
        query.a = record(rng);
        query.b = record(rng);
      }
      query.id_a = rel.xtuple(query.a).id();
      query.id_b = rel.xtuple(query.b).id();
      checksum = Mix(checksum, answer(query.a, query.b));
    } else {
      query.kind = p < 90 ? QueryPlan::kClusterOf : QueryPlan::kMembers;
      query.a = record(rng);
    }
    plan.queries.push_back(query);
  }
  plan.expected_checksum = checksum;
  return plan;
}

std::optional<pdd::DecisionIndex> ServeIndex(
    const pdd::XRelation& rel, const pdd::DetectionResult& result,
    const QueryPlan& plan, bool check_every_pair, Context* ctx) {
  RunReport& report = *ctx->report;
  // A small result compiles in well under a second: build it again
  // until a second of building has been measured (at most 5 times).
  pdd::IndexBuildStats stats;
  pdd::Result<std::string> image = std::string();
  double building_s = 0.0;
  for (int build = 0; build < 5 && building_s < 1.0; ++build) {
    RunReport::Uncounted extra(&report, build > 0);
    SpanRecorder::Scope build_span = ctx->spans->Begin("index.build");
    image = pdd::BuildDecisionIndexImage(rel, result, &stats);
    const double build_s = build_span.End();
    report.Attempt();
    if (!image.ok()) {
      report.Mismatch("index build: " + image.status().ToString());
      return std::nullopt;
    }
    building_s += build_s;
    report.Add("index_build_s", build_s, "s");
    report.Add("index.build_s", build_s, "s");
  }
  report.Add("index.bytes_per_pair", stats.BytesPerPair(), "B/pair");

  SpanRecorder::Scope open_span = ctx->spans->Begin("index.open");
  pdd::Result<pdd::DecisionIndex> index =
      pdd::DecisionIndex::FromImage(std::move(image).value());
  report.Add("index.open_s", open_span.End(), "s");
  report.Attempt();
  if (!index.ok()) {
    report.Mismatch("index open: " + index.status().ToString());
    return std::nullopt;
  }

  if (check_every_pair) {
    SpanRecorder::Scope check = ctx->spans->Begin("check.index_answers");
    size_t wrong = 0;
    for (const pdd::PairDecisionRecord& rec : result.decisions) {
      std::optional<pdd::IndexedDecision> got =
          index->Lookup(static_cast<uint32_t>(rec.index1),
                        static_cast<uint32_t>(rec.index2));
      if (!got.has_value() || got->match_class != rec.match_class ||
          got->similarity != rec.similarity) {
        ++wrong;
      }
    }
    for (const QueryPlan::Query& query : plan.queries) {
      if (query.kind == QueryPlan::kLookup) continue;
      std::optional<uint32_t> cluster = index->ClusterOf(query.a);
      pdd::RecordSpan members =
          cluster.has_value() ? index->Members(*cluster) : pdd::RecordSpan{};
      if (std::find(members.begin(), members.end(), query.a) ==
          members.end()) {
        ++wrong;
      }
    }
    if (wrong > 0) {
      report.Mismatch(std::to_string(wrong) +
                      " index answers differ from the detection result");
    }
  }
  return std::move(index).value();
}

void QueryIndex(const pdd::DecisionIndex& index, const QueryPlan& plan,
                Context* ctx) {
  RunReport& report = *ctx->report;
  uint64_t checksum = 0;
  uint64_t cluster_answers = 0;  // keeps the cluster queries observable
  SpanRecorder::Scope span = ctx->spans->Begin("index.query");
  for (const QueryPlan::Query& query : plan.queries) {
    switch (query.kind) {
      case QueryPlan::kLookup:
        checksum =
            Mix(checksum, AnswerValue(index.Lookup(query.id_a, query.id_b)));
        break;
      case QueryPlan::kClusterOf:
        cluster_answers += index.ClusterOf(query.a).value_or(0);
        break;
      case QueryPlan::kMembers:
        cluster_answers +=
            index.Members(index.ClusterOf(query.a).value_or(0)).size;
        break;
    }
  }
  const double seconds = span.End();
  report.Attempt(plan.queries.size());
  if (checksum != plan.expected_checksum) {
    report.Mismatch("index lookups disagree with the detection result");
  }
  if (cluster_answers == 0 && !plan.queries.empty()) {
    report.Mismatch("index cluster queries returned nothing");
  }
  const double per_s =
      seconds > 0.0 ? static_cast<double>(plan.queries.size()) / seconds : 0.0;
  report.Add("index_queries_per_s", per_s, "1/s");
  report.Add("index.query_ns", per_s > 0.0 ? 1e9 / per_s : 0.0, "ns");
}

}  // namespace perfbench
