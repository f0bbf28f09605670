// full-batch and reduction-sweep: one-shot detection runs over a
// generated relation, timed from the compiled plan to the rendered
// report.

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cache/decision_cache.h"
#include "core/detector.h"
#include "index/decision_index.h"
#include "pdb/text_format.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kWorkers = 2;

}  // namespace

void RunFullBatch(Context* ctx) {
  RunReport& report = *ctx->report;
  const pdd::DetectorConfig config =
      PddcliConfig(pdd::ReductionMethod::kFull, 3, kWorkers);

  std::optional<pdd::GeneratedData> data;
  std::string text;
  std::optional<pdd::DuplicateDetector> detector;
  const Clock::time_point setup_start = Clock::now();
  for (int i = 0; SetUpAgain(i, SecondsSince(setup_start)); ++i) {
    // What the previous set-up made is freed outside the timed set-up.
    detector.reset();
    data.reset();
    text = std::string();
    SpanRecorder::Scope setup = ctx->spans->Begin("setup");
    {
      SpanRecorder::Scope span = ctx->spans->Begin("datagen.generate");
      data = GeneratePersonTuples(3000, 0.5, ctx->seed);
    }
    {
      SpanRecorder::Scope span = ctx->spans->Begin("pdb.serialize");
      text = pdd::SerializeXRelation(data->relation);
    }
    SpanRecorder::Scope compile = ctx->spans->Begin("plan.compile");
    pdd::Result<pdd::DuplicateDetector> made =
        pdd::DuplicateDetector::Make(config, data->relation.schema());
    compile.End();
    report.Add("setup_s", setup.End(), "s");
    if (!made.ok()) {
      report.Mismatch("plan compile: " + made.status().ToString());
      return;
    }
    detector = std::move(made).value();
  }
  const pdd::XRelation& rel = data->relation;
  TimeParse(text, ctx);

  // Reference: the serial run, whose digest every pooled run must
  // reproduce, and the query list drawn from its decisions.
  uint64_t serial_digest = 0;
  QueryPlan queries;
  {
    SpanRecorder::Scope check = ctx->spans->Begin("check.serial_run");
    pdd::Result<pdd::DuplicateDetector> serial = pdd::DuplicateDetector::Make(
        PddcliConfig(pdd::ReductionMethod::kFull, 3, 0), rel.schema());
    pdd::Result<pdd::DetectionResult> reference =
        serial.ok() ? serial->Run(rel) : pdd::Result<pdd::DetectionResult>(
                                             serial.status());
    report.Attempt();
    if (!reference.ok()) {
      report.Mismatch("serial reference run: " +
                      reference.status().ToString());
      return;
    }
    serial_digest = reference->ContentDigest();
    queries = MakeQueryPlan(rel, *reference, ctx->seed);
  }

  if (ctx->trace) {
    ProbeRelationLayers(rel, ctx);
    double generate_s = 0.0;
    double candidates = 0.0;
    ProbeReduction(detector->plan(), rel, &generate_s, &candidates, ctx);
    report.Add("reduction.generate_s", generate_s, "s");
    report.Add("reduction.candidates", candidates, "count");
  }

  Repeat(ctx, 3, [&](int i) {
    // The traced run alternates traced and untraced iterations; the
    // difference is the tracing overhead.
    const bool traced = ctx->trace && i % 2 == 0;
    detector->set_collect_stage_timings(traced);
    SpanRecorder::Scope iteration = ctx->spans->Begin("iteration");
    PipelineReading reading;
    reading.workers = static_cast<double>(kWorkers);
    Detection run =
        Detect(*detector, rel, nullptr, traced ? &reading : nullptr, ctx);
    if (!run.result.has_value()) return;
    report.Add(traced ? "trace.detect_s" : "detect_s", run.run_s + run.render_s,
               "s");
    if (traced) {
      reading.Record(ctx);
      report.Add("core.render_s", run.render_s, "s");
    }
    if (run.result->ContentDigest() != serial_digest) {
      report.Mismatch("2-worker result digest differs from the serial run");
    }
    run.report.clear();
    // The index is dropped before the next run, so peak_rss_mb is the
    // run's, not the run's plus a 46 MB index.
    const std::optional<pdd::DecisionIndex> index =
        ServeIndex(rel, *run.result, queries, i == 0, ctx);
    if (!index.has_value()) return;
    for (int pass = 0; pass < 3; ++pass) QueryIndex(*index, queries, ctx);
  });
}

void RunReductionSweep(Context* ctx) {
  RunReport& report = *ctx->report;
  constexpr size_t kWindow = 20;
  constexpr std::array<pdd::ReductionMethod, 4> kPlans = {
      pdd::ReductionMethod::kSnmCertainKeys,
      pdd::ReductionMethod::kSnmSortingAlternatives,
      pdd::ReductionMethod::kSnmMultipassWorlds,
      pdd::ReductionMethod::kBlockingAlternatives};
  // The plan whose result is compiled into the serving index: the one
  // with the most candidates, so the index layer has work to show.
  constexpr size_t kServedPlan = 1;  // snm_sorting_alternatives

  std::optional<pdd::GeneratedData> data;
  std::string text;
  std::vector<pdd::DuplicateDetector> detectors;
  const Clock::time_point setup_start = Clock::now();
  for (int i = 0; SetUpAgain(i, SecondsSince(setup_start)); ++i) {
    // What the previous set-up made is freed outside the timed set-up.
    detectors.clear();
    data.reset();
    text = std::string();
    SpanRecorder::Scope setup = ctx->spans->Begin("setup");
    {
      SpanRecorder::Scope span = ctx->spans->Begin("datagen.generate");
      data = GeneratePersonTuples(30000, 0.5, ctx->seed);
    }
    {
      SpanRecorder::Scope span = ctx->spans->Begin("pdb.serialize");
      text = pdd::SerializeXRelation(data->relation);
    }
    SpanRecorder::Scope compile = ctx->spans->Begin("plan.compile");
    for (pdd::ReductionMethod method : kPlans) {
      pdd::Result<pdd::DuplicateDetector> made = pdd::DuplicateDetector::Make(
          PddcliConfig(method, kWindow, kWorkers), data->relation.schema());
      if (!made.ok()) {
        report.Mismatch("plan compile: " + made.status().ToString());
        return;
      }
      detectors.push_back(std::move(made).value());
    }
    compile.End();
    report.Add("setup_s", setup.End(), "s");
  }
  const pdd::XRelation& rel = data->relation;
  const pdd::GoldStandard& gold = data->gold;
  TimeParse(text, ctx);

  // Reference: every plan's uncached report (on 4 workers; reports are
  // identical for any worker count) and the query list drawn from the
  // served plan's decisions.
  std::vector<std::string> reference(kPlans.size());
  QueryPlan queries;
  {
    SpanRecorder::Scope check = ctx->spans->Begin("check.uncached_sweep");
    for (size_t p = 0; p < kPlans.size(); ++p) {
      pdd::Result<pdd::DuplicateDetector> uncached =
          pdd::DuplicateDetector::Make(PddcliConfig(kPlans[p], kWindow, 4),
                                       rel.schema());
      Detection run;
      if (uncached.ok()) run = Detect(*uncached, rel, &gold, nullptr, ctx);
      if (!run.result.has_value()) {
        report.Mismatch("uncached reference run did not complete");
        return;
      }
      reference[p] = std::move(run.report);
      if (p == kServedPlan) {
        queries = MakeQueryPlan(rel, *run.result, ctx->seed);
      }
    }
  }

  if (ctx->trace) {
    ProbeRelationLayers(rel, ctx);
    double generate_s = 0.0;
    double candidates = 0.0;
    for (const pdd::DuplicateDetector& detector : detectors) {
      ProbeReduction(detector.plan(), rel, &generate_s, &candidates, ctx);
    }
    report.Add("reduction.generate_s", generate_s, "s");
    report.Add("reduction.candidates", candidates, "count");
  }

  // The served plan's index of the latest iteration, queried after every
  // plan of the next sweep so the query samples spread over the run.
  std::optional<pdd::DecisionIndex> index;
  Repeat(ctx, 2, [&](int i) {
    const bool traced = ctx->trace && i % 2 == 0;
    SpanRecorder::Scope iteration = ctx->spans->Begin("iteration");
    // A fresh cache per sweep, at pddcli's default capacity, shared by
    // the four plans.
    auto cache = std::make_shared<pdd::ShardedDecisionCache>();
    PipelineReading reading;
    reading.workers = static_cast<double>(kWorkers);
    double detect_s = 0.0;
    double render_s = 0.0;
    double evaluate_s = 0.0;
    std::optional<pdd::DetectionResult> served;
    for (size_t p = 0; p < kPlans.size(); ++p) {
      pdd::DuplicateDetector& detector = detectors[p];
      detector.set_cache(cache);
      detector.set_collect_stage_timings(traced);
      Detection run =
          Detect(detector, rel, &gold, traced ? &reading : nullptr, ctx);
      detector.set_cache(nullptr);
      if (!run.result.has_value()) return;
      detect_s += run.run_s + run.render_s;
      render_s += run.render_s;
      if (run.report != reference[p]) {
        report.Mismatch(std::string("cached report of ") +
                        pdd::ReductionMethodName(kPlans[p]) +
                        " differs from the uncached report");
      }
      if (traced) {
        SpanRecorder::Scope span = ctx->spans->Begin("verify.evaluate");
        pdd::Evaluate(*run.result, gold);
        evaluate_s += span.End();
      }
      if (p == kServedPlan) served = std::move(run.result);
      if (index.has_value()) QueryIndex(*index, queries, ctx);
    }
    report.Add(traced ? "trace.detect_s" : "detect_s", detect_s, "s");
    if (traced) {
      reading.Record(ctx);
      RecordCacheStats(cache->Stats(), ctx);
      report.Add("core.render_s", render_s, "s");
      report.Add("verify.evaluate_s", evaluate_s, "s");
    }
    index.reset();
    index = ServeIndex(rel, *served, queries, i == 0, ctx);
    if (index.has_value()) QueryIndex(*index, queries, ctx);
  });
}

}  // namespace perfbench
