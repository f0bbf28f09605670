// standing-ingest: tuples pushed into a StandingSession and decided live
// against the whole standing relation, then the deterministic Finish()
// report. The traced run also pushes open-loop at fixed rates.

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/decision_cache.h"
#include "core/detector.h"
#include "core/report_writer.h"
#include "index/decision_index.h"
#include "ingest/ingest_queue.h"
#include "ingest/ingest_stream.h"
#include "ingest/standing_session.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kTuples = 1800;
constexpr double kDuplicateRate = 0.8;
constexpr size_t kSeedTuples = 500;
constexpr size_t kQueueCapacity = 64;
constexpr double kBaseRate = 100.0;
// Rates above the base rate tried for ingest_max_rate (√2 steps).
constexpr double kLadder[] = {141.0, 200.0, 283.0};
constexpr double kLatencyLimitMs = 250.0;
// Every arrival due at the schedule's start: the producer pushes as fast
// as the queue takes them. It fills a session for a Finish() run.
constexpr double kBackToBack = std::numeric_limits<double>::infinity();
constexpr size_t kBatchWorkers = 2;

int64_t Micros(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             t.time_since_epoch())
      .count();
}

// The generated relation split into the standing seed and the arrivals,
// in a seeded shuffle of generation order.
struct IngestInput {
  pdd::GeneratedData data;
  pdd::XRelation seed;
  std::vector<const pdd::XTuple*> arrivals;
  std::shared_ptr<const pdd::DetectionPlan> plan;
};

// Commit time of each arrival's last crossing pair, fed by the live
// drain's decision sink (sink calls are serialized by the executor).
// The arrival admitted as standing tuple j has j crossing pairs.
struct SinkState {
  const pdd::IngestStream* stream = nullptr;
  size_t base = 0;
  std::vector<size_t> remaining;   // per arrival, pairs not yet decided
  std::vector<int64_t> due_us;     // per arrival, its stamp
  std::vector<int64_t> decided_us;  // per arrival, 0 until decided

  void OnDecision(const pdd::PairDecisionRecord& rec) {
    if (rec.index2 < base) return;
    const size_t k = rec.index2 - base;
    if (k >= remaining.size() || --remaining[k] > 0) return;
    decided_us[k] = Micros(Clock::now());
    due_us[k] = static_cast<int64_t>(stream->admitted_stamp(rec.index2));
  }
};

// One standing session with its sink.
struct Standing {
  std::unique_ptr<SinkState> sink = std::make_unique<SinkState>();
  std::unique_ptr<pdd::StandingSession> session;
};

std::optional<Standing> Admit(const IngestInput& input, bool stage_timings,
                              Context* ctx) {
  Standing standing;
  SinkState* sink = standing.sink.get();
  pdd::StandingSession::Options options;
  options.stream.queue_capacity = kQueueCapacity;
  options.stream.max_admitted = input.arrivals.size();
  options.stage_timings = stage_timings;
  options.cache = std::make_shared<pdd::ShardedDecisionCache>();
  options.decision_sink = [sink](const pdd::PairDecisionRecord& rec) {
    sink->OnDecision(rec);
  };
  SpanRecorder::Scope span = ctx->spans->Begin("ingest.seed_admit");
  pdd::Result<std::unique_ptr<pdd::StandingSession>> session =
      pdd::StandingSession::Make(input.plan, &input.seed, std::move(options));
  if (!session.ok()) {
    ctx->report->Mismatch("standing session: " + session.status().ToString());
    return std::nullopt;
  }
  standing.session = std::move(session).value();
  sink->stream = &standing.session->stream();
  sink->base = standing.session->stream().base();
  const size_t n = input.arrivals.size();
  sink->remaining.resize(n);
  for (size_t k = 0; k < n; ++k) sink->remaining[k] = sink->base + k;
  sink->due_us.assign(n, 0);
  sink->decided_us.assign(n, 0);
  return standing;
}

// What one open-loop schedule measured.
struct Schedule {
  std::vector<double> latency_ms;  // +inf for an arrival never decided
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_lag_ms = 0.0;
  double drain_s = 0.0;
  double tail_s = 0.0;  // drain end minus the last due time
  double backlog_end = 0.0;
  double live_pairs_per_s = 0.0;
  uint64_t queue_high_water = 0;
  uint64_t lost = 0;  // refused, dropped or rejected arrivals
  bool drained = false;

  // p99 within the limit, no arrival lost, and a backlog the drain
  // clears within the latency limit after the schedule ends.
  bool Meets() const {
    return drained && lost == 0 && p99_ms <= kLatencyLimitMs &&
           tail_s * 1000.0 <= kLatencyLimitMs;
  }
};

// Pushes every arrival at `rate` from one producer thread, each at its
// due time whatever the drain is doing, while this thread drains.
// `reading`, when not null, receives the live drain's per-layer readings.
Schedule RunSchedule(const IngestInput& input, Standing* standing, double rate,
                     PipelineReading* reading, Context* ctx) {
  pdd::StandingSession& session = *standing->session;
  const size_t n = input.arrivals.size();
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rate));
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(20);
  auto due = [&](size_t k) {
    return start + period * static_cast<Clock::rep>(k);
  };

  Schedule out;
  std::atomic<uint64_t> refused{0};
  double max_lag_s = 0.0;
  std::thread producer([&]() {
    for (size_t k = 0; k < n; ++k) {
      const Clock::time_point when = due(k);
      std::this_thread::sleep_until(when);
      max_lag_s = std::max(max_lag_s, SecondsSince(when));
      if (!session.queue().Push(*input.arrivals[k],
                                static_cast<uint64_t>(Micros(when)))) {
        refused.fetch_add(1);
      }
    }
    session.queue().Close();
  });
  const double rss_before = ProcStatusMb("VmRSS");
  SpanRecorder::Scope drain_span = ctx->spans->Begin("ingest.drain");
  pdd::Result<pdd::DetectionResult> live = session.Drain();
  const Clock::time_point drain_end = Clock::now();
  drain_span.End();
  const double rss_growth = ProcStatusMb("VmRSS") - rss_before;
  // A failed drain stops consuming: close the queue so a producer
  // blocked on a full queue returns.
  if (!live.ok()) session.queue().Close();
  producer.join();

  ctx->report->Attempt(n);
  out.drained = live.ok();
  if (!live.ok()) {
    ctx->report->Mismatch("live drain: " + live.status().ToString());
  }
  out.max_lag_ms = max_lag_s * 1000.0;
  out.drain_s = SecondsBetween(start, drain_end);
  out.tail_s = SecondsBetween(due(n - 1), drain_end);
  if (live.ok() && out.drain_s > 0.0) {
    out.live_pairs_per_s =
        static_cast<double>(live->decisions.size()) / out.drain_s;
  }
  if (live.ok() && reading != nullptr) {
    reading->Add(*live, out.drain_s, rss_growth);
  }
  const pdd::IngestQueueStats queue = session.queue().Stats();
  const pdd::IngestStream::AdmissionStats admission =
      session.stream().admission_stats();
  out.queue_high_water = queue.high_water;
  out.lost = refused.load() + queue.dropped + admission.duplicate_ids +
             admission.invalid + admission.rejected_capacity;

  const SinkState& sink = *standing->sink;
  const int64_t schedule_end_us = Micros(due(n - 1));
  out.latency_ms.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    const bool decided = sink.decided_us[k] != 0;
    out.latency_ms.push_back(
        decided ? static_cast<double>(sink.decided_us[k] - sink.due_us[k]) /
                      1000.0
                : std::numeric_limits<double>::infinity());
    if (!decided || sink.decided_us[k] > schedule_end_us) {
      out.backlog_end += 1.0;
    }
  }
  out.p50_ms = NearestRank(out.latency_ms, 0.50);
  out.p99_ms = NearestRank(out.latency_ms, 0.99);
  return out;
}

void RecordSchedule(const Schedule& schedule, Context* ctx) {
  RunReport& report = *ctx->report;
  report.Set("ingest_p50_ms", schedule.p50_ms, "ms");
  report.Set("ingest_p99_ms", schedule.p99_ms, "ms");
  report.Set("ingest.generator_lag_ms", schedule.max_lag_ms, "ms");
  report.Set("ingest.queue_high_water",
             static_cast<double>(schedule.queue_high_water), "count");
  report.Set("ingest.dropped", static_cast<double>(schedule.lost), "count");
  report.Set("ingest.drain_s", schedule.drain_s, "s");
  report.Set("ingest.live_pairs_per_s", schedule.live_pairs_per_s, "pairs/s");
  report.Set("ingest.backlog_end", schedule.backlog_end, "count");
}

// Finish() and its rendered report: the deterministic report an
// operator waits for at shutdown. `result` is empty when Finish()
// failed (the failure is already reported).
struct Finished {
  std::optional<pdd::DetectionResult> result;
  std::string report;
  double finish_s = 0.0;
  double render_s = 0.0;
};

Finished FinishSession(Standing* standing, PipelineReading* reading,
                       Context* ctx) {
  Finished out;
  const double rss_before = ProcStatusMb("VmRSS");
  SpanRecorder::Scope span = ctx->spans->Begin("ingest.finish");
  pdd::Result<pdd::DetectionResult> result = standing->session->Finish();
  out.finish_s = span.End();
  const double rss_growth = ProcStatusMb("VmRSS") - rss_before;
  ctx->report->Attempt();
  if (!result.ok()) {
    ctx->report->Mismatch("finish: " + result.status().ToString());
    return out;
  }
  SpanRecorder::Scope render = ctx->spans->Begin("core.render");
  out.report = pdd::DetectionReport(*result);
  out.render_s = render.End();
  ctx->report->Attempt();
  if (reading != nullptr) reading->Add(*result, out.finish_s, rss_growth);
  out.result = std::move(result).value();
  return out;
}

// Fills `standing` back to back, ready for Finish(). Every arrival must
// be admitted. False when the drain failed (the failure is already
// reported).
bool Fill(const IngestInput& input, Standing* standing,
          PipelineReading* reading, Context* ctx) {
  SpanRecorder::Scope span = ctx->spans->Begin("ingest.fill");
  const Schedule fill =
      RunSchedule(input, standing, kBackToBack, reading, ctx);
  if (fill.lost > 0) {
    ctx->report->Mismatch(std::to_string(fill.lost) +
                          " arrivals lost while filling");
  }
  return fill.drained;
}

}  // namespace

void RunStandingIngest(Context* ctx) {
  RunReport& report = *ctx->report;
  const pdd::DetectorConfig config =
      PddcliConfig(pdd::ReductionMethod::kFull, 3, 0);

  // Set-up: generate, split into seed and arrivals, compile the plan
  // and admit the standing seed.
  std::unique_ptr<IngestInput> input;
  std::optional<Standing> standing;
  const Clock::time_point setup_start = Clock::now();
  for (int i = 0; SetUpAgain(i, SecondsSince(setup_start)); ++i) {
    // What the previous set-up made is freed outside the timed set-up.
    standing.reset();
    input.reset();
    SpanRecorder::Scope setup = ctx->spans->Begin("setup");
    input = std::make_unique<IngestInput>();
    {
      SpanRecorder::Scope span = ctx->spans->Begin("datagen.generate");
      input->data = GeneratePersonTuples(kTuples, kDuplicateRate, ctx->seed);
    }
    const pdd::XRelation& rel = input->data.relation;
    std::vector<size_t> order(rel.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::mt19937_64 rng(ctx->seed);
    std::shuffle(order.begin(), order.end(), rng);
    input->seed = pdd::XRelation(rel.name(), rel.schema());
    for (size_t k = 0; k < order.size(); ++k) {
      if (k < kSeedTuples) {
        input->seed.AppendUnchecked(rel.xtuple(order[k]));
      } else {
        input->arrivals.push_back(&rel.xtuple(order[k]));
      }
    }
    SpanRecorder::Scope compile = ctx->spans->Begin("plan.compile");
    pdd::Result<std::shared_ptr<const pdd::DetectionPlan>> plan =
        pdd::DetectionPlan::Compile(config, rel.schema());
    compile.End();
    if (!plan.ok()) {
      report.Mismatch("plan compile: " + plan.status().ToString());
      return;
    }
    input->plan = std::move(plan).value();
    standing = Admit(*input, false, ctx);
    report.Add("setup_s", setup.End(), "s");
    if (!standing.has_value()) return;
  }

  // The reference every Finish() report must equal byte for byte: the
  // batch report of the same tuple set, from one 2-worker run outside
  // the timed regions. The first finished session supplies the tuple
  // set and the query list.
  pdd::XRelation canonical;
  std::string reference;
  QueryPlan queries;
  // The index of the latest finished session. Each iteration queries the
  // previous one's index between its fill and its Finish(), so the query
  // samples spread over the whole run.
  std::optional<pdd::DecisionIndex> index;
  // A session takes about 10 s, so each point queries twice to gather
  // enough samples in a run.
  auto query_twice = [&] {
    if (!index.has_value()) return;
    QueryIndex(*index, queries, ctx);
    QueryIndex(*index, queries, ctx);
  };
  auto check_and_serve = [&](Standing* finished, const Finished& done,
                             bool first) {
    if (first) {
      SpanRecorder::Scope span = ctx->spans->Begin("check.reference");
      canonical = finished->session->CanonicalRelation();
      pdd::Result<pdd::DuplicateDetector> batch = pdd::DuplicateDetector::Make(
          PddcliConfig(pdd::ReductionMethod::kFull, 3, kBatchWorkers),
          canonical.schema());
      pdd::Result<pdd::DetectionResult> run =
          batch.ok() ? batch->Run(canonical)
                     : pdd::Result<pdd::DetectionResult>(batch.status());
      report.Attempt();
      if (!run.ok()) {
        report.Mismatch("batch reference run: " + run.status().ToString());
        return;
      }
      reference = pdd::DetectionReport(*run);
      queries = MakeQueryPlan(canonical, *done.result, ctx->seed);
    }
    if (reference.empty()) return;  // the reference run failed
    if (done.report != reference) {
      report.Mismatch("Finish() report differs from the batch report");
    }
    index.reset();
    index = ServeIndex(canonical, *done.result, queries, first, ctx);
    query_twice();
  };

  if (!ctx->trace) {
    // Each iteration fills a fresh session back to back and times
    // Finish() to its rendered report. The live decisions, and so the
    // cache Finish() replays, do not depend on the arrival rate.
    Repeat(ctx, 2, [&](int i) {
      if (i > 0) standing = Admit(*input, false, ctx);
      if (!standing.has_value()) return;
      SpanRecorder::Scope iteration = ctx->spans->Begin("iteration");
      if (!Fill(*input, &*standing, nullptr, ctx)) return;
      query_twice();
      const Finished done = FinishSession(&*standing, nullptr, ctx);
      if (done.result.has_value()) {
        report.Add("detect_s", done.finish_s + done.render_s, "s");
        check_and_serve(&*standing, done, i == 0);
      }
      SpanRecorder::Scope span = ctx->spans->Begin("ingest.teardown");
      standing.reset();
    });
    return;
  }

  // Traced run. The user-facing figures come from sessions with stage
  // timings off: the base rate, Finish() and the ladder. A last session
  // with stage timings on gives the layer readings and the overhead.
  const Schedule base = [&] {
    SpanRecorder::Scope span = ctx->spans->Begin("ingest.schedule");
    return RunSchedule(*input, &*standing, kBaseRate, nullptr, ctx);
  }();
  RecordSchedule(base, ctx);
  if (base.lost > 0) {
    report.Mismatch(std::to_string(base.lost) + " arrivals lost at " +
                    std::to_string(kBaseRate) + "/s");
  }
  if (!base.drained) return;
  {
    const Finished done = FinishSession(&*standing, nullptr, ctx);
    if (!done.result.has_value()) return;
    report.Set("finish_s", done.finish_s, "s");
    report.Add("detect_s", done.finish_s + done.render_s, "s");
    report.Set("ingest.finish_hit_ratio",
               done.result->cache_stats.value_or(pdd::CacheRunStats{})
                   .HitRate(),
               "ratio");
    RecordCacheStats(standing->session->cache()->Stats(), ctx);
    check_and_serve(&*standing, done, true);
    SpanRecorder::Scope span = ctx->spans->Begin("ingest.teardown");
    standing.reset();
  }

  // ingest_max_rate: the base rate, then the ladder up to the first
  // rate that misses the limit.
  double max_rate = 0.0;
  if (base.Meets()) {
    max_rate = kBaseRate;
    // How many steps run depends on the machine's speed, so their
    // pushes are not counted.
    RunReport::Uncounted steps(&report);
    for (double rate : kLadder) {
      SpanRecorder::Scope span = ctx->spans->Begin("ingest.ladder");
      std::optional<Standing> step = Admit(*input, false, ctx);
      if (!step.has_value()) return;
      const Schedule schedule = RunSchedule(*input, &*step, rate, nullptr, ctx);
      step.reset();
      span.End();
      if (!schedule.Meets()) break;
      max_rate = rate;
    }
  }
  report.Set("ingest_max_rate", max_rate, "tuples/s");

  // The traced session: its live drain and Finish() are the pipeline
  // runs whose stage timings the layer metrics read.
  {
    SpanRecorder::Scope span = ctx->spans->Begin("iteration");
    std::optional<Standing> traced = Admit(*input, true, ctx);
    if (!traced.has_value()) return;
    PipelineReading reading;
    if (!Fill(*input, &*traced, &reading, ctx)) return;
    const Finished done = FinishSession(&*traced, &reading, ctx);
    if (!done.result.has_value()) return;
    report.Add("trace.detect_s", done.finish_s + done.render_s, "s");
    report.Add("core.render_s", done.render_s, "s");
    reading.Record(ctx);
    if (done.report != reference) {
      report.Mismatch("traced Finish() report differs from the batch report");
    }
  }
  ProbeRelationLayers(canonical, ctx);
  double generate_s = 0.0;
  double candidates = 0.0;
  ProbeReduction(*input->plan, canonical, &generate_s, &candidates, ctx);
  report.Add("reduction.generate_s", generate_s, "s");
  report.Add("reduction.candidates", candidates, "count");
}

}  // namespace perfbench
