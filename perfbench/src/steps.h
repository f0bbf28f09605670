// The steps the workloads share: input generation, the text round trip,
// outside probes of the input layers, per-layer readings of a traced
// detection run, and the index build/open/query loop with its checks.
// Each step calls the library's public API and records one span per
// layer call.

#ifndef PERFBENCH_STEPS_H_
#define PERFBENCH_STEPS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/decision_cache.h"
#include "core/config.h"
#include "core/detector.h"
#include "datagen/person_generator.h"
#include "index/decision_index.h"
#include "harness.h"
#include "pdb/xrelation.h"
#include "pipeline/detection_plan.h"
#include "pipeline/detection_result.h"

namespace perfbench {

/// One benchmark run: its arguments and where it reports.
struct Context {
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  SpanRecorder* spans = nullptr;
  RunReport* report = nullptr;
};

/// Exactly `tuples` person tuples with their gold pairs: the first
/// `tuples` records (generation order keeps each entity's duplicates
/// together) of a generation at `duplicate_rate` with enough entities
/// to hold them at any seed. Every other generator knob is at its
/// default. The seed varies the content, never the size.
pdd::GeneratedData GeneratePersonTuples(size_t tuples, double duplicate_rate,
                                        uint64_t seed);

/// pddcli's defaults: key name:3,job:2 and equal weights over the
/// person schema, plus the given reduction, window and worker count.
pdd::DetectorConfig PddcliConfig(pdd::ReductionMethod reduction,
                                 size_t window, size_t workers);

/// Whether to set up once more after `done` set-ups that took `spent_s`
/// in all: at least 3 and at most 25 times, stopping after 3 s.
/// setup_s is the median, so a process's first, colder set-ups do not
/// decide it, and a set-up of a few milliseconds gets enough samples.
inline bool SetUpAgain(int done, double spent_s) {
  return done < 3 || (done < 25 && spent_s < 3.0);
}

/// Runs `iteration(i)` until `ctx->seconds` of measuring have passed,
/// and at least `min_iterations` times. An iteration starts only when
/// another one of the last one's length still fits in the time. The
/// operations of the first `min_iterations` iterations are the ones
/// `attempted` counts; later iterations only add samples.
template <typename Iteration>
void Repeat(Context* ctx, int min_iterations, Iteration iteration) {
  const Clock::time_point start = Clock::now();
  double last = 0.0;
  for (int i = 0;; ++i) {
    if (i >= min_iterations && SecondsSince(start) + last > ctx->seconds) {
      break;
    }
    const Clock::time_point begin = Clock::now();
    RunReport::Uncounted extra(ctx->report, i >= min_iterations);
    iteration(i);
    last = SecondsSince(begin);
  }
}

/// Parses the serialized relation back (pdb.parse_*). A parse error is
/// a failed operation; the workload goes on with the in-memory
/// relation.
void TimeParse(const std::string& text, Context* ctx);

/// Outside probes of the layers a Run() call covers (traced run only):
/// preparation with pddcli's --prepare standardizer and the columnar
/// arena over `rel`.
void ProbeRelationLayers(const pdd::XRelation& rel, Context* ctx);

/// Drains the plan's candidate stream over `rel` on its own; adds to
/// reduction.generate_s and reduction.candidates.
void ProbeReduction(const pdd::DetectionPlan& plan, const pdd::XRelation& rel,
                    double* seconds, double* candidates, Context* ctx);

/// Per-layer readings of traced Run() calls, summed over the calls of
/// one iteration.
struct PipelineReading {
  pdd::StageTimings stages;
  double run_s = 0.0;
  double decisions = 0.0;
  double result_mb = 0.0;
  double workers = 1.0;

  void Add(const pdd::DetectionResult& result, double seconds,
           double rss_growth_mb);
  /// Adds this iteration's stage, pipeline and trace samples.
  void Record(Context* ctx) const;
};

/// One Run() + DetectionReport() of a detector. `result` is empty when
/// the run failed (the failure is already reported).
struct Detection {
  std::optional<pdd::DetectionResult> result;
  std::string report;
  double run_s = 0.0;
  double render_s = 0.0;
};

/// Runs `detector` over `rel` and renders the report (against `gold`
/// when given). `reading`, when not null, receives the run's per-layer
/// readings.
Detection Detect(const pdd::DuplicateDetector& detector,
                 const pdd::XRelation& rel, const pdd::GoldStandard* gold,
                 PipelineReading* reading, Context* ctx);

/// Lifetime counters of a decision cache as cache.* samples.
void RecordCacheStats(const pdd::DecisionCacheStats& stats, Context* ctx);

/// A seeded list of index queries with the answers the detection
/// result implies.
struct QueryPlan {
  enum Kind : uint8_t { kLookup, kClusterOf, kMembers };
  struct Query {
    Kind kind = kLookup;
    uint32_t a = 0;
    uint32_t b = 0;
    std::string_view id_a;
    std::string_view id_b;
  };
  std::vector<Query> queries;
  /// Checksum of the Lookup answers the result implies.
  uint64_t expected_checksum = 0;
};

/// 500,000 queries over `rel`'s records: half Lookup of examined pairs,
/// a fifth Lookup of uniformly drawn pairs (never examined unless the
/// reduction examined them), a fifth ClusterOf and a tenth Members.
/// `rel` must outlive the plan (the ids are views into it).
QueryPlan MakeQueryPlan(const pdd::XRelation& rel,
                        const pdd::DetectionResult& result, uint64_t seed);

/// Compiles `result` into an index image, opens it and checks its
/// answers (every decided pair when `check_every_pair`). Samples
/// index_build_s and the index.* build and open metrics. Empty when the
/// build or open failed (the failure is already reported).
std::optional<pdd::DecisionIndex> ServeIndex(
    const pdd::XRelation& rel, const pdd::DetectionResult& result,
    const QueryPlan& plan, bool check_every_pair, Context* ctx);

/// Runs the closed query loop over `plan` once on one thread and checks
/// the answers. Samples index_queries_per_s and index.query_ns. The
/// workloads call it at several points of an iteration, so that the
/// samples spread over the whole run rather than over one second of it.
void QueryIndex(const pdd::DecisionIndex& index, const QueryPlan& plan,
                Context* ctx);

}  // namespace perfbench

#endif  // PERFBENCH_STEPS_H_
