// The three workloads. Each generates its input from ctx->seed, runs it
// through the library's public API, checks the outputs and records its
// metrics in ctx->report.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "steps.h"

namespace perfbench {

/// 3,000 tuples, reduction = full, 2 workers, no cache: run, render,
/// compile the index, query it.
void RunFullBatch(Context* ctx);

/// 30,000 tuples round-tripped through the text format, then a
/// four-plan SNM/blocking sweep over one shared decision cache, every
/// report rendered against the gold standard.
void RunReductionSweep(Context* ctx);

/// 1,800 tuples at duplicate rate 0.8: a 500-tuple standing seed, the
/// other 1,300 pushed into a StandingSession, then Finish() and its
/// report. The traced run pushes open-loop at 100/s and up a rate
/// ladder.
void RunStandingIngest(Context* ctx);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
