// pddbench: runs one benchmark workload and prints its result as the
// last line of standard output.
//
//   pddbench --workload full-batch|reduction-sweep|standing-ingest
//            --seed N --seconds S --trace 0|1 [--trace-file PATH]
//
// The result line is one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}} with every metric the run
// measured. With --trace 1 the run also collects the executor's stage
// timings and outside probes of each layer, and writes its spans to
// --trace-file. Exits 1 when an output check failed, 2 on bad usage.

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

int Usage(const std::string& message) {
  std::cerr << "pddbench: " << message
            << "\nusage: pddbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-file PATH]\n";
  return 2;
}

bool ParseUnsigned(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  *out = std::strtoull(text.c_str(), &end, 10);
  return end != nullptr && *end == '\0' && text[0] != '-';
}

// FNV-1a over the workload name and seed: the id every span of the run
// carries.
uint64_t RunId(const std::string& workload, uint64_t seed) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c : workload + "#" + std::to_string(seed)) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string trace_file;
  uint64_t seed = 0;
  uint64_t seconds = 0;
  uint64_t trace = 0;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(arg + " needs a value");
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      have_seed = ParseUnsigned(value, &seed);
      if (!have_seed) return Usage("--seed needs a whole number");
    } else if (arg == "--seconds") {
      have_seconds = ParseUnsigned(value, &seconds) && seconds > 0;
      if (!have_seconds) return Usage("--seconds needs a positive number");
    } else if (arg == "--trace") {
      if (!ParseUnsigned(value, &trace) || trace > 1) {
        return Usage("--trace needs 0 or 1");
      }
    } else if (arg == "--trace-file") {
      trace_file = value;
    } else {
      return Usage("unknown option " + arg);
    }
  }
  void (*run)(Context*) = nullptr;
  if (workload == "full-batch") {
    run = RunFullBatch;
  } else if (workload == "reduction-sweep") {
    run = RunReductionSweep;
  } else if (workload == "standing-ingest") {
    run = RunStandingIngest;
  } else {
    return Usage("unknown workload '" + workload + "'");
  }
  if (!have_seed || !have_seconds) {
    return Usage("--seed and --seconds are required");
  }

  SpanRecorder spans(trace == 1, RunId(workload, seed));
  RunReport report;
  Context ctx;
  ctx.seed = seed;
  ctx.seconds = static_cast<double>(seconds);
  ctx.trace = trace == 1;
  ctx.spans = &spans;
  ctx.report = &report;
  {
    SpanRecorder::Scope root = spans.Begin(workload);
    run(&ctx);
  }

  // A run that stopped before its first operation still attempted one.
  if (report.attempted() == 0) report.Attempt();
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  report.Set("failed_ratio",
             static_cast<double>(report.failed()) /
                 static_cast<double>(report.attempted()),
             "ratio");
  if (ctx.trace) {
    const double untraced = report.MedianOf("detect_s");
    const double traced = report.MedianOf("trace.detect_s");
    report.Set("trace.overhead_pct",
               untraced > 0.0 ? 100.0 * (traced - untraced) / untraced : 0.0,
               "%");
    // What the layer spans leave uncovered of the workload span.
    report.Set("trace.uncovered_s", spans.LayerTimes()[workload].self_s, "s");
    if (!trace_file.empty() && !spans.WriteJson(trace_file, workload, seed)) {
      std::cerr << "pddbench: cannot write " << trace_file << "\n";
    }
  }
  std::cout << report.ResultLine() << std::endl;
  return report.correct() ? 0 : 1;
}
