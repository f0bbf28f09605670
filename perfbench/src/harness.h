// Measurement plumbing shared by the three workloads: the clock, order
// statistics, process memory readings, the span recorder of the traced
// run and the result line the benchmark prints last.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

inline double SecondsSince(Clock::time_point from) {
  return SecondsBetween(from, Clock::now());
}

/// Median of `values` (mean of the two middle values for an even
/// count); 0 for an empty list.
double Median(std::vector<double> values);

/// Nearest-rank quantile: the smallest value with at least q·n values
/// at or below it. 0 for an empty list.
double NearestRank(std::vector<double> values, double q);

/// Peak resident set size of this process in MB.
double PeakRssMb();

/// A `kB` field of /proc/self/status (such as VmRSS) in MB; 0 when the
/// file is unreadable.
double ProcStatusMb(const char* field);

/// Records nested spans (name, start, end, parent, run id) of one
/// single-threaded benchmark run. Every span is timed; only an enabled
/// recorder keeps it. Spans stay in memory until WriteJson().
class SpanRecorder {
 public:
  /// Time totals of one span name: wall time and self time (wall time
  /// minus the part of the interval its child spans cover).
  struct LayerTime {
    size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  /// An open span. End() closes it and returns its duration; a handle
  /// dropped without End() closes on destruction.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, int index, Clock::time_point start)
        : recorder_(recorder), index_(index), start_(start) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (!ended_) End();
    }
    double End();

   private:
    SpanRecorder* recorder_;
    int index_;
    Clock::time_point start_;
    bool ended_ = false;
  };

  SpanRecorder(bool enabled, uint64_t run_id)
      : enabled_(enabled), run_id_(run_id), origin_(Clock::now()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  Scope Begin(const std::string& name);

  /// Wall and self time per span name over every recorded span.
  std::map<std::string, LayerTime> LayerTimes() const;

  /// Writes the spans and the per-name totals as one JSON document.
  bool WriteJson(const std::string& path, const std::string& workload,
                 uint64_t seed) const;

 private:
  struct Span {
    std::string name;
    double start_s = 0.0;  // relative to the recorder's creation
    double end_s = 0.0;
    int parent = -1;
  };

  void Close(int index, Clock::time_point end);

  bool enabled_;
  uint64_t run_id_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
};

/// What one benchmark run reports: operation counts, the correctness
/// verdict and every metric it measured, end-to-end and per layer alike
/// (run.py keeps the set BENCHMARK.json names for the run's mode). A
/// metric sampled more than once reports the median of its samples.
///
/// `attempted` counts a fixed set of operations for a given workload,
/// seed and mode: repeats made only to fill the measuring time run
/// inside an Uncounted scope, so the count does not depend on how fast
/// the machine was. Their output checks still count when they fail.
class RunReport {
 public:
  /// Operations attempted while it lives are not counted.
  class Uncounted {
   public:
    explicit Uncounted(RunReport* report, bool active = true)
        : report_(report), was_(report->counting_) {
      if (active) report_->counting_ = false;
    }
    Uncounted(const Uncounted&) = delete;
    Uncounted& operator=(const Uncounted&) = delete;
    ~Uncounted() { report_->counting_ = was_; }

   private:
    RunReport* report_;
    bool was_;
  };

  void Attempt(uint64_t count = 1) {
    if (counting_) attempted_ += count;
  }
  /// An operation that failed without making the output wrong.
  void Failed(const std::string& what);
  /// An output check that did not hold: a failed operation that makes
  /// the whole run incorrect.
  void Mismatch(const std::string& what);

  /// Adds one sample of `name`.
  void Add(const std::string& name, double value, const std::string& unit);
  /// Replaces every sample of `name` with `value`.
  void Set(const std::string& name, double value, const std::string& unit);
  /// Median of the samples of `name`; 0 when there are none.
  double MedianOf(const std::string& name) const;

  bool correct() const { return correct_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// One JSON line with the verdict, the operation counts and the
  /// median of every metric (non-finite values are left out).
  std::string ResultLine() const;

 private:
  struct Metric {
    std::vector<double> samples;
    std::string unit;
  };
  bool correct_ = true;
  bool counting_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, Metric> metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
