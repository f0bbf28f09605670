#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

namespace perfbench {

namespace {

// Every significant digit, so the text reads back as the same double.
std::string Number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string Quoted(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

double NearestRank(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux
}

double ProcStatusMb(const char* field) {
  std::ifstream in("/proc/self/status");
  const std::string prefix = std::string(field) + ":";
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) != 0) continue;
    std::istringstream fields(line.substr(prefix.size()));
    double kb = 0.0;
    fields >> kb;
    return kb / 1024.0;
  }
  return 0.0;
}

double SpanRecorder::Scope::End() {
  ended_ = true;
  const Clock::time_point end = Clock::now();
  if (index_ >= 0) recorder_->Close(index_, end);
  return SecondsBetween(start_, end);
}

SpanRecorder::Scope SpanRecorder::Begin(const std::string& name) {
  const Clock::time_point start = Clock::now();
  if (!enabled_) return Scope(this, -1, start);
  Span span;
  span.name = name;
  span.start_s = SecondsBetween(origin_, start);
  span.end_s = span.start_s;
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return Scope(this, index, start);
}

void SpanRecorder::Close(int index, Clock::time_point end) {
  spans_[static_cast<size_t>(index)].end_s = SecondsBetween(origin_, end);
  // Spans close in LIFO order on one thread; tolerate an out-of-order
  // close by removing the index wherever it sits.
  auto it = std::find(open_.rbegin(), open_.rend(), index);
  if (it != open_.rend()) open_.erase(std::next(it).base());
}

std::map<std::string, SpanRecorder::LayerTime> SpanRecorder::LayerTimes()
    const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_s,
                                                              span.end_s);
    }
  }
  std::map<std::string, LayerTime> layers;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // Union of the child intervals, clipped to the span.
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = span.start_s;
    for (const auto& [start, end] : kids) {
      const double from = std::max(start, reach);
      const double to = std::min(end, span.end_s);
      if (to > from) covered += to - from;
      reach = std::max(reach, to);
    }
    LayerTime& layer = layers[span.name];
    ++layer.count;
    layer.total_s += span.end_s - span.start_s;
    layer.self_s += span.end_s - span.start_s - covered;
  }
  return layers;
}

bool SpanRecorder::WriteJson(const std::string& path,
                             const std::string& workload,
                             uint64_t seed) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"schema\": \"perfbench.trace.v1\", \"workload\": "
      << Quoted(workload) << ", \"seed\": " << seed
      << ", \"run_id\": " << Quoted(std::to_string(run_id_))
      << ",\n \"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "\n  " : ",\n  ") << "{\"id\": " << i
        << ", \"name\": " << Quoted(span.name)
        << ", \"parent\": " << span.parent
        << ", \"run_id\": " << Quoted(std::to_string(run_id_))
        << ", \"start_s\": " << Number(span.start_s)
        << ", \"end_s\": " << Number(span.end_s) << "}";
  }
  out << "],\n \"layers\": {";
  bool first = true;
  for (const auto& [name, layer] : LayerTimes()) {
    out << (first ? "\n  " : ",\n  ") << Quoted(name)
        << ": {\"count\": " << layer.count
        << ", \"total_s\": " << Number(layer.total_s)
        << ", \"self_s\": " << Number(layer.self_s) << "}";
    first = false;
  }
  out << "}}\n";
  return out.good();
}

void RunReport::Failed(const std::string& what) {
  ++failed_;
  std::fprintf(stderr, "perfbench: failed operation: %s\n", what.c_str());
}

void RunReport::Mismatch(const std::string& what) {
  correct_ = false;
  ++failed_;
  std::fprintf(stderr, "perfbench: output check failed: %s\n", what.c_str());
}

void RunReport::Add(const std::string& name, double value,
                    const std::string& unit) {
  Metric& metric = metrics_[name];
  metric.samples.push_back(value);
  metric.unit = unit;
}

void RunReport::Set(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Metric{{value}, unit};
}

double RunReport::MedianOf(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : Median(it->second.samples);
}

std::string RunReport::ResultLine() const {
  std::string line = std::string("{\"correct\": ") +
                     (correct_ ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    const double value = Median(metric.samples);
    if (metric.samples.empty() || !std::isfinite(value)) continue;
    line += (first ? "" : ", ") + Quoted(name) + ": {\"value\": " +
            Number(value) + ", \"unit\": " + Quoted(metric.unit) + "}";
    first = false;
  }
  return line + "}}";
}

}  // namespace perfbench
