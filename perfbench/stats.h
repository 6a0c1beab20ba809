// The benchmark's own arithmetic: order statistics over timing samples and
// span self time over a recorded trace. Kept apart from the workloads so
// stats_test.cc can check it on hand-made inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least q * n samples at or below it. q in [0, 1]; 0 for an empty input.
double Percentile(const std::vector<double>& sorted, double q);

/// How many samples of an n-sample set lie strictly above the value
/// Percentile(q) selects.
std::size_t SamplesBeyond(std::size_t n, double q);

/// Median of an unsorted sample (mean of the middle pair for even n).
double Median(std::vector<double> values);

/// A timing tail as reported: the percentile used, the sample count behind
/// it, and whether at least ten samples lie beyond it.
struct Tail {
  double q = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  bool supported() const { return beyond >= 10; }
};

/// Percentile q of `sorted` with its provenance.
Tail TailOf(const std::vector<double>& sorted, double q);

/// One complete span of a Chrome trace ("ph":"X").
struct Span {
  std::string category;
  std::string name;
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
  int tid = 0;
  std::int64_t epoch = -1;
  /// Position in the trace; a span ends (and is recorded) after its
  /// children, so a later record wins ties on identical intervals.
  std::size_t order = 0;
  /// Filled by ComputeSelfTimes: dur_us minus the part of the interval
  /// covered by the span's direct children on the same thread.
  std::uint64_t self_us = 0;
};

/// Parses one trace event line written by obs::Tracer (one event per line,
/// possibly wrapped in the file's leading "{\"traceEvents\":[" and trailing
/// "," or "]..."). Sets *is_span when the line holds a complete span; other
/// lines (async begin/end, the metadata tail) leave it false.
spire::Status ParseTraceLine(std::string_view line, Span* span, bool* is_span);

/// Reads a whole trace file written by obs::Tracer::Stop() and returns its
/// complete spans in file order, parsing each event with obs/json.
spire::Result<std::vector<Span>> ReadTraceFile(const std::string& path);

/// Sets self_us on every span. Spans nest by interval on one thread (the
/// RAII ScopedSpan discipline); a span's direct children are the outermost
/// spans inside it, and their union is subtracted from its duration.
void ComputeSelfTimes(std::vector<Span>* spans);

/// Sums over spans keyed "category/name".
struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t total_us = 0;
  std::uint64_t self_us = 0;
};
std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans);

}  // namespace perfbench
