#include "perfbench/stats.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "obs/json.h"

namespace perfbench {

using spire::Result;
using spire::Status;

namespace {

/// Rank (1-based) of the nearest-rank q-percentile of n samples.
std::size_t NearestRank(std::size_t n, double q) {
  const double clamped = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::size_t>(
      std::ceil(clamped * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

Status ParseUnsigned(const spire::obs::JsonValue* value, const char* key,
                     std::uint64_t* out) {
  if (value == nullptr ||
      value->type != spire::obs::JsonValue::Type::kNumber) {
    return Status::Corruption(std::string("trace event without numeric ") +
                              key);
  }
  try {
    *out = std::stoull(value->text);
  } catch (const std::exception&) {
    return Status::Corruption(std::string("trace event with bad ") + key +
                              ": " + value->text);
  }
  return Status::OK();
}

}  // namespace

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  return sorted[NearestRank(sorted.size(), q) - 1];
}

std::size_t SamplesBeyond(std::size_t n, double q) {
  if (n == 0) return 0;
  return n - NearestRank(n, q);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

Tail TailOf(const std::vector<double>& sorted, double q) {
  Tail tail;
  tail.q = q;
  tail.value = Percentile(sorted, q);
  tail.samples = sorted.size();
  tail.beyond = SamplesBeyond(sorted.size(), q);
  return tail;
}

Status ParseTraceLine(std::string_view line, Span* span, bool* is_span) {
  *is_span = false;
  // Strip the file's framing around the one event on this line.
  constexpr std::string_view kHead = "{\"traceEvents\":[";
  if (line.substr(0, kHead.size()) == kHead) line.remove_prefix(kHead.size());
  const std::size_t open = line.find('{');
  if (open == std::string_view::npos) return Status::OK();
  line.remove_prefix(open);
  // An event ends at its own closing brace: the last "}" before a trailing
  // "," (more events follow) or "]" (the metadata block follows).
  std::size_t close = line.size();
  if (const std::size_t tail = line.find("],\"spire\":");
      tail != std::string_view::npos) {
    close = tail;
  }
  while (close > 0 && line[close - 1] != '}') --close;
  if (close == 0) return Status::Corruption("truncated trace event");
  auto parsed = spire::obs::ParseJson(line.substr(0, close));
  if (!parsed.ok()) return parsed.status();
  const spire::obs::JsonValue& event = parsed.value();
  const spire::obs::JsonValue* ph = event.Find("ph");
  if (ph == nullptr || ph->text != "X") return Status::OK();
  const spire::obs::JsonValue* name = event.Find("name");
  const spire::obs::JsonValue* cat = event.Find("cat");
  if (name == nullptr || cat == nullptr) {
    return Status::Corruption("trace span without name or cat");
  }
  span->name = name->text;
  span->category = cat->text;
  std::uint64_t tid = 0;
  Status status = ParseUnsigned(event.Find("ts"), "ts", &span->ts_us);
  if (status.ok()) status = ParseUnsigned(event.Find("dur"), "dur",
                                          &span->dur_us);
  if (status.ok()) status = ParseUnsigned(event.Find("tid"), "tid", &tid);
  if (!status.ok()) return status;
  span->tid = static_cast<int>(tid);
  span->epoch = -1;
  if (const spire::obs::JsonValue* args = event.Find("args")) {
    std::uint64_t epoch = 0;
    if (args->Find("epoch") != nullptr) {
      status = ParseUnsigned(args->Find("epoch"), "epoch", &epoch);
      if (!status.ok()) return status;
      span->epoch = static_cast<std::int64_t>(epoch);
    }
  }
  *is_span = true;
  return Status::OK();
}

Result<std::vector<Span>> ReadTraceFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open trace: " + path);
  std::vector<Span> spans;
  std::string line;
  while (std::getline(in, line)) {
    Span span;
    bool is_span = false;
    Status status = ParseTraceLine(line, &span, &is_span);
    if (!status.ok()) return status;
    if (!is_span) continue;
    span.order = spans.size();
    spans.push_back(std::move(span));
  }
  return spans;
}

void ComputeSelfTimes(std::vector<Span>* spans) {
  // Visit each thread's spans parents-first: by start, then longer first,
  // then later-recorded first (an enclosing span is recorded after its
  // children, which decides identical microsecond-rounded intervals).
  std::vector<std::size_t> order(spans->size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Span& x = (*spans)[a];
    const Span& y = (*spans)[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.ts_us != y.ts_us) return x.ts_us < y.ts_us;
    if (x.dur_us != y.dur_us) return x.dur_us > y.dur_us;
    return x.order > y.order;
  });

  // Stack of open ancestors; for each, the covered end so far (children
  // arrive in start order, so their union grows left to right).
  struct Open {
    std::size_t index;
    std::uint64_t end;
    std::uint64_t covered_until;
    std::uint64_t covered;
  };
  std::vector<Open> stack;
  auto close_top = [&] {
    Open top = stack.back();
    stack.pop_back();
    Span& span = (*spans)[top.index];
    span.self_us = span.dur_us > top.covered ? span.dur_us - top.covered : 0;
  };
  int tid = 0;
  for (std::size_t index : order) {
    Span& span = (*spans)[index];
    const std::uint64_t start = span.ts_us;
    const std::uint64_t end = span.ts_us + span.dur_us;
    if (!stack.empty() && span.tid != tid) {
      while (!stack.empty()) close_top();
    }
    tid = span.tid;
    while (!stack.empty() && start >= stack.back().end) close_top();
    // A span that starts inside the parent but overruns it (rounding)
    // is clipped to the parent's interval.
    if (!stack.empty()) {
      Open& parent = stack.back();
      const std::uint64_t from = std::max(start, parent.covered_until);
      const std::uint64_t to = std::min(end, parent.end);
      if (to > from) {
        parent.covered += to - from;
        parent.covered_until = to;
      }
    }
    stack.push_back(Open{index, end, start, 0});
  }
  while (!stack.empty()) close_top();
}

std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans) {
  std::map<std::string, SpanTotals> totals;
  for (const Span& span : spans) {
    SpanTotals& t = totals[span.category + "/" + span.name];
    ++t.count;
    t.total_us += span.dur_us;
    t.self_us += span.self_us;
  }
  return totals;
}

}  // namespace perfbench
