// The benchmark's four workloads (README.md has the why of each).
//
// Every workload generates its inputs from the seed before any timing,
// then either measures the untraced system for the run's seconds
// (end-to-end metrics) or, with `trace`, splits the run into a shorter
// untraced leg and one fixed-work traced leg with the obs::Tracer and
// registry on (per-layer metrics and the tracing overhead).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/stats.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for archives and the trace file.
  std::string work_dir;
};

struct Outcome {
  /// False on any output mismatch; `errors` says which.
  bool correct = true;
  std::vector<std::string> errors;
  /// Operations attempted, and those that returned an error status.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Metrics by name; BENCHMARK.json gives their units.
  std::map<std::string, double> metrics;
  /// Provenance of every reported percentile.
  std::vector<std::pair<std::string, Tail>> tails;
  /// Human-readable notes printed ahead of the result.
  std::vector<std::string> notes;

  void Fail(std::string error) {
    correct = false;
    errors.push_back(std::move(error));
  }
};

/// Runs one workload; unknown names fail the outcome.
Outcome RunWorkload(const RunOptions& options);

}  // namespace perfbench
