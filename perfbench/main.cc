// One workload of SPIRE's end-to-end, per-layer benchmark (README.md).
// run.py builds and starts it, and turns its output into the result.
//
//   perfbench --workload <ingest|transfer16|track|inventory> --seed <n>
//             --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Prints notes, any mismatches, a provenance line, and as the last line one
// JSON object {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// mapping every metric the run measured to its value. Exits 1 on any wrong
// output, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>

#include "perfbench/workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string Number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

[[noreturn]] void Usage(const char* error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<ingest|transfer16|track|inventory> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\n",
               error);
  std::exit(2);
}

RunOptions ParseArgs(int argc, char** argv) {
  RunOptions options;
  options.work_dir = ".bench_build/work";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("--seed must be a whole number");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0)) {
        Usage("--seconds must be a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  return options;
}

int Main(int argc, char** argv) {
  const RunOptions options = ParseArgs(argc, argv);
  const Outcome outcome = RunWorkload(options);

  for (const std::string& note : outcome.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  for (const std::string& error : outcome.errors) {
    std::printf("MISMATCH: %s\n", error.c_str());
  }

  std::ostringstream provenance;
  provenance << "{\"workload\":\"" << options.workload
             << "\",\"seed\":" << options.seed
             << ",\"seconds\":" << Number(options.seconds)
             << ",\"trace\":" << (options.trace ? 1 : 0)
             << ",\"nproc\":" << std::thread::hardware_concurrency()
             << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
             << "\",\"tails\":{";
  for (std::size_t i = 0; i < outcome.tails.size(); ++i) {
    const auto& [name, tail] = outcome.tails[i];
    provenance << (i > 0 ? "," : "") << "\"" << name
               << "\":{\"percentile\":" << Number(tail.q * 100)
               << ",\"samples\":" << tail.samples
               << ",\"beyond\":" << tail.beyond
               << ",\"supported\":" << (tail.supported() ? "true" : "false")
               << "}";
  }
  provenance << "}}";
  std::printf("provenance: %s\n", provenance.str().c_str());

  std::ostringstream result;
  result << "{\"correct\":" << (outcome.correct ? "true" : "false")
         << ",\"attempted\":" << outcome.attempted
         << ",\"failed\":" << outcome.failed << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : outcome.metrics) {
    result << (first ? "" : ",") << "\"" << name << "\":" << Number(value);
    first = false;
  }
  result << "}}";
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return outcome.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
