#include "perfbench/workloads.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include "bench/bench_util.h"
#include "common/epc.h"
#include "common/random.h"
#include "common/wire.h"
#include "compress/well_formed.h"
#include "dist/coordinator.h"
#include "dist/runner.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "query/block_cache.h"
#include "query/event_log.h"
#include "query/segment_log.h"
#include "sim/simulator.h"
#include "sim/transfer.h"
#include "spire/pipeline.h"
#include "store/archive_reader.h"
#include "store/archive_writer.h"
#include "store/segment.h"

namespace perfbench {
namespace {

using spire::ArchiveOptions;
using spire::ArchiveReader;
using spire::ArchiveWriter;
using spire::BlockCache;
using spire::CompressionLevel;
using spire::Epoch;
using spire::EpochReadings;
using spire::EventLog;
using spire::EventStream;
using spire::LocationId;
using spire::ObjectId;
using spire::PipelineOptions;
using spire::Result;
using spire::SegmentLog;
using spire::SimConfig;
using spire::SpirePipeline;
using spire::Status;
using spire::Stay;
using Clock = std::chrono::steady_clock;

/// The tail percentile every latency reports; the run must hold at least
/// ten samples beyond it (the provenance line says whether it does).
constexpr double kTail = 0.99;
/// transfer16's set-up is repeated this many times per run and reported as
/// the median; ingest instead times the set-up of every pass.
constexpr int kSetupSamples = 5;
/// Segment opens (the query workloads' set-up, and store.open_us) are
/// cheaper, so they are sampled more often.
constexpr int kOpenSamples = 15;
/// Closed-loop client count of the parallel query passes, and node count of
/// the parallel dist runs: one per hardware thread of the 4-vCPU machine the
/// benchmark was sized on.
constexpr int kClients = 4;
constexpr int kNodes = 4;
/// transfer16: SimConfig::Validate's site cap, over few enough epochs that
/// one run holds several serial and about a dozen loopback runs.
constexpr int kTransferSites = 16;
constexpr Epoch kTransferEpochs = 2700;
/// Latency samples kept per run. The cap keeps the benchmark's own memory
/// (and so peak_rss_mb) independent of how many passes a run fits in.
constexpr std::size_t kMaxLatencySamples = 200000;
/// Requests per query pass, sized so a 4-client pass lasts a few hundred
/// milliseconds (a short pass is dominated by its slowest client's stalls),
/// and the warm-up prefix every set-up serves: enough for `track` to cache
/// every block, and to fill `inventory`'s smaller cache.
constexpr std::size_t kTrackRequests = 80000;
constexpr std::size_t kTrackWarmup = 20000;
constexpr std::size_t kInventoryRequests = 4000;
constexpr std::size_t kInventoryWarmup = 500;
/// Zipf exponent of object popularity in `track`: YCSB's default Zipfian
/// constant (Cooper et al., SoCC 2010). An assumption, not observed traffic.
constexpr double kZipfExponent = 0.99;
/// `track`'s cache holds every decoded block (queryserve's default size).
constexpr std::uint64_t kTrackCacheBytes = 64ull << 20;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Micros(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

std::string Format(const char* fmt, double value) {
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer), fmt, value);
  return buffer;
}

void RemoveArchive(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(spire::IndexPathFor(path), ec);
}

std::uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void AddTail(Outcome* outcome, const std::string& name,
             std::vector<double> samples, double q = kTail) {
  std::sort(samples.begin(), samples.end());
  const Tail tail = TailOf(samples, q);
  outcome->metrics[name] = tail.value;
  outcome->tails.emplace_back(name, tail);
}

double PeakRssMb() {
  return static_cast<double>(spire::bench::PeakRssBytes()) / (1024.0 * 1024.0);
}

/// Traced legs: the registry and tracer are on only inside this scope; the
/// spans it recorded are read back, with self times, by Finish().
class TracedLeg {
 public:
  explicit TracedLeg(std::string path) : path_(std::move(path)) {
    spire::obs::Registry::Global().Reset();
    spire::obs::SetEnabled(true);
    status_ = spire::obs::Tracer::Global().Start(path_);
  }
  TracedLeg(const TracedLeg&) = delete;
  TracedLeg& operator=(const TracedLeg&) = delete;
  ~TracedLeg() { (void)Stop(); }

  std::uint64_t Counter(const char* module, const char* name) const {
    return spire::obs::Registry::Global().GetCounter(module, name)->value();
  }
  const spire::obs::Histogram* Histogram(const char* module,
                                         const char* name) const {
    return spire::obs::Registry::Global().GetHistogram(module, name);
  }

  /// Ends the session and returns the recorded spans with self times.
  Result<std::vector<Span>> Finish() {
    Status status = Stop();
    if (!status.ok()) return status;
    auto spans = ReadTraceFile(path_);
    std::error_code ec;
    std::filesystem::remove(path_, ec);
    if (!spans.ok()) return spans.status();
    ComputeSelfTimes(&spans.value());
    return spans;
  }

 private:
  Status Stop() {
    if (stopped_) return Status::OK();
    stopped_ = true;
    Status stop = spire::obs::Tracer::Global().Stop();
    spire::obs::SetEnabled(false);
    return status_.ok() ? stop : status_;
  }

  std::string path_;
  Status status_;
  bool stopped_ = false;
};

/// The pipeline layers' per-epoch times (from the pipeline's own spans) and
/// counters, shared by ingest (per epoch) and transfer16 (per site-epoch).
void ReportPipelineLayers(const TracedLeg& leg, const std::vector<Span>& spans,
                          double epochs, Outcome* outcome) {
  const auto totals = TotalsByName(spans);
  auto per_epoch = [&](const char* key, bool self) {
    auto it = totals.find(key);
    if (it == totals.end()) return 0.0;
    return Ratio(static_cast<double>(self ? it->second.self_us
                                          : it->second.total_us),
                 epochs);
  };
  auto counter = [&](const char* module, const char* name) {
    return static_cast<double>(leg.Counter(module, name));
  };
  auto& m = outcome->metrics;
  m["stream.smooth_us_per_epoch"] = per_epoch("pipeline/smooth", true);
  m["stream.duplicates_dropped_frac"] =
      Ratio(counter("stream", "duplicates_dropped"),
            counter("stream", "readings_in"));
  m["graph.update_us_per_epoch"] = per_epoch("pipeline/graph_update", true);
  m["graph.edges_created"] = counter("graph", "edges_created");
  m["graph.edges_removed"] = counter("graph", "edges_removed");
  m["inference.conflict_us_per_epoch"] = per_epoch("pipeline/conflict", false);
  m["inference.nodes_reinferred_per_pass"] =
      Ratio(counter("inference", "nodes_reinferred"),
            counter("inference", "passes_complete"));
  m["inference.cache_hit_frac"] =
      Ratio(counter("inference", "cache_hits"),
            counter("inference", "estimates"));
  m["inference.waves"] = counter("inference", "waves");
  m["compress.us_per_epoch"] = per_epoch("pipeline/compress", true);
  m["compress.suppressed_locations"] =
      counter("compress", "suppressed_locations");
  m["store.append_us_per_epoch"] = per_epoch("pipeline/archive_append", false);
  m["store.blocks_sealed"] = counter("store", "blocks_sealed");
}

// --- ingest ----------------------------------------------------------------

/// The paper's Section VI-D output workload, pre-generated.
struct IngestTrace {
  std::unique_ptr<spire::WarehouseSimulator> sim;  ///< Owns the registry.
  std::vector<Epoch> epoch_ids;
  std::vector<EpochReadings> epochs;
  std::size_t readings = 0;
  Epoch finish_epoch = 0;
};

SimConfig IngestConfig(std::uint64_t seed) {
  SimConfig config = spire::bench::PaperOutputConfig(/*full=*/false);
  config.seed = seed;
  return config;
}

Result<IngestTrace> GenerateIngestTrace(std::uint64_t seed) {
  auto sim = spire::WarehouseSimulator::Create(IngestConfig(seed));
  if (!sim.ok()) return sim.status();
  IngestTrace trace;
  trace.sim = std::move(sim).value();
  while (!trace.sim->Done()) {
    trace.epochs.push_back(trace.sim->Step());
    trace.epoch_ids.push_back(trace.sim->current_epoch());
    trace.readings += trace.epochs.back().size();
  }
  trace.finish_epoch = trace.sim->current_epoch() + 1;
  return trace;
}

/// One closed-loop pass of the trace through a fresh pipeline and archive.
struct IngestPass {
  Status status;
  /// Pipeline construction and ArchiveWriter::Open.
  double setup_s = 0.0;
  /// ProcessEpoch time of every epoch, plus Finish and archive Close.
  double run_s = 0.0;
  std::vector<double> epoch_us;
  std::vector<bool> complete;
  EventStream out;
  std::uint64_t failed_epochs = 0;
  std::size_t peak_nodes = 0;
  double update_seconds = 0.0;
};

IngestPass RunIngestPass(const IngestTrace& trace, const std::string& path,
                         CompressionLevel level) {
  IngestPass pass;
  RemoveArchive(path);
  PipelineOptions options;
  options.level = level;
  const auto setup_start = Clock::now();
  SpirePipeline pipeline(&trace.sim->registry(), options);
  auto writer = ArchiveWriter::Open(path, ArchiveOptions{});
  pass.setup_s = SecondsSince(setup_start);
  if (!writer.ok()) {
    pass.status = writer.status();
    return pass;
  }
  pipeline.SetArchiveSink(writer.value().get());
  pass.epoch_us.reserve(trace.epochs.size());
  pass.complete.reserve(trace.epochs.size());
  double run_us = 0.0;
  for (std::size_t i = 0; i < trace.epochs.size(); ++i) {
    EpochReadings readings = trace.epochs[i];
    const auto start = Clock::now();
    {
      spire::obs::ScopedSpan span("perfbench", "process_epoch",
                                  trace.epoch_ids[i]);
      pipeline.ProcessEpoch(trace.epoch_ids[i], std::move(readings),
                            &pass.out);
    }
    const double us = Micros(start, Clock::now());
    run_us += us;
    pass.epoch_us.push_back(us);
    pass.complete.push_back(pipeline.last_epoch_complete());
    if (!pipeline.archive_status().ok()) ++pass.failed_epochs;
    pass.peak_nodes = std::max(pass.peak_nodes, pipeline.graph().NumNodes());
  }
  const auto finish_start = Clock::now();
  pipeline.Finish(trace.finish_epoch, &pass.out);
  Status close = writer.value()->Close();
  run_us += Micros(finish_start, Clock::now());
  pass.run_s = run_us / 1e6;
  pass.update_seconds = pipeline.total_costs().update_seconds;
  if (!pipeline.archive_status().ok()) {
    pass.status = pipeline.archive_status();
  } else if (!close.ok()) {
    pass.status = close;
  }
  return pass;
}

/// The ingest gates: the archive holds exactly the in-memory output, which
/// is well-formed and the same on every pass.
void CheckIngestPass(const IngestPass& pass, const std::string& path,
                     const EventStream* first, Outcome* outcome) {
  if (!pass.status.ok()) return;  // Counted as failed epochs.
  Status well_formed = spire::ValidateWellFormed(pass.out);
  if (!well_formed.ok()) {
    outcome->Fail("ingest output is not well-formed: " +
                  well_formed.ToString());
  }
  auto reader = ArchiveReader::Open(path);
  if (!reader.ok()) {
    outcome->Fail("ingest archive does not open: " +
                  reader.status().ToString());
    return;
  }
  auto scanned = reader.value().ScanAll();
  if (!scanned.ok() || scanned.value() != pass.out) {
    outcome->Fail("ingest archive ScanAll() differs from the output stream");
  }
  if (first != nullptr && pass.out != *first) {
    outcome->Fail("ingest output differs between passes");
  }
}

struct IngestSummary {
  std::vector<double> rates;
  std::vector<double> setups;
  std::vector<double> epoch_us;
  std::vector<double> complete_epoch_us;
  std::uint64_t segment_bytes = 0;
  std::uint64_t spix_bytes = 0;
  /// The first pass's output; every later pass must reproduce it.
  EventStream output;
};

/// Untraced passes until `seconds` have elapsed (at least one).
IngestSummary MeasureIngest(const IngestTrace& trace, const std::string& dir,
                            double seconds, Outcome* outcome) {
  IngestSummary summary;
  const std::string path = dir + "/ingest.sparc";
  const auto start = Clock::now();
  do {
    IngestPass pass = RunIngestPass(trace, path, CompressionLevel::kLevel2);
    outcome->attempted += trace.epochs.size();
    outcome->failed += pass.status.ok()
                           ? pass.failed_epochs
                           : std::max<std::uint64_t>(pass.failed_epochs, 1);
    CheckIngestPass(pass, path,
                    summary.rates.empty() ? nullptr : &summary.output, outcome);
    summary.rates.push_back(static_cast<double>(trace.readings) / pass.run_s);
    summary.setups.push_back(pass.setup_s);
    for (std::size_t i = 0; i < pass.epoch_us.size() &&
                            summary.epoch_us.size() < kMaxLatencySamples;
         ++i) {
      summary.epoch_us.push_back(pass.epoch_us[i]);
      if (pass.complete[i]) summary.complete_epoch_us.push_back(pass.epoch_us[i]);
    }
    summary.segment_bytes = FileBytes(path);
    summary.spix_bytes = FileBytes(spire::IndexPathFor(path));
    if (summary.output.empty()) summary.output = std::move(pass.out);
  } while (SecondsSince(start) < seconds);
  RemoveArchive(path);
  return summary;
}

void ReportIngestLatencies(const IngestSummary& summary,
                           std::size_t readings, Outcome* outcome) {
  outcome->metrics["epoch_p50_us"] = Median(summary.epoch_us);
  AddTail(outcome, "epoch_p99_us", summary.epoch_us);
  AddTail(outcome, "complete_epoch_p50_us", summary.complete_epoch_us, 0.5);
  outcome->metrics["output_bytes_per_reading"] =
      Ratio(static_cast<double>(summary.segment_bytes + summary.spix_bytes),
            static_cast<double>(readings));
}

void RunIngest(const RunOptions& options, Outcome* outcome) {
  auto trace = GenerateIngestTrace(options.seed);
  if (!trace.ok()) {
    outcome->Fail("ingest trace: " + trace.status().ToString());
    return;
  }
  const IngestTrace& t = trace.value();
  outcome->notes.push_back(
      "ingest: " + std::to_string(t.readings) + " readings over " +
      std::to_string(t.epochs.size()) + " epochs (PaperOutputConfig, 6 h)");

  const double untraced_seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  IngestSummary summary =
      MeasureIngest(t, options.work_dir, untraced_seconds, outcome);
  const double rate = Median(summary.rates);
  std::string rates;
  for (double r : summary.rates) rates += Format(" %.0f", r);
  outcome->notes.push_back(
      std::to_string(summary.rates.size()) + " pass(es), " +
      std::to_string(summary.output.size()) +
      " level-2 events; readings/s per pass:" +
      rates);

  if (!options.trace) {
    outcome->metrics["setup_s"] = Median(summary.setups);
    outcome->metrics["ops_per_s"] = rate;
    // One feeder drives one pipeline: the job has no parallel form, so its
    // single-threaded baseline is the same run.
    outcome->metrics["serial_ops_per_s"] = rate;
    outcome->metrics["peak_rss_mb"] = PeakRssMb();
    ReportIngestLatencies(summary, t.readings, outcome);
    return;
  }
  ReportIngestLatencies(summary, t.readings, outcome);

  // Bytes ledger, stage by stage; level 1 needs one extra untraced pass.
  const std::string level1_path = options.work_dir + "/ingest_l1.sparc";
  IngestPass level1 = RunIngestPass(t, level1_path, CompressionLevel::kLevel1);
  outcome->attempted += t.epochs.size();
  outcome->failed += level1.failed_epochs;
  CheckIngestPass(level1, level1_path, nullptr, outcome);
  RemoveArchive(level1_path);
  const double readings = static_cast<double>(t.readings);
  outcome->metrics["ledger.raw_bytes_per_reading"] =
      static_cast<double>(spire::kReadingWireBytes);
  outcome->metrics["ledger.level1_bytes_per_reading"] = Ratio(
      static_cast<double>(level1.out.size() * spire::kEventWireBytes), readings);
  outcome->metrics["ledger.level2_bytes_per_reading"] = Ratio(
      static_cast<double>(summary.output.size() * spire::kEventWireBytes),
      readings);
  outcome->metrics["ledger.segment_bytes_per_reading"] =
      Ratio(static_cast<double>(summary.segment_bytes), readings);
  outcome->metrics["ledger.spix_bytes_per_reading"] =
      Ratio(static_cast<double>(summary.spix_bytes), readings);
  outcome->metrics["store.segment_bytes"] =
      static_cast<double>(summary.segment_bytes);
  outcome->metrics["store.spix_bytes"] = static_cast<double>(summary.spix_bytes);

  // The traced pass.
  const std::string path = options.work_dir + "/ingest_traced.sparc";
  TracedLeg leg(options.work_dir + "/trace.json");
  IngestPass pass = RunIngestPass(t, path, CompressionLevel::kLevel2);
  auto spans = leg.Finish();
  outcome->attempted += t.epochs.size();
  outcome->failed += pass.failed_epochs;
  // Tracing must not change what the pipeline emits.
  CheckIngestPass(pass, path, &summary.output, outcome);
  RemoveArchive(path);
  if (!spans.ok()) {
    outcome->Fail("ingest trace parse: " + spans.status().ToString());
    return;
  }
  const double epochs = static_cast<double>(t.epochs.size());
  ReportPipelineLayers(leg, spans.value(), epochs, outcome);
  // Inference spans split by the pass kind the epoch ran.
  double partial_us = 0.0, complete_us = 0.0;
  std::size_t partial_n = 0, complete_n = 0;
  for (const Span& span : spans.value()) {
    if (span.category != "pipeline" || span.name != "inference") continue;
    const auto index = static_cast<std::size_t>(span.epoch - t.epoch_ids[0]);
    if (index < pass.complete.size() && pass.complete[index]) {
      complete_us += static_cast<double>(span.dur_us);
      ++complete_n;
    } else {
      partial_us += static_cast<double>(span.dur_us);
      ++partial_n;
    }
  }
  outcome->metrics["graph.update_us_per_epoch_costs"] =
      pass.update_seconds * 1e6 / epochs;
  outcome->metrics["graph.peak_nodes"] = static_cast<double>(pass.peak_nodes);
  outcome->metrics["inference.partial_us_per_epoch"] =
      Ratio(partial_us, static_cast<double>(partial_n));
  outcome->metrics["inference.complete_us_per_pass"] =
      Ratio(complete_us, static_cast<double>(complete_n));
  outcome->metrics["compress.events_out"] = static_cast<double>(pass.out.size());
  const double traced_rate = Ratio(static_cast<double>(t.readings), pass.run_s);
  outcome->metrics["trace_overhead"] = Ratio(rate, traced_rate);
  outcome->metrics["trace_overhead_base_ops_per_s"] = rate;
}

// --- transfer16 ------------------------------------------------------------

Result<spire::TransferTrace> GenerateTransferTrace(std::uint64_t seed) {
  SimConfig config = spire::bench::SweepConfig(/*full=*/false);
  config.seed = seed;
  config.duration_epochs = kTransferEpochs;
  config.transfer_sites = kTransferSites;
  config.transfer_interval = 90;
  config.transfer_round_trips = 2;
  return spire::BuildTransferTrace(config);
}

struct TransferSummary {
  std::vector<double> serial_rates;
  std::vector<double> rates;
  /// The serial reference's output; every run must reproduce it.
  EventStream reference;
};

/// Alternates serial-reference and 4-node loopback runs until `seconds`
/// have elapsed (at least one of each); every loopback output must equal
/// the reference.
TransferSummary MeasureTransfer(const spire::serve::Workload& workload,
                                const spire::TransferTrace& trace,
                                double readings, double seconds,
                                Outcome* outcome) {
  TransferSummary summary;
  EventStream& reference = summary.reference;
  const auto start = Clock::now();
  int step = 0;
  do {
    // Two loopback runs per reference run: the reference is ~3x slower.
    if (step % 3 == 0) {
      const auto run_start = Clock::now();
      EventStream out =
          spire::dist::RunDistReference(workload, trace.hops, PipelineOptions{});
      summary.serial_rates.push_back(readings / SecondsSince(run_start));
      ++outcome->attempted;
      if (reference.empty()) {
        reference = std::move(out);
      } else if (out != reference) {
        outcome->Fail("transfer16 serial reference differs between runs");
      }
    } else {
      spire::dist::DistOptions dist;
      dist.num_nodes = kNodes;
      const auto run_start = Clock::now();
      spire::dist::DistResult result;
      {
        spire::obs::ScopedSpan span("perfbench", "dist_loopback");
        result = spire::dist::RunDistLoopback(workload, trace.hops, dist);
      }
      const double wall = SecondsSince(run_start);
      ++outcome->attempted;
      if (!result.status.ok()) {
        ++outcome->failed;
      } else {
        summary.rates.push_back(readings / wall);
        if (result.events != reference) {
          outcome->Fail("transfer16 loopback output differs from "
                        "RunDistReference");
        }
      }
    }
    ++step;
  } while (step < 2 || SecondsSince(start) < seconds);
  return summary;
}

void RunTransfer(const RunOptions& options, Outcome* outcome) {
  auto trace = GenerateTransferTrace(options.seed);
  if (!trace.ok()) {
    outcome->Fail("transfer16 trace: " + trace.status().ToString());
    return;
  }
  spire::TransferTrace& t = trace.value();
  std::size_t total = 0;
  for (const spire::SiteTrace& site : t.sites) total += site.total_readings;
  const double readings = static_cast<double>(total);
  outcome->notes.push_back(
      "transfer16: " + std::to_string(total) + " readings, " +
      std::to_string(t.sites.size()) + " sites, " +
      std::to_string(t.num_epochs) + " epochs, " +
      std::to_string(t.hops.size()) + " hops; " + std::to_string(kNodes) +
      " loopback nodes");

  // Set-up: turning the trace into the dist workload.
  std::vector<double> setups;
  Result<spire::serve::Workload> workload = Status::Internal("unset");
  for (int i = 0; i < kSetupSamples; ++i) {
    const auto setup_start = Clock::now();
    workload = spire::dist::ToWorkload(t);
    setups.push_back(SecondsSince(setup_start));
    if (!workload.ok()) {
      outcome->Fail("transfer16 workload: " + workload.status().ToString());
      return;
    }
  }
  // The workload holds its own copy of the readings.
  for (spire::SiteTrace& site : t.sites) {
    std::vector<EpochReadings>().swap(site.epochs);
  }

  const double untraced_seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  TransferSummary summary = MeasureTransfer(workload.value(), t, readings,
                                            untraced_seconds, outcome);
  const double rate = Median(summary.rates);
  std::string rates;
  for (double r : summary.serial_rates) rates += Format(" %.0f", r);
  rates += " |";
  for (double r : summary.rates) rates += Format(" %.0f", r);
  outcome->notes.push_back(std::to_string(summary.serial_rates.size()) +
                           " serial run(s), " +
                           std::to_string(summary.rates.size()) +
                           " loopback run(s); readings/s per run:" + rates);
  if (!options.trace) {
    outcome->metrics["setup_s"] = Median(setups);
    outcome->metrics["ops_per_s"] = rate;
    outcome->metrics["serial_ops_per_s"] = Median(summary.serial_rates);
    outcome->metrics["peak_rss_mb"] = PeakRssMb();
    return;
  }

  // The traced run: one 4-node loopback run.
  TracedLeg leg(options.work_dir + "/trace.json");
  spire::dist::DistOptions dist;
  dist.num_nodes = kNodes;
  const auto run_start = Clock::now();
  spire::dist::DistResult result;
  {
    spire::obs::ScopedSpan span("perfbench", "dist_loopback");
    result = spire::dist::RunDistLoopback(workload.value(), t.hops, dist);
  }
  const double wall_s = SecondsSince(run_start);
  ++outcome->attempted;
  if (!result.status.ok()) {
    ++outcome->failed;
  } else if (result.events != summary.reference) {
    outcome->Fail("transfer16 traced loopback output differs from "
                  "RunDistReference");
  }
  auto spans = leg.Finish();
  if (!spans.ok()) {
    outcome->Fail("transfer16 trace parse: " + spans.status().ToString());
    return;
  }
  auto counter = [&](const char* name) {
    return static_cast<double>(leg.Counter("dist", name));
  };
  outcome->metrics["dist.bytes_per_reading"] = Ratio(counter("bytes"), readings);
  outcome->metrics["dist.frames"] = counter("frames");
  outcome->metrics["dist.bytes_epoch_work"] = counter("bytes_epoch_work");
  outcome->metrics["dist.bytes_site_batch"] = counter("bytes_site_batch");
  outcome->metrics["dist.bytes_barrier"] = counter("bytes_barrier");
  outcome->metrics["dist.bytes_handoff"] = counter("bytes_handoff");
  outcome->metrics["dist.barrier_waits"] = counter("barrier_waits");
  const spire::obs::Histogram* handoff =
      leg.Histogram("dist", "handoff_latency_us");
  Tail tail;
  tail.q = kTail;
  tail.value = handoff->Quantile(kTail);
  tail.samples = handoff->count();
  tail.beyond = SamplesBeyond(tail.samples, kTail);
  outcome->tails.emplace_back("dist.handoff_p99_us", tail);
  outcome->metrics["dist.handoff_p50_us"] = handoff->Quantile(0.5);
  outcome->metrics["dist.handoff_p99_us"] = tail.value;
  outcome->metrics["compress.events_out"] =
      static_cast<double>(result.events.size());

  // Node busy fraction: pipeline epoch time per node thread over the run.
  std::map<int, double> busy_us;
  double loop_us = 0.0;
  double site_epochs = 0.0;
  for (const Span& span : spans.value()) {
    if (span.category == "pipeline" && span.name == "epoch") {
      busy_us[span.tid] += static_cast<double>(span.dur_us);
      site_epochs += 1.0;
    } else if (span.category == "perfbench" && span.name == "dist_loopback") {
      loop_us = static_cast<double>(span.dur_us);
    }
  }
  double busy_min = 0.0, busy_max = 0.0;
  for (auto it = busy_us.begin(); it != busy_us.end(); ++it) {
    const double frac = Ratio(it->second, loop_us);
    busy_min = it == busy_us.begin() ? frac : std::min(busy_min, frac);
    busy_max = std::max(busy_max, frac);
  }
  outcome->metrics["dist.node_busy_frac_min"] = busy_min;
  outcome->metrics["dist.node_busy_frac_max"] = busy_max;
  std::vector<double> per_node(kNodes, 0.0);
  for (int node = 0; node < kNodes; ++node) {
    for (int site : spire::dist::SitesOfNode(node, kTransferSites, kNodes)) {
      per_node[static_cast<std::size_t>(node)] +=
          static_cast<double>(t.sites[static_cast<std::size_t>(site)].total_readings);
    }
  }
  outcome->metrics["dist.partition_skew"] =
      Ratio(*std::max_element(per_node.begin(), per_node.end()),
            readings / kNodes);

  ReportPipelineLayers(leg, spans.value(), site_epochs, outcome);
  outcome->metrics["trace_overhead"] = Ratio(rate, readings / wall_s);
  outcome->metrics["trace_overhead_base_ops_per_s"] = rate;
}

// --- track and inventory -----------------------------------------------------

enum class Kind {
  kLocationAt,
  kContainerAt,
  kContentsAt,
  kObjectsAt,
  kTrajectoryOf,
  kIsMissingAt,
};
constexpr int kNumKinds = 6;

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kLocationAt: return "location_at";
    case Kind::kContainerAt: return "container_at";
    case Kind::kContentsAt: return "contents_at";
    case Kind::kObjectsAt: return "objects_at";
    case Kind::kTrajectoryOf: return "trajectory_of";
    case Kind::kIsMissingAt: return "is_missing_at";
  }
  return "?";
}

struct Request {
  Kind kind = Kind::kLocationAt;
  std::uint64_t id = 0;  ///< ObjectId, or LocationId for kObjectsAt.
  Epoch epoch = 0;
  bool transitive = false;
};

/// One answer in a canonical word form: equal answers, equal words.
struct Answer {
  Status status;
  std::vector<std::uint64_t> words;
};

void PushIds(const std::vector<ObjectId>& ids, Answer* answer) {
  answer->words.insert(answer->words.end(), ids.begin(), ids.end());
}

void PushStays(const std::vector<Stay>& stays, Answer* answer) {
  for (const Stay& stay : stays) {
    answer->words.push_back(static_cast<std::uint64_t>(stay.start));
    answer->words.push_back(static_cast<std::uint64_t>(stay.end));
    answer->words.push_back(stay.location);
  }
}

template <typename T, typename Push>
void Take(Result<T> result, Answer* answer, Push push) {
  if (!result.ok()) {
    answer->status = result.status();
    return;
  }
  push(result.value());
}

Answer Ask(const SegmentLog& log, const Request& r) {
  Answer a;
  switch (r.kind) {
    case Kind::kLocationAt:
      Take(log.LocationAt(r.id, r.epoch), &a,
           [&](LocationId v) { a.words.push_back(v); });
      break;
    case Kind::kContainerAt:
      Take(log.ContainerAt(r.id, r.epoch), &a,
           [&](ObjectId v) { a.words.push_back(v); });
      break;
    case Kind::kContentsAt:
      Take(log.ContentsAt(r.id, r.epoch, r.transitive), &a,
           [&](const std::vector<ObjectId>& v) { PushIds(v, &a); });
      break;
    case Kind::kObjectsAt:
      Take(log.ObjectsAt(static_cast<LocationId>(r.id), r.epoch), &a,
           [&](const std::vector<ObjectId>& v) { PushIds(v, &a); });
      break;
    case Kind::kTrajectoryOf:
      Take(log.TrajectoryOf(r.id), &a,
           [&](const std::vector<Stay>& v) { PushStays(v, &a); });
      break;
    case Kind::kIsMissingAt:
      Take(log.IsMissingAt(r.id, r.epoch), &a,
           [&](bool v) { a.words.push_back(v ? 1 : 0); });
      break;
  }
  return a;
}

Answer Ask(const EventLog& log, const Request& r) {
  Answer a;
  switch (r.kind) {
    case Kind::kLocationAt:
      a.words.push_back(log.LocationAt(r.id, r.epoch));
      break;
    case Kind::kContainerAt:
      a.words.push_back(log.ContainerAt(r.id, r.epoch));
      break;
    case Kind::kContentsAt:
      PushIds(log.ContentsAt(r.id, r.epoch, r.transitive), &a);
      break;
    case Kind::kObjectsAt:
      PushIds(log.ObjectsAt(static_cast<LocationId>(r.id), r.epoch), &a);
      break;
    case Kind::kTrajectoryOf:
      PushStays(log.TrajectoryOf(r.id), &a);
      break;
    case Kind::kIsMissingAt:
      a.words.push_back(log.IsMissingAt(r.id, r.epoch) ? 1 : 0);
      break;
  }
  return a;
}

std::uint64_t HashAnswer(const Answer& answer, std::size_t request_index) {
  // splitmix64 over the words, seeded by the request's position so the
  // order-independent sum still ties each answer to its request.
  std::uint64_t h = 0x9e3779b97f4a7c15ull * (request_index + 1);
  auto mix = [&](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 31;
  };
  mix(answer.words.size());
  for (std::uint64_t w : answer.words) mix(w);
  return h;
}

struct PassResult {
  double wall_s = 0.0;
  std::uint64_t checksum = 0;
  std::uint64_t failed = 0;
  std::array<std::vector<double>, kNumKinds> kind_us;
};

/// Serves requests[0, count) with `clients` closed-loop clients over one
/// shared log (client c takes every clients-th request from c).
template <typename Log>
PassResult ServePass(const Log& log, const std::vector<Request>& requests,
                     std::size_t count, int clients) {
  struct ClientState {
    std::uint64_t checksum = 0;
    std::uint64_t failed = 0;
    std::array<std::vector<double>, kNumKinds> kind_us;
  };
  std::vector<ClientState> state(static_cast<std::size_t>(clients));
  auto client = [&](int c) {
    // Accumulate locally: neighbouring ClientStates share cache lines.
    ClientState s;
    for (std::size_t i = static_cast<std::size_t>(c); i < count;
         i += static_cast<std::size_t>(clients)) {
      const Request& r = requests[i];
      const auto start = Clock::now();
      Answer answer;
      {
        spire::obs::ScopedSpan span("perfbench", "query");
        answer = Ask(log, r);
      }
      s.kind_us[static_cast<int>(r.kind)].push_back(Micros(start, Clock::now()));
      if (!answer.status.ok()) ++s.failed;
      s.checksum += HashAnswer(answer, i);
    }
    state[static_cast<std::size_t>(c)] = std::move(s);
  };
  const auto start = Clock::now();
  if (clients == 1) {
    client(0);
  } else {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) threads.emplace_back(client, c);
    for (std::thread& thread : threads) thread.join();
  }
  PassResult result;
  result.wall_s = SecondsSince(start);
  for (ClientState& s : state) {
    result.checksum += s.checksum;
    result.failed += s.failed;
    for (int k = 0; k < kNumKinds; ++k) {
      result.kind_us[k].insert(result.kind_us[k].end(), s.kind_us[k].begin(),
                               s.kind_us[k].end());
    }
  }
  return result;
}

/// Samples index i with probability proportional to 1 / (i + 1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t Next(spire::Pcg32& rng) const {
    const double u = rng.NextDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// A uniform epoch inside the blocks a posting list spans (an assumption,
/// like the rest of the query traffic; see README.md).
Epoch EpochIn(const ArchiveReader& reader,
              const std::vector<std::uint32_t>& postings, spire::Pcg32& rng) {
  const Epoch lo = reader.blocks()[postings.front()].min_epoch;
  const Epoch hi = reader.blocks()[postings.back()].max_epoch;
  return rng.NextInRange(lo, std::max(lo, hi));
}

/// `track`: object-keyed point queries, Zipf-popular objects.
std::vector<Request> TrackRequests(const ArchiveReader& reader,
                                   std::uint64_t seed) {
  static constexpr Kind kKinds[] = {Kind::kLocationAt, Kind::kContainerAt,
                                    Kind::kContentsAt, Kind::kTrajectoryOf,
                                    Kind::kIsMissingAt};
  spire::Pcg32 rng(seed ^ 0x7ac4);
  std::vector<ObjectId> objects;
  for (const auto& [object, postings] : reader.object_postings()) {
    if (!postings.empty()) objects.push_back(object);
  }
  // Popularity rank is a seeded shuffle of the archived objects.
  for (std::size_t i = objects.size(); i > 1; --i) {
    std::swap(objects[i - 1],
              objects[rng.NextBounded(static_cast<std::uint32_t>(i))]);
  }
  const Zipf zipf(objects.size(), kZipfExponent);
  std::vector<Request> requests;
  requests.reserve(kTrackRequests);
  for (std::size_t i = 0; i < kTrackRequests; ++i) {
    Request r;
    r.kind = kKinds[rng.NextBounded(5)];
    r.id = objects[zipf.Next(rng)];
    r.epoch = EpochIn(reader, *reader.PostingsForObject(r.id), rng);
    requests.push_back(r);
  }
  return requests;
}

/// `inventory`: location-wide and transitive container-wide queries.
std::vector<Request> InventoryRequests(const ArchiveReader& reader,
                                       std::uint64_t seed) {
  spire::Pcg32 rng(seed ^ 0x1a7e);
  std::vector<LocationId> locations;
  for (const auto& [location, postings] : reader.location_postings()) {
    if (!postings.empty()) locations.push_back(location);
  }
  std::vector<ObjectId> containers;
  for (const auto& [object, postings] : reader.object_postings()) {
    if (spire::EpcLevel(object) != spire::PackagingLevel::kItem &&
        reader.PostingsForContainer(object) != nullptr) {
      containers.push_back(object);
    }
  }
  std::vector<Request> requests;
  requests.reserve(kInventoryRequests);
  for (std::size_t i = 0; i < kInventoryRequests; ++i) {
    Request r;
    if (rng.NextBounded(2) == 0 || containers.empty()) {
      r.kind = Kind::kObjectsAt;
      r.id = locations[rng.NextBounded(
          static_cast<std::uint32_t>(locations.size()))];
      r.epoch = EpochIn(reader, *reader.PostingsForLocation(
                                    static_cast<LocationId>(r.id)),
                        rng);
    } else {
      r.kind = Kind::kContentsAt;
      r.transitive = true;
      r.id = containers[rng.NextBounded(
          static_cast<std::uint32_t>(containers.size()))];
      r.epoch = EpochIn(reader, *reader.PostingsForContainer(r.id), rng);
    }
    requests.push_back(r);
  }
  return requests;
}

/// Builds the archive `ingest`'s trace produces (input generation, not
/// timed): the simulator streams straight into one level-2 pipeline.
Status BuildQueryArchive(std::uint64_t seed, const std::string& path,
                         std::size_t* readings) {
  auto sim = spire::WarehouseSimulator::Create(IngestConfig(seed));
  if (!sim.ok()) return sim.status();
  spire::WarehouseSimulator& s = *sim.value();
  RemoveArchive(path);
  auto writer = ArchiveWriter::Open(path, ArchiveOptions{});
  if (!writer.ok()) return writer.status();
  SpirePipeline pipeline(&s.registry(), PipelineOptions{});
  pipeline.SetArchiveSink(writer.value().get());
  EventStream out;
  *readings = 0;
  while (!s.Done()) {
    EpochReadings epoch = s.Step();
    *readings += epoch.size();
    pipeline.ProcessEpoch(s.current_epoch(), std::move(epoch), &out);
    out.clear();  // The archive keeps the stream; memory stays flat.
  }
  pipeline.Finish(s.current_epoch() + 1, &out);
  if (!pipeline.archive_status().ok()) return pipeline.archive_status();
  return writer.value()->Close();
}

struct QuerySummary {
  std::vector<double> setups;
  std::vector<double> rates;     ///< kClients clients.
  std::vector<double> rates_1c;  ///< One client.
  /// Per-kind latencies at kClients clients, from the passes it takes to
  /// hold kMaxLatencySamples.
  std::array<std::vector<double>, kNumKinds> kind_us;
  std::size_t latency_samples = 0;
};

void RunQuery(const RunOptions& options, bool track, Outcome* outcome) {
  const std::string name = track ? "track" : "inventory";
  const std::string path = options.work_dir + "/" + name + ".sparc";
  std::size_t readings = 0;
  Status built = BuildQueryArchive(options.seed, path, &readings);
  if (!built.ok()) {
    outcome->Fail(name + " archive: " + built.ToString());
    return;
  }
  auto reader = ArchiveReader::Open(path);
  if (!reader.ok()) {
    outcome->Fail(name + " archive open: " + reader.status().ToString());
    return;
  }
  const ArchiveReader& archive = reader.value();
  const std::vector<Request> requests =
      track ? TrackRequests(archive, options.seed)
            : InventoryRequests(archive, options.seed);
  const std::size_t warmup =
      std::min(track ? kTrackWarmup : kInventoryWarmup, requests.size());

  // Decoded footprint: what a cache holding every block would charge.
  std::uint64_t footprint = 0;
  for (const spire::BlockMeta& block : archive.blocks()) {
    footprint += block.count * sizeof(spire::Event) +
                 BlockCache::kEntryOverheadBytes;
  }
  const std::uint64_t capacity = track ? kTrackCacheBytes : footprint / 4;
  outcome->notes.push_back(
      name + ": " + std::to_string(requests.size()) + " requests over " +
      std::to_string(archive.num_events()) + " events in " +
      std::to_string(archive.num_blocks()) + " blocks (" +
      std::to_string(readings) + " readings); cache " +
      std::to_string(capacity) + " B of a " + std::to_string(footprint) +
      " B decoded footprint");

  // The honest baseline: a resident EventLog built once.
  const auto eventlog_start = Clock::now();
  auto eventlog = EventLog::FromArchive(archive, 0, spire::kInfiniteEpoch,
                                        /*decompress=*/false);
  const double eventlog_build_s = SecondsSince(eventlog_start);
  if (!eventlog.ok()) {
    outcome->Fail(name + " EventLog: " + eventlog.status().ToString());
    return;
  }
  // Its answer checksum is the one every segment-direct pass must match.
  const PassResult eventlog_pass =
      ServePass(eventlog.value(), requests, requests.size(), 1);
  const std::uint64_t checksum = eventlog_pass.checksum;
  const double eventlog_qps =
      static_cast<double>(requests.size()) / eventlog_pass.wall_s;
  outcome->notes.push_back("resident EventLog built in " +
                           Format("%.3f s", eventlog_build_s) + ", serves " +
                           Format("%.1f req/s at 1 client", eventlog_qps));

  // Set-up: a fresh cache and SegmentLog::Open, timed kOpenSamples times
  // here and once more before every pair of timed passes, so that its median
  // spans the run rather than one moment of it. The first log serves every
  // timed pass. Its warm-up prefix is served after, untimed: that cost
  // depends on the seed's requests, not on what the system sets up.
  QuerySummary summary;
  auto open_log = [&](std::shared_ptr<BlockCache>* cache) {
    const auto setup_start = Clock::now();
    *cache = std::make_shared<BlockCache>(capacity);
    auto opened = SegmentLog::Open(path, spire::ReaderOptions{}, *cache);
    summary.setups.push_back(SecondsSince(setup_start));
    return opened;
  };
  auto sample_setup = [&] {
    std::shared_ptr<BlockCache> spare;
    if (!open_log(&spare).ok()) outcome->Fail(name + ": SegmentLog reopen");
  };
  std::shared_ptr<BlockCache> cache;
  auto opened = open_log(&cache);
  if (!opened.ok()) {
    outcome->Fail(name + " SegmentLog open: " + opened.status().ToString());
    return;
  }
  const std::unique_ptr<SegmentLog> log = std::move(opened).value();
  for (int i = 1; i < kOpenSamples; ++i) sample_setup();
  const auto warm_start = Clock::now();
  const PassResult warm = ServePass(*log, requests, warmup, 1);
  outcome->attempted += warmup;
  outcome->failed += warm.failed;
  outcome->notes.push_back("warm-up of " + std::to_string(warmup) +
                           " requests at 1 client took " +
                           Format("%.3f s", SecondsSince(warm_start)));

  // Exact answers on a deterministic sample, against the resident log.
  for (std::size_t i = 0; i < requests.size(); i += 8) {
    const Answer direct = Ask(*log, requests[i]);
    const Answer expect = Ask(eventlog.value(), requests[i]);
    if (direct.status.ok() && direct.words != expect.words) {
      outcome->Fail(name + " " + KindName(requests[i].kind) + "(" +
                    std::to_string(requests[i].id) + ", " +
                    std::to_string(requests[i].epoch) +
                    ") differs from the EventLog answer");
      break;
    }
  }

  auto record = [&](const PassResult& pass, int clients) {
    outcome->attempted += requests.size();
    outcome->failed += pass.failed;
    if (pass.checksum != checksum) {
      outcome->Fail(name + ": answer checksum at " + std::to_string(clients) +
                    " client(s) differs from the EventLog's");
    }
    const double rate = static_cast<double>(requests.size()) / pass.wall_s;
    if (clients == 1) {
      summary.rates_1c.push_back(rate);
      return;
    }
    summary.rates.push_back(rate);
    if (summary.latency_samples >= kMaxLatencySamples) return;
    for (int k = 0; k < kNumKinds; ++k) {
      summary.kind_us[k].insert(summary.kind_us[k].end(),
                                pass.kind_us[k].begin(), pass.kind_us[k].end());
      summary.latency_samples += pass.kind_us[k].size();
    }
  };

  // Timed passes, alternating 1 and kClients clients.
  const double untraced_seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  const BlockCache::Stats before = cache->GetStats();
  const auto start = Clock::now();
  do {
    sample_setup();
    record(ServePass(*log, requests, requests.size(), 1), 1);
    record(ServePass(*log, requests, requests.size(), kClients), kClients);
  } while (SecondsSince(start) < untraced_seconds);

  // Cache counters must reconcile.
  const BlockCache::Stats stats = cache->GetStats();
  if (stats.hits + stats.misses != stats.lookups) {
    outcome->Fail(name + ": cache hits + misses != lookups");
  }
  if (log->blocks_decoded() > stats.misses) {
    outcome->Fail(name + ": blocks decoded exceed cache misses");
  }
  outcome->notes.push_back(
      std::to_string(summary.rates_1c.size()) + " pass(es) at 1 client, " +
      std::to_string(summary.rates.size()) + " at " +
      std::to_string(kClients) + "; timed cache hit fraction " +
      Format("%.4f", Ratio(static_cast<double>(stats.hits - before.hits),
                           static_cast<double>(stats.lookups -
                                               before.lookups))));
  const double rate = Median(summary.rates);

  std::vector<double> latency_us;
  for (const std::vector<double>& kind : summary.kind_us) {
    latency_us.insert(latency_us.end(), kind.begin(), kind.end());
  }
  outcome->metrics["query_p50_us"] = Median(latency_us);
  AddTail(outcome, "query_p99_us", std::move(latency_us));
  if (!options.trace) {
    outcome->metrics["setup_s"] = Median(summary.setups);
    outcome->metrics["ops_per_s"] = rate;
    outcome->metrics["serial_ops_per_s"] = Median(summary.rates_1c);
    outcome->metrics["peak_rss_mb"] = PeakRssMb();
    RemoveArchive(path);
    return;
  }
  outcome->metrics["query.eventlog_qps"] = eventlog_qps;
  for (int k = 0; k < kNumKinds; ++k) {
    if (summary.kind_us[k].empty()) continue;
    const std::string prefix =
        std::string("query.") + KindName(static_cast<Kind>(k));
    outcome->metrics[prefix + "_p50_us"] = Median(summary.kind_us[k]);
    AddTail(outcome, prefix + "_p99_us", summary.kind_us[k]);
  }

  // The traced leg: fixed work on a fresh, warmed log.
  TracedLeg leg(options.work_dir + "/trace.json");
  auto traced_cache = std::make_shared<BlockCache>(capacity);
  auto traced = SegmentLog::Open(path, spire::ReaderOptions{}, traced_cache);
  if (!traced.ok()) {
    outcome->Fail(name + " SegmentLog open: " + traced.status().ToString());
    return;
  }
  const SegmentLog& traced_log = *traced.value();
  const PassResult traced_warm = ServePass(traced_log, requests, warmup, 1);
  const BlockCache::Stats traced_before = traced_cache->GetStats();
  const std::uint64_t decoded_before = traced_log.blocks_decoded();
  const PassResult traced_1c =
      ServePass(traced_log, requests, requests.size(), 1);
  const PassResult traced_pass =
      ServePass(traced_log, requests, requests.size(), kClients);
  outcome->attempted += 2 * requests.size() + warmup;
  outcome->failed += traced_warm.failed + traced_1c.failed + traced_pass.failed;
  if (traced_1c.checksum != checksum || traced_pass.checksum != checksum) {
    outcome->Fail(name + ": traced answers differ from the untraced ones");
  }
  const BlockCache::Stats traced_after = traced_cache->GetStats();
  const double traced_queries = 2.0 * static_cast<double>(requests.size());
  outcome->metrics["query.cache_hit_frac"] =
      Ratio(static_cast<double>(traced_after.hits - traced_before.hits),
            static_cast<double>(traced_after.lookups - traced_before.lookups));
  outcome->metrics["query.blocks_decoded_per_query"] =
      Ratio(static_cast<double>(traced_log.blocks_decoded() - decoded_before),
            traced_queries);
  outcome->metrics["query.cache_evictions"] =
      static_cast<double>(traced_after.evictions - traced_before.evictions);

  // Posting lookups of every request's key, timed as one span.
  std::size_t found = 0;
  {
    spire::obs::ScopedSpan span("perfbench", "postings");
    for (const Request& r : requests) {
      const std::vector<std::uint32_t>* postings =
          r.kind == Kind::kObjectsAt
              ? archive.PostingsForLocation(static_cast<LocationId>(r.id))
          : r.kind == Kind::kContentsAt
              ? archive.PostingsForContainer(r.id)
              : archive.PostingsForObject(r.id);
      found += postings != nullptr ? 1 : 0;
    }
  }
  // Every block decoded five times.
  std::uint64_t decodes = 0;
  for (int round = 0; round < 5; ++round) {
    for (std::uint32_t b = 0; b < archive.num_blocks(); ++b) {
      spire::obs::ScopedSpan span("perfbench", "decode_block");
      auto block = archive.DecodeOneBlock(b);
      ++decodes;
      if (!block.ok()) ++outcome->failed;
    }
  }
  outcome->attempted += decodes;
  // Segment opens.
  std::vector<double> opens;
  for (int i = 0; i < kOpenSamples; ++i) {
    const auto open_start = Clock::now();
    auto opened = ArchiveReader::Open(path);
    opens.push_back(Micros(open_start, Clock::now()));
    if (!opened.ok()) outcome->Fail(name + ": archive reopen failed");
  }
  auto spans = leg.Finish();
  if (!spans.ok()) {
    outcome->Fail(name + " trace parse: " + spans.status().ToString());
    return;
  }
  const auto totals = TotalsByName(spans.value());
  if (auto it = totals.find("perfbench/postings"); it != totals.end()) {
    outcome->metrics["query.postings_ns"] =
        Ratio(static_cast<double>(it->second.total_us) * 1000.0,
              static_cast<double>(requests.size()));
  }
  if (auto it = totals.find("perfbench/decode_block"); it != totals.end()) {
    outcome->metrics["store.decode_us_per_block"] =
        Ratio(static_cast<double>(it->second.total_us),
              static_cast<double>(it->second.count));
  }
  outcome->metrics["store.open_us"] = Median(opens);
  outcome->metrics["trace_overhead"] =
      Ratio(rate, static_cast<double>(requests.size()) / traced_pass.wall_s);
  outcome->metrics["trace_overhead_base_ops_per_s"] = rate;
  outcome->notes.push_back(std::to_string(found) + " of " +
                           std::to_string(requests.size()) +
                           " request keys have a posting list");
  RemoveArchive(path);
}

}  // namespace

Outcome RunWorkload(const RunOptions& options) {
  Outcome outcome;
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (options.workload == "ingest") {
    RunIngest(options, &outcome);
  } else if (options.workload == "transfer16") {
    RunTransfer(options, &outcome);
  } else if (options.workload == "track") {
    RunQuery(options, /*track=*/true, &outcome);
  } else if (options.workload == "inventory") {
    RunQuery(options, /*track=*/false, &outcome);
  } else {
    outcome.Fail("unknown workload: " + options.workload);
  }
  return outcome;
}

}  // namespace perfbench
