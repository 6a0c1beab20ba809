// Unit tests of the observability layer (src/obs): histogram bucket math
// and quantile interpolation, concurrent instrument recording (the
// SPIRE_SANITIZE=thread build makes these real races if they are), trace
// JSON well-formedness, registry dump round-trips, and the explain log's
// JSONL shape.
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/explain.h"
#include "obs/json.h"
#include "obs/merge_trace.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace spire::obs {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(HistogramTest, BucketBoundaries) {
  // Bucket i spans [2^i, 2^(i+1)); sub-1 samples clamp up, huge samples
  // clamp into the last bucket.
  EXPECT_EQ(Histogram::BucketOf(0), 0);
  EXPECT_EQ(Histogram::BucketOf(1), 0);
  EXPECT_EQ(Histogram::BucketOf(2), 1);
  EXPECT_EQ(Histogram::BucketOf(3), 1);
  EXPECT_EQ(Histogram::BucketOf(4), 2);
  EXPECT_EQ(Histogram::BucketOf(7), 2);
  EXPECT_EQ(Histogram::BucketOf(8), 3);
  EXPECT_EQ(Histogram::BucketOf((std::uint64_t{1} << 39) - 1), 38);
  EXPECT_EQ(Histogram::BucketOf(std::uint64_t{1} << 39), 39);
  EXPECT_EQ(Histogram::BucketOf(~std::uint64_t{0}), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::BucketLowerBound(3), 8u);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 16u);

  Histogram histogram;
  histogram.Record(0);  // Clamps to 1.
  histogram.Record(1);
  histogram.Record(2);
  EXPECT_EQ(histogram.bucket(0), 2u);
  EXPECT_EQ(histogram.bucket(1), 1u);
  EXPECT_EQ(histogram.count(), 3u);
}

TEST(HistogramTest, QuantileInterpolatesWithinBucket) {
  // Four samples of 10 all land in bucket 3 = [8, 16): the k-th of c
  // samples reports lower + k/c * width.
  Histogram histogram;
  for (int i = 0; i < 4; ++i) histogram.Record(10);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.25), 10.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.50), 12.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.75), 14.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.00), 16.0);
  // q=0 still reports the first sample's position, never a negative rank.
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.0), 10.0);
}

TEST(HistogramTest, QuantileCrossesBuckets) {
  Histogram histogram;
  histogram.Record(1);  // Bucket 0 = [1, 2).
  histogram.Record(8);  // Bucket 3 = [8, 16).
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 2.0);   // Top of bucket 0.
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), 16.0);  // Top of bucket 3.
  EXPECT_DOUBLE_EQ(histogram.mean(), 4.5);
  EXPECT_DOUBLE_EQ(histogram.max(), 8.0);
}

TEST(HistogramTest, EmptyAndReset) {
  Histogram histogram;
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(histogram.mean(), 0.0);
  histogram.Record(100);
  histogram.Reset();
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.99), 0.0);
}

TEST(HistogramTest, RecordSecondsUsesMicroseconds) {
  Histogram histogram;
  histogram.RecordSeconds(0.001);  // 1000 us -> bucket 9 = [512, 1024).
  EXPECT_EQ(histogram.bucket(9), 1u);
  histogram.RecordSeconds(-1.0);  // Clamps to 1 us.
  EXPECT_EQ(histogram.bucket(0), 1u);
}

// Samples a live histogram into the plain-value mirror the fleet layer
// ships over the wire (the same copy Registry::TakeSnapshot makes).
HistogramSnapshot SnapshotOf(const Histogram& histogram) {
  HistogramSnapshot snapshot;
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    snapshot.buckets[i] = histogram.bucket(i);
  }
  snapshot.count = histogram.count();
  snapshot.total = histogram.total();
  snapshot.max = histogram.max_sample();
  return snapshot;
}

TEST(HistogramSnapshotTest, MergeMatchesOneHistogramFedBothStreams) {
  // Bucket-wise merge must be indistinguishable from a single histogram
  // that recorded both sample streams: same buckets, same count/total/max,
  // and therefore bit-identical interpolated quantiles.
  const std::vector<std::uint64_t> stream_a = {1, 3, 10, 100, 4096, 77};
  const std::vector<std::uint64_t> stream_b = {2, 10, 500000, 8, 8, 9, 1};
  Histogram a;
  Histogram b;
  Histogram both;
  for (std::uint64_t v : stream_a) {
    a.Record(v);
    both.Record(v);
  }
  for (std::uint64_t v : stream_b) {
    b.Record(v);
    both.Record(v);
  }
  HistogramSnapshot merged = SnapshotOf(a);
  merged.Merge(SnapshotOf(b));
  EXPECT_EQ(merged, SnapshotOf(both));
  EXPECT_EQ(merged.count, stream_a.size() + stream_b.size());
  EXPECT_DOUBLE_EQ(merged.mean(), both.mean());
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(merged.Quantile(q), both.Quantile(q)) << "q=" << q;
  }
  // Quantiles stay monotone and bounded by the max sample's bucket top.
  EXPECT_LE(merged.Quantile(0.5), merged.Quantile(0.95));
  EXPECT_LE(merged.Quantile(0.95), merged.Quantile(0.99));
  EXPECT_LE(merged.Quantile(0.99),
            static_cast<double>(
                Histogram::BucketUpperBound(Histogram::BucketOf(merged.max))));
}

TEST(HistogramSnapshotTest, MergeEmptyAndSingleBucketEdgeCases) {
  // Empty + empty stays empty.
  HistogramSnapshot empty;
  empty.Merge(HistogramSnapshot{});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.Quantile(0.99), 0.0);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);

  // An empty snapshot is the merge identity on either side.
  Histogram h;
  h.Record(10);
  h.Record(12);
  const HistogramSnapshot one = SnapshotOf(h);
  HistogramSnapshot right = one;
  right.Merge(HistogramSnapshot{});
  EXPECT_EQ(right, one);
  HistogramSnapshot left;
  left.Merge(one);
  EXPECT_EQ(left, one);

  // Two single-bucket halves merge into the exact four-sample quantiles:
  // four samples of 10 in bucket [8, 16) report 10/12/14/16 at the
  // quartiles regardless of which half each sample arrived in.
  Histogram half_a;
  half_a.Record(10);
  half_a.Record(10);
  Histogram half_b;
  half_b.Record(10);
  half_b.Record(10);
  HistogramSnapshot merged = SnapshotOf(half_a);
  merged.Merge(SnapshotOf(half_b));
  EXPECT_DOUBLE_EQ(merged.Quantile(0.25), 10.0);
  EXPECT_DOUBLE_EQ(merged.Quantile(0.50), 12.0);
  EXPECT_DOUBLE_EQ(merged.Quantile(0.75), 14.0);
  EXPECT_DOUBLE_EQ(merged.Quantile(1.00), 16.0);
}

TEST(RegistrySnapshotTest, MergeAddsCountersMaxesGaugesUnionsModules) {
  RegistrySnapshot a;
  a.modules["dist"].counters["frames"] = 10;
  a.modules["dist"].gauges["epoch_lag"] = 3;
  a.modules["graph"].counters["edges"] = 1;
  HistogramSnapshot& lat_a = a.modules["dist"].histograms["latency_us"];
  lat_a.buckets[0] = 2;
  lat_a.count = 2;
  lat_a.total = 2;
  lat_a.max = 1;

  RegistrySnapshot b;
  b.modules["dist"].counters["frames"] = 5;
  b.modules["dist"].gauges["epoch_lag"] = 7;
  b.modules["dist"].gauges["clock_offset_us"] = -4;
  b.modules["stream"].counters["readings"] = 2;
  HistogramSnapshot& lat_b = b.modules["dist"].histograms["latency_us"];
  lat_b.buckets[3] = 1;
  lat_b.count = 1;
  lat_b.total = 10;
  lat_b.max = 10;

  a.Merge(b);
  ASSERT_EQ(a.modules.size(), 3u);  // dist + graph + stream.
  const RegistrySnapshot::Module& dist = a.modules.at("dist");
  EXPECT_EQ(dist.counters.at("frames"), 15u);        // Counters add.
  EXPECT_EQ(dist.gauges.at("epoch_lag"), 7);         // Gauges take the max.
  EXPECT_EQ(dist.gauges.at("clock_offset_us"), -4);  // Union of names.
  const HistogramSnapshot& latency = dist.histograms.at("latency_us");
  EXPECT_EQ(latency.buckets[0], 2u);
  EXPECT_EQ(latency.buckets[3], 1u);
  EXPECT_EQ(latency.count, 3u);
  EXPECT_EQ(latency.total, 12u);
  EXPECT_EQ(latency.max, 10u);
  EXPECT_EQ(a.modules.at("graph").counters.at("edges"), 1u);
  EXPECT_EQ(a.modules.at("stream").counters.at("readings"), 2u);
}

TEST(RegistrySnapshotTest, TakeSnapshotMirrorsLiveValuesAndJson) {
  Registry registry;
  registry.GetCounter("dist", "frames")->Add(42);
  registry.GetGauge("dist", "clock_offset_us")->Set(-17);
  registry.GetHistogram("dist", "latency_us")->Record(100);

  const RegistrySnapshot snapshot = registry.TakeSnapshot();
  const RegistrySnapshot::Module& dist = snapshot.modules.at("dist");
  EXPECT_EQ(dist.counters.at("frames"), 42u);
  EXPECT_EQ(dist.gauges.at("clock_offset_us"), -17);
  EXPECT_EQ(dist.histograms.at("latency_us").count, 1u);

  // The snapshot dumps the exact JSON the live registry dumps.
  EXPECT_EQ(snapshot.ToJson(), registry.ToJson());
}

TEST(ObsConcurrencyTest, CountersSumAcrossThreads) {
  Counter counter;
  Gauge highwater;
  Histogram histogram;
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        counter.Add(1);
        highwater.SetMax(t * kIters + i);
        histogram.Record(static_cast<std::uint64_t>(i % 1000) + 1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(highwater.value(), (kThreads - 1) * kIters + kIters - 1);
  EXPECT_EQ(histogram.count(), static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(ObsConcurrencyTest, RegistryRegistrationIsThreadSafe) {
  Registry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      // All threads race to register and bump the same instrument.
      for (int i = 0; i < 1000; ++i) {
        registry.GetCounter("test", "shared")->Add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(registry.GetCounter("test", "shared")->value(), 8000u);
}

TEST(ObsConcurrencyTest, SnapshotVsResetIsAllOrNothing) {
  // TakeSnapshot and Reset serialize on the registry mutex: with no
  // concurrent writers, a snapshot racing a reset must see each histogram
  // either fully populated or fully zeroed — never a torn bucket array
  // (count wiped, buckets not).
  Registry registry;
  Histogram* histogram = registry.GetHistogram("test", "latency");
  Counter* counter = registry.GetCounter("test", "events");
  constexpr std::uint64_t kSamples = 1000;
  for (int round = 0; round < 50; ++round) {
    for (std::uint64_t i = 0; i < kSamples; ++i) histogram->Record(10);
    counter->Add(kSamples);
    std::thread resetter([&] { registry.Reset(); });
    for (int i = 0; i < 10; ++i) {
      const RegistrySnapshot snapshot = registry.TakeSnapshot();
      const HistogramSnapshot& h =
          snapshot.modules.at("test").histograms.at("latency");
      std::uint64_t bucket_sum = 0;
      for (std::uint64_t b : h.buckets) bucket_sum += b;
      EXPECT_EQ(bucket_sum, h.count);
      EXPECT_TRUE(h.count == 0 || h.count == kSamples) << h.count;
      EXPECT_EQ(h.total, h.count * 10);
      const std::uint64_t events = snapshot.modules.at("test").counters.at(
          "events");
      EXPECT_TRUE(events == 0 || events == kSamples) << events;
    }
    resetter.join();
  }
}

TEST(ObsConcurrencyTest, SnapshotCountTrailsBucketSumBoundedly) {
  // Writers record through relaxed atomics and are not blocked by a
  // snapshot, so count and the bucket sum may disagree — but only by the
  // number of mid-Record threads (each has at most one sample in flight).
  Registry registry;
  Histogram* histogram = registry.GetHistogram("test", "latency");
  constexpr int kWriters = 4;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) histogram->Record(10);
    });
  }
  for (int i = 0; i < 2000; ++i) {
    const RegistrySnapshot snapshot = registry.TakeSnapshot();
    const HistogramSnapshot& h =
        snapshot.modules.at("test").histograms.at("latency");
    std::uint64_t bucket_sum = 0;
    for (std::uint64_t b : h.buckets) bucket_sum += b;
    // Only this direction is bounded: the sampler reads buckets before
    // count, so records completing in between inflate count freely, but a
    // bucket increment without its count increment needs a mid-Record
    // writer — one sample in flight per thread.
    EXPECT_LE(bucket_sum, h.count + kWriters);
  }
  stop.store(true);
  for (std::thread& writer : writers) writer.join();
}

TEST(RegistryTest, StablePointersAndDumps) {
  Registry registry;
  Counter* counter = registry.GetCounter("graph", "edges");
  EXPECT_EQ(registry.GetCounter("graph", "edges"), counter);
  counter->Add(3);
  registry.GetGauge("serve", "depth")->SetMax(7);
  registry.GetHistogram("serve", "latency")->Record(100);
  registry.GetCounter("idle", "nothing");  // Registered but inactive.

  EXPECT_EQ(registry.NumActiveModules(), 2u);
  const std::string text = registry.ToText();
  EXPECT_NE(text.find("modules with activity: 2 (graph serve)"),
            std::string::npos);
  EXPECT_NE(text.find("graph.edges 3"), std::string::npos);

  auto parsed = ParseJson(registry.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* modules = parsed.value().Find("modules");
  ASSERT_NE(modules, nullptr);
  ASSERT_EQ(modules->type, JsonValue::Type::kObject);
  EXPECT_EQ(modules->object.size(), 3u);
  const JsonValue* graph = modules->Find("graph");
  ASSERT_NE(graph, nullptr);
  const JsonValue* counters = graph->Find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* edges = counters->Find("edges");
  ASSERT_NE(edges, nullptr);
  EXPECT_EQ(edges->text, "3");

  // parse -> serialize -> parse is the identity (numbers stay verbatim).
  auto round_trip = ParseJson(parsed.value().Serialize());
  ASSERT_TRUE(round_trip.ok());
  EXPECT_EQ(round_trip.value(), parsed.value());

  registry.Reset();
  EXPECT_EQ(registry.NumActiveModules(), 0u);
  EXPECT_EQ(registry.GetCounter("graph", "edges"), counter);
}

TEST(TracerTest, DisabledSpansRecordNothing) {
  Tracer& tracer = Tracer::Global();
  ASSERT_FALSE(tracer.active());
  const std::size_t before = tracer.num_events();
  {
    ScopedSpan span("test", "noop", 42);
  }
  EXPECT_EQ(tracer.num_events(), before);
}

TEST(TracerTest, WritesWellFormedChromeTrace) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "obs_test_trace.json")
          .string();
  Tracer& tracer = Tracer::Global();
  ASSERT_TRUE(tracer.Start(path).ok());
  EXPECT_FALSE(tracer.Start(path).ok());  // Second session rejected.
  {
    ScopedSpan outer("test", "outer", 7);
    ScopedSpan inner("test", "inner");
  }
  std::thread([] { ScopedSpan span("test", "worker", 8); }).join();
  EXPECT_EQ(tracer.num_events(), 3u);
  ASSERT_TRUE(tracer.Stop().ok());
  EXPECT_FALSE(tracer.active());
  EXPECT_EQ(tracer.num_events(), 0u);  // Stop drains the buffer.

  auto parsed = ParseJson(ReadFile(path));
  std::error_code ec;
  std::filesystem::remove(path, ec);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* events = parsed.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->type, JsonValue::Type::kArray);
  ASSERT_EQ(events->array.size(), 3u);

  bool saw_epoch_arg = false;
  for (const JsonValue& event : events->array) {
    const JsonValue* name = event.Find("name");
    ASSERT_NE(name, nullptr);
    EXPECT_EQ(name->type, JsonValue::Type::kString);
    const JsonValue* phase = event.Find("ph");
    ASSERT_NE(phase, nullptr);
    EXPECT_EQ(phase->text, "X");
    EXPECT_NE(event.Find("cat"), nullptr);
    EXPECT_NE(event.Find("ts"), nullptr);
    EXPECT_NE(event.Find("dur"), nullptr);
    const JsonValue* pid = event.Find("pid");
    ASSERT_NE(pid, nullptr);
    EXPECT_EQ(pid->text, "1");
    const JsonValue* tid = event.Find("tid");
    ASSERT_NE(tid, nullptr);
    // Dense thread ids: the main thread and one worker.
    EXPECT_TRUE(tid->text == "0" || tid->text == "1");
    if (const JsonValue* args = event.Find("args"); args != nullptr) {
      if (args->Find("epoch") != nullptr) saw_epoch_arg = true;
    }
  }
  EXPECT_TRUE(saw_epoch_arg);
}

TEST(TracerTest, AsyncSpansAndFleetMetadataRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "obs_test_async_trace.json")
          .string();
  Tracer& tracer = Tracer::Global();
  ASSERT_TRUE(tracer.Start(path).ok());
  tracer.SetProcessLabel("node7");
  tracer.SetClockOffsetMicros(-250);
  tracer.RecordAsync("handoff", "hop", 'b', 42, 3);
  tracer.RecordAsync("handoff", "hop", 'e', 42, 5);
  EXPECT_EQ(tracer.num_events(), 2u);
  ASSERT_TRUE(tracer.Stop().ok());

  auto parsed = ParseJson(ReadFile(path));
  std::error_code ec;
  std::filesystem::remove(path, ec);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* events = parsed.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const JsonValue& event = events->array[i];
    EXPECT_EQ(event.Find("ph")->text, i == 0 ? "b" : "e");
    EXPECT_EQ(event.Find("name")->text, "hop");
    EXPECT_EQ(event.Find("cat")->text, "handoff");
    // Async ids are strings in trace JSON, so Perfetto never coerces them.
    const JsonValue* id = event.Find("id");
    ASSERT_NE(id, nullptr);
    EXPECT_EQ(id->type, JsonValue::Type::kString);
    EXPECT_EQ(id->text, "42");
    EXPECT_NE(event.Find("ts"), nullptr);
  }

  // The "spire" block carries what merge-traces needs to put this file on
  // the fleet timeline; Perfetto ignores the unknown key.
  const JsonValue* spire = parsed.value().Find("spire");
  ASSERT_NE(spire, nullptr);
  EXPECT_NE(spire->Find("origin_us"), nullptr);
  EXPECT_EQ(spire->Find("offset_us")->text, "-250");
  EXPECT_EQ(spire->Find("process")->text, "node7");
}

TEST(MergeTraceTest, RebasesOntoFleetTimelineAndAssignsPids) {
  // Input a: fleet base 1000 + 0; input b: base 500 + 600 = 1100. The
  // merge rebases onto the earliest base, so a's timestamps hold still and
  // b's shift by +100.
  const std::string a =
      "{\"traceEvents\":[{\"name\":\"epoch\",\"cat\":\"pipeline\",\"ph\":"
      "\"X\",\"ts\":5,\"dur\":2,\"pid\":1,\"tid\":0}],"
      "\"spire\":{\"origin_us\":1000,\"offset_us\":0,"
      "\"process\":\"coordinator\"}}";
  const std::string b =
      "{\"traceEvents\":[{\"name\":\"hop\",\"cat\":\"handoff\",\"ph\":\"b\","
      "\"ts\":10,\"pid\":1,\"tid\":0,\"id\":\"4\"},"
      "{\"name\":\"hop\",\"cat\":\"handoff\",\"ph\":\"e\","
      "\"ts\":30,\"pid\":1,\"tid\":2,\"id\":\"4\"}],"
      "\"spire\":{\"origin_us\":500,\"offset_us\":600,"
      "\"process\":\"node0\"}}";
  auto merged = MergeTraceJson({a, b}, {});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  auto parsed = ParseJson(merged.value());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* events = parsed.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 5u);  // 2 process rows + 1 + 2 events.

  // Process rows first, labeled from the inputs' embedded process names.
  for (std::size_t i = 0; i < 2; ++i) {
    const JsonValue& row = events->array[i];
    EXPECT_EQ(row.Find("name")->text, "process_name");
    EXPECT_EQ(row.Find("ph")->text, "M");
    EXPECT_EQ(row.Find("pid")->text, std::to_string(i + 1));
    EXPECT_EQ(row.Find("args")->Find("name")->text,
              i == 0 ? "coordinator" : "node0");
  }

  const JsonValue& from_a = events->array[2];
  EXPECT_EQ(from_a.Find("ts")->text, "5");  // Earliest base: unshifted.
  EXPECT_EQ(from_a.Find("pid")->text, "1");
  const JsonValue& hop_begin = events->array[3];
  EXPECT_EQ(hop_begin.Find("ts")->text, "110");  // 10 + (1100 - 1000).
  EXPECT_EQ(hop_begin.Find("pid")->text, "2");
  EXPECT_EQ(hop_begin.Find("id")->text, "4");  // Async pairing intact.
  const JsonValue& hop_end = events->array[4];
  EXPECT_EQ(hop_end.Find("ts")->text, "130");
  EXPECT_EQ(hop_end.Find("tid")->text, "2");
}

TEST(MergeTraceTest, LabelsOverrideAndMissingMetadataPassesThrough) {
  // Without a "spire" block the input cannot be rebased: timestamps pass
  // through unshifted, and the explicit label names the process row.
  const std::string plain =
      "{\"traceEvents\":[{\"name\":\"n\",\"cat\":\"c\",\"ph\":\"X\","
      "\"ts\":7,\"dur\":1,\"pid\":9,\"tid\":2}]}";
  auto merged = MergeTraceJson({plain}, {"solo"});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  auto parsed = ParseJson(merged.value());
  ASSERT_TRUE(parsed.ok());
  const JsonValue* events = parsed.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 2u);
  EXPECT_EQ(events->array[0].Find("args")->Find("name")->text, "solo");
  EXPECT_EQ(events->array[1].Find("ts")->text, "7");
  EXPECT_EQ(events->array[1].Find("pid")->text, "1");  // Reassigned.
  EXPECT_EQ(events->array[1].Find("tid")->text, "2");  // Kept.

  EXPECT_FALSE(MergeTraceJson({}, {}).ok());
}

TEST(ExplainLogTest, JsonlRecordsParse) {
  ExplainLog log;
  EventProvenance provenance;
  provenance.id = 5;
  provenance.type = "StartLocation";
  provenance.object = 42;
  provenance.location = 3;
  provenance.epoch = 17;
  provenance.complete_inference = true;
  provenance.inference_waves = 4;
  provenance.winner_posterior = 0.9;
  provenance.runner_up_posterior = 0.05;
  provenance.stage = "report";
  log.RecordEvent(provenance);
  log.RecordSuppressed(43, 18, 42, "contained");

  auto event_line = ParseJson(ExplainLog::ToJsonLine(log.events()[0]));
  ASSERT_TRUE(event_line.ok()) << event_line.status().ToString();
  EXPECT_EQ(event_line.value().Find("kind")->text, "event");
  EXPECT_EQ(event_line.value().Find("id")->text, "5");
  EXPECT_EQ(event_line.value().Find("type")->text, "StartLocation");
  EXPECT_EQ(event_line.value().Find("complete_inference")->bool_value, true);
  EXPECT_EQ(event_line.value().Find("stage")->text, "report");

  auto suppressed_line =
      ParseJson(ExplainLog::ToJsonLine(log.suppressions()[0]));
  ASSERT_TRUE(suppressed_line.ok());
  EXPECT_EQ(suppressed_line.value().Find("kind")->text, "suppressed");
  EXPECT_EQ(suppressed_line.value().Find("covering_container")->text, "42");
  EXPECT_EQ(suppressed_line.value().Find("reason")->text, "contained");

  const std::string path =
      (std::filesystem::temp_directory_path() / "obs_test_explain.spexp")
          .string();
  ASSERT_TRUE(log.WriteJsonl(path).ok());
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_TRUE(ParseJson(line).ok()) << line;
    ++lines;
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
  EXPECT_EQ(lines, 2u);
}

TEST(ExplainLogTest, MatchRecordEscapesPatternAndVariableNames) {
  MatchRecord record;
  record.pattern = "bad\"name\\x";
  record.variables = {"o\"b\\j"};
  record.binding = {42, 7};  // The second variable is unnamed: "v1".
  record.step_epochs = {3};
  record.completion = 5;
  record.event_ids = {9};
  const std::string line = ExplainLog::ToJsonLine(record);
  auto parsed = ParseJson(line);
  ASSERT_TRUE(parsed.ok()) << line << ": " << parsed.status().ToString();
  EXPECT_EQ(parsed.value().Find("kind")->text, "match");
  EXPECT_EQ(parsed.value().Find("pattern")->text, record.pattern);
  const JsonValue* binding = parsed.value().Find("binding");
  ASSERT_NE(binding, nullptr);
  ASSERT_EQ(binding->object.size(), 2u);
  EXPECT_EQ(binding->object[0].first, record.variables[0]);
  EXPECT_EQ(binding->object[0].second.text, "42");
  EXPECT_EQ(binding->object[1].first, "v1");
  EXPECT_EQ(binding->object[1].second.text, "7");
}

TEST(JsonTest, NumbersStayVerbatim) {
  // kNoObject is 2^64-1: beyond double precision, so the parser must not
  // go through a double.
  auto parsed = ParseJson("{\"id\":18446744073709551615,\"x\":-0.25e2}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().Find("id")->text, "18446744073709551615");
  EXPECT_EQ(parsed.value().Serialize(),
            "{\"id\":18446744073709551615,\"x\":-0.25e2}");
}

TEST(JsonTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("{}extra").ok());
  EXPECT_FALSE(ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseJson("[1,2,-]").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_TRUE(ParseJson("{\"a\":[1,2,{\"b\":null}],\"c\":\"\\u0041\"}").ok());
}

TEST(EnabledFlagTest, TogglesProcessWide) {
  ASSERT_FALSE(Enabled());  // Tests run with instruments off by default.
  SetEnabled(true);
  EXPECT_TRUE(Enabled());
  SetEnabled(false);
  EXPECT_FALSE(Enabled());
}

}  // namespace
}  // namespace spire::obs
