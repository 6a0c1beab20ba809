#include "dist/coordinator.h"

#include <algorithm>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "obs/registry.h"
#include "serve/merger.h"
#include "serve/queue.h"

namespace spire::dist {

namespace {

obs::Counter* BarrierWaitsCounter() {
  if (!obs::Enabled()) return nullptr;
  static obs::Counter* counter =
      obs::Registry::Global().GetCounter("dist", "barrier_waits");
  return counter;
}

/// The coordinator's fleet-health instruments: per-node clock skew and
/// epoch lag, the fleet-wide worst lag, and the Barrier heartbeat gap.
/// Sized to the run's node count, so built per run rather than as a
/// static.
struct FleetInstruments {
  obs::Histogram* heartbeat_gap_us;
  obs::Gauge* max_epoch_lag;
  obs::Gauge* slowest_node;
  std::vector<obs::Gauge*> clock_skew_us;
  std::vector<obs::Gauge*> epoch_lag;
};

std::unique_ptr<FleetInstruments> MakeFleetInstruments(int num_nodes) {
  if (!obs::Enabled()) return nullptr;
  auto& registry = obs::Registry::Global();
  auto out = std::make_unique<FleetInstruments>();
  out->heartbeat_gap_us = registry.GetHistogram("fleet", "heartbeat_gap_us");
  out->max_epoch_lag = registry.GetGauge("fleet", "max_epoch_lag");
  out->slowest_node = registry.GetGauge("fleet", "slowest_node");
  for (int n = 0; n < num_nodes; ++n) {
    const std::string node = "node" + std::to_string(n);
    out->clock_skew_us.push_back(
        registry.GetGauge("fleet", node + "_clock_skew_us"));
    out->epoch_lag.push_back(registry.GetGauge("fleet", node + "_epoch_lag"));
  }
  return out;
}

}  // namespace

std::vector<int> SitesOfNode(int node, int num_sites, int num_nodes) {
  std::vector<int> sites;
  for (int site = node; site < num_sites; site += num_nodes) {
    sites.push_back(site);
  }
  return sites;
}

DistResult RunDistCoordinator(const serve::Workload& workload,
                              const std::vector<TransferHop>& hops,
                              const DistOptions& options,
                              const std::vector<Conn*>& conns) {
  DistResult result;
  const int num_nodes = static_cast<int>(conns.size());
  const int num_sites = static_cast<int>(workload.sites.size());
  if (num_nodes < 1 || num_nodes > num_sites) {
    result.status = Status::InvalidArgument(
        "node count must be in [1, site count]");
    return result;
  }
  const Epoch window =
      static_cast<Epoch>(options.inflight_epochs < 1 ? 1
                                                     : options.inflight_epochs);

  std::vector<std::vector<int>> sites_of(num_nodes);
  std::vector<std::size_t> batches_per_queue(num_nodes);
  for (int n = 0; n < num_nodes; ++n) {
    sites_of[n] = SitesOfNode(n, num_sites, num_nodes);
    batches_per_queue[n] = sites_of[n].size();
  }

  std::vector<std::unique_ptr<serve::BoundedQueue<serve::SiteBatch>>> queues;
  std::vector<serve::BoundedQueue<serve::SiteBatch>*> queue_ptrs;
  for (int n = 0; n < num_nodes; ++n) {
    queues.push_back(std::make_unique<serve::BoundedQueue<serve::SiteBatch>>(
        static_cast<std::size_t>(window) * batches_per_queue[n] + 1));
    queue_ptrs.push_back(queues.back().get());
  }

  // Hops in flight and barrier progress, shared by the reader threads and
  // the feeder.
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Epoch> barriers(static_cast<std::size_t>(num_nodes), 0);
  std::vector<std::uint8_t> finished(static_cast<std::size_t>(num_nodes), 0);
  std::unordered_map<std::uint64_t, HandoffPayload> ready_handoffs;
  Status error;
  bool aborted = false;

  const std::unique_ptr<FleetInstruments> fleet =
      MakeFleetInstruments(num_nodes);
  if (options.stats_interval_epochs > 0) {
    result.node_stats.resize(static_cast<std::size_t>(num_nodes));
  }

  /// Latches the first error and unblocks every wait: queues (merger and
  /// blocked pushes), connections (blocked reads on both sides), and the
  /// shared condition variable.
  auto fail = [&](Status status) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!aborted) {
        error = std::move(status);
        aborted = true;
      }
    }
    cv.notify_all();
    for (auto& queue : queues) queue->Close();
    for (Conn* conn : conns) conn->Close();
  };

  auto reader = [&](int n) {
    for (;;) {
      Frame frame;
      bool eof = false;
      Status status = RecvFrame(conns[static_cast<std::size_t>(n)], &frame,
                                &eof);
      if (!status.ok()) {
        fail(std::move(status));
        break;
      }
      if (eof) {
        bool clean = false;
        {
          std::lock_guard<std::mutex> lock(mu);
          clean = finished[static_cast<std::size_t>(n)] != 0;
        }
        if (!clean) {
          fail(Status::Internal("node " + std::to_string(n) +
                                " disconnected before finish"));
        }
        break;
      }
      if (frame.type == FrameType::kHello) {
        Result<HelloPayload> hello = DecodeHello(frame.payload);
        if (!hello.ok()) {
          fail(hello.status());
          break;
        }
        if (hello.value().node_id != static_cast<std::uint32_t>(n)) {
          fail(Status::Internal("node identity mismatch"));
          break;
        }
        if (fleet != nullptr) {
          // One-way skew estimate: the node stamped its Hello at send, we
          // read our clock at receipt; the gap is send->receive delay plus
          // any clock divergence (~0 on one machine: CLOCK_MONOTONIC is
          // boot-global).
          fleet->clock_skew_us[static_cast<std::size_t>(n)]->Set(
              static_cast<std::int64_t>(SteadyNowMicros()) -
              static_cast<std::int64_t>(hello.value().steady_now_micros));
        }
        continue;
      }
      if (frame.type == FrameType::kSiteBatch) {
        Result<SiteBatchPayload> decoded = DecodeSiteBatch(frame.payload);
        if (!decoded.ok()) {
          fail(decoded.status());
          break;
        }
        serve::SiteBatch batch;
        batch.epoch = decoded.value().epoch;
        batch.site = static_cast<int>(decoded.value().site);
        batch.finish = decoded.value().finish;
        batch.events = std::move(decoded.value().events);
        if (!queues[static_cast<std::size_t>(n)]->Push(std::move(batch))) {
          break;  // queue closed: an abort is already in progress
        }
        continue;
      }
      if (frame.type == FrameType::kBarrier) {
        Result<BarrierPayload> barrier = DecodeBarrier(frame.payload);
        if (!barrier.ok()) {
          fail(barrier.status());
          break;
        }
        if (fleet != nullptr && barrier.value().steady_micros > 0) {
          const std::int64_t gap =
              static_cast<std::int64_t>(SteadyNowMicros()) -
              static_cast<std::int64_t>(barrier.value().steady_micros);
          fleet->heartbeat_gap_us->Record(
              gap > 0 ? static_cast<std::uint64_t>(gap) : 1);
        }
        {
          std::lock_guard<std::mutex> lock(mu);
          ++barriers[static_cast<std::size_t>(n)];
          if (barrier.value().finish) {
            finished[static_cast<std::size_t>(n)] = 1;
          }
          if (fleet != nullptr) {
            // Slow-node detection: how far each node trails the furthest
            // barrier. The max-lag gauge is a running high-water mark;
            // slowest_node names the node holding the current worst lag.
            Epoch max_barrier = 0;
            for (Epoch b : barriers) max_barrier = std::max(max_barrier, b);
            Epoch worst_lag = 0;
            int worst_node = 0;
            for (int i = 0; i < num_nodes; ++i) {
              const Epoch lag =
                  max_barrier - barriers[static_cast<std::size_t>(i)];
              fleet->epoch_lag[static_cast<std::size_t>(i)]->Set(lag);
              if (lag > worst_lag) {
                worst_lag = lag;
                worst_node = i;
              }
            }
            fleet->max_epoch_lag->SetMax(worst_lag);
            fleet->slowest_node->Set(worst_node);
          }
        }
        cv.notify_all();
        continue;
      }
      if (frame.type == FrameType::kHandoff) {
        Result<HandoffPayload> handoff = DecodeHandoff(frame.payload);
        if (!handoff.ok()) {
          fail(handoff.status());
          break;
        }
        {
          std::lock_guard<std::mutex> lock(mu);
          ready_handoffs[handoff.value().hop] = std::move(handoff.value());
        }
        cv.notify_all();
        continue;
      }
      if (frame.type == FrameType::kStatsReport) {
        Result<StatsReportPayload> report = DecodeStatsReport(frame.payload);
        if (!report.ok()) {
          fail(report.status());
          break;
        }
        if (report.value().node_id != static_cast<std::uint32_t>(n)) {
          fail(Status::Internal("stats report node identity mismatch"));
          break;
        }
        // Reports are cumulative; keep only the latest per node. Each
        // reader writes its own slot, but take the lock anyway so the
        // final result read is ordered after every store.
        if (static_cast<std::size_t>(n) < result.node_stats.size()) {
          std::lock_guard<std::mutex> lock(mu);
          result.node_stats[static_cast<std::size_t>(n)] =
              std::move(report.value().snapshot);
        }
        continue;
      }
      fail(Status::Internal(std::string("unexpected ") + ToString(frame.type) +
                            " frame from node"));
      break;
    }
    // The merger treats a closed, drained queue as this node's stream end.
    queues[static_cast<std::size_t>(n)]->Close();
  };

  // Hop indexes by arrival epoch (schedule order). Hops arriving at or
  // after the horizon are never delivered: their departure is still
  // captured (the objects leave the origin site), matching the serial
  // reference. depart < arrive guarantees such hops also depart in range.
  std::map<Epoch, std::vector<std::size_t>> arrivals_at;
  std::map<Epoch, std::vector<std::size_t>> departures_at;
  for (std::size_t i = 0; i < hops.size(); ++i) {
    if (hops[i].depart_epoch < workload.num_epochs) {
      departures_at[hops[i].depart_epoch].push_back(i);
      if (hops[i].arrive_epoch < workload.num_epochs) {
        arrivals_at[hops[i].arrive_epoch].push_back(i);
      }
    }
  }

  obs::Counter* barrier_waits = BarrierWaitsCounter();

  // Work goes out in batches of up to `batch` epochs per node, sent in one
  // delivery; the last EpochWork of a batch carries kFlushRepliesFlag,
  // after which the node sends its held-back replies. A batch ends before
  // every epoch with hop arrivals, so a hop's departure is always in an
  // earlier batch than its arrival, already flushed when the feeder waits
  // for its handoff. batch <= window keeps the barrier wait satisfiable.
  const Epoch batch = std::min<Epoch>(kEpochsPerBatch, window);
  auto feeder = [&] {
    std::vector<SiteReadingsRef> site_readings;
    std::vector<CaptureOrder> captures;
    FrameBuffer frames;
    Epoch last = 0;
    for (Epoch first = 0; first < workload.num_epochs; first = last) {
      last = std::min(first + batch, workload.num_epochs);
      auto next_arrival = arrivals_at.upper_bound(first);
      if (next_arrival != arrivals_at.end() && next_arrival->first < last) {
        last = next_arrival->first;
      }
      for (int n = 0; n < num_nodes; ++n) {
        {
          std::unique_lock<std::mutex> lock(mu);
          if (!aborted &&
              last - 1 - barriers[static_cast<std::size_t>(n)] >= window) {
            if (barrier_waits != nullptr) barrier_waits->Add(1);
            cv.wait(lock, [&] {
              return aborted ||
                     last - 1 - barriers[static_cast<std::size_t>(n)] <
                         window;
            });
          }
          if (aborted) return;
        }

        // Forward the handoffs arriving at this node at the batch's first
        // epoch (the only one that can have arrivals), in schedule order,
        // ahead of the epoch's work on the same FIFO.
        auto arriving = arrivals_at.find(first);
        if (arriving != arrivals_at.end()) {
          for (std::size_t hop_index : arriving->second) {
            const TransferHop& hop = hops[hop_index];
            if (NodeOfSite(hop.to_site, num_nodes) != n) continue;
            HandoffPayload payload;
            {
              std::unique_lock<std::mutex> lock(mu);
              cv.wait(lock, [&] {
                return aborted || ready_handoffs.count(hop_index) != 0;
              });
              if (aborted) return;
              auto it = ready_handoffs.find(hop_index);
              payload = std::move(it->second);
              ready_handoffs.erase(it);
            }
            ++result.handoff_hops;
            result.handoff_objects += payload.objects.size();
            std::vector<std::uint8_t> bytes;
            EncodeHandoff(payload, &bytes);
            frames.Add(FrameType::kHandoff, bytes);
          }
        }

        for (Epoch epoch = first; epoch < last; ++epoch) {
          // Encoded straight from the workload's epoch vectors.
          site_readings.clear();
          for (int site : sites_of[static_cast<std::size_t>(n)]) {
            const serve::SiteWorkload& sw =
                workload.sites[static_cast<std::size_t>(site)];
            if (epoch < static_cast<Epoch>(sw.epochs.size())) {
              site_readings.push_back(
                  {static_cast<std::uint32_t>(site),
                   &sw.epochs[static_cast<std::size_t>(epoch)]});
            }
          }
          captures.clear();
          auto departing = departures_at.find(epoch);
          if (departing != departures_at.end()) {
            for (std::size_t hop_index : departing->second) {
              const TransferHop& hop = hops[hop_index];
              if (NodeOfSite(hop.from_site, num_nodes) != n) continue;
              CaptureOrder order;
              order.hop = hop_index;
              order.from_site = static_cast<std::uint32_t>(hop.from_site);
              order.to_site = static_cast<std::uint32_t>(hop.to_site);
              order.arrive_epoch = hop.arrive_epoch;
              order.objects = hop.objects;
              captures.push_back(std::move(order));
            }
          }
          std::vector<std::uint8_t> bytes;
          EncodeEpochWork(epoch, /*finish=*/false, site_readings, captures,
                          &bytes);
          frames.Add(FrameType::kEpochWork, bytes,
                     epoch + 1 == last ? kFlushRepliesFlag : 0);
        }
        Status status = frames.Flush(conns[static_cast<std::size_t>(n)]);
        if (!status.ok()) {
          fail(std::move(status));
          return;
        }
      }
    }
    for (int n = 0; n < num_nodes; ++n) {
      std::vector<std::uint8_t> bytes;
      EncodeEpochWork(workload.num_epochs, /*finish=*/true, {}, {}, &bytes);
      Status status = SendFrame(conns[static_cast<std::size_t>(n)],
                                FrameType::kEpochWork, bytes);
      if (!status.ok()) {
        fail(std::move(status));
        return;
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n) {
    // Send each node its site assignment before any reader can fail the
    // run, so nodes never wait on a Hello that was aborted away.
    HelloPayload hello;
    hello.node_id = static_cast<std::uint32_t>(n);
    for (int site : sites_of[static_cast<std::size_t>(n)]) {
      hello.sites.push_back(static_cast<std::uint32_t>(site));
    }
    hello.steady_now_micros = SteadyNowMicros();
    hello.stats_interval_epochs = options.stats_interval_epochs;
    std::vector<std::uint8_t> bytes;
    EncodeHello(hello, &bytes);
    Status status = SendFrame(conns[static_cast<std::size_t>(n)],
                              FrameType::kHello, bytes);
    if (!status.ok()) {
      fail(std::move(status));
      break;
    }
  }
  for (int n = 0; n < num_nodes; ++n) {
    threads.emplace_back(reader, n);
  }
  std::thread feed(feeder);

  serve::EventMerger merger;
  Status drain = merger.Drain(queue_ptrs, batches_per_queue, &result.events);
  if (!drain.ok()) fail(drain);

  feed.join();
  for (std::thread& thread : threads) thread.join();

  {
    std::lock_guard<std::mutex> lock(mu);
    result.status = aborted ? error : Status::OK();
  }
  if (!result.status.ok()) result.events.clear();
  return result;
}

}  // namespace spire::dist
