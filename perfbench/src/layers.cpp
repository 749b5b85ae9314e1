#include "layers.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <vector>

#include "cluster/cluster.h"
#include "core/temperature.h"
#include "sim/event_queue.h"
#include "trace/cursor.h"
#include "trace/generator.h"
#include "util/rng.h"
#include "workload/tenant.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using edm::SimDuration;
using edm::SimTime;

// Calls per timed batch: large enough that the two clock reads around a
// batch are noise, small enough that a batch's objects stay cache-warm
// from map to tracker to flash, as they do per record in the replay.
constexpr std::size_t kBatch = 4096;

// Upper bound on timed EventQueue pairs; the per-event cost is
// extrapolated to the replay's event count.
constexpr std::uint64_t kMaxEventPairs = 4u << 20;

/// Records in trace order from the workload's own source.  `next` fills one
/// record (and its due time, for arrivals) and returns false at the end.
class RecordFeed {
 public:
  RecordFeed(const Workload& workload, const edm::sim::ExperimentConfig& cfg) {
    switch (workload.source) {
      case Source::kMaterialised:
        trace_ = std::make_unique<edm::trace::Trace>(
            edm::trace::TraceGenerator(profile_for(cfg), cfg.num_clients)
                .generate());
        break;
      case Source::kStreaming:
        cursor_ = std::make_unique<edm::trace::TraceCursor>(profile_for(cfg),
                                                            cfg.num_clients);
        live_.assign(cursor_->lanes(), 1);
        live_count_ = cursor_->lanes();
        break;
      case Source::kOpenLoop:
        arrivals_ = std::make_unique<edm::workload::OpenLoopSource>(
            cfg.open_loop, cfg.num_clients, cfg.trace_seed_offset);
        break;
    }
  }

  bool lazy() const { return trace_ == nullptr; }

  const std::vector<edm::trace::FileSpec>& files() const {
    if (trace_) return trace_->files;
    if (cursor_) return cursor_->files();
    return arrivals_->files();
  }

  bool next(edm::trace::Record& out, SimTime& at) {
    if (trace_) {
      if (index_ >= trace_->records.size()) return false;
      out = trace_->records[index_++];
      return true;
    }
    if (arrivals_) {
      if (!arrivals_->next(arrival_)) return false;
      out = arrival_.record;
      at = arrival_.at;
      return true;
    }
    // Round-robin over the cursor's lanes, as the replay's clients pull.
    while (live_count_ > 0) {
      const std::uint16_t lane = lane_;
      lane_ = static_cast<std::uint16_t>((lane_ + 1) % live_.size());
      if (!live_[lane]) continue;
      if (cursor_->next(lane, out)) return true;
      live_[lane] = 0;
      --live_count_;
    }
    return false;
  }

 private:
  std::unique_ptr<edm::trace::Trace> trace_;
  std::unique_ptr<edm::trace::TraceCursor> cursor_;
  std::unique_ptr<edm::workload::OpenLoopSource> arrivals_;
  std::size_t index_ = 0;
  std::vector<char> live_;
  std::size_t live_count_ = 0;
  std::uint16_t lane_ = 0;
  edm::workload::Arrival arrival_;
};

/// Simulator::execute's device call: the fast-extent table when it serves
/// the object on this OSD, the OSD's extent store otherwise.
SimDuration execute(edm::cluster::Cluster& cluster,
                    const edm::cluster::OsdIo& io, SimTime at) {
  const auto& fe = cluster.fast_extent(io.oid);
  if (fe.pages != 0 && fe.osd == io.osd) {
    return cluster.fast_extent_io_at(fe, io, at);
  }
  auto& osd = cluster.osd(io.osd);
  return io.is_write ? osd.write_at(at, io.oid, io.first_page, io.pages)
                     : osd.read_at(at, io.oid, io.first_page, io.pages);
}

/// Hold model of the replay's event queue: `depth` pending events; each
/// step pops the earliest and pushes a successor a service time later.
void run_event_queue(const edm::sim::RunResult& replay, SpanLog* spans,
                     int parent, LayerCosts& out) {
  double busy_us = 0.0;
  double served = 0.0;
  for (const auto& osd : replay.per_osd) {
    busy_us += static_cast<double>(osd.busy_us);
    served += static_cast<double>(osd.requests_served);
  }
  const double makespan =
      static_cast<double>(std::max<SimTime>(1, replay.makespan_us));
  const double mean_service = served > 0.0 ? busy_us / served : 100.0;
  // In-service requests on average, plus the periodic timers (epoch tick,
  // sampler or health check, arrival chain).
  const auto depth =
      static_cast<std::size_t>(std::max(1.0, busy_us / makespan) + 2.5);

  edm::util::Xoshiro256 rng(0x5EEDull);
  auto increment = [&] {
    return static_cast<SimDuration>(1 + 2.0 * mean_service * rng.next_double());
  };
  edm::sim::EventQueue queue;
  for (std::size_t i = 0; i < depth; ++i) {
    queue.push(increment(), edm::sim::EventKind::kOsdComplete, i);
  }
  const std::uint64_t pairs =
      std::min<std::uint64_t>(replay.perf.events_processed, kMaxEventPairs);
  std::vector<SimDuration> steps(kBatch);
  for (std::uint64_t done = 0; done < pairs;) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(kBatch, pairs - done));
    for (std::size_t i = 0; i < n; ++i) steps[i] = increment();
    out.eventq_s += timed(spans, "sim.eventq", parent, [&] {
      for (std::size_t i = 0; i < n; ++i) {
        const edm::sim::Event e = queue.pop();
        queue.push(e.time + steps[i], e.kind(), e.payload);
      }
    });
    done += n;
  }
  // Every pop was paired with a push: the held depth is unchanged.
  if (queue.size() != depth) {
    throw std::logic_error("event-queue hold model lost events");
  }
  out.eventq_pairs = pairs;
}

}  // namespace

LayerCosts run_layer_pass(const Workload& workload,
                          const edm::sim::RunResult& replay, SpanLog* spans) {
  LayerCosts out;
  const int root = spans ? spans->open("layers") : 0;
  const edm::sim::ExperimentConfig cfg = edm::sim::finalize(workload.config);

  const int setup = spans ? spans->open("layers.setup", root) : 0;
  RecordFeed feed(workload, cfg);
  edm::cluster::Cluster cluster(cluster_config_for(cfg), feed.files());
  cluster.populate();
  cluster.steady_state_warmup();
  cluster.reset_flash_stats();
  edm::core::AccessTracker tracker(cfg.sim.temperature_cache_entries);
  tracker.reserve_dense(cluster.object_count());
  if (spans) spans->close(setup);

  // Closed loops have no due times; stamp records at the replay's mean op
  // spacing so the epoch cadence matches (flat devices ignore the time).
  const double spacing =
      replay.completed_ops
          ? static_cast<double>(replay.makespan_us) /
                static_cast<double>(replay.completed_ops)
          : 0.0;
  SimTime next_epoch = cfg.sim.epoch_length_us;

  std::vector<edm::trace::Record> records(kBatch);
  std::vector<SimTime> due(kBatch);
  std::vector<edm::cluster::OsdIo> ios;
  std::vector<std::uint32_t> ends;  // ios.size() after each record
  ios.reserve(kBatch * 8);
  ends.reserve(kBatch);
  bool more = true;
  while (more) {
    std::size_t n = 0;
    auto pull = [&] {
      while (n < kBatch) {
        SimTime at = static_cast<SimTime>(
            spacing * static_cast<double>(out.records + n));
        if (!feed.next(records[n], at)) {
          more = false;
          break;
        }
        due[n++] = at;
      }
    };
    if (feed.lazy()) {
      out.source_s += timed(spans, "trace.next", root, pull);
    } else {
      pull();
    }
    if (n == 0) break;
    out.records += n;

    ios.clear();
    ends.clear();
    out.map_s += timed(spans, "cluster.map_request", root, [&] {
      for (std::size_t i = 0; i < n; ++i) {
        cluster.map_request(records[i], ios);
        ends.push_back(static_cast<std::uint32_t>(ios.size()));
      }
    });
    out.osd_ios += ios.size();

    out.tracker_s += timed(spans, "core.on_access", root, [&] {
      for (const auto& io : ios) tracker.on_access(io.oid, io.pages, io.is_write);
    });

    // Reads, then writes, each in record order with the record's due time.
    for (const bool writes : {false, true}) {
      (writes ? out.write_s : out.read_s) +=
          timed(spans, writes ? "flash.write" : "flash.read", root, [&] {
            std::size_t r = 0;
            for (std::size_t i = 0; i < ios.size(); ++i) {
              while (ends[r] <= i) ++r;
              if (ios[i].is_write != writes) continue;
              execute(cluster, ios[i], due[r]);
            }
          });
    }

    while (due[n - 1] >= next_epoch) {
      tracker.advance_epoch();
      next_epoch += cfg.sim.epoch_length_us;
    }
  }
  for (edm::OsdId i = 0; i < cluster.num_osds(); ++i) {
    out.pages_read += cluster.osd(i).flash_stats().host_page_reads;
    out.pages_written += cluster.osd(i).flash_stats().host_page_writes;
  }

  run_event_queue(replay, spans, root, out);
  if (spans) spans->close(root);
  return out;
}

}  // namespace perfbench
