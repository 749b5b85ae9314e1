// Streaming (lazy) trace generation: the memory-lean twin of
// TraceGenerator::generate().
//
// `RecordStream` replays the exact generation algorithm of generate() one
// record at a time -- same RNG, same draw order, same emit order -- so the
// sequence it produces is byte-identical to the materialised trace.  Its
// resident state is O(file_count) (file specs, rank permutations, per-file
// cursors), never O(record_count).  generate() itself is implemented as a
// drain of this stream, so the two paths cannot diverge.
//
// `TraceCursor` fans the single global stream out into per-client replay
// lanes (lane = record.client % lanes).  Pulling the next record for one
// lane advances the global stream, buffering records destined for other
// lanes in per-lane ring queues.  The buffers hold only the *skew* between
// the fastest and slowest consuming lane; under the simulator's closed-loop
// replay (every lane is driven concurrently, bounded queue depth) the
// observed high-water mark is a few sessions' worth of records, not a
// fraction of the trace.  `max_lookahead()` reports the high-water mark so
// tests can assert the bound holds.
//
// Cursor memory: O(file_count + lanes * lookahead).  Total trace memory for
// a streaming replay is therefore independent of write_count/read_count --
// the axis `--scale` multiplies.
//
// Thread-safety: none.  Confine a stream/cursor to one thread, like the
// simulator that consumes it.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "trace/profile.h"
#include "trace/record.h"
#include "util/ring_queue.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace edm::trace {

/// Incremental record source.  Emits exactly the record sequence
/// TraceGenerator(profile, clients).generate() materialises, one record per
/// next() call, holding O(file_count) state.
class RecordStream {
 public:
  RecordStream(const WorkloadProfile& profile, std::uint16_t clients);

  /// Writes the next record into `out`; returns false when the stream is
  /// exhausted (both op quotas spent and the final close emitted).
  bool next(Record& out);

  /// The generated file population (available immediately; files are
  /// sampled eagerly in the constructor, records lazily).
  const std::vector<FileSpec>& files() const { return files_; }

  const WorkloadProfile& profile() const { return profile_; }
  std::uint16_t clients() const { return clients_; }

 private:
  enum class Phase : std::uint8_t { kSessionHead, kOps, kClose, kDone };

  /// Consumes the RNG draws that open a session (type + target file) and
  /// caches the per-session op probabilities.
  void begin_session();
  /// Emits one read/write op, consuming the same draws generate() does.
  void make_op(Record& out);
  /// Draws a Zipf(offset_zipf) region index in [0, units) from `slot`,
  /// first re-deriving the slot from the exponent's constants if its
  /// population is not `units`.  `units` is fixed per session and slot, so
  /// a slot is rebuilt at most once per session.
  std::uint64_t offset_region(util::ZipfSampler& slot, std::uint64_t units);

  WorkloadProfile profile_;
  std::uint16_t clients_;
  util::Xoshiro256 rng_;

  std::vector<FileSpec> files_;
  std::vector<FileId> write_rank_;
  std::vector<FileId> read_rank_;
  std::optional<util::ZipfSampler> write_pop_;
  std::optional<util::ZipfSampler> read_pop_;
  // Within-file offset samplers (engaged iff offset_zipf > 0): hot-region
  // writes, other non-sequential writes, non-sequential reads.
  std::optional<util::ZipfSampler> hot_offsets_;
  std::optional<util::ZipfSampler> write_offsets_;
  std::optional<util::ZipfSampler> read_offsets_;
  std::vector<std::uint64_t> cursor_;  // per-file sequential cursor

  std::uint64_t writes_left_ = 0;
  std::uint64_t reads_left_ = 0;
  double bias_ = 1.0;
  double p_stop_ = 1.0;

  // Current-session state.
  Phase phase_ = Phase::kSessionHead;
  std::uint16_t client_ = 0;
  FileId file_ = 0;
  std::uint64_t file_size_ = 0;
  bool write_session_ = false;
  double q_w_ = 0.0;
  double q_r_ = 0.0;
};

/// Per-client lane iterator over a RecordStream with bounded lookahead
/// buffering.  This is what the Simulator consumes in streaming mode in
/// place of materialised per-client record vectors.
class TraceCursor {
 public:
  /// `clients` is both the generator's client-tag count and the lane count
  /// (matching run_experiment, which generates with cfg.num_clients).
  TraceCursor(const WorkloadProfile& profile, std::uint16_t clients);

  const std::string& name() const { return stream_.profile().name; }
  const std::vector<FileSpec>& files() const { return stream_.files(); }
  std::uint16_t lanes() const {
    return static_cast<std::uint16_t>(buffers_.size());
  }

  /// Writes lane `lane`'s next record into `out` (`lane` < lanes());
  /// returns false once the lane is exhausted.  Advances the global stream
  /// as needed, buffering records destined for other lanes.
  bool next(std::uint16_t lane, Record& out);

  /// Total records the full stream will emit.  Computed on first call by a
  /// counting pre-pass over an independent O(file_count) stream and cached;
  /// does not disturb this cursor's position.
  std::uint64_t total_records();

  /// High-water mark of records buffered across all lanes so far -- the
  /// realised lookahead bound.
  std::size_t max_lookahead() const { return max_lookahead_; }

 private:
  RecordStream stream_;
  std::vector<util::RingQueue<Record>> buffers_;
  std::size_t buffered_ = 0;
  std::size_t max_lookahead_ = 0;
  bool exhausted_ = false;
  std::optional<std::uint64_t> total_records_;
};

}  // namespace edm::trace
