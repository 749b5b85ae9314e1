// Streaming (lazy) trace generation: the memory-lean twin of
// TraceGenerator::generate(), and the per-client lane view the Simulator
// replays through.
//
// `RecordStream` replays the exact generation algorithm of generate() one
// record at a time -- same RNG, same draw order, same emit order -- so the
// sequence it produces is byte-identical to the materialised trace.  Its
// resident state is O(file_count) (file specs, rank permutations, per-file
// cursors), never O(record_count).  generate() itself is implemented as a
// drain of this stream, so the two paths cannot diverge.
//
// `TraceCursor` splits a trace into per-client replay lanes (lane =
// record.client % lanes, trace order within a lane).  It has two sources:
//
//  * a profile: the cursor fans one global RecordStream out into the
//    lanes.  Pulling the next record for one lane advances the stream,
//    buffering records destined for other lanes in per-lane ring queues.
//    The buffers hold only the *skew* between the fastest and slowest
//    consuming lane; under the simulator's closed-loop replay (every lane
//    is driven concurrently, bounded queue depth) the observed high-water
//    mark is a few sessions' worth of records, not a fraction of the
//    trace.  `max_lookahead()` reports the high-water mark so tests can
//    assert the bound holds.  Memory: O(file_count + lanes * lookahead),
//    independent of write_count/read_count -- the axis `--scale`
//    multiplies.
//  * a materialised Trace, read in place: the constructor records each
//    lane's runs of consecutive same-lane records, and the lanes hand out
//    spans into the trace's own vector.  Sessions are contiguous, so a run
//    is a session's worth of records and the bounds cost O(runs), not a
//    second copy of the records.
//
// Both sources give identical lanes for the same record sequence.
//
// Thread-safety: none.  Confine a stream/cursor to one thread, like the
// simulator that consumes it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
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

/// Per-client lane iterator: what the Simulator replays through in closed
/// loop, over a RecordStream with bounded lookahead buffering or over a
/// materialised Trace read in place.
class TraceCursor {
 public:
  /// Streaming lanes.  `clients` is both the generator's client-tag count
  /// and the lane count (matching run_experiment, which generates with
  /// cfg.num_clients).
  TraceCursor(const WorkloadProfile& profile, std::uint16_t clients);

  /// In-place lanes over `trace`, which must outlive the cursor and stay
  /// unmodified.  One pass records each lane's runs of consecutive
  /// same-lane records; no record is copied.  `lanes` == 0 is taken as 1,
  /// as RecordStream takes `clients`.  Throws std::length_error for a
  /// trace of 2^32 records or more.
  TraceCursor(const Trace& trace, std::uint16_t lanes);

  const std::string& name() const;
  const std::vector<FileSpec>& files() const;
  std::uint16_t lanes() const {
    return static_cast<std::uint16_t>(lanes_.size());
  }

  /// Writes lane `lane`'s next record into `out` (`lane` < lanes());
  /// returns false once the lane is exhausted.  A streaming cursor
  /// advances the global stream as needed, buffering records destined for
  /// other lanes.
  bool next(std::uint16_t lane, Record& out);

  /// Lane `lane`'s next records as one contiguous span; empty once the
  /// lane is exhausted.  In place, the span is the lane's next run (or
  /// what next() left of the current one) and points into the trace; the
  /// first lines of the run after it are prefetched, because a trailing
  /// lane's next run has usually left the caches.  Streaming, the span
  /// holds one record and stays valid until this lane's next next_run().
  std::span<const Record> next_run(std::uint16_t lane);

  /// Total records in the trace.  Streaming, it is computed on first call
  /// by a counting pre-pass over an independent O(file_count) stream and
  /// cached; the pre-pass does not disturb this cursor's position.
  std::uint64_t total_records();

  /// High-water mark of records buffered across all lanes so far -- the
  /// realised lookahead bound (0 in place: nothing is buffered).
  std::size_t max_lookahead() const { return max_lookahead_; }

 private:
  /// Half-open record-index range [begin, end) of one in-place run.
  struct Run {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };
  struct Lane {
    // Streaming: records pulled past for this lane, and the slot a
    // one-record next_run() span points at.
    util::RingQueue<Record> buffer;
    Record slot;
    // In place: this lane's runs in trace order, the next one to hand
    // out, and what next() has left of the current one.
    std::vector<Run> runs;
    std::size_t run_index = 0;
    std::span<const Record> rest;
  };

  /// Streaming fan-out: the lane's next record from its buffer or the
  /// global stream.
  bool pull(std::uint16_t lane, Record& out);

  const Trace* trace_ = nullptr;        // in place (else null)
  std::optional<RecordStream> stream_;  // streaming (else empty)
  std::vector<Lane> lanes_;
  std::size_t buffered_ = 0;
  std::size_t max_lookahead_ = 0;
  bool exhausted_ = false;
  std::optional<std::uint64_t> total_records_;
};

}  // namespace edm::trace
