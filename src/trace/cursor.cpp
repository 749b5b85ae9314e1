#include "trace/cursor.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

namespace edm::trace {

namespace {

constexpr std::uint64_t kMinFileBytes = 8 * 1024;   // at least two pages
constexpr std::uint64_t kMaxFileBytes = 256ULL << 20;  // clamp the tail
constexpr std::uint32_t kMinRequestBytes = 512;

// TraceCursor::next_run prefetches the first kPrefetchBytes of a lane's
// next run, a line at a time.
constexpr std::uintptr_t kCacheLine = 64;
constexpr std::uintptr_t kPrefetchBytes = 8 * kCacheLine;

/// Lognormal sample around `median` with shape `sigma`, clamped.
std::uint64_t sample_file_size(util::Xoshiro256& rng, std::uint64_t median,
                               double sigma) {
  if (sigma <= 0.0) return std::max(median, kMinFileBytes);
  const double ln = std::log(static_cast<double>(median)) +
                    sigma * rng.next_gaussian();
  const double size = std::exp(ln);
  if (size <= static_cast<double>(kMinFileBytes)) return kMinFileBytes;
  if (size >= static_cast<double>(kMaxFileBytes)) return kMaxFileBytes;
  return static_cast<std::uint64_t>(size);
}

/// Uniform request size in [avg/2, 3*avg/2] (mean == avg), floor 512 B.
std::uint32_t sample_request_size(util::Xoshiro256& rng, std::uint32_t avg) {
  const std::uint32_t lo = std::max(kMinRequestBytes, avg / 2);
  const std::uint32_t hi = std::max(lo + 1, avg + avg / 2);
  return static_cast<std::uint32_t>(rng.next_in(lo, hi));
}

}  // namespace

RecordStream::RecordStream(const WorkloadProfile& profile,
                           std::uint16_t clients)
    : profile_(profile),
      clients_(clients ? clients : 1),
      rng_(profile.seed) {
  // --- File population ---
  const std::uint64_t n_files = profile_.file_count;
  files_.reserve(n_files);
  for (FileId f = 0; f < n_files; ++f) {
    files_.push_back(
        {f, sample_file_size(rng_, profile_.median_file_size,
                             profile_.file_size_sigma)});
  }

  // --- Popularity: Zipf rank -> file ---
  // Reads and writes share one popularity order with local jitter: in real
  // NFS traces the most-written files are also heavily read (the paper's
  // CMT achieves HDF-level load balance precisely because total-access heat
  // correlates with write heat), but the alignment is not perfect -- some
  // files are read-hot only, which is what makes HDF's write-only ranking
  // cheaper in erases for the same balance.
  write_rank_.resize(n_files);
  std::iota(write_rank_.begin(), write_rank_.end(), 0);
  for (std::size_t i = write_rank_.size(); i > 1; --i) {
    std::swap(write_rank_[i - 1], write_rank_[rng_.next_below(i)]);
  }
  read_rank_ = write_rank_;
  const std::uint64_t jitter_window = std::max<std::uint64_t>(2, n_files / 50);
  for (std::size_t i = 0; i < read_rank_.size(); ++i) {
    const std::size_t j = std::min<std::size_t>(
        read_rank_.size() - 1, i + rng_.next_below(jitter_window));
    std::swap(read_rank_[i], read_rank_[j]);
  }
  write_pop_.emplace(n_files, profile_.write_zipf);
  read_pop_.emplace(n_files, profile_.read_zipf);
  if (profile_.offset_zipf > 0.0) {
    // The exponent's constants are solved once here; each slot re-derives
    // only its population bound when a session needs a different one.
    hot_offsets_.emplace(1, profile_.offset_zipf);
    write_offsets_ = hot_offsets_;
    read_offsets_ = hot_offsets_;
  }

  cursor_.assign(n_files, 0);  // sequential-read cursor
  writes_left_ = profile_.write_count;
  reads_left_ = profile_.read_count;
  bias_ = std::max(1.0, profile_.session_type_bias);
  // Geometric session length (mean = mean_session_ops).
  p_stop_ = 1.0 / std::max(1.0, profile_.mean_session_ops);
}

void RecordStream::begin_session() {
  // Stationary op mix: a write-leaning session writes with probability
  // q_w = min(1, b*f) and a read-leaning one with q_r = f/b, where f is
  // the remaining write fraction.  The session-type probability p_s is
  // solved from p_s*q_w + (1-p_s)*q_r = f so the expected mix stays f for
  // the whole trace (a naive fixed purity depletes one quota early and
  // leaves a long single-op-type tail).
  const double f = static_cast<double>(writes_left_) /
                   static_cast<double>(writes_left_ + reads_left_);
  q_w_ = std::min(1.0, bias_ * f);
  q_r_ = f / bias_;
  const double p_s = q_w_ > q_r_ ? (f - q_r_) / (q_w_ - q_r_) : 1.0;
  write_session_ = rng_.next_double() < p_s;
  file_ = write_session_ ? write_rank_[(*write_pop_)(rng_)]
                         : read_rank_[(*read_pop_)(rng_)];
  file_size_ = files_[file_].size_bytes;
}

void RecordStream::make_op(Record& out) {
  // Pick the op for this request, respecting quotas.
  bool is_write;
  if (writes_left_ == 0) {
    is_write = false;
  } else if (reads_left_ == 0) {
    is_write = true;
  } else {
    is_write = rng_.next_double() < (write_session_ ? q_w_ : q_r_);
  }

  const std::uint32_t avg =
      is_write ? profile_.avg_write_size : profile_.avg_read_size;
  std::uint64_t size64 = sample_request_size(rng_, avg);
  std::uint64_t offset;
  const bool force_hot =
      is_write && rng_.next_double() < profile_.write_hot_bias;
  if (force_hot) {
    // Hot-region write: land inside the file's leading hot fraction,
    // skewed toward its start by offset_zipf.
    const std::uint64_t unit = std::max<std::uint64_t>(avg, 4096);
    const std::uint64_t hot_bytes = std::max<std::uint64_t>(
        unit, static_cast<std::uint64_t>(profile_.hot_region_fraction *
                                         static_cast<double>(file_size_)));
    const std::uint64_t units = std::max<std::uint64_t>(1, hot_bytes / unit);
    if (profile_.offset_zipf > 0.0) {
      offset = offset_region(*hot_offsets_, units) * unit;
    } else {
      offset = rng_.next_below(units) * unit;
    }
  } else if (rng_.next_double() < profile_.sequential_locality) {
    offset = cursor_[file_] % file_size_;
  } else if (profile_.offset_zipf > 0.0) {
    // Hot-spot skew: a few request-sized regions of the file take most
    // of the non-sequential traffic (mailbox indices, db pages...).
    const std::uint64_t unit = std::max<std::uint64_t>(avg, 4096);
    const std::uint64_t units = std::max<std::uint64_t>(1, file_size_ / unit);
    offset = offset_region(is_write ? *write_offsets_ : *read_offsets_, units) *
             unit;
  } else {
    offset = rng_.next_below(file_size_);
    offset &= ~std::uint64_t{511};  // 512 B alignment, NFS-like
  }
  if (offset + size64 > file_size_) {
    // Wrap rather than truncate so the target mean size is preserved
    // when the size still fits from the start of the file.
    if (size64 <= file_size_) {
      offset = file_size_ - size64;
    } else {
      offset = 0;
      size64 = file_size_;
    }
  }
  cursor_[file_] = offset + size64;
  const auto size = static_cast<std::uint32_t>(size64);
  if (is_write) {
    out = {file_, offset, size, OpType::kWrite, client_};
    --writes_left_;
  } else {
    out = {file_, offset, size, OpType::kRead, client_};
    --reads_left_;
  }
}

std::uint64_t RecordStream::offset_region(util::ZipfSampler& slot,
                                          std::uint64_t units) {
  if (slot.population() != units) slot = slot.with_population(units);
  return slot(rng_);
}

bool RecordStream::next(Record& out) {
  switch (phase_) {
    case Phase::kDone:
      return false;
    case Phase::kSessionHead:
      if (writes_left_ + reads_left_ == 0) {
        phase_ = Phase::kDone;
        return false;
      }
      begin_session();
      out = {file_, 0, 0, OpType::kOpen, client_};
      phase_ = Phase::kOps;
      return true;
    case Phase::kOps:
      make_op(out);
      // The do-while continuation of generate(): one draw *after* the op is
      // emitted, consumed only while quota remains.
      if (!(writes_left_ + reads_left_ > 0 && rng_.next_double() >= p_stop_)) {
        phase_ = Phase::kClose;
      }
      return true;
    case Phase::kClose:
      out = {file_, 0, 0, OpType::kClose, client_};
      client_ = static_cast<std::uint16_t>((client_ + 1) % clients_);
      phase_ = Phase::kSessionHead;
      return true;
  }
  return false;
}

// ----------------------------------------------------------- TraceCursor

TraceCursor::TraceCursor(const WorkloadProfile& profile, std::uint16_t clients)
    : stream_(std::in_place, profile, clients), lanes_(stream_->clients()) {}

TraceCursor::TraceCursor(const Trace& trace, std::uint16_t lanes)
    : trace_(&trace), lanes_(lanes ? lanes : 1) {
  const std::vector<Record>& records = trace.records;
  if (records.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("TraceCursor: a trace of " +
                            std::to_string(records.size()) +
                            " records does not fit 32-bit run bounds");
  }
  const std::size_t n = lanes_.size();
  std::uint32_t begin = 0;
  std::size_t run_lane = 0;
  for (std::uint32_t i = 0; i < records.size(); ++i) {
    const std::size_t lane = records[i].client % n;
    if (i > 0 && lane != run_lane) {
      lanes_[run_lane].runs.push_back({begin, i});
      begin = i;
    }
    run_lane = lane;
  }
  if (!records.empty()) {
    lanes_[run_lane].runs.push_back(
        {begin, static_cast<std::uint32_t>(records.size())});
  }
}

const std::string& TraceCursor::name() const {
  return trace_ != nullptr ? trace_->name : stream_->profile().name;
}

const std::vector<FileSpec>& TraceCursor::files() const {
  return trace_ != nullptr ? trace_->files : stream_->files();
}

bool TraceCursor::next(std::uint16_t lane, Record& out) {
  assert(lane < lanes());
  if (trace_ == nullptr) return pull(lane, out);
  Lane& l = lanes_[lane];
  if (l.rest.empty()) l.rest = next_run(lane);
  if (l.rest.empty()) return false;
  out = l.rest.front();
  l.rest = l.rest.subspan(1);
  return true;
}

std::span<const Record> TraceCursor::next_run(std::uint16_t lane) {
  assert(lane < lanes());
  Lane& l = lanes_[lane];
  if (trace_ == nullptr) {
    if (!pull(lane, l.slot)) return {};
    return {&l.slot, 1};
  }
  if (!l.rest.empty()) return std::exchange(l.rest, {});
  if (l.run_index == l.runs.size()) return {};
  const Record* records = trace_->records.data();
  const Run run = l.runs[l.run_index++];
  if (l.run_index < l.runs.size()) {
    // Lanes trail each other by hundreds of KiB of trace, so this lane's
    // next run has usually left L1 and L2 by the time it is wanted.  A run
    // averages about four cache lines; prefetch up to kPrefetchBytes.
    const Run ahead = l.runs[l.run_index];
    const auto first =
        reinterpret_cast<std::uintptr_t>(records + ahead.begin);
    const auto last = std::min(
        reinterpret_cast<std::uintptr_t>(records + ahead.end),
        first + kPrefetchBytes);
    for (std::uintptr_t line = first & ~std::uintptr_t{kCacheLine - 1};
         line < last; line += kCacheLine) {
      __builtin_prefetch(reinterpret_cast<const void*>(line));
    }
  }
  return {records + run.begin, records + run.end};
}

bool TraceCursor::pull(std::uint16_t lane, Record& out) {
  auto& buf = lanes_[lane].buffer;
  if (!buf.empty()) {
    out = buf.front();
    buf.pop_front();
    --buffered_;
    return true;
  }
  Record rec;
  while (!exhausted_) {
    if (!stream_->next(rec)) {
      exhausted_ = true;
      break;
    }
    const auto dest = static_cast<std::uint16_t>(rec.client % lanes());
    if (dest == lane) {
      out = rec;
      return true;
    }
    lanes_[dest].buffer.push_back(rec);
    ++buffered_;
    max_lookahead_ = std::max(max_lookahead_, buffered_);
  }
  return false;
}

std::uint64_t TraceCursor::total_records() {
  if (trace_ != nullptr) return trace_->records.size();
  if (!total_records_) {
    // Counting pre-pass: an independent stream from the same profile emits
    // the same number of records.  O(file_count) memory, no materialisation.
    RecordStream counter(stream_->profile(), stream_->clients());
    std::uint64_t n = 0;
    Record rec;
    while (counter.next(rec)) ++n;
    total_records_ = n;
  }
  return *total_records_;
}

}  // namespace edm::trace
