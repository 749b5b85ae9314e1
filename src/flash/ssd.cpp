#include "flash/ssd.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "telemetry/telemetry.h"

namespace edm::flash {

namespace {
/// Candidates examined per cost-benefit victim selection (stride-sampled
/// for determinism).
constexpr std::uint32_t kCostBenefitSampleSize = 64;
}  // namespace

Ssd::Ssd(FlashConfig config)
    : config_(config),
      // L2P entries are wide enough to hold any PPN plus the all-ones
      // unmapped sentinel; P2L entries hold any LPN and start zeroed --
      // they are only ever read for pages the validity bitmap marks live.
      l2p_(config.logical_pages(),
           util::PackedIntVector::bits_for(config.physical_pages()),
           util::PackedIntVector::max_for(
               util::PackedIntVector::bits_for(config.physical_pages()))),
      p2l_(config.physical_pages(),
           util::PackedIntVector::bits_for(config.logical_pages()),
           /*fill=*/0),
      valid_bits_(config.physical_pages()),
      block_valid_(config.num_blocks, 0),
      block_write_ptr_(config.num_blocks, 0),
      block_sealed_at_(config.num_blocks, 0),
      block_open_(config.num_blocks),
      block_erases_(config.num_blocks, 0) {
  config_.validate();
  num_domains_ = config_.allocation_domains();
  parallel_ = config_.parallel_timing();
  dies_total_ = config_.geometry.dies();
  domains_.reserve(num_domains_);
  for (std::uint32_t d = 0; d < num_domains_; ++d) {
    domains_.push_back(Domain{
        {}, VictimQueue(blocks_in_domain(d), config_.pages_per_block)});
  }
  // Domain d opens global block d as its log head (global_of(0, d) == d);
  // the rest of its blocks are free.  Push in reverse so blocks are
  // consumed in ascending order (deterministic layouts in tests).  With a
  // single domain this is exactly the old whole-device layout: block 0
  // open, blocks num_blocks-1..1 free.
  for (std::uint32_t d = 0; d < num_domains_; ++d) {
    Domain& dom = domains_[d];
    dom.free_blocks.reserve(blocks_in_domain(d));
    for (std::uint32_t local = blocks_in_domain(d); local-- > 1;) {
      dom.free_blocks.push_back(global_of(local, d));
    }
    dom.open_block = d;
    block_open_.set(d);
  }
  if (parallel_) {
    bus_ready_.assign(config_.geometry.channels, 0);
    die_ready_.assign(dies_total_, 0);
    plane_ready_.assign(config_.geometry.luns(), 0);
  }
}

std::uint32_t Ssd::free_blocks() const {
  std::size_t total = 0;
  for (const Domain& dom : domains_) total += dom.free_blocks.size();
  return static_cast<std::uint32_t>(total);
}

SimDuration Ssd::read(Lpn lpn) {
  assert(lpn < l2p_.size());
  ++stats_.host_page_reads;
  stats_.busy_time_us += config_.page_read_us;
  return config_.page_read_us;
}

SimDuration Ssd::maybe_collect_for_write(std::uint32_t dom) {
  if (domains_[dom].free_blocks.size() >= config_.domain_low_water()) return 0;
  const std::uint64_t moves_before = stats_.gc_page_moves;
  const std::uint64_t erases_before = stats_.erase_count;
  const SimDuration gc_us = collect_garbage(dom);
  if (tel_ != nullptr && gc_us > 0) {
    if (auto* tracer = tel_->tracer()) {
      // The stall is charged to the host write at the recorder's current
      // DES time; the span covers the device-time the GC consumed.
      tracer->complete(telemetry::Category::kGc, "gc",
                       telemetry::track_osd(tel_device_), tel_->now(),
                       gc_us, "page_moves",
                       static_cast<double>(stats_.gc_page_moves -
                                           moves_before),
                       "erases",
                       static_cast<double>(stats_.erase_count -
                                           erases_before));
    }
    if (tel_gc_runs_ != nullptr) {
      tel_gc_runs_->inc();
      tel_gc_page_moves_->add(stats_.gc_page_moves - moves_before);
      tel_gc_stall_us_->add(gc_us);
    }
  }
  return gc_us;
}

SimDuration Ssd::write(Lpn lpn) {
  assert(lpn < l2p_.size());
  const std::uint32_t dom = next_domain_;
  if (num_domains_ > 1) next_domain_ = (next_domain_ + 1) % num_domains_;
  SimDuration elapsed = maybe_collect_for_write(dom);
  invalidate(lpn);
  append_page(lpn, dom);
  ++stats_.host_page_writes;
  elapsed += config_.page_write_us;
  stats_.busy_time_us += config_.page_write_us;  // GC added its own share.
  return elapsed;
}

SimDuration Ssd::trim(Lpn lpn) {
  assert(lpn < l2p_.size());
  if (l2p_.get(lpn) != l2p_.max_value()) {
    invalidate(lpn);
    ++stats_.trimmed_pages;
  }
  return 0;
}

SimDuration Ssd::read_range(Lpn first, std::uint32_t pages) {
  // Reads never mutate the mapping, so the per-page loop folds into pure
  // arithmetic: `pages` reads cost exactly pages * page_read_us of device
  // time regardless of mapping state.
  assert(pages == 0 || static_cast<std::size_t>(first) + pages <= l2p_.size());
  stats_.host_page_reads += pages;
  const SimDuration total =
      static_cast<SimDuration>(config_.page_read_us) * pages;
  stats_.busy_time_us += total;
  return total;
}

SimDuration Ssd::write_range(Lpn first, std::uint32_t pages) {
  assert(pages == 0 || static_cast<std::size_t>(first) + pages <= l2p_.size());
  if (num_domains_ > 1) {
    // Multi-domain devices append round-robin across LUN domains, so the
    // single-pool low-water hoist below does not apply; the per-page loop
    // keeps GC trigger points identical to `pages` calls of write().
    SimDuration gc_total = 0;
    for (std::uint32_t i = 0; i < pages; ++i) {
      const std::uint32_t dom = next_domain_;
      next_domain_ = (next_domain_ + 1) % num_domains_;
      gc_total += maybe_collect_for_write(dom);
      invalidate(first + i);
      append_page(first + i, dom);
    }
    stats_.host_page_writes += pages;
    const SimDuration write_us =
        static_cast<SimDuration>(config_.page_write_us) * pages;
    stats_.busy_time_us += write_us;
    return gc_total + write_us;
  }
  // Equivalent to `pages` calls of write(), with two loop-level savings:
  // the GC low-water check is hoisted over stretches the free pool provably
  // covers, and the service-time/stat accumulation happens once per range.
  // GC trigger points -- and therefore every victim choice, relocation and
  // telemetry span -- are identical to the per-page path: a stretch is only
  // entered when the pool cannot cross the low-water mark inside it.
  SimDuration gc_total = 0;
  std::uint32_t done = 0;
  while (done < pages) {
    const std::size_t pool = domains_[0].free_blocks.size();
    const std::size_t spare =
        pool > config_.gc_low_water ? pool - config_.gc_low_water : 0;
    // k appends pop at most floor(k / pages_per_block) + 1 free blocks, so
    // spare * pages_per_block - 1 pages cannot drain the pool below the
    // low-water mark.
    const std::uint64_t safe =
        spare > 0 ? spare * static_cast<std::uint64_t>(
                                config_.pages_per_block) -
                        1
                  : 0;
    if (safe == 0) {
      gc_total += maybe_collect_for_write(0);
      invalidate(first + done);
      append_page(first + done, 0);
      ++done;
      continue;
    }
    const std::uint32_t stretch = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(safe, pages - done));
    for (std::uint32_t i = 0; i < stretch; ++i) {
      invalidate(first + done + i);
      append_page(first + done + i, 0);
    }
    done += stretch;
  }
  stats_.host_page_writes += pages;
  const SimDuration write_us =
      static_cast<SimDuration>(config_.page_write_us) * pages;
  stats_.busy_time_us += write_us;
  return gc_total + write_us;
}

SimTime Ssd::read_page_at(SimTime t, std::uint32_t lun) {
  const std::uint32_t ch = lun % config_.geometry.channels;
  const std::uint32_t die = lun % dies_total_;
  // Read command: needs the channel bus and the die's command register.
  const SimTime start = std::max(t, std::max(bus_ready_[ch], die_ready_[die]));
  const SimTime cmd_end = start + config_.bus_ctrl_us;
  bus_ready_[ch] = cmd_end;
  die_ready_[die] = cmd_end;
  // Array sense on the plane; other planes of the die proceed in parallel.
  const SimTime array_end =
      std::max(cmd_end, plane_ready_[lun]) + config_.page_read_us;
  plane_ready_[lun] = array_end;
  // Data-out back over the shared channel bus.
  const SimTime out_end =
      std::max(array_end, bus_ready_[ch]) + config_.bus_data_us;
  bus_ready_[ch] = out_end;
  return out_end;
}

SimTime Ssd::write_page_at(SimTime t, std::uint32_t lun, SimDuration gc_us) {
  const std::uint32_t ch = lun % config_.geometry.channels;
  const std::uint32_t die = lun % dies_total_;
  // Program command + data-in occupy the bus and the die front-end.
  const SimTime start = std::max(t, std::max(bus_ready_[ch], die_ready_[die]));
  const SimTime xfer_end = start + config_.bus_ctrl_us + config_.bus_data_us;
  bus_ready_[ch] = xfer_end;
  die_ready_[die] = xfer_end;
  if (gc_us > 0) {
    // GC triggered by this write runs as on-die copyback + erase on the
    // victim domain's plane only: no bus traffic, no other die stalled.
    plane_ready_[lun] = std::max(plane_ready_[lun], start) + gc_us;
  }
  const SimTime prog_end =
      std::max(xfer_end, plane_ready_[lun]) + config_.page_write_us;
  plane_ready_[lun] = prog_end;
  return prog_end;
}

SimDuration Ssd::read_range_at(SimTime at, Lpn first, std::uint32_t pages) {
  if (!parallel_) return read_range(first, pages);
  assert(pages == 0 || static_cast<std::size_t>(first) + pages <= l2p_.size());
  stats_.host_page_reads += pages;
  // busy_time_us stays the serial sum of array work: it is the per-LUN
  // utilization aggregate the wear/load monitors consume, not wall clock.
  stats_.busy_time_us +=
      static_cast<SimDuration>(config_.page_read_us) * pages;
  SimTime done = at;
  for (std::uint32_t i = 0; i < pages; ++i) {
    const Lpn lpn = first + i;
    const std::uint64_t mapped = l2p_.get(lpn);
    // Unmapped pages read as zeroes from the LUN the striping would have
    // placed them on, so cold reads still spread across the geometry.
    const std::uint32_t lun =
        mapped == l2p_.max_value()
            ? static_cast<std::uint32_t>(lpn % num_domains_)
            : domain_of(block_of(static_cast<Ppn>(mapped)));
    done = std::max(done, read_page_at(at, lun));
  }
  return done - at;
}

SimDuration Ssd::write_range_at(SimTime at, Lpn first, std::uint32_t pages) {
  if (!parallel_) return write_range(first, pages);
  assert(pages == 0 || static_cast<std::size_t>(first) + pages <= l2p_.size());
  SimTime done = at;
  for (std::uint32_t i = 0; i < pages; ++i) {
    const Lpn lpn = first + i;
    const std::uint32_t dom = next_domain_;
    if (num_domains_ > 1) next_domain_ = (next_domain_ + 1) % num_domains_;
    const SimDuration gc_us = maybe_collect_for_write(dom);
    invalidate(lpn);
    append_page(lpn, dom);
    done = std::max(done, write_page_at(at, dom, gc_us));
  }
  stats_.host_page_writes += pages;
  stats_.busy_time_us +=
      static_cast<SimDuration>(config_.page_write_us) * pages;
  return done - at;
}

void Ssd::reset_timeline() {
  std::fill(bus_ready_.begin(), bus_ready_.end(), SimTime{0});
  std::fill(die_ready_.begin(), die_ready_.end(), SimTime{0});
  std::fill(plane_ready_.begin(), plane_ready_.end(), SimTime{0});
}

SimDuration Ssd::trim_range(Lpn first, std::uint32_t pages) {
  assert(pages == 0 || static_cast<std::size_t>(first) + pages <= l2p_.size());
  std::uint64_t trimmed = 0;
  for (std::uint32_t i = 0; i < pages; ++i) {
    const Lpn lpn = first + i;
    if (l2p_.get(lpn) != l2p_.max_value()) {
      invalidate(lpn);
      ++trimmed;
    }
  }
  stats_.trimmed_pages += trimmed;
  return 0;
}

double Ssd::physical_utilization() const {
  return static_cast<double>(valid_pages_) /
         static_cast<double>(config_.physical_pages());
}

double Ssd::logical_utilization() const {
  return static_cast<double>(valid_pages_) /
         static_cast<double>(config_.logical_pages());
}

SimDuration Ssd::prefill() {
  SimDuration total = 0;
  const auto pages = static_cast<Lpn>(config_.logical_pages());
  for (Lpn lpn = 0; lpn < pages; ++lpn) total += write(lpn);
  return total;
}

Ppn Ssd::append_page(Lpn lpn, std::uint32_t dom_idx, bool gc_stream) {
  Domain& dom = domains_[dom_idx];
  const bool use_gc_stream = gc_stream && config_.separate_gc_stream;
  std::uint32_t* head_id = use_gc_stream ? &dom.gc_open_block : &dom.open_block;

  auto pop_free = [this, &dom]() -> std::uint32_t {
    if (dom.free_blocks.empty()) {
      // Unreachable by construction: the per-domain low-water mark keeps a
      // reserve in every domain.
      throw std::logic_error("Ssd: free-block pool exhausted");
    }
    const std::uint32_t block = dom.free_blocks.back();
    dom.free_blocks.pop_back();
    block_open_.set(block);
    return block;
  };

  if (*head_id == kNoBlock) {
    *head_id = pop_free();  // GC stream opens lazily on first relocation
  } else if (block_write_ptr_[*head_id] == config_.pages_per_block) {
    // Retire the full log head into the domain's GC candidate set.
    block_open_.clear(*head_id);
    block_sealed_at_[*head_id] = write_clock_;
    dom.victims.insert(local_of(*head_id), block_valid_[*head_id]);
    *head_id = pop_free();
  }
  const std::uint32_t head = *head_id;
  const Ppn ppn = head * config_.pages_per_block + block_write_ptr_[head];
  ++block_write_ptr_[head];
  ++block_valid_[head];
  ++write_clock_;
  p2l_.set(ppn, lpn);
  l2p_.set(lpn, ppn);
  valid_bits_.set(ppn);
  ++valid_pages_;
  return ppn;
}

std::int64_t Ssd::pick_victim(std::uint32_t dom_idx) {
  Domain& dom = domains_[dom_idx];
  auto to_global = [this, dom_idx](std::int64_t local) -> std::int64_t {
    if (local < 0) return -1;
    return global_of(static_cast<std::uint32_t>(local), dom_idx);
  };
  if (config_.gc_policy == FlashConfig::GcPolicy::kGreedy) {
    return to_global(dom.victims.min_valid_block());
  }
  // Cost-benefit: score = age * (1 - u) / (2u), evaluated over a
  // deterministic stride sample of the domain's sealed blocks; empty
  // blocks are free wins and taken immediately.
  std::int64_t best = -1;
  double best_score = -1.0;
  std::uint32_t examined = 0;
  const std::uint32_t total = blocks_in_domain(dom_idx);
  for (std::uint32_t step = 0;
       step < total && examined < kCostBenefitSampleSize; ++step) {
    const std::uint32_t local = dom.scan_cursor;
    dom.scan_cursor = (dom.scan_cursor + 1) % total;
    if (!dom.victims.contains(local)) continue;
    const std::uint32_t b = global_of(local, dom_idx);
    ++examined;
    if (block_valid_[b] == 0) return b;  // nothing to relocate
    const double u = static_cast<double>(block_valid_[b]) /
                     static_cast<double>(config_.pages_per_block);
    const double age =
        static_cast<double>(write_clock_ - block_sealed_at_[b]) + 1.0;
    const double score = age * (1.0 - u) / (2.0 * u);
    if (score > best_score) {
      best_score = score;
      best = b;
    }
  }
  if (best < 0) {
    // Sample missed: fall back to greedy within the domain.
    return to_global(dom.victims.min_valid_block());
  }
  return best;
}

SimDuration Ssd::collect_garbage(std::uint32_t dom_idx) {
  assert(!gc_active_);
  gc_active_ = true;
  Domain& dom = domains_[dom_idx];
  SimDuration elapsed = 0;
  while (dom.free_blocks.size() < config_.domain_low_water()) {
    const std::int64_t victim = pick_victim(dom_idx);
    if (victim < 0) break;  // Nothing reclaimable (tiny-device corner).
    const auto vb = static_cast<std::uint32_t>(victim);
    dom.victims.remove(local_of(vb));
    const std::uint32_t victim_valid = block_valid_[vb];
    stats_.victim_valid_pages += victim_valid;

    // Relocate surviving pages to the domain's own log head (multi-stream
    // GC: relocations never cross LUNs, so GC only occupies the die it
    // erases).  Validity comes from the bitmap: P2L entries for
    // invalidated pages are stale, never cleared.
    const Ppn base = vb * config_.pages_per_block;
    for (std::uint32_t i = 0;
         i < config_.pages_per_block && block_valid_[vb] > 0; ++i) {
      const Ppn ppn = base + i;
      if (!valid_bits_.test(ppn)) continue;
      const Lpn lpn = static_cast<Lpn>(p2l_.get(ppn));
      valid_bits_.clear(ppn);
      --block_valid_[vb];
      --valid_pages_;
      append_page(lpn, dom_idx, /*gc_stream=*/true);
      ++stats_.gc_page_moves;
      elapsed += config_.page_read_us + config_.page_write_us;
    }

    // Erase and return to the domain's free pool.
    block_valid_[vb] = 0;
    block_write_ptr_[vb] = 0;
    block_sealed_at_[vb] = 0;
    block_open_.clear(vb);
    dom.free_blocks.push_back(vb);
    ++stats_.erase_count;
    ++block_erases_[vb];
    elapsed += config_.block_erase_us;
  }
  stats_.busy_time_us += elapsed;
  gc_active_ = false;
  return elapsed;
}

Ssd::BlockWear Ssd::block_wear() const {
  BlockWear out;
  if (block_erases_.empty()) return out;
  out.min_erases = block_erases_[0];
  double sum = 0.0;
  double sq = 0.0;
  for (const std::uint32_t e : block_erases_) {
    out.max_erases = std::max<std::uint64_t>(out.max_erases, e);
    out.min_erases = std::min<std::uint64_t>(out.min_erases, e);
    sum += static_cast<double>(e);
    sq += static_cast<double>(e) * static_cast<double>(e);
  }
  const auto n = static_cast<double>(block_erases_.size());
  out.mean_erases = sum / n;
  const double var = sq / n - out.mean_erases * out.mean_erases;
  out.rsd = out.mean_erases > 0.0
                ? std::sqrt(std::max(0.0, var)) / out.mean_erases
                : 0.0;
  return out;
}

void Ssd::invalidate(Lpn lpn) {
  const std::uint64_t mapped = l2p_.get(lpn);
  if (mapped == l2p_.max_value()) return;
  const auto ppn = static_cast<Ppn>(mapped);
  l2p_.set(lpn, l2p_.max_value());
  valid_bits_.clear(ppn);  // P2L entry goes stale; the bitmap is the truth
  const std::uint32_t blk = block_of(ppn);
  --block_valid_[blk];
  --valid_pages_;
  Domain& dom = domains_[domain_of(blk)];
  const std::uint32_t local = local_of(blk);
  if (dom.victims.contains(local)) {
    dom.victims.update(local, block_valid_[blk]);
  }
}

void Ssd::attach_telemetry(telemetry::Recorder* recorder,
                           std::uint32_t device_id) {
  tel_ = recorder;
  tel_device_ = device_id;
  tel_gc_runs_ = nullptr;
  tel_gc_page_moves_ = nullptr;
  tel_gc_stall_us_ = nullptr;
  if (tel_ != nullptr) {
    if (auto* metrics = tel_->metrics()) {
      // Cluster-wide counters: every device of the run shares the handles.
      tel_gc_runs_ = metrics->counter("flash.gc_runs");
      tel_gc_page_moves_ = metrics->counter("flash.gc_page_moves");
      tel_gc_stall_us_ = metrics->counter("flash.gc_stall_us");
    }
    if (auto* tracer = tel_->tracer()) {
      tracer->name_track(telemetry::track_osd(device_id),
                         "osd" + std::to_string(device_id));
    }
  }
}

std::size_t Ssd::metadata_bytes() const {
  std::size_t pool_bytes = 0;
  for (const Domain& dom : domains_) {
    pool_bytes += dom.free_blocks.capacity() * sizeof(std::uint32_t);
  }
  return l2p_.backing_bytes() + p2l_.backing_bytes() +
         valid_bits_.backing_bytes() + block_open_.backing_bytes() +
         block_valid_.capacity() * sizeof(std::uint16_t) +
         block_write_ptr_.capacity() * sizeof(std::uint16_t) +
         block_sealed_at_.capacity() * sizeof(std::uint64_t) +
         block_erases_.capacity() * sizeof(std::uint32_t) + pool_bytes;
}

bool Ssd::check_invariants() const {
  std::vector<std::uint32_t> valid_by_block(config_.num_blocks, 0);
  std::uint64_t total_valid = 0;
  for (Lpn lpn = 0; lpn < l2p_.size(); ++lpn) {
    const std::uint64_t mapped = l2p_.get(lpn);
    if (mapped == l2p_.max_value()) continue;
    const auto ppn = static_cast<Ppn>(mapped);
    if (ppn >= p2l_.size() || p2l_.get(ppn) != lpn) return false;
    if (!valid_bits_.test(ppn)) return false;
    ++valid_by_block[block_of(ppn)];
    ++total_valid;
  }
  if (total_valid != valid_pages_) return false;
  // Bitmap popcount == valid count: together with the per-LPN bit check
  // above this makes L2P <-> valid bits a bijection (no orphaned set bit).
  if (valid_bits_.count_range(0, valid_bits_.size()) != valid_pages_) {
    return false;
  }
  for (std::uint32_t b = 0; b < config_.num_blocks; ++b) {
    if (block_valid_[b] != valid_by_block[b]) return false;
    if (block_write_ptr_[b] > config_.pages_per_block) return false;
    if (block_valid_[b] > block_write_ptr_[b]) return false;
  }
  for (std::uint32_t d = 0; d < num_domains_; ++d) {
    const Domain& dom = domains_[d];
    // Free blocks must be fully clean and belong to their domain.
    for (std::uint32_t b : dom.free_blocks) {
      if (domain_of(b) != d) return false;
      if (block_valid_[b] != 0 || block_write_ptr_[b] != 0) return false;
      if (block_open_.test(b)) return false;
    }
    if (dom.gc_open_block != kNoBlock) {
      if (domain_of(dom.gc_open_block) != d) return false;
      if (!block_open_.test(dom.gc_open_block)) return false;
    }
    if (dom.open_block == kNoBlock || domain_of(dom.open_block) != d) {
      return false;
    }
    if (!block_open_.test(dom.open_block)) return false;
  }
  return true;
}

}  // namespace edm::flash
