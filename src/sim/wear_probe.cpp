#include "sim/wear_probe.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/wear_model.h"
#include "flash/ssd.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace edm::sim {

namespace {

/// Churn volume in multiples of physical capacity; the first half warms the
/// device to steady state, the second half is measured.
constexpr double kChurnMultiplier = 3.0;

/// Salt for the probe's file sizes and write stream.
constexpr std::uint64_t kProbeSeed = 1;

/// One pre-created "file" mapped to a contiguous LPN extent.
struct ProbeFile {
  Lpn first_page = 0;
  std::uint32_t pages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t cursor = 0;  // sequential-write cursor (bytes)
};

/// Replicates the generator's write-offset semantics (hot-unit Zipf /
/// sequential cursor / uniform) against raw device pages.
class WriteSampler {
 public:
  WriteSampler(const trace::WorkloadProfile& profile,
               std::vector<ProbeFile> files, std::uint64_t seed)
      : profile_(profile),
        files_(std::move(files)),
        rng_(seed),
        file_pop_(files_.size(), profile.write_zipf) {
    rank_.resize(files_.size());
    std::iota(rank_.begin(), rank_.end(), 0);
    for (std::size_t i = rank_.size(); i > 1; --i) {
      std::swap(rank_[i - 1], rank_[rng_.next_below(i)]);
    }
  }

  /// Issues one write request to the device; returns pages written.
  std::uint32_t write_once(flash::Ssd& ssd) {
    ProbeFile& f = files_[rank_[file_pop_(rng_)]];
    const std::uint32_t avg = std::max(profile_.avg_write_size, 4096u);
    const std::uint64_t lo = std::max<std::uint32_t>(512, avg / 2);
    const std::uint64_t hi = std::max(lo + 1, std::uint64_t{avg} + avg / 2);
    std::uint64_t size = rng_.next_in(lo, hi);

    std::uint64_t offset;
    const bool hot = rng_.next_double() < profile_.write_hot_bias;
    if (hot) {
      const std::uint64_t unit = std::max<std::uint64_t>(avg, 4096);
      const std::uint64_t hot_bytes = std::max<std::uint64_t>(
          unit, static_cast<std::uint64_t>(profile_.hot_region_fraction *
                                           static_cast<double>(f.bytes)));
      const std::uint64_t units = std::max<std::uint64_t>(1, hot_bytes / unit);
      if (profile_.offset_zipf > 0.0) {
        const util::ZipfSampler offsets(units, profile_.offset_zipf);
        offset = offsets(rng_) * unit;
      } else {
        offset = rng_.next_below(units) * unit;
      }
    } else if (rng_.next_double() < profile_.sequential_locality) {
      offset = f.cursor % f.bytes;
    } else {
      offset = rng_.next_below(f.bytes) & ~std::uint64_t{511};
    }
    if (offset + size > f.bytes) {
      if (size <= f.bytes) {
        offset = f.bytes - size;
      } else {
        offset = 0;
        size = f.bytes;
      }
    }
    f.cursor = offset + size;

    const Lpn first =
        f.first_page + static_cast<Lpn>(offset / flash::kPageSize);
    const auto last_byte = offset + size - 1;
    const Lpn last =
        f.first_page + static_cast<Lpn>(last_byte / flash::kPageSize);
    const std::uint32_t pages = last - first + 1;
    ssd.write_range(first, pages);
    return pages;
  }

 private:
  trace::WorkloadProfile profile_;
  std::vector<ProbeFile> files_;
  util::Xoshiro256 rng_;
  util::ZipfSampler file_pop_;
  std::vector<std::uint32_t> rank_;
};

}  // namespace

WearProbeResult run_wear_probe(const trace::WorkloadProfile& profile,
                               const WearProbeConfig& config) {
  flash::FlashConfig fcfg = config.flash;
  fcfg.validate();
  flash::Ssd ssd(fcfg);

  // Lay files onto the device until the utilization target is reached,
  // reusing the profile's (deterministic) file-size distribution.
  const auto target_pages = static_cast<std::uint64_t>(
      config.utilization * static_cast<double>(fcfg.physical_pages()));
  trace::WorkloadProfile sizing = profile;
  sizing.seed ^= kProbeSeed * 0x9E3779B97F4A7C15ULL;
  // Generate sizes directly with the same lognormal the generator uses.
  util::Xoshiro256 size_rng(sizing.seed);
  std::vector<ProbeFile> files;
  Lpn next_page = 0;
  std::uint64_t placed = 0;
  while (placed < target_pages) {
    double bytes_d;
    if (profile.file_size_sigma <= 0.0) {
      bytes_d = static_cast<double>(profile.median_file_size);
    } else {
      bytes_d = std::exp(
          std::log(static_cast<double>(profile.median_file_size)) +
          profile.file_size_sigma * size_rng.next_gaussian());
    }
    const std::uint64_t bytes = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(bytes_d), 8 * 1024, 256ull << 20);
    const auto pages = static_cast<std::uint32_t>(
        (bytes + flash::kPageSize - 1) / flash::kPageSize);
    if (placed + pages > target_pages ||
        next_page + pages > fcfg.logical_pages()) {
      // Trim the last file to land exactly on the target.
      const auto remaining = static_cast<std::uint32_t>(std::min(
          target_pages - placed, fcfg.logical_pages() - next_page));
      if (remaining < 2) break;
      files.push_back({next_page, remaining,
                       std::uint64_t{remaining} * flash::kPageSize, 0});
      placed += remaining;
      break;
    }
    files.push_back({next_page, pages, bytes, 0});
    next_page += pages;
    placed += pages;
  }

  // Populate (write every allocated page once), then churn.
  for (const auto& f : files) ssd.write_range(f.first_page, f.pages);

  WriteSampler sampler(profile, std::move(files), kProbeSeed * 7919 + 1);
  const auto churn_target = static_cast<std::uint64_t>(
      kChurnMultiplier * static_cast<double>(fcfg.physical_pages()));
  // Warm-up half, then measure.
  std::uint64_t written = 0;
  while (written < churn_target / 2) written += sampler.write_once(ssd);
  ssd.reset_stats();
  written = 0;
  while (written < churn_target / 2) written += sampler.write_once(ssd);

  WearProbeResult out;
  out.utilization = ssd.physical_utilization();
  out.measured_ur = ssd.stats().measured_ur(fcfg.pages_per_block);
  out.erases = ssd.stats().erase_count;
  out.write_amplification = ssd.stats().write_amplification();
  out.eq2_ur = core::WearModel(fcfg.pages_per_block, 0.0)
                   .ur_of_utilization(out.utilization);
  out.eq3_ur = core::WearModel(fcfg.pages_per_block, 0.28)
                   .ur_of_utilization(out.utilization);
  return out;
}

std::vector<WearProbeResult> sweep_wear_probe(
    const trace::WorkloadProfile& profile, const WearProbeConfig& config,
    const std::vector<double>& utilizations) {
  std::vector<WearProbeResult> out;
  out.reserve(utilizations.size());
  for (double u : utilizations) {
    WearProbeConfig c = config;
    c.utilization = u;
    out.push_back(run_wear_probe(profile, c));
  }
  return out;
}

}  // namespace edm::sim
