#include "flash/config.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace edm::flash {

std::uint64_t FlashConfig::logical_pages() const {
  const auto physical = physical_pages();
  auto logical = static_cast<std::uint64_t>(
      std::floor(static_cast<double>(physical) * (1.0 - op_ratio)));
  // GC needs spare blocks to relocate into; never expose them to the host.
  const std::uint64_t reserved =
      static_cast<std::uint64_t>(kGcLowWater + 1) * pages_per_block;
  if (physical <= reserved) return 0;
  return std::min(logical, physical - reserved);
}

void FlashConfig::validate() const {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("FlashConfig: " + what);
  };
  if (pages_per_block == 0) fail("pages_per_block must be > 0");
  if (pages_per_block > 65535) {
    // Per-block valid/write-ptr counters are 16-bit (SoA layout in Ssd).
    fail("pages_per_block must be <= 65535");
  }
  if (num_blocks == 0) fail("num_blocks must be > 0");
  if (op_ratio < 0.0 || op_ratio >= 1.0) fail("op_ratio must be in [0, 1)");
  if (geometry.channels == 0) fail("geometry.channels must be > 0");
  if (geometry.dies_per_channel == 0) {
    fail("geometry.dies_per_channel must be > 0");
  }
  if (geometry.planes_per_die == 0) fail("geometry.planes_per_die must be > 0");
  // luns() is a 32-bit product; a wrapped count of 0 would skip the
  // per-domain checks below and leave the device without domains.
  if (static_cast<std::uint64_t>(geometry.channels) *
          geometry.dies_per_channel * geometry.planes_per_die >
      UINT32_MAX) {
    fail("geometry.channels x geometry.dies_per_channel x "
         "geometry.planes_per_die must fit in 32 bits");
  }
  const std::uint32_t domains = allocation_domains();
  if (domains > 1) {
    // Every LUN-level domain needs its own log head, GC stream head and
    // low-water reserve, plus at least one block of churn slack.
    const std::uint32_t per_domain_min = domain_low_water() + 3;
    if (num_blocks / domains < per_domain_min) {
      fail("geometry has too many LUNs for num_blocks (each allocation "
           "domain needs >= " +
           std::to_string(per_domain_min) + " blocks)");
    }
    const std::uint64_t data_blocks =
        (logical_pages() + pages_per_block - 1) / pages_per_block;
    const std::uint64_t spare = num_blocks - data_blocks;
    if (spare < static_cast<std::uint64_t>(domains) * (domain_low_water() + 2)) {
      fail("not enough over-provisioned blocks for per-LUN GC reserves "
           "(raise op_ratio or num_blocks for this geometry)");
    }
  }
  if (logical_pages() == 0) {
    fail("geometry leaves no logical capacity (too small or too much OP)");
  }
}

FlashConfig FlashConfig::with_logical_capacity(std::uint64_t bytes) const {
  FlashConfig out = *this;
  const std::uint64_t wanted_pages = (bytes + kPageSize - 1) / kPageSize;
  // logical = physical*(1-op) (minus reserve); solve for blocks and then
  // nudge upward until the reserve constraint is also met.
  auto blocks = static_cast<std::uint32_t>(std::ceil(
      static_cast<double>(wanted_pages) /
      ((1.0 - op_ratio) * pages_per_block)));
  out.num_blocks = std::max(blocks, kGcLowWater + 2);
  while (out.logical_pages() < wanted_pages) ++out.num_blocks;
  const std::uint32_t domains = out.allocation_domains();
  if (domains > 1) {
    // Parallel geometries additionally need per-LUN GC reserves; grow the
    // device (effectively extra over-provisioning) until validate()'s
    // per-domain constraints hold.
    auto feasible = [&out, domains] {
      if (out.num_blocks / domains < out.domain_low_water() + 3) return false;
      const std::uint64_t data_blocks =
          (out.logical_pages() + out.pages_per_block - 1) /
          out.pages_per_block;
      return out.num_blocks - data_blocks >=
             static_cast<std::uint64_t>(domains) * (out.domain_low_water() + 2);
    };
    // Spare grows ~op_ratio blocks per added block, so this converges for
    // any op_ratio > 0; the iteration cap leaves a degenerate op_ratio to
    // validate()'s descriptive error below.
    for (std::uint32_t guard = 0; guard < (1u << 20) && !feasible(); ++guard) {
      out.num_blocks += domains;
    }
  }
  out.validate();
  return out;
}

}  // namespace edm::flash
