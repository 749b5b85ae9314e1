#include "cluster/raid5.h"

#include <algorithm>
#include <stdexcept>

namespace edm::cluster {

Raid5Layout::Raid5Layout(std::uint32_t k, std::uint32_t stripe_unit)
    : k_(k), unit_(stripe_unit) {
  if (k < 2) {
    throw std::invalid_argument("Raid5Layout: k must be >= 2 (data + parity)");
  }
  if (stripe_unit == 0) {
    throw std::invalid_argument("Raid5Layout: stripe_unit must be > 0");
  }
}

std::uint64_t Raid5Layout::stripe_count(std::uint64_t file_size) const {
  if (file_size == 0) return 0;
  const std::uint64_t data_units = (file_size + unit_ - 1) / unit_;
  const std::uint64_t data_per_stripe = k_ - 1;
  return (data_units + data_per_stripe - 1) / data_per_stripe;
}

std::uint64_t Raid5Layout::object_bytes(std::uint64_t file_size) const {
  return stripe_count(file_size) * unit_;
}

// Both mappers run once per replayed file request, so the per-unit
// divisions are hoisted to the loop entry: after the first (possibly
// unaligned) unit, unit_off is 0, the data slot advances by one per unit
// and wraps into the next stripe at k-1, and the rotating parity index
// decrements by one per stripe (wrapping 0 -> k-1).  Outputs are
// bit-identical to the direct div/mod formulation.

void Raid5Layout::map_read(std::uint64_t offset, std::uint32_t length,
                           std::vector<ObjectIo>& out) const {
  std::uint64_t pos = offset;
  const std::uint64_t end = offset + length;
  if (pos >= end) return;
  const std::uint64_t first_unit = pos / unit_;
  std::uint64_t unit_off = pos % unit_;
  std::uint64_t stripe = first_unit / (k_ - 1);
  auto slot = static_cast<std::uint32_t>(first_unit % (k_ - 1));
  std::uint32_t parity = parity_object(stripe);
  while (pos < end) {
    const std::uint64_t chunk = std::min<std::uint64_t>(unit_ - unit_off, end - pos);
    ObjectIo io;
    io.object_index = slot < parity ? slot : slot + 1;
    io.offset = stripe * unit_ + unit_off;
    io.length = static_cast<std::uint32_t>(chunk);
    io.is_write = false;
    io.is_parity = false;
    out.push_back(io);
    pos += chunk;
    unit_off = 0;
    if (++slot == k_ - 1) {
      slot = 0;
      ++stripe;
      parity = parity == 0 ? k_ - 1 : parity - 1;
    }
  }
}

void Raid5Layout::map_write(std::uint64_t offset, std::uint32_t length,
                            std::vector<ObjectIo>& out) const {
  std::uint64_t pos = offset;
  const std::uint64_t end = offset + length;
  if (pos >= end) return;
  const std::uint64_t first_unit = pos / unit_;
  std::uint64_t unit_off = pos % unit_;
  std::uint64_t stripe = first_unit / (k_ - 1);
  auto slot = static_cast<std::uint32_t>(first_unit % (k_ - 1));
  std::uint32_t parity = parity_object(stripe);
  std::uint64_t last_stripe_with_parity = UINT64_MAX;
  while (pos < end) {
    const std::uint64_t chunk = std::min<std::uint64_t>(unit_ - unit_off, end - pos);
    const std::uint32_t data_obj = slot < parity ? slot : slot + 1;
    const std::uint64_t obj_off = stripe * unit_ + unit_off;
    const auto len = static_cast<std::uint32_t>(chunk);

    // Read-modify-write: old data in, new data out.
    out.push_back({data_obj, obj_off, len, /*is_write=*/false, false});
    out.push_back({data_obj, obj_off, len, /*is_write=*/true, false});

    // Parity read-modify-write, once per touched stripe for the touched
    // byte range (coalesced when several data units of one stripe are hit,
    // the common sequential-write case).
    if (stripe != last_stripe_with_parity) {
      out.push_back({parity, obj_off, len, false, true});
      out.push_back({parity, obj_off, len, true, true});
      last_stripe_with_parity = stripe;
    }
    pos += chunk;
    unit_off = 0;
    if (++slot == k_ - 1) {
      slot = 0;
      ++stripe;
      parity = parity == 0 ? k_ - 1 : parity - 1;
    }
  }
}

}  // namespace edm::cluster
