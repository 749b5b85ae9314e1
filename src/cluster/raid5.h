// Object-level RAID-5 striping of file data over a file's k objects
// (paper SIII.A: "file data are striped over its k objects using
// object-level RAID-5 algorithm").
//
// Layout is left-symmetric rotating parity at stripe-unit granularity:
// stripe s carries k-1 data units plus one parity unit on object
// (k - 1 - s mod k); every object stores exactly one unit per stripe at
// object offset s * unit.
//
// Writes are modelled as read-modify-write small writes: old data unit and
// old parity unit are read, then new data and new parity are written.  This
// is the dominant RAID-5 mode for the <= tens-of-KB NFS requests in Table I
// and applies identically to every migration policy, so it does not bias
// policy comparisons.
#pragma once

#include <cstdint>
#include <vector>

#include "util/types.h"

namespace edm::cluster {

/// One object-granular I/O produced by striping a file request.
struct ObjectIo {
  std::uint32_t object_index = 0;  // which of the file's k objects
  std::uint64_t offset = 0;        // byte offset within the object
  std::uint32_t length = 0;        // bytes
  bool is_write = false;
  bool is_parity = false;  // parity-unit traffic (for accounting)
};

class Raid5Layout {
 public:
  /// `k` objects per file (data+parity mix per stripe), unit = stripe unit
  /// in bytes.  Throws std::invalid_argument for k < 2 or unit == 0.
  Raid5Layout(std::uint32_t k, std::uint32_t stripe_unit);

  std::uint32_t k() const { return k_; }
  std::uint32_t stripe_unit() const { return unit_; }

  /// Object index holding the parity unit of stripe `s`.
  std::uint32_t parity_object(std::uint64_t stripe) const {
    return static_cast<std::uint32_t>(k_ - 1 - stripe % k_);
  }

  /// Bytes each object must provision for a file of `file_size` bytes
  /// (same for all k objects: one unit per stripe, unit-rounded).
  std::uint64_t object_bytes(std::uint64_t file_size) const;

  /// Number of stripes for a file of the given size.
  std::uint64_t stripe_count(std::uint64_t file_size) const;

  /// Maps a file-level read [offset, offset+length) to per-object reads.
  /// Appends to `out`.
  void map_read(std::uint64_t offset, std::uint32_t length,
                std::vector<ObjectIo>& out) const;

  /// Maps a file-level write to per-object I/Os: for every touched data
  /// unit a pre-read of old data + the data write; for every touched stripe
  /// a pre-read of old parity + the parity write.  Appends to `out`.
  void map_write(std::uint64_t offset, std::uint32_t length,
                 std::vector<ObjectIo>& out) const;

 private:
  std::uint32_t k_;
  std::uint32_t unit_;
};

}  // namespace edm::cluster
