// Migration plan: the list of (oid, source, destination) triples the paper's
// data selection step produces (SIII.B.5: "Each data movement action is
// indicated by a triple").
#pragma once

#include <cstdint>
#include <vector>

#include "util/types.h"

namespace edm::core {

struct MigrationAction {
  ObjectId oid = 0;
  OsdId source = 0;
  OsdId destination = 0;
  std::uint32_t pages = 0;  // object size, for cost accounting
};

struct MigrationPlan {
  std::vector<MigrationAction> actions;

  std::size_t moved_objects() const { return actions.size(); }
  bool empty() const { return actions.empty(); }
};

}  // namespace edm::core
