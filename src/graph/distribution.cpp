#include "graph/distribution.hpp"

namespace dpg::graph {

std::uint64_t distribution::hashed_local_index(vertex_id v) const {
  const auto& owned = tables_->owned[owner(v)];
  const auto it = std::lower_bound(owned.begin(), owned.end(), v);
  DPG_DEBUG_ASSERT(it != owned.end() && *it == v);
  return static_cast<std::uint64_t>(it - owned.begin());
}

}  // namespace dpg::graph
