#include "epicast/gossip/routes_buffer.hpp"

#include <algorithm>

#include "epicast/common/assert.hpp"

namespace epicast {

void RoutesBuffer::update(NodeId source,
                          const std::vector<NodeId>& forward_route) {
  if (forward_route.empty()) return;
  EPICAST_ASSERT_MSG(forward_route.front() == source,
                     "recorded route must start at the publisher");
  // assign() reuses the stored route's capacity: routes to a source keep
  // about the same length, so the steady state allocates nothing.
  routes_[source].assign(forward_route.rbegin(), forward_route.rend());
}

const std::vector<NodeId>& RoutesBuffer::route_to(NodeId source) const {
  auto it = routes_.find(source);
  return it == routes_.end() ? empty_ : it->second;
}

std::vector<NodeId> RoutesBuffer::known_sources() const {
  std::vector<NodeId> out;
  out.reserve(routes_.size());
  for (const auto& [source, route] : routes_) out.push_back(source);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace epicast
