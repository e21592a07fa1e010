#include "epicast/net/overlays.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "epicast/common/assert.hpp"

namespace epicast {
namespace {

/// Degree headroom for the non-tree families: the generators control their
/// own degree distribution, so the Topology cap is just a sanity ceiling.
std::uint32_t open_cap(std::uint32_t nodes) {
  return std::max(2u, nodes > 0 ? nodes - 1 : 2u);
}

std::uint64_t edge_key(std::uint32_t a, std::uint32_t b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

/// Links every stray component to the previously discovered one, so the
/// returned overlay is a single component. The patch adds at most
/// (components - 1) links; families that are connected w.h.p. (BA, regular
/// with d >= 3) never take it.
void ensure_connected(Topology& topo) {
  const std::uint32_t n = topo.node_count();
  if (n == 0) return;
  std::vector<std::uint8_t> seen(n, 0);
  std::vector<NodeId> queue;
  NodeId previous_rep = NodeId::invalid();
  for (std::uint32_t start = 0; start < n; ++start) {
    if (seen[start]) continue;
    if (previous_rep.valid()) topo.add_link(previous_rep, NodeId{start});
    previous_rep = NodeId{start};
    queue.clear();
    queue.push_back(NodeId{start});
    seen[start] = 1;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      for (NodeId m : topo.neighbors(queue[head])) {
        if (seen[m.value()]) continue;
        seen[m.value()] = 1;
        queue.push_back(m);
      }
    }
  }
}

void fisher_yates(std::vector<std::uint32_t>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.next_below(i));
    std::swap(v[i - 1], v[j]);
  }
}

}  // namespace

const char* to_string(OverlayKind kind) {
  switch (kind) {
    case OverlayKind::Tree: return "tree";
    case OverlayKind::BarabasiAlbert: return "barabasi-albert";
    case OverlayKind::WattsStrogatz: return "watts-strogatz";
    case OverlayKind::RandomRegular: return "random-regular";
    case OverlayKind::GeoCluster: return "geo-cluster";
  }
  EPICAST_UNREACHABLE("unknown overlay kind");
}

std::optional<OverlayKind> overlay_from_string(const std::string& name) {
  if (name == "tree") return OverlayKind::Tree;
  if (name == "barabasi-albert" || name == "ba") {
    return OverlayKind::BarabasiAlbert;
  }
  if (name == "watts-strogatz" || name == "ws") {
    return OverlayKind::WattsStrogatz;
  }
  if (name == "random-regular" || name == "rr") {
    return OverlayKind::RandomRegular;
  }
  if (name == "geo-cluster" || name == "geo") return OverlayKind::GeoCluster;
  return std::nullopt;
}

Topology barabasi_albert(std::uint32_t nodes, std::uint32_t m, Rng& rng) {
  EPICAST_ASSERT_MSG(nodes >= 2 && m >= 1, "BA needs >= 2 nodes and m >= 1");
  m = std::min(m, nodes - 1);
  Topology topo(nodes, open_cap(nodes));

  // Seed clique over the first m+1 nodes, then preferential attachment:
  // `endpoints` holds every link endpoint once, so uniform sampling from it
  // is degree-proportional sampling.
  const std::uint32_t m0 = std::min(m + 1, nodes);
  std::vector<std::uint32_t> endpoints;
  endpoints.reserve(2 * static_cast<std::size_t>(m) * nodes);
  for (std::uint32_t a = 0; a < m0; ++a) {
    for (std::uint32_t b = a + 1; b < m0; ++b) {
      topo.add_link(NodeId{a}, NodeId{b});
      endpoints.push_back(a);
      endpoints.push_back(b);
    }
  }
  std::vector<std::uint32_t> chosen;
  for (std::uint32_t v = m0; v < nodes; ++v) {
    chosen.clear();
    while (chosen.size() < m) {
      const std::uint32_t t =
          endpoints[static_cast<std::size_t>(rng.next_below(endpoints.size()))];
      if (std::find(chosen.begin(), chosen.end(), t) == chosen.end()) {
        chosen.push_back(t);
      }
    }
    for (std::uint32_t t : chosen) {
      topo.add_link(NodeId{v}, NodeId{t});
      endpoints.push_back(v);
      endpoints.push_back(t);
    }
  }
  return topo;
}

Topology watts_strogatz(std::uint32_t nodes, std::uint32_t k, double rewire,
                        Rng& rng) {
  EPICAST_ASSERT_MSG(nodes >= 3, "WS needs >= 3 nodes");
  EPICAST_ASSERT(rewire >= 0.0 && rewire <= 1.0);
  // k/2 neighbours per side, k rounded up to even, lattice kept simple.
  std::uint32_t half = std::max(1u, (k + 1) / 2);
  half = std::min(half, (nodes - 1) / 2);

  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  std::unordered_set<std::uint64_t> present;
  edges.reserve(static_cast<std::size_t>(nodes) * half);
  for (std::uint32_t i = 0; i < nodes; ++i) {
    for (std::uint32_t j = 1; j <= half; ++j) {
      const std::uint32_t t = (i + j) % nodes;
      edges.emplace_back(i, t);
      present.insert(edge_key(i, t));
    }
  }
  // Rewire pass in lattice generation order (deterministic draw sequence):
  // each edge keeps its near endpoint and, with probability `rewire`, gets a
  // fresh far endpoint avoiding self-loops and duplicates.
  for (auto& [a, b] : edges) {
    if (rng.next_double() >= rewire) continue;
    for (int attempt = 0; attempt < 32; ++attempt) {
      const auto t = static_cast<std::uint32_t>(rng.next_below(nodes));
      if (t == a || present.contains(edge_key(a, t))) continue;
      present.erase(edge_key(a, b));
      present.insert(edge_key(a, t));
      b = t;
      break;
    }
  }

  Topology topo(nodes, open_cap(nodes));
  for (const auto& [a, b] : edges) topo.add_link(NodeId{a}, NodeId{b});
  ensure_connected(topo);
  return topo;
}

Topology random_regular(std::uint32_t nodes, std::uint32_t d, Rng& rng) {
  EPICAST_ASSERT_MSG(nodes >= 2 && d >= 1 && d < nodes,
                     "regular graph needs 1 <= d < nodes");
  std::vector<std::uint32_t> stubs;
  stubs.reserve(static_cast<std::size_t>(nodes) * d);
  for (std::uint32_t i = 0; i < nodes; ++i) {
    for (std::uint32_t j = 0; j < d; ++j) stubs.push_back(i);
  }
  if (stubs.size() % 2 != 0) stubs.pop_back();  // n·d odd: one node at d-1

  // Stub matching, resampled while the pairing has self-loops or duplicate
  // edges. After the retry budget, accept the last shuffle and drop the few
  // conflicting pairs (near-regular beats unbounded retries at large d).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  std::unordered_set<std::uint64_t> present;
  for (int attempt = 0; attempt < 20; ++attempt) {
    fisher_yates(stubs, rng);
    edges.clear();
    present.clear();
    bool simple = true;
    for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
      const std::uint32_t a = stubs[i];
      const std::uint32_t b = stubs[i + 1];
      if (a == b || !present.insert(edge_key(a, b)).second) {
        simple = false;
        continue;
      }
      edges.emplace_back(a, b);
    }
    if (simple) break;
  }

  Topology topo(nodes, open_cap(nodes));
  for (const auto& [a, b] : edges) topo.add_link(NodeId{a}, NodeId{b});
  ensure_connected(topo);
  return topo;
}

Topology geo_cluster(std::uint32_t nodes, std::uint32_t k, Rng& rng) {
  EPICAST_ASSERT_MSG(nodes >= 2 && k >= 1, "geo graph needs >= 2 nodes, k >= 1");
  k = std::min(k, nodes - 1);
  std::vector<double> xs(nodes);
  std::vector<double> ys(nodes);
  for (std::uint32_t i = 0; i < nodes; ++i) {
    xs[i] = rng.next_double();
    ys[i] = rng.next_double();
  }

  // Uniform grid with ~1 point per cell: the k nearest of a node live in a
  // small Chebyshev ring around its cell, so the search is near-linear in N.
  const auto side = static_cast<std::uint32_t>(
      std::max(1.0, std::floor(std::sqrt(static_cast<double>(nodes)))));
  std::vector<std::vector<std::uint32_t>> cells(
      static_cast<std::size_t>(side) * side);
  auto cell_of = [&](double x, double y) {
    auto cx = static_cast<std::uint32_t>(x * side);
    auto cy = static_cast<std::uint32_t>(y * side);
    cx = std::min(cx, side - 1);
    cy = std::min(cy, side - 1);
    return static_cast<std::size_t>(cy) * side + cx;
  };
  for (std::uint32_t i = 0; i < nodes; ++i) {
    cells[cell_of(xs[i], ys[i])].push_back(i);
  }

  Topology topo(nodes, open_cap(nodes));
  std::vector<std::pair<double, std::uint32_t>> cand;
  for (std::uint32_t i = 0; i < nodes; ++i) {
    auto cx = static_cast<std::int64_t>(std::min(
        static_cast<std::uint32_t>(xs[i] * side), side - 1));
    auto cy = static_cast<std::int64_t>(std::min(
        static_cast<std::uint32_t>(ys[i] * side), side - 1));
    cand.clear();
    // Grow the ring until enough candidates surround the query; one extra
    // ring keeps near-boundary neighbours from being missed.
    const auto iside = static_cast<std::int64_t>(side);
    for (std::int64_t r = 0; r < iside; ++r) {
      for (std::int64_t dy = -r; dy <= r; ++dy) {
        for (std::int64_t dx = -r; dx <= r; ++dx) {
          if (std::max(std::abs(dx), std::abs(dy)) != r) continue;
          const std::int64_t gx = cx + dx;
          const std::int64_t gy = cy + dy;
          if (gx < 0 || gy < 0 || gx >= iside || gy >= iside) continue;
          for (std::uint32_t j :
               cells[static_cast<std::size_t>(gy) * side + gx]) {
            if (j == i) continue;
            const double ddx = xs[i] - xs[j];
            const double ddy = ys[i] - ys[j];
            cand.emplace_back(ddx * ddx + ddy * ddy, j);
          }
        }
      }
      if (cand.size() >= static_cast<std::size_t>(k) * 2 + 1) break;
    }
    const std::size_t want = std::min<std::size_t>(k, cand.size());
    std::partial_sort(cand.begin(), cand.begin() + static_cast<std::ptrdiff_t>(want),
                      cand.end());
    for (std::size_t c = 0; c < want; ++c) {
      const NodeId a{i};
      const NodeId b{cand[c].second};
      if (!topo.has_link(a, b)) topo.add_link(a, b);
    }
  }
  ensure_connected(topo);
  return topo;
}

Topology make_overlay(OverlayKind kind, std::uint32_t nodes,
                      std::uint32_t degree, double ws_rewire, Rng& rng) {
  switch (kind) {
    case OverlayKind::Tree:
      return Topology::random_tree(nodes, degree, rng);
    case OverlayKind::BarabasiAlbert:
      return barabasi_albert(nodes, std::max(1u, degree / 2), rng);
    case OverlayKind::WattsStrogatz:
      return watts_strogatz(nodes, degree, ws_rewire, rng);
    case OverlayKind::RandomRegular:
      return random_regular(nodes, degree, rng);
    case OverlayKind::GeoCluster:
      return geo_cluster(nodes, degree, rng);
  }
  EPICAST_UNREACHABLE("unknown overlay kind");
}

bool overlay_is_tree(OverlayKind kind, std::uint32_t nodes,
                     std::uint32_t degree) {
  switch (kind) {
    case OverlayKind::Tree:
      return true;
    case OverlayKind::BarabasiAlbert:  // same m as make_overlay
      return std::min(std::max(1u, degree / 2), nodes - 1) <= 1;
    case OverlayKind::WattsStrogatz:   // the ring alone has `nodes` links
      return false;
    case OverlayKind::RandomRegular:   // a matching
      return degree <= 1;
    case OverlayKind::GeoCluster:      // a nearest-neighbour forest
      return std::min(degree, nodes - 1) <= 1;
  }
  EPICAST_UNREACHABLE("unknown overlay kind");
}

std::vector<std::uint32_t> degree_histogram(const Topology& t) {
  std::vector<std::uint32_t> hist;
  for (std::uint32_t i = 0; i < t.node_count(); ++i) {
    const std::uint32_t d = t.degree(NodeId{i});
    if (d >= hist.size()) hist.resize(d + 1, 0);
    ++hist[d];
  }
  return hist;
}

double clustering_coefficient(const Topology& t) {
  double sum = 0.0;
  std::uint32_t counted = 0;
  for (std::uint32_t i = 0; i < t.node_count(); ++i) {
    const auto nbrs = t.neighbors(NodeId{i});
    if (nbrs.size() < 2) continue;
    std::uint32_t closed = 0;
    for (std::size_t a = 0; a < nbrs.size(); ++a) {
      for (std::size_t b = a + 1; b < nbrs.size(); ++b) {
        if (t.has_link(nbrs[a], nbrs[b])) ++closed;
      }
    }
    const double pairs =
        static_cast<double>(nbrs.size()) * (static_cast<double>(nbrs.size()) - 1) / 2.0;
    sum += static_cast<double>(closed) / pairs;
    ++counted;
  }
  return counted > 0 ? sum / counted : 0.0;
}

double degree_ccdf_slope(const Topology& t) {
  const std::vector<std::uint32_t> hist = degree_histogram(t);
  // CCDF over degrees >= 1, then least squares on the log-log points.
  std::vector<std::pair<double, double>> pts;
  std::uint64_t tail = 0;
  for (std::size_t d = hist.size(); d-- > 1;) {
    tail += hist[d];
    if (hist[d] == 0) continue;
    const double frac =
        static_cast<double>(tail) / static_cast<double>(t.node_count());
    pts.emplace_back(std::log10(static_cast<double>(d)), std::log10(frac));
  }
  if (pts.size() < 3) return 0.0;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const auto& [x, y] : pts) {
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double n = static_cast<double>(pts.size());
  const double denom = n * sxx - sx * sx;
  return denom != 0.0 ? (n * sxy - sx * sy) / denom : 0.0;
}

}  // namespace epicast
