// epicast — scale overlay generators (beyond the paper's random tree).
//
// The paper evaluates N = 100 dispatchers on a degree-capped random tree
// (§IV-A). To study the recovery algorithms at 10⁴–10⁵ nodes we need
// overlays with realistic structure; this module provides the standard
// families used in the epidemic-broadcast literature:
//
//   * Barabási–Albert preferential attachment — heavy-tailed degrees,
//     hub-dominated routing (Internet/AS-like);
//   * Watts–Strogatz small world — high clustering, short paths
//     (social/collaboration-like);
//   * random regular — the classic homogeneous gossip substrate;
//   * geometric cluster — k-nearest-neighbour graph of points in the unit
//     square, a proxy for latency-clustered deployments.
//
// All generators return *connected* overlays: families that can fracture
// (WS at high rewire, geometric with tight k) are patched by linking each
// stray component to the main one, so delivery-rate denominators stay
// meaningful. Generation is deterministic in (parameters, rng state).
//
// The analysis helpers (degree histogram, clustering coefficient, CCDF
// log-log slope) back the conformance tier's shape assertions.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "epicast/common/rng.hpp"
#include "epicast/net/topology.hpp"

namespace epicast {

enum class OverlayKind {
  Tree,             ///< the paper's degree-capped random tree (default)
  BarabasiAlbert,   ///< preferential attachment, m = degree links per node
  WattsStrogatz,    ///< ring lattice (k = degree) with rewiring
  RandomRegular,    ///< stub-matching d-regular graph, d = degree
  GeoCluster,       ///< k-nearest-neighbour geometric graph, k = degree
};

[[nodiscard]] const char* to_string(OverlayKind kind);
[[nodiscard]] std::optional<OverlayKind> overlay_from_string(
    const std::string& name);

/// Preferential attachment: starts from a (m+1)-clique, every later node
/// attaches to `m` distinct existing nodes sampled proportionally to their
/// degree. Connected by construction; degrees are heavy-tailed.
[[nodiscard]] Topology barabasi_albert(std::uint32_t nodes, std::uint32_t m,
                                       Rng& rng);

/// Small world: ring lattice where each node links to its k/2 nearest ring
/// neighbours on each side (k rounded up to even), then every lattice edge
/// is rewired to a uniform random endpoint with probability `rewire`.
[[nodiscard]] Topology watts_strogatz(std::uint32_t nodes, std::uint32_t k,
                                      double rewire, Rng& rng);

/// Random d-regular graph by stub matching, resampled until simple (a few
/// conflicting pairs may be dropped after the retry budget; with n·d odd one
/// node ends at degree d-1).
[[nodiscard]] Topology random_regular(std::uint32_t nodes, std::uint32_t d,
                                      Rng& rng);

/// Latency-clustered proxy: nodes are uniform points in the unit square,
/// each linked to its k nearest neighbours (grid-bucketed search, so
/// generation is near-linear in N).
[[nodiscard]] Topology geo_cluster(std::uint32_t nodes, std::uint32_t k,
                                   Rng& rng);

/// Dispatch on `kind`. `degree` parameterizes every family (see above);
/// `Tree` uses Topology::random_tree with the classic degree cap and
/// ignores `ws_rewire`. Draws from `rng` exactly as the underlying
/// generator does — the Tree path is bit-identical to calling random_tree
/// directly.
[[nodiscard]] Topology make_overlay(OverlayKind kind, std::uint32_t nodes,
                                    std::uint32_t degree, double ws_rewire,
                                    Rng& rng);

/// Whether make_overlay(kind, nodes, degree, ...) builds a tree whatever the
/// rng: the paper's tree, and the families whose degree leaves one link per
/// joining node or component (BA with m = 1, 1-regular, geometric with
/// k = 1), each joined up by the connectivity patch. Every other
/// configuration has at least `nodes` links, so a cycle.
[[nodiscard]] bool overlay_is_tree(OverlayKind kind, std::uint32_t nodes,
                                   std::uint32_t degree);

// -- shape analysis (conformance tier) ---------------------------------------

/// Degree histogram: hist[d] = number of nodes with degree d.
[[nodiscard]] std::vector<std::uint32_t> degree_histogram(const Topology& t);

/// Mean local clustering coefficient (fraction of closed neighbour pairs,
/// averaged over nodes of degree >= 2).
[[nodiscard]] double clustering_coefficient(const Topology& t);

/// Least-squares slope of log10 CCDF(d) vs log10 d over degrees with at
/// least one node — the heavy-tail witness (BA: roughly -(γ-1) ≈ -2).
/// Returns 0 when fewer than 3 distinct degrees exist.
[[nodiscard]] double degree_ccdf_slope(const Topology& t);

}  // namespace epicast
