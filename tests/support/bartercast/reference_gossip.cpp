#include "bartercast/reference_gossip.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/assert.hpp"

namespace bc::bartercast {

std::unordered_map<PeerId, double> ref_gossip_scores(
    const graph::FlowGraph& graph, const DifferentialGossipConfig& config) {
  const std::vector<PeerId> nodes = graph.nodes();  // ascending
  const std::size_t n = nodes.size();

  // Contribution prior: arctan-scaled net of bytes served minus bytes
  // consumed, as recorded in this subjective graph.
  const double unit = static_cast<double>(config.prior_unit);
  BC_ASSERT(unit > 0.0);
  std::vector<double> prior(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double net =
        static_cast<double>(graph.out_capacity(nodes[i])) -
        static_cast<double>(graph.in_capacity(nodes[i]));
    prior[i] = std::atan(net / unit) / (M_PI / 2.0);
  }

  std::unordered_map<PeerId, std::size_t> slot;
  slot.reserve(n);
  for (std::size_t i = 0; i < n; ++i) slot.emplace(nodes[i], i);

  // Jacobi iteration over the previous round's vector.
  std::vector<double> current = prior;
  std::vector<double> next(n, 0.0);
  for (int round = 0; round < config.rounds; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      double weighted = 0.0;
      double weight_sum = 0.0;
      for (const graph::Edge& e : graph.out_edges(nodes[i])) {
        const double w = static_cast<double>(e.cap);
        const auto it = slot.find(e.peer);
        BC_ASSERT(it != slot.end());
        weighted += w * current[it->second];
        weight_sum += w;
      }
      for (const graph::Edge& e : graph.in_edges(nodes[i])) {
        const double w = static_cast<double>(e.cap);
        const auto it = slot.find(e.peer);
        BC_ASSERT(it != slot.end());
        weighted += w * current[it->second];
        weight_sum += w;
      }
      next[i] = weight_sum > 0.0
                    ? config.self_weight * prior[i] +
                          (1.0 - config.self_weight) * weighted / weight_sum
                    : prior[i];
    }
    current.swap(next);
  }

  std::unordered_map<PeerId, double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.emplace(nodes[i], std::clamp(current[i], -1.0, 1.0));
  }
  return out;
}

}  // namespace bc::bartercast
