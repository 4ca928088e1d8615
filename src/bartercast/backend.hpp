// Pluggable reputation-aggregation backends (the interface lives in
// reputation.hpp next to the production MaxflowBackend).
//
// DifferentialGossipBackend is a Gupta/Singh-style alternative metric for
// the adversary-zoo ablations: instead of routing trust through two-hop
// maxflow (Eq. 1), every peer in the evaluator's subjective graph starts
// from a local contribution prior and repeatedly averages in its
// neighbours' opinions, weighted by the transfer volume shared with each
// neighbour. After a fixed number of rounds the evaluator reads off the
// converged score of the subject. The metric is differential in the
// BarterCast sense — the prior is the arctan-scaled net of bytes served
// minus bytes consumed, the same scale as Eq. 1 — so both backends agree
// on the sign of a clear sharer and a clear freerider, while reacting
// very differently to slander and sybil edges (maxflow caps a fabricated
// path at the attacker's real upload; averaging does not). That contrast
// is exactly what bench/ablation_adversary.cpp measures.
//
// Determinism contract: scores are computed by Jacobi iteration over the
// graph's ranked adjacency (FlowGraph::ranked_adjacency: nodes in
// ascending PeerId order, each row its out-edges then its in-edges, both
// ascending), reading only the previous round's vector, so the
// floating-point addition order is a pure function of the graph contents.
// The adjacency copy and the round buffers are per-thread scratch shared
// by every backend on the thread. The whole score vector is memoised per
// (view, version) as ascending ids plus scores: under CachedReputation the
// sweep runs once per view mutation, not once per subject.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bartercast/reputation.hpp"
#include "bartercast/shared_history.hpp"
#include "graph/flow_graph.hpp"
#include "util/ids.hpp"
#include "util/units.hpp"

namespace bc::bartercast {

/// Selector for NodeConfig / CLI flags.
enum class BackendKind {
  kMaxflow,             // Eq. 1 two-way maxflow (production default)
  kDifferentialGossip,  // iterative volume-weighted opinion averaging
};

/// Canonical name of a backend kind ("maxflow", "differential-gossip").
std::string_view backend_name(BackendKind kind);

/// Parses a backend name; accepts canonical names plus the short alias
/// "gossip" and treats '_' and '-' as equivalent. nullopt if unknown.
std::optional<BackendKind> parse_backend(std::string_view name);

struct DifferentialGossipConfig {
  /// Averaging rounds. Each round propagates opinions one hop further;
  /// 4 rounds cover the small-world diameter of the §5 communities.
  int rounds = 4;
  /// Weight a peer keeps on its own contribution prior each round; the
  /// remaining 1 - self_weight is the volume-weighted neighbour average.
  /// Must be in (0, 1]: 1 degenerates to the pure prior.
  double self_weight = 0.5;
  /// Byte unit of the prior's arctan argument (same role as
  /// ReputationConfig::arctan_unit in Eq. 1).
  Bytes prior_unit = kGiB;
};

class DifferentialGossipBackend final : public ReputationBackend {
 public:
  explicit DifferentialGossipBackend(DifferentialGossipConfig config = {});

  std::string_view name() const override { return "differential-gossip"; }
  double reputation(const SharedHistory& view,
                    PeerId subject) const override;
  /// Every round mixes opinions from arbitrarily distant peers, so a
  /// mutation anywhere can move any score: no two-hop dirty tracking.
  bool incremental_two_hop() const override { return false; }

  const DifferentialGossipConfig& config() const { return config_; }

  /// The full converged score vector on an explicit graph, exposed for
  /// tests and benches. Deterministic (see header comment). Runs a sweep
  /// through the memo, so the next reputation() call sweeps its view anew.
  std::unordered_map<PeerId, double> scores(
      const graph::FlowGraph& graph) const;

 private:
  // Runs the prior and the Jacobi rounds over `graph` and leaves the
  // clamped scores in the memo vectors (keys untouched).
  void sweep(const graph::FlowGraph& graph) const;

  DifferentialGossipConfig config_;

  /// Memo of the last sweep, keyed by (view, version); a null view means
  /// it holds no view's scores. Mutated only under the const methods; safe
  /// because a backend instance is owned by exactly one CachedReputation
  /// (itself single-threaded).
  mutable const SharedHistory* memo_view_ = nullptr;
  mutable std::uint64_t memo_version_ = 0;
  mutable std::vector<PeerId> memo_ids_;     // ascending
  mutable std::vector<double> memo_scores_;  // score of memo_ids_[i]
};

/// Constructs the backend selected by `kind`. The maxflow backend takes
/// its mode and arctan unit from `reputation`; the gossip backend takes
/// `gossip` verbatim.
std::unique_ptr<const ReputationBackend> make_backend(
    BackendKind kind, const ReputationConfig& reputation,
    const DifferentialGossipConfig& gossip);

}  // namespace bc::bartercast
