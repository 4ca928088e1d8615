#include "bartercast/backend.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "obs/profile.hpp"
#include "util/assert.hpp"
#include "util/checked.hpp"

namespace bc::bartercast {

std::string_view backend_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::kMaxflow:
      return "maxflow";
    case BackendKind::kDifferentialGossip:
      return "differential-gossip";
  }
  return "maxflow";
}

std::optional<BackendKind> parse_backend(std::string_view name) {
  std::string key(name);
  std::replace(key.begin(), key.end(), '_', '-');
  if (key == "maxflow") return BackendKind::kMaxflow;
  if (key == "differential-gossip" || key == "gossip") {
    return BackendKind::kDifferentialGossip;
  }
  return std::nullopt;
}

DifferentialGossipBackend::DifferentialGossipBackend(
    DifferentialGossipConfig config)
    : config_(config) {
  BC_ASSERT(config_.rounds >= 0);
  BC_ASSERT(config_.self_weight > 0.0 && config_.self_weight <= 1.0);
  BC_ASSERT(config_.prior_unit > 0);
}

namespace {

/// Per-thread sweep scratch, reused across sweeps and backends (the same
/// pattern as maxflow.cpp's SearchScratch): every evaluator's backend on a
/// thread shares one set of buffers, which grow to the largest view the
/// thread has swept and are then refilled in place.
struct SweepScratch {
  graph::RankedAdjacency adjacency;
  std::vector<double> prior;
  std::vector<double> current;
  std::vector<double> next;
};

SweepScratch& sweep_scratch() {
  thread_local SweepScratch scratch;
  return scratch;
}

}  // namespace

void DifferentialGossipBackend::sweep(const graph::FlowGraph& graph) const {
  BC_OBS_SCOPE("reputation.gossip_sweep");
  SweepScratch& scratch = sweep_scratch();
  graph::RankedAdjacency& adj = scratch.adjacency;
  graph.ranked_adjacency(adj);
  const std::size_t n = adj.size();

  // Contribution prior: arctan-scaled net of bytes served minus bytes
  // consumed, as recorded in this subjective graph. Same scale as Eq. 1,
  // so a clear sharer starts positive and a clear freerider negative.
  const double unit = static_cast<double>(config_.prior_unit);
  BC_ASSERT(unit > 0.0);
  std::vector<double>& prior = scratch.prior;
  prior.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    Bytes served = 0;
    Bytes consumed = 0;
    for (const auto& e : adj.out_edges(r)) {
      served = util::saturating_add(served, e.cap);
    }
    for (const auto& e : adj.in_edges(r)) {
      consumed = util::saturating_add(consumed, e.cap);
    }
    const double net =
        static_cast<double>(served) - static_cast<double>(consumed);
    prior[r] = std::atan(net / unit) / (M_PI / 2.0);
  }

  // Jacobi iteration: every round reads `current` and writes `next`, so
  // the result is independent of node order, and the in-order loops make
  // the FP addition order reproducible bit-for-bit. Both directions count:
  // peers we served and peers that served us are equally acquaintances
  // whose opinion we average in, weighted by the transfer volume backing
  // the acquaintance. A row lists out-edges then in-edges, each ascending
  // by PeerId, which fixes the order of the sums.
  std::vector<double>& current = scratch.current;
  std::vector<double>& next = scratch.next;
  current.assign(prior.begin(), prior.end());
  next.resize(n);
  for (int round = 0; round < config_.rounds; ++round) {
    for (std::size_t r = 0; r < n; ++r) {
      double weighted = 0.0;
      double weight_sum = 0.0;
      for (const auto& e : adj.row(r)) {
        const double w = static_cast<double>(e.cap);
        weighted += w * current[e.rank];
        weight_sum += w;
      }
      next[r] = weight_sum > 0.0
                    ? config_.self_weight * prior[r] +
                          (1.0 - config_.self_weight) * weighted / weight_sum
                    : prior[r];
    }
    current.swap(next);
  }

  memo_ids_.assign(adj.ids().begin(), adj.ids().end());
  memo_scores_.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    // Convex combinations of values in (-1, 1) stay inside it; the clamp
    // only guards FP rounding at the endpoints.
    memo_scores_[r] = std::clamp(current[r], -1.0, 1.0);
  }
}

std::unordered_map<PeerId, double> DifferentialGossipBackend::scores(
    const graph::FlowGraph& graph) const {
  sweep(graph);
  memo_view_ = nullptr;  // the memo now holds `graph`'s scores, not a view's
  std::unordered_map<PeerId, double> out;
  out.reserve(memo_ids_.size());
  for (std::size_t r = 0; r < memo_ids_.size(); ++r) {
    out.emplace(memo_ids_[r], memo_scores_[r]);
  }
  return out;
}

double DifferentialGossipBackend::reputation(const SharedHistory& view,
                                             PeerId subject) const {
  if (subject == view.owner()) return 0.0;
  if (memo_view_ != &view || memo_version_ != view.version()) {
    sweep(view.graph());
    memo_view_ = &view;
    memo_version_ = view.version();
  }
  const auto it =
      std::lower_bound(memo_ids_.begin(), memo_ids_.end(), subject);
  if (it == memo_ids_.end() || *it != subject) return 0.0;
  return memo_scores_[static_cast<std::size_t>(it - memo_ids_.begin())];
}

std::unique_ptr<const ReputationBackend> make_backend(
    BackendKind kind, const ReputationConfig& reputation,
    const DifferentialGossipConfig& gossip) {
  switch (kind) {
    case BackendKind::kMaxflow:
      return std::make_unique<MaxflowBackend>(ReputationEngine(reputation));
    case BackendKind::kDifferentialGossip:
      return std::make_unique<DifferentialGossipBackend>(gossip);
  }
  return std::make_unique<MaxflowBackend>(ReputationEngine(reputation));
}

}  // namespace bc::bartercast
