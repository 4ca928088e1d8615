#include "graph/flow_graph.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/checked.hpp"

namespace bc::graph {

namespace {

/// Position of `peer` in a sorted adjacency array (lower bound).
std::vector<Edge>::iterator adj_lower_bound(std::vector<Edge>& adj,
                                            PeerId peer) {
  return std::lower_bound(
      adj.begin(), adj.end(), peer,
      [](const Edge& e, PeerId p) { return e.peer < p; });
}

std::vector<Edge>::const_iterator adj_lower_bound(
    const std::vector<Edge>& adj, PeerId peer) {
  return std::lower_bound(
      adj.begin(), adj.end(), peer,
      [](const Edge& e, PeerId p) { return e.peer < p; });
}

/// Pointer to the entry for `peer`, or nullptr if absent.
const Edge* adj_find(const std::vector<Edge>& adj, PeerId peer) {
  auto it = adj_lower_bound(adj, peer);
  return it != adj.end() && it->peer == peer ? &*it : nullptr;
}

}  // namespace

NodeIndex FlowGraph::touch(PeerId node) {
  const NodeIndex slot = index_.intern(node);
  if (slot == out_.size()) {  // first touch: slots are handed out in order
    out_.emplace_back();
    in_.emplace_back();
  }
  return slot;
}

void FlowGraph::insert_edge(NodeIndex fi, NodeIndex ti, PeerId from,
                            PeerId to, Bytes cap) {
  auto& adj = out_[fi];
  adj.insert(adj_lower_bound(adj, to), Edge{to, ti, cap});
  auto& mirror = in_[ti];
  mirror.insert(adj_lower_bound(mirror, from), Edge{from, fi, cap});
  ++num_edges_;
  ++gen_;
}

void FlowGraph::update_edge(NodeIndex fi, NodeIndex ti, PeerId from,
                            PeerId to, Bytes cap) {
  adj_lower_bound(out_[fi], to)->cap = cap;
  adj_lower_bound(in_[ti], from)->cap = cap;
}

void FlowGraph::add_capacity(PeerId from, PeerId to, Bytes amount) {
  BC_ASSERT(amount >= 0);
  BC_ASSERT_MSG(from != to, "self-edges carry no reputation information");
  const NodeIndex fi = touch(from);
  const NodeIndex ti = touch(to);
  if (amount == 0) return;
  const auto [cap, inserted] = caps_.find_or_insert(fi, to, amount);
  if (inserted) {
    insert_edge(fi, ti, from, to, amount);
    return;
  }
  // Gossiped capacities are attacker-influenced: saturate rather than
  // trust the remote ledger to stay inside int64.
  *cap = util::saturating_add(*cap, amount);
  update_edge(fi, ti, from, to, *cap);
}

bool FlowGraph::raise_capacity(PeerId from, PeerId to, Bytes amount) {
  BC_ASSERT_MSG(from != to, "self-edges carry no reputation information");
  if (amount <= 0) return false;
  const NodeIndex fi = touch(from);
  const auto [cap, inserted] = caps_.find_or_insert(fi, to, amount);
  if (inserted) {
    insert_edge(fi, touch(to), from, to, amount);
    return true;
  }
  if (amount <= *cap) return false;
  *cap = amount;
  update_edge(fi, index_.find(to), from, to, amount);
  return true;
}

Bytes FlowGraph::capacity(PeerId from, PeerId to) const {
  const NodeIndex fi = index_.find(from);
  if (fi == kNoNode) return 0;
  const Bytes* cap = caps_.find(fi, to);
  return cap == nullptr ? 0 : *cap;
}

std::span<const Edge> FlowGraph::edges_of(
    const std::vector<std::vector<Edge>>& side, PeerId node) const {
  const NodeIndex slot = index_.find(node);
  if (slot == kNoNode) return {};
  return side[slot];
}

EdgeView FlowGraph::out_edges(PeerId node) const {
  const std::span<const Edge> edges = edges_of(out_, node);
#if BC_GRAPH_GENERATION_CHECKS
  // An empty span borrows no storage, so it can never dangle — skip the
  // generation snapshot rather than aborting on a harmless empty().
  return EdgeView(edges, edges.empty() ? nullptr : &gen_);
#else
  return EdgeView(edges);
#endif
}

EdgeView FlowGraph::in_edges(PeerId node) const {
  const std::span<const Edge> edges = edges_of(in_, node);
#if BC_GRAPH_GENERATION_CHECKS
  return EdgeView(edges, edges.empty() ? nullptr : &gen_);
#else
  return EdgeView(edges);
#endif
}

Bytes FlowGraph::out_capacity(PeerId node) const {
  Bytes total = 0;
  for (const Edge& e : out_edges(node)) {
    total = util::saturating_add(total, e.cap);
  }
  return total;
}

Bytes FlowGraph::in_capacity(PeerId node) const {
  Bytes total = 0;
  for (const Edge& e : in_edges(node)) {
    total = util::saturating_add(total, e.cap);
  }
  return total;
}

Bytes FlowGraph::total_capacity() const {
  Bytes total = 0;
  for (const auto& adj : out_) {
    for (const Edge& e : adj) total = util::saturating_add(total, e.cap);
  }
  return total;
}

void FlowGraph::ranked_adjacency(RankedAdjacency& out) const {
  const std::size_t n = index_.size();
  // Rank order: sort (PeerId, slot) pairs packed into one word, so the
  // sort compares integers and the slot rides along.
  out.order_.resize(n);
  for (NodeIndex slot = 0; slot < n; ++slot) {
    out.order_[slot] = (std::uint64_t{index_.peer(slot)} << 32) | slot;
  }
  std::sort(out.order_.begin(), out.order_.end());
  out.ids_.resize(n);
  out.rank_of_slot_.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    out.ids_[r] = static_cast<PeerId>(out.order_[r] >> 32);
    out.rank_of_slot_[static_cast<NodeIndex>(out.order_[r])] =
        static_cast<std::uint32_t>(r);
  }
  // Each entry's stored slot makes its neighbor's rank one array read.
  out.bounds_.clear();
  out.bounds_.reserve(2 * n + 1);
  out.entries_.clear();
  out.entries_.reserve(2 * num_edges_);
  auto copy_half = [&out](const std::vector<Edge>& adj) {
    for (const Edge& e : adj) {
      out.entries_.push_back({out.rank_of_slot_[e.slot_], e.cap});
    }
    out.bounds_.push_back(out.entries_.size());
  };
  out.bounds_.push_back(0);
  for (const std::uint64_t packed : out.order_) {
    const auto slot = static_cast<NodeIndex>(packed);
    copy_half(out_[slot]);
    copy_half(in_[slot]);
  }
}

bool FlowGraph::check_invariants() const {
  if (!index_.check_invariants()) return false;
  if (out_.size() != index_.size() || in_.size() != index_.size()) {
    return false;
  }
  auto sorted_positive = [](const std::vector<Edge>& adj) {
    for (std::size_t i = 0; i < adj.size(); ++i) {
      if (adj[i].cap <= 0) return false;
      if (i > 0 && adj[i - 1].peer >= adj[i].peer) return false;
    }
    return true;
  };
  std::size_t edges = 0;
  for (NodeIndex slot = 0; slot < out_.size(); ++slot) {
    const PeerId id = index_.peer(slot);
    if (!sorted_positive(out_[slot]) || !sorted_positive(in_[slot])) {
      return false;
    }
    for (const Edge& e : out_[slot]) {
      const NodeIndex to = index_.find(e.peer);
      if (to == kNoNode || to >= in_.size() || e.slot_ != to) return false;
      const Edge* mirror = adj_find(in_[to], id);
      if (mirror == nullptr || mirror->cap != e.cap) return false;
      // The point-query sidecar must agree with the adjacency array.
      const Bytes* side = caps_.find(slot, e.peer);
      if (side == nullptr || *side != e.cap) return false;
      ++edges;
    }
    // Every in-edge must have a matching out-edge with the same capacity.
    for (const Edge& e : in_[slot]) {
      const NodeIndex from = index_.find(e.peer);
      if (from == kNoNode || from >= out_.size() || e.slot_ != from) {
        return false;
      }
      const Edge* fwd = adj_find(out_[from], id);
      if (fwd == nullptr || fwd->cap != e.cap) return false;
    }
  }
  // Size equality makes the sidecar's agreement exact: every edge was
  // found above, so equal counts rule out stray sidecar entries.
  if (caps_.size() != num_edges_) return false;
  return edges == num_edges_;
}

}  // namespace bc::graph
