#include "graph/flow_graph.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/checked.hpp"

namespace bc::graph {

namespace {

/// Position of `peer` in a sorted adjacency array (lower bound).
template <typename Adj>  // std::vector<Edge>, const or not
auto adj_lower_bound(Adj& adj, PeerId peer) {
  return std::lower_bound(
      adj.begin(), adj.end(), peer,
      [](const Edge& e, PeerId p) { return e.peer < p; });
}

/// Pointer to the entry for `peer`, or nullptr if absent.
template <typename Adj>
auto* adj_find(Adj& adj, PeerId peer) {
  const auto it = adj_lower_bound(adj, peer);
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

void FlowGraph::set_cap(Edge& e, std::vector<std::vector<Edge>>& mirror_side,
                        PeerId owner, Bytes cap) {
  e.cap = cap;
  adj_lower_bound(mirror_side[e.slot_], owner)->cap = cap;
}

void FlowGraph::add_capacity(PeerId from, PeerId to, Bytes amount) {
  BC_ASSERT(amount >= 0);
  BC_ASSERT_MSG(from != to, "self-edges carry no reputation information");
  const NodeIndex fi = touch(from);
  const NodeIndex ti = touch(to);
  if (amount == 0) return;
  Edge* e = adj_find(out_[fi], to);
  if (e == nullptr) {
    insert_edge(fi, ti, from, to, amount);
    return;
  }
  // Gossiped capacities are attacker-influenced: saturate rather than
  // trust the remote ledger to stay inside int64.
  set_cap(*e, in_, from, util::saturating_add(e->cap, amount));
}

bool FlowGraph::raise_pair(PeerId peer, PeerId other, Bytes peer_to_other,
                           Bytes other_to_peer) {
  BC_ASSERT_MSG(peer != other, "self-edges carry no reputation information");
  NodeIndex pi = index_.find(peer);
  bool wrote = false;
  // c(peer, other) sits in peer's out-row, its mirror in other's in-row.
  if (peer_to_other > 0) {
    Edge* e = pi == kNoNode ? nullptr : adj_find(out_[pi], other);
    if (e == nullptr) {
      if (pi == kNoNode) pi = touch(peer);
      insert_edge(pi, touch(other), peer, other, peer_to_other);
      wrote = true;
    } else if (peer_to_other > e->cap) {
      set_cap(*e, in_, peer, peer_to_other);
      wrote = true;
    }
  }
  // c(other, peer) sits in peer's in-row, its mirror in other's out-row.
  if (other_to_peer > 0) {
    Edge* e = pi == kNoNode ? nullptr : adj_find(in_[pi], other);
    if (e == nullptr) {
      const NodeIndex oi = touch(other);
      if (pi == kNoNode) pi = touch(peer);
      insert_edge(oi, pi, other, peer, other_to_peer);
      wrote = true;
    } else if (other_to_peer > e->cap) {
      set_cap(*e, out_, peer, other_to_peer);
      wrote = true;
    }
  }
  return wrote;
}

Bytes FlowGraph::capacity(PeerId from, PeerId to) const {
  const NodeIndex fi = index_.find(from);
  if (fi == kNoNode) return 0;
  const Edge* e = adj_find(out_[fi], to);
  return e == nullptr ? 0 : e->cap;
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
  return edges == num_edges_;
}

}  // namespace bc::graph
