// Interning layer between public PeerIds and the dense node indices the
// graph core stores internally.
//
// FlowGraph addresses its vertex tables with NodeIndex — a dense u32 slot
// number — so adjacency, visited sets, and residual bookkeeping are plain
// vectors instead of hash maps. PeerIndex owns the PeerId <-> NodeIndex
// bijection. It is append-only, like the graph it serves: a peer gets the
// next free slot on first touch and keeps it for the life of the index, so
// the assignment depends only on the order peers were first seen
// (deterministic across runs and standard libraries).
//
// NodeIndex values are an implementation detail of src/graph/: they are
// per graph (the same peer sits at different slots in different graphs)
// and must never leak into gossip, reputation, or serialized output.
// bc-analyze rule G1 flags any use of this header outside src/graph/.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "util/ids.hpp"

namespace bc::graph {

/// Dense slot number of a peer inside one FlowGraph. Valid only for the
/// graph that issued it.
using NodeIndex = std::uint32_t;

inline constexpr NodeIndex kNoNode = std::numeric_limits<NodeIndex>::max();

class PeerIndex {
 public:
  /// Slot of `id`, appending a new slot if the peer was never interned.
  NodeIndex intern(PeerId id);

  /// Slot of `id`, or kNoNode if the peer was never interned.
  NodeIndex find(PeerId id) const {
    auto it = index_of_.find(id);
    return it == index_of_.end() ? kNoNode : it->second;
  }

  /// PeerId occupying `slot`; kInvalidPeer for a slot not yet handed out.
  PeerId peer(NodeIndex slot) const {
    return slot < peer_of_.size() ? peer_of_[slot] : kInvalidPeer;
  }

  bool contains(PeerId id) const { return index_of_.contains(id); }

  /// Number of interned peers. Slots are exactly 0..size()-1, so
  /// vertex-indexed vectors inside the graph module are sized to this.
  std::size_t size() const { return peer_of_.size(); }

  /// All PeerIds, ascending (deterministic across runs and standard
  /// library implementations).
  std::vector<PeerId> ids_sorted() const;

  /// Forward map and slot table are mutually inverse. Used by
  /// FlowGraph::check_invariants().
  bool check_invariants() const;

 private:
  std::unordered_map<PeerId, NodeIndex> index_of_;
  std::vector<PeerId> peer_of_;  // slot -> id
};

}  // namespace bc::graph
