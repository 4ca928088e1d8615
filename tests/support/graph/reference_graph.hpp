// Reference (oracle) graph implementation for differential testing.
//
// This is the pre-dense-core FlowGraph: nested hash-map adjacency with a
// mirrored in-edge set, plus straight ports of the maxflow variants on top
// of it and an independent BFS (Edmonds-Karp) maxflow. It is retained
// verbatim-in-spirit as an independent oracle: the differential test suite
// (tests/graph/differential_test.cpp) drives the dense FlowGraph and this
// ReferenceFlowGraph through identical randomized operation sequences and
// cross-checks every query and every maxflow variant. Like the dense
// graph it only grows: raise_pair is built from add_capacity (a max-merge
// is an add of the difference).
//
// Not for production use: the hash layout is slower on the two-hop hot path
// and its iteration order is only made deterministic by per-call sorting.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/maxflow.hpp"  // kUnboundedPathLength
#include "util/ids.hpp"
#include "util/units.hpp"

namespace bc::graph {

class ReferenceFlowGraph {
 public:
  /// Adds `amount` to the capacity of edge (from, to). Creates nodes and the
  /// edge as needed. `amount` must be >= 0; zero-amount calls still create
  /// the nodes (but not the edge).
  void add_capacity(PeerId from, PeerId to, Bytes amount);

  /// Max-merge of one gossip record about (peer, other), as two independent
  /// raises: c(peer, other) to `peer_to_other`, then c(other, peer) to
  /// `other_to_peer`. A raise that exceeds the current capacity adds the
  /// difference; any other changes nothing. Returns whether either wrote.
  bool raise_pair(PeerId peer, PeerId other, Bytes peer_to_other,
                  Bytes other_to_peer);

  /// Capacity of (from, to); 0 if the edge or either node is absent.
  Bytes capacity(PeerId from, PeerId to) const;

  bool has_node(PeerId node) const { return out_.contains(node); }
  std::size_t num_nodes() const { return out_.size(); }
  std::size_t num_edges() const { return num_edges_; }

  /// Successors of `node` with positive capacity. Empty map for unknown node.
  const std::unordered_map<PeerId, Bytes>& out_edges(PeerId node) const;
  /// Predecessors of `node` (nodes with a positive-capacity edge into it).
  const std::unordered_set<PeerId>& in_edges(PeerId node) const;

  /// All node ids, sorted ascending.
  std::vector<PeerId> nodes() const;

  /// Sum of capacities of all edges.
  Bytes total_capacity() const;

  Bytes out_capacity(PeerId node) const;
  Bytes in_capacity(PeerId node) const;

  /// Internal consistency check (out/in indices mirror each other, all
  /// capacities positive).
  bool check_invariants() const;

 private:
  // Ensures the node exists in both indices.
  void touch(PeerId node);
  // One max-merge: raises c(from, to) to `amount` if that is higher.
  bool raise(PeerId from, PeerId to, Bytes amount);

  std::unordered_map<PeerId, std::unordered_map<PeerId, Bytes>> out_;
  std::unordered_map<PeerId, std::unordered_set<PeerId>> in_;
  std::size_t num_edges_ = 0;
};

/// Oracle ports of the maxflow variants over the hash-map representation.
/// Semantics match the dense implementations in maxflow.cpp exactly
/// (including the deterministic ascending-PeerId exploration order, which
/// the hash version recovers by sorting candidates per step). The BFS
/// Edmonds-Karp has no dense counterpart: it is the independent maxflow
/// that unbounded Ford-Fulkerson is checked against.
Bytes ref_max_flow_ford_fulkerson(const ReferenceFlowGraph& g, PeerId s,
                                  PeerId t,
                                  int max_path_edges = kUnboundedPathLength);
Bytes ref_max_flow_edmonds_karp(const ReferenceFlowGraph& g, PeerId s,
                                PeerId t);
Bytes ref_max_flow_two_hop(const ReferenceFlowGraph& g, PeerId s, PeerId t);

}  // namespace bc::graph
