// Directed graph with non-negative integer edge capacities.
//
// In BarterCast the capacity c(i, j) is "the total number of bytes peer i
// has uploaded to peer j in the past" (paper §3.2), and remote records are
// max-merged as cumulative totals (§3.4). The graph therefore only grows:
// nodes are never removed and capacities never fall. Its two mutators are
// add_capacity (local transfers) and raise_pair (the gossip max-merge of
// one record, both directions of a pair).
//
// At reputation-serving scale the two-hop maxflow query is the hot path of
// the whole system, so storage is a dense-index core: a PeerIndex interns
// PeerIds to dense NodeIndex slots on first touch, and per-node adjacency
// is a sorted array of Edge entries (ascending neighbor PeerId) with a
// mirrored in-edge array for reverse traversal; each capacity is stored in
// exactly those two entries. Sorted arrays make neighbor queries (the
// capacity() point query included) a binary search, the two-hop flow a
// linear merge-scan (see maxflow.cpp), and every public iteration surface
// deterministically ordered without sorted_view wrappers.
//
// The public API speaks PeerId, plus one whole-graph read surface for
// sweeps, ranked_adjacency(), which speaks ranks (positions in ascending
// PeerId order, a pure function of the node set). Dense slot indices are
// an internal detail of src/graph/ (bc-analyze rule G1 flags leaks); the
// `index()` accessor exists for the maxflow implementations and tests of
// this module.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/peer_index.hpp"
#include "util/assert.hpp"
#include "util/ids.hpp"
#include "util/units.hpp"

/// Debug-build invalidation checking for EdgeView. When on, every view
/// carries a snapshot of the owning graph's generation counter and every
/// access asserts the graph has not been structurally mutated since the
/// view was taken — the dynamic counterpart of bc-analyze rule L2
/// (invalidated-view). Release builds compile the bookkeeping out entirely;
/// EdgeView is then layout-identical to std::span<const Edge>.
#ifndef NDEBUG
#define BC_GRAPH_GENERATION_CHECKS 1
#else
#define BC_GRAPH_GENERATION_CHECKS 0
#endif

namespace bc::graph {

/// One adjacency entry: a neighbor and the capacity of the connecting edge.
/// In an out-edge array of node u, `peer` is the head v of edge (u, v); in
/// an in-edge array of node v, `peer` is the tail u and `cap` the same
/// c(u, v) (the mirror stores capacities so reverse scans need no lookup).
///
/// The entry also carries the neighbor's slot in the owning graph, in the
/// four bytes that would otherwise be padding, so the graph core can walk
/// from an entry to the neighbor's tables without a PeerIndex probe. The
/// slot is private to src/graph/ and takes no part in equality.
struct Edge {
  Edge(PeerId neighbor, Bytes capacity) : peer(neighbor), cap(capacity) {}

  PeerId peer;

 private:
  friend class FlowGraph;

  Edge(PeerId neighbor, NodeIndex slot, Bytes capacity)
      : peer(neighbor), slot_(slot), cap(capacity) {}

  NodeIndex slot_ = kNoNode;  // slot of `peer`; set by FlowGraph::insert_edge

 public:
  Bytes cap;

  friend bool operator==(const Edge& a, const Edge& b) {
    return a.peer == b.peer && a.cap == b.cap;
  }
};

static_assert(sizeof(Edge) == 16,
              "the neighbor slot must live in Edge's padding: adjacency "
              "arrays are the graph's memory footprint");

/// A compressed-row copy of one FlowGraph, indexed by *rank*: the position
/// of a node's PeerId in ascending order. Ranks are a pure function of the
/// node set (not of the order nodes were first touched), so they are as
/// deterministic as the PeerIds themselves. Row r holds r's out-edges and
/// then its in-edges, each ascending by neighbor PeerId (equivalently by
/// neighbor rank), as (neighbor rank, capacity) pairs.
///
/// Filled by FlowGraph::ranked_adjacency(). Reusable: a refill keeps the
/// buffers' capacity, so a caller that keeps one instance per thread pays
/// the allocator only when a graph outgrows every earlier one. A refill
/// replaces the whole copy; nothing here tracks later graph mutations.
class RankedAdjacency {
 public:
  struct Entry {
    std::uint32_t rank;  // neighbor's rank
    Bytes cap;           // capacity of the connecting edge
  };

  /// Number of nodes (ranks are 0..size()-1).
  std::size_t size() const { return ids_.size(); }
  /// PeerId of every rank, ascending.
  std::span<const PeerId> ids() const { return ids_; }

  /// Rank r's out-edges followed by its in-edges.
  std::span<const Entry> row(std::size_t r) const { return halves(2 * r, 2); }
  /// Rank r's out-edges (entry: head rank, capacity).
  std::span<const Entry> out_edges(std::size_t r) const {
    return halves(2 * r, 1);
  }
  /// Rank r's in-edges (entry: tail rank, capacity).
  std::span<const Entry> in_edges(std::size_t r) const {
    return halves(2 * r + 1, 1);
  }

 private:
  friend class FlowGraph;

  // Entries of `count` consecutive half-rows from half-row `first`; half-row
  // 2r holds rank r's out-edges and 2r + 1 its in-edges.
  std::span<const Entry> halves(std::size_t first, std::size_t count) const {
    const std::size_t last = first + count;
    BC_DASSERT(first < last && last < bounds_.size());
    const std::size_t begin = bounds_[first];
    return std::span<const Entry>(entries_).subspan(begin,
                                                    bounds_[last] - begin);
  }

  std::vector<PeerId> ids_;           // rank -> PeerId
  std::vector<std::size_t> bounds_;   // 2 * size() + 1 row/half-row offsets
  std::vector<Entry> entries_;        // every edge twice: once per endpoint
  // Build temporaries, slot-valued and therefore never exposed.
  std::vector<std::uint64_t> order_;  // (PeerId << 32 | slot), ascending
  std::vector<std::uint32_t> rank_of_slot_;
};

/// A read-only view of one node's adjacency array. Semantically a
/// std::span<const Edge> (and exactly that in release builds), but in debug
/// and validate builds every access BC_DASSERT-checks that no edge has been
/// inserted into the owning FlowGraph since the view was taken — an insert
/// can reallocate an adjacency array, so holding a view across
/// add_capacity/raise_pair is the classic dangling-span bug (bc-analyze
/// rule L2), and this makes it fail-stop instead of silent UB.
class EdgeView {
 public:
  using value_type = Edge;
  using iterator = const Edge*;

  EdgeView() = default;

  const Edge* begin() const {
    check();
    return span_.data();
  }
  const Edge* end() const {
    check();
    return span_.data() + span_.size();
  }
  std::size_t size() const {
    check();
    return span_.size();
  }
  bool empty() const {
    check();
    return span_.empty();
  }
  const Edge& operator[](std::size_t i) const {
    check();
    return span_[i];
  }
  const Edge& front() const {
    check();
    return span_.front();
  }
  const Edge& back() const {
    check();
    return span_.back();
  }

 private:
  friend class FlowGraph;

#if BC_GRAPH_GENERATION_CHECKS
  EdgeView(std::span<const Edge> span, const std::uint64_t* gen)
      : span_(span), gen_(gen), snapshot_(gen != nullptr ? *gen : 0) {}

  void check() const {
    BC_DASSERT(gen_ == nullptr || *gen_ == snapshot_);
  }

  std::span<const Edge> span_;
  const std::uint64_t* gen_ = nullptr;  // owning graph's counter; null = empty
  std::uint64_t snapshot_ = 0;          // counter value when the view was taken
#else
  explicit EdgeView(std::span<const Edge> span) : span_(span) {}

  void check() const {}

  std::span<const Edge> span_;
#endif
};

#if !BC_GRAPH_GENERATION_CHECKS
static_assert(sizeof(EdgeView) == sizeof(std::span<const Edge>),
              "EdgeView must carry zero overhead in release builds");
#endif

class FlowGraph {
 public:
  /// Adds `amount` to the capacity of edge (from, to). Creates nodes and the
  /// edge as needed. `amount` must be >= 0; zero-amount calls still create
  /// the nodes (but not the edge).
  void add_capacity(PeerId from, PeerId to, Bytes amount);

  /// Max-merge of one gossip record about the pair (peer, other): raises
  /// c(peer, other) to `peer_to_other`, then c(other, peer) to
  /// `other_to_peer`, each only where it exceeds the current capacity (0 for
  /// an absent edge). A direction whose amount does not exceed it, a
  /// non-positive one included, changes nothing. Nodes are created only by
  /// an edge insert, in the order of that insert's (from, to). Returns
  /// whether it wrote anything. Both edges are found in `peer`'s out- and
  /// in-rows, so a caller that passes the same `peer` for a run of records
  /// (a message's sender, §3.4 rule 2) probes the same two rows each time.
  bool raise_pair(PeerId peer, PeerId other, Bytes peer_to_other,
                  Bytes other_to_peer);

  /// Capacity of (from, to); 0 if the edge or either node is absent.
  Bytes capacity(PeerId from, PeerId to) const;

  bool has_node(PeerId node) const { return index_.contains(node); }
  std::size_t num_nodes() const { return index_.size(); }
  std::size_t num_edges() const { return num_edges_; }

  /// Successors of `node` with positive capacity, ascending by PeerId.
  /// Empty view for an unknown node. Invalidated by any edge insert (debug
  /// builds assert on stale access; see EdgeView).
  EdgeView out_edges(PeerId node) const;
  /// Predecessors of `node` (each entry: tail peer and the capacity of the
  /// edge into `node`), ascending by PeerId. Invalidated by any edge insert
  /// (debug builds assert on stale access; see EdgeView).
  EdgeView in_edges(PeerId node) const;

  /// All node ids, sorted ascending (deterministic across runs and
  /// standard-library implementations).
  std::vector<PeerId> nodes() const { return index_.ids_sorted(); }

  /// Sum of capacities of all edges.
  Bytes total_capacity() const;

  /// Sum of capacities leaving `node` (an upper bound on any s=node flow:
  /// the trivial cut around the source). 0 for unknown nodes.
  Bytes out_capacity(PeerId node) const;
  /// Sum of capacities entering `node` (the trivial cut around the sink).
  Bytes in_capacity(PeerId node) const;

  /// Fills `out` with a rank-indexed compressed-row copy of this graph
  /// (see RankedAdjacency). O(n log n + edges): one sort of the node ids,
  /// then one array read per adjacency entry.
  void ranked_adjacency(RankedAdjacency& out) const;

  /// Internal consistency check (adjacency sorted strictly ascending, all
  /// capacities positive, out/in arrays mirror each other with equal
  /// capacities, every entry's stored slot is its neighbor's slot,
  /// PeerIndex bijection intact). Used by tests and BC_DASSERT call sites.
  bool check_invariants() const;

  /// The interning layer, exposed for the maxflow implementations and the
  /// tests of this module only (bc-analyze G1 enforces the boundary).
  const PeerIndex& index() const { return index_; }

  /// Edge-insert counter: bumped by every edge insert — the only operation
  /// that can invalidate an outstanding EdgeView (in-place capacity updates
  /// and node interning cannot). Maintained in all build types (one
  /// increment per insert is noise next to the adjacency work); only debug
  /// builds *check* it. Exposed for tests and external snapshot protocols.
  std::uint64_t generation() const { return gen_; }

 private:
  // Ensures the node exists, returning its slot.
  NodeIndex touch(PeerId node);

  // Inserts the new edge (from, to) into both sorted adjacency arrays.
  void insert_edge(NodeIndex fi, NodeIndex ti, PeerId from, PeerId to,
                   Bytes cap);
  // Writes `cap` into `e`, an entry of one of `owner`'s rows, and into its
  // mirror: `owner`'s entry in the neighbor's row on `mirror_side`, reached
  // through the slot `e` stores.
  static void set_cap(Edge& e, std::vector<std::vector<Edge>>& mirror_side,
                      PeerId owner, Bytes cap);

  // Adjacency of `node` in one side (out_ or in_); empty for unknown nodes.
  std::span<const Edge> edges_of(const std::vector<std::vector<Edge>>& side,
                                 PeerId node) const;

  PeerIndex index_;
  std::vector<std::vector<Edge>> out_;  // slot -> sorted out-adjacency
  std::vector<std::vector<Edge>> in_;   // slot -> sorted in-adjacency
  std::size_t num_edges_ = 0;
  std::uint64_t gen_ = 0;  // see generation()
};

}  // namespace bc::graph
