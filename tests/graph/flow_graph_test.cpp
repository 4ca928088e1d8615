#include "graph/flow_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace bc::graph {
namespace {

TEST(FlowGraph, StartsEmpty) {
  FlowGraph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.capacity(1, 2), 0);
  EXPECT_FALSE(g.has_node(1));
}

TEST(FlowGraph, AddCapacityAccumulates) {
  FlowGraph g;
  g.add_capacity(1, 2, 100);
  g.add_capacity(1, 2, 50);
  EXPECT_EQ(g.capacity(1, 2), 150);
  EXPECT_EQ(g.capacity(2, 1), 0);
  EXPECT_EQ(g.num_edges(), 1u);
  // Gossip-driven totals saturate instead of overflowing.
  const Bytes max = std::numeric_limits<Bytes>::max();
  g.add_capacity(1, 2, max);
  EXPECT_EQ(g.capacity(1, 2), max);
  EXPECT_TRUE(g.check_invariants());
}

TEST(FlowGraph, ZeroAddCreatesNodesNotEdges) {
  FlowGraph g;
  g.add_capacity(1, 2, 0);
  EXPECT_TRUE(g.has_node(1));
  EXPECT_TRUE(g.has_node(2));
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.check_invariants());
}

TEST(FlowGraph, OutAndInEdgesMirror) {
  FlowGraph g;
  g.add_capacity(1, 2, 10);
  g.add_capacity(3, 2, 20);
  g.add_capacity(1, 4, 30);
  EXPECT_EQ(g.out_edges(1).size(), 2u);
  ASSERT_EQ(g.in_edges(2).size(), 2u);
  // In-edge spans are ascending by tail peer and carry the edge capacity.
  EXPECT_EQ(g.in_edges(2)[0], (Edge{1, 10}));
  EXPECT_EQ(g.in_edges(2)[1], (Edge{3, 20}));
  EXPECT_TRUE(g.check_invariants());
}

TEST(FlowGraph, UnknownNodeAccessorsAreEmpty) {
  FlowGraph g;
  EXPECT_TRUE(g.out_edges(9).empty());
  EXPECT_TRUE(g.in_edges(9).empty());
}

TEST(FlowGraph, NodesListsAll) {
  FlowGraph g;
  g.add_capacity(5, 7, 1);
  g.add_capacity(7, 9, 1);
  auto nodes = g.nodes();
  std::sort(nodes.begin(), nodes.end());
  EXPECT_EQ(nodes, (std::vector<PeerId>{5, 7, 9}));
}

TEST(FlowGraph, TotalCapacity) {
  FlowGraph g;
  g.add_capacity(1, 2, 10);
  g.add_capacity(2, 3, 20);
  EXPECT_EQ(g.total_capacity(), 30);
}

TEST(FlowGraph, NodesAreSortedRegardlessOfInsertionOrder) {
  // Regression: nodes() used to surface unordered_map iteration order,
  // which leaks implementation-defined ordering into gossip selection and
  // exports. It must be ascending whatever the insertion order.
  FlowGraph a;
  a.add_capacity(9, 2, 1);
  a.add_capacity(5, 7, 1);
  a.add_capacity(1, 9, 1);
  FlowGraph b;
  b.add_capacity(1, 9, 1);
  b.add_capacity(5, 7, 1);
  b.add_capacity(9, 2, 1);
  const std::vector<PeerId> expected{1, 2, 5, 7, 9};
  EXPECT_EQ(a.nodes(), expected);
  EXPECT_EQ(b.nodes(), expected);
}

TEST(FlowGraph, EdgeSpansSortedAscending) {
  FlowGraph g;
  g.add_capacity(5, 9, 1);
  g.add_capacity(5, 2, 2);
  g.add_capacity(5, 7, 3);
  g.add_capacity(4, 7, 4);
  g.add_capacity(8, 7, 5);
  const auto out = g.out_edges(5);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], (Edge{2, 2}));
  EXPECT_EQ(out[1], (Edge{7, 3}));
  EXPECT_EQ(out[2], (Edge{9, 1}));
  const auto in = g.in_edges(7);
  ASSERT_EQ(in.size(), 3u);
  EXPECT_EQ(in[0], (Edge{4, 4}));
  EXPECT_EQ(in[1], (Edge{5, 3}));
  EXPECT_EQ(in[2], (Edge{8, 5}));
}

TEST(FlowGraph, RaiseCapacityIgnoresLowerOrEqual) {
  FlowGraph g;
  g.add_capacity(1, 2, 100);
  const std::uint64_t gen = g.generation();
  EXPECT_FALSE(g.raise_pair(1, 2, 100, 0));
  EXPECT_FALSE(g.raise_pair(1, 2, 40, -3));
  EXPECT_FALSE(g.raise_pair(1, 2, 0, 0));
  EXPECT_FALSE(g.raise_pair(1, 2, -7, -7));
  // The same edge, found in the rows of its head.
  EXPECT_FALSE(g.raise_pair(2, 1, 0, 100));
  EXPECT_FALSE(g.raise_pair(2, 1, -1, 99));
  EXPECT_EQ(g.capacity(1, 2), 100);
  EXPECT_EQ(g.capacity(2, 1), 0);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.generation(), gen);
  EXPECT_TRUE(g.check_invariants());
}

TEST(FlowGraph, RaiseCapacityUpdatesEveryView) {
  FlowGraph g;
  g.add_capacity(1, 2, 100);
  g.add_capacity(3, 2, 5);
  const std::uint64_t gen = g.generation();
  EXPECT_TRUE(g.raise_pair(1, 2, 250, 0));
  EXPECT_EQ(g.capacity(1, 2), 250);
  ASSERT_EQ(g.out_edges(1).size(), 1u);
  EXPECT_EQ(g.out_edges(1)[0], (Edge{2, 250}));
  ASSERT_EQ(g.in_edges(2).size(), 2u);
  EXPECT_EQ(g.in_edges(2)[0], (Edge{1, 250}));
  EXPECT_EQ(g.in_edges(2)[1], (Edge{3, 5}));
  EXPECT_EQ(g.generation(), gen);  // content update, no structural change
  EXPECT_TRUE(g.check_invariants());
  // Raised again from the head's side: the in-row entry and its out-row
  // mirror move together.
  EXPECT_TRUE(g.raise_pair(2, 1, 0, 300));
  EXPECT_EQ(g.capacity(1, 2), 300);
  EXPECT_EQ(g.out_edges(1)[0], (Edge{2, 300}));
  EXPECT_EQ(g.in_edges(2)[0], (Edge{1, 300}));
  EXPECT_EQ(g.generation(), gen);
  EXPECT_TRUE(g.check_invariants());
}

TEST(FlowGraph, RaiseCapacityCreatesEdge) {
  FlowGraph g;
  const std::uint64_t gen = g.generation();
  EXPECT_TRUE(g.raise_pair(4, 9, 30, 0));
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.capacity(4, 9), 30);
  EXPECT_GT(g.generation(), gen);
  // A no-op raise on absent nodes creates nothing.
  EXPECT_FALSE(g.raise_pair(5, 6, 0, -1));
  EXPECT_FALSE(g.has_node(5));
  EXPECT_FALSE(g.has_node(6));
  EXPECT_TRUE(g.check_invariants());
  // Nodes are created by an insert, tail first: (7, 8) before (8, 7) ...
  EXPECT_TRUE(g.raise_pair(7, 8, 5, 6));
  EXPECT_EQ(g.capacity(7, 8), 5);
  EXPECT_EQ(g.capacity(8, 7), 6);
  EXPECT_LT(g.index().find(7), g.index().find(8));
  // ... and a pair whose only insert is (11, 10) creates 11 first.
  EXPECT_TRUE(g.raise_pair(10, 11, -4, 3));
  EXPECT_EQ(g.capacity(11, 10), 3);
  EXPECT_LT(g.index().find(11), g.index().find(10));
  EXPECT_EQ(g.num_nodes(), 6u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_TRUE(g.check_invariants());
}

TEST(FlowGraph, RaiseCapacityMatchesProbeThenSet) {
  // Reference: per direction, the capacity() probe plus an add_capacity()
  // of the difference, which is what raise_pair fuses into lookups in the
  // rows of `peer`. Both graphs see the same stream; non-positive amounts
  // must leave the graph untouched, absent nodes included.
  Rng rng(7);
  FlowGraph fast;
  FlowGraph ref;
  auto probe_then_add = [&ref](PeerId from, PeerId to, Bytes amount) {
    const Bytes current = ref.capacity(from, to);
    if (amount <= current) return false;
    ref.add_capacity(from, to, amount - current);
    return true;
  };
  for (int step = 0; step < 4000; ++step) {
    const auto peer = static_cast<PeerId>(rng.uniform_int(0, 15));
    auto other = static_cast<PeerId>(rng.uniform_int(0, 14));
    if (other >= peer) ++other;
    const Bytes fwd = 10 * rng.uniform_int(-1, 12);
    const Bytes back = 10 * rng.uniform_int(-1, 12);
    const bool changed_fwd = probe_then_add(peer, other, fwd);
    const bool changed_back = probe_then_add(other, peer, back);
    ASSERT_EQ(fast.raise_pair(peer, other, fwd, back),
              changed_fwd || changed_back)
        << step;
    ASSERT_EQ(fast.generation(), ref.generation()) << step;
  }
  ASSERT_TRUE(fast.check_invariants());
  EXPECT_EQ(fast.nodes(), ref.nodes());
  EXPECT_EQ(fast.num_edges(), ref.num_edges());
  for (PeerId n : ref.nodes()) {
    EXPECT_EQ(fast.index().find(n), ref.index().find(n)) << n;
    const EdgeView fo = fast.out_edges(n), ro = ref.out_edges(n);
    EXPECT_TRUE(std::equal(fo.begin(), fo.end(), ro.begin(), ro.end())) << n;
    const EdgeView fi = fast.in_edges(n), ri = ref.in_edges(n);
    EXPECT_TRUE(std::equal(fi.begin(), fi.end(), ri.begin(), ri.end())) << n;
  }
}

// Every adjacency entry stores its neighbor's slot, and an insert at the
// front or middle of an array shifts the entries behind it: the stored
// slots must travel with their entries. check_invariants() compares each
// stored slot with index().find(peer).
TEST(FlowGraph, StoredSlotsFollowTheirEntries) {
  FlowGraph g;
  for (PeerId v = 20; v > 0; --v) {  // every insert lands at the front
    g.add_capacity(0, v, 1);
    g.add_capacity(v, 0, 1);
    ASSERT_TRUE(g.check_invariants()) << v;
  }
  Rng rng(11);
  for (int step = 0; step < 2000; ++step) {
    const auto from = static_cast<PeerId>(1000 * rng.uniform_int(0, 30));
    auto to = static_cast<PeerId>(1000 * rng.uniform_int(0, 29));
    if (to >= from) to += 1000;
    if (rng.chance(0.5)) {
      g.add_capacity(from, to, rng.uniform_int(0, 50));
    } else {
      const Bytes fwd = rng.uniform_int(-5, 500);
      g.raise_pair(from, to, fwd, rng.uniform_int(-5, 500));
    }
    if (step % 100 == 99) {
      ASSERT_TRUE(g.check_invariants()) << step;
    }
  }
}

void expect_same_entries(std::span<const RankedAdjacency::Entry> ranked,
                         const EdgeView& edges,
                         std::span<const PeerId> ids) {
  ASSERT_EQ(ranked.size(), edges.size());
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    ASSERT_LT(ranked[i].rank, ids.size());
    EXPECT_EQ(ids[ranked[i].rank], edges[i].peer) << i;
    EXPECT_EQ(ranked[i].cap, edges[i].cap) << i;
  }
}

TEST(FlowGraph, RankedAdjacencyMirrorsThePeerIdApi) {
  // Sparse large ids touched in random order: slots and ranks disagree.
  Rng rng(5);
  FlowGraph g;
  for (int step = 0; step < 600; ++step) {
    const auto from =
        static_cast<PeerId>((PeerId{1} << 31) + 977 * rng.uniform_int(0, 40));
    auto to = static_cast<PeerId>((PeerId{1} << 31) +
                                  977 * rng.uniform_int(0, 39));
    if (to >= from) to += 977;
    const Bytes fwd = rng.uniform_int(0, 1000);
    g.raise_pair(from, to, fwd, rng.uniform_int(-500, 500));
  }
  g.add_capacity(3, 1, 0);  // isolated nodes below every other id
  RankedAdjacency adj;
  g.ranked_adjacency(adj);
  const std::vector<PeerId> nodes = g.nodes();
  ASSERT_EQ(adj.size(), nodes.size());
  EXPECT_TRUE(std::equal(adj.ids().begin(), adj.ids().end(), nodes.begin(),
                         nodes.end()));
  for (std::size_t r = 0; r < adj.size(); ++r) {
    expect_same_entries(adj.out_edges(r), g.out_edges(nodes[r]), adj.ids());
    expect_same_entries(adj.in_edges(r), g.in_edges(nodes[r]), adj.ids());
    // A row is the out-half followed by the in-half.
    EXPECT_EQ(adj.row(r).data(), adj.out_edges(r).data());
    EXPECT_EQ(adj.row(r).size(),
              adj.out_edges(r).size() + adj.in_edges(r).size());
  }
  EXPECT_TRUE(adj.row(0).empty());  // peer 1: isolated

  // A refill replaces the whole copy, here with a smaller graph.
  FlowGraph small;
  small.add_capacity(5, 3, 7);
  small.ranked_adjacency(adj);
  ASSERT_EQ(adj.size(), 2u);
  EXPECT_EQ(adj.ids()[0], 3u);
  EXPECT_EQ(adj.ids()[1], 5u);
  EXPECT_TRUE(adj.out_edges(0).empty());
  ASSERT_EQ(adj.in_edges(0).size(), 1u);
  EXPECT_EQ(adj.in_edges(0)[0].rank, 1u);
  EXPECT_EQ(adj.in_edges(0)[0].cap, 7);
  ASSERT_EQ(adj.out_edges(1).size(), 1u);
  EXPECT_EQ(adj.out_edges(1)[0].rank, 0u);
  EXPECT_TRUE(adj.in_edges(1).empty());

  FlowGraph empty;
  empty.ranked_adjacency(adj);
  EXPECT_EQ(adj.size(), 0u);
  EXPECT_TRUE(adj.ids().empty());
}

TEST(FlowGraphDeathTest, SelfEdgeRejected) {
  FlowGraph g;
  EXPECT_DEATH(g.add_capacity(1, 1, 10), "self-edges");
}

TEST(FlowGraphDeathTest, NegativeCapacityRejected) {
  FlowGraph g;
  EXPECT_DEATH(g.add_capacity(1, 2, -5), "amount");
}

}  // namespace
}  // namespace bc::graph
