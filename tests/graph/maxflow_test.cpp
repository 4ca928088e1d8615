#include "graph/maxflow.hpp"

#include <gtest/gtest.h>

#include "graph/reference_graph.hpp"
#include "util/rng.hpp"

namespace bc::graph {
namespace {

FlowGraph diamond() {
  // s=0 -> {1,2} -> t=3 plus a direct s->t edge.
  FlowGraph g;
  g.add_capacity(0, 1, 10);
  g.add_capacity(0, 2, 5);
  g.add_capacity(1, 3, 7);
  g.add_capacity(2, 3, 9);
  g.add_capacity(0, 3, 2);
  return g;
}

TEST(MaxflowFF, DirectEdgeOnly) {
  FlowGraph g;
  g.add_capacity(0, 1, 42);
  EXPECT_EQ(max_flow_ford_fulkerson(g, 0, 1), 42);
  EXPECT_EQ(max_flow_ford_fulkerson(g, 1, 0), 0);
}

TEST(MaxflowFF, Diamond) {
  const FlowGraph g = diamond();
  // min(10,7) + min(5,9) + 2 = 14.
  EXPECT_EQ(max_flow_ford_fulkerson(g, 0, 3), 14);
}

TEST(MaxflowFF, SourceEqualsTarget) {
  const FlowGraph g = diamond();
  EXPECT_EQ(max_flow_ford_fulkerson(g, 0, 0), 0);
}

TEST(MaxflowFF, UnknownNodes) {
  const FlowGraph g = diamond();
  EXPECT_EQ(max_flow_ford_fulkerson(g, 0, 99), 0);
  EXPECT_EQ(max_flow_ford_fulkerson(g, 99, 0), 0);
}

TEST(MaxflowFF, DisconnectedIsZero) {
  FlowGraph g;
  g.add_capacity(0, 1, 5);
  g.add_capacity(2, 3, 5);
  EXPECT_EQ(max_flow_ford_fulkerson(g, 0, 3), 0);
}

TEST(MaxflowFF, RequiresResidualReversal) {
  // Classic case where the greedy DFS must undo flow via reverse edges:
  //   s -> a -> t, s -> b -> t, a -> b.
  FlowGraph g;
  const PeerId s = 0, a = 1, b = 2, t = 3;
  g.add_capacity(s, a, 10);
  g.add_capacity(s, b, 10);
  g.add_capacity(a, t, 10);
  g.add_capacity(b, t, 10);
  g.add_capacity(a, b, 10);
  EXPECT_EQ(max_flow_ford_fulkerson(g, s, t), 20);
}

TEST(MaxflowFF, LongChain) {
  FlowGraph g;
  for (PeerId i = 0; i < 10; ++i) g.add_capacity(i, i + 1, 5 + i);
  EXPECT_EQ(max_flow_ford_fulkerson(g, 0, 10), 5);  // bottleneck at first
}

TEST(MaxflowFF, PathBoundOneUsesOnlyDirectEdge) {
  const FlowGraph g = diamond();
  EXPECT_EQ(max_flow_ford_fulkerson(g, 0, 3, 1), 2);
}

TEST(MaxflowFF, PathBoundTwoMatchesClosedForm) {
  const FlowGraph g = diamond();
  EXPECT_EQ(max_flow_ford_fulkerson(g, 0, 3, 2), max_flow_two_hop(g, 0, 3));
}

TEST(MaxflowFF, BoundedNeverExceedsUnbounded) {
  const FlowGraph g = diamond();
  const Bytes full = max_flow_ford_fulkerson(g, 0, 3);
  for (int bound : {1, 2, 3, 4}) {
    EXPECT_LE(max_flow_ford_fulkerson(g, 0, 3, bound), full);
  }
}

TEST(MaxflowTwoHop, DirectPlusIntermediates) {
  const FlowGraph g = diamond();
  // 2 (direct) + min(10,7) + min(5,9) = 14, same as full here.
  EXPECT_EQ(max_flow_two_hop(g, 0, 3), 14);
}

TEST(MaxflowTwoHop, IgnoresLongerPaths) {
  FlowGraph g;
  g.add_capacity(0, 1, 10);
  g.add_capacity(1, 2, 10);
  g.add_capacity(2, 3, 10);
  EXPECT_EQ(max_flow_two_hop(g, 0, 3), 0);
  EXPECT_EQ(max_flow_ford_fulkerson(g, 0, 3), 10);
}

TEST(MaxflowTwoHop, SelfAndUnknown) {
  const FlowGraph g = diamond();
  EXPECT_EQ(max_flow_two_hop(g, 0, 0), 0);
  EXPECT_EQ(max_flow_two_hop(g, 7, 3), 0);
}

// The containment property BarterCast relies on (§3.4): flow into the
// evaluator is bounded by the evaluator's incoming edge capacities, no
// matter what the rest of the graph claims.
TEST(MaxflowTwoHop, ContainmentByEvaluatorInEdges) {
  FlowGraph g;
  const PeerId liar = 5, v = 6, me = 7;
  g.add_capacity(liar, v, 1'000'000'000);  // inflated claim
  g.add_capacity(v, me, 100);              // my real experience
  EXPECT_EQ(max_flow_two_hop(g, liar, me), 100);
  EXPECT_EQ(max_flow_ford_fulkerson(g, liar, me), 100);
}

// --- randomized cross-checks -------------------------------------------

/// Random graph on `nodes` peers. `G` is FlowGraph or the test oracle
/// ReferenceFlowGraph: the same Rng state builds the same graph in either.
template <typename G = FlowGraph>
G random_graph(Rng& rng, PeerId nodes, int edges, Bytes max_cap) {
  G g;
  for (int e = 0; e < edges; ++e) {
    const auto a = static_cast<PeerId>(rng.index(nodes));
    auto b = static_cast<PeerId>(rng.index(nodes));
    if (a == b) b = (b + 1) % nodes;
    g.add_capacity(a, b, rng.uniform_int(1, max_cap));
  }
  // Make sure endpoints exist even if no edge touched them.
  g.add_capacity(0, 1, 0);
  g.add_capacity(nodes - 1, nodes - 2, 0);
  return g;
}

class MaxflowRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxflowRandom, FordFulkersonEqualsEdmondsKarp) {
  // Unbounded DFS Ford-Fulkerson must equal an independent BFS maxflow:
  // the test oracle's Edmonds-Karp over the same edges.
  Rng rng(GetParam());
  for (int round = 0; round < 10; ++round) {
    Rng replay = rng;
    const FlowGraph g = random_graph(rng, 12, 40, 50);
    const auto ref = random_graph<ReferenceFlowGraph>(replay, 12, 40, 50);
    const PeerId s = 0, t = 11;
    EXPECT_EQ(max_flow_ford_fulkerson(g, s, t),
              ref_max_flow_edmonds_karp(ref, s, t))
        << "seed=" << GetParam() << " round=" << round;
  }
}

TEST_P(MaxflowRandom, TwoHopClosedFormEqualsBoundedFF) {
  Rng rng(GetParam() ^ 0xabcdULL);
  for (int round = 0; round < 10; ++round) {
    const FlowGraph g = random_graph(rng, 10, 35, 30);
    for (PeerId t = 1; t < 10; ++t) {
      EXPECT_EQ(max_flow_two_hop(g, 0, t),
                max_flow_ford_fulkerson(g, 0, t, 2))
          << "seed=" << GetParam() << " t=" << t;
    }
  }
}

TEST_P(MaxflowRandom, BoundedFlowMonotoneInPathLength) {
  Rng rng(GetParam() ^ 0x1234ULL);
  const FlowGraph g = random_graph(rng, 10, 30, 20);
  Bytes prev = 0;
  for (int bound : {1, 2, 3, 5, 9}) {
    const Bytes f = max_flow_ford_fulkerson(g, 0, 9, bound);
    EXPECT_GE(f, prev) << "bound=" << bound;
    prev = f;
  }
  EXPECT_LE(prev, max_flow_ford_fulkerson(g, 0, 9));
}

TEST_P(MaxflowRandom, FlowBoundedByCuts) {
  Rng rng(GetParam() ^ 0x77ULL);
  const FlowGraph g = random_graph(rng, 8, 24, 40);
  const Bytes flow = max_flow_ford_fulkerson(g, 0, 7);
  // Out-capacity of the source and in-capacity of the sink are both cuts.
  Bytes out_cap = 0;
  for (const Edge& e : g.out_edges(0)) out_cap += e.cap;
  Bytes in_cap = 0;
  for (const Edge& e : g.in_edges(7)) in_cap += e.cap;
  EXPECT_LE(flow, out_cap);
  EXPECT_LE(flow, in_cap);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxflowRandom,
                         ::testing::Values(1ULL, 7ULL, 42ULL, 99ULL, 12345ULL,
                                           777ULL));

}  // namespace
}  // namespace bc::graph
