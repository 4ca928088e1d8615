// Differential suite: the dense FlowGraph/maxflow stack vs. the retained
// hash-map ReferenceFlowGraph oracle (reference_graph.hpp). Both sides are
// driven through identical randomized sequences of the graph's two
// mutators — add_capacity and the raise_pair max-merge — and every
// query surface must agree at every checkpoint. Both maxflow variants
// must match their oracle ports, and unbounded Ford-Fulkerson must match
// the oracle's independent BFS (Edmonds-Karp) maxflow. Runs under the
// asan-ubsan preset in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/flow_graph.hpp"
#include "graph/maxflow.hpp"
#include "graph/reference_graph.hpp"
#include "util/rng.hpp"
#include "util/sorted_view.hpp"

namespace bc::graph {
namespace {

constexpr PeerId kPeers = 12;  // small world: dense enough for 2-hop paths

class DifferentialRandom : public ::testing::TestWithParam<std::uint64_t> {};

void expect_same_state(const FlowGraph& dense, const ReferenceFlowGraph& ref) {
  ASSERT_TRUE(dense.check_invariants());
  ASSERT_TRUE(ref.check_invariants());
  EXPECT_EQ(dense.num_nodes(), ref.num_nodes());
  EXPECT_EQ(dense.num_edges(), ref.num_edges());
  EXPECT_EQ(dense.nodes(), ref.nodes());
  EXPECT_EQ(dense.total_capacity(), ref.total_capacity());
  for (PeerId u = 0; u < kPeers; ++u) {
    EXPECT_EQ(dense.has_node(u), ref.has_node(u));
    EXPECT_EQ(dense.out_capacity(u), ref.out_capacity(u));
    EXPECT_EQ(dense.in_capacity(u), ref.in_capacity(u));
    for (PeerId v = 0; v < kPeers; ++v) {
      EXPECT_EQ(dense.capacity(u, v), ref.capacity(u, v))
          << "edge (" << u << ", " << v << ")";
    }
  }
}

void expect_same_flows(const FlowGraph& dense, const ReferenceFlowGraph& ref,
                       PeerId s, PeerId t) {
  EXPECT_EQ(max_flow_two_hop(dense, s, t), ref_max_flow_two_hop(ref, s, t))
      << "two_hop(" << s << ", " << t << ")";
  EXPECT_EQ(max_flow_ford_fulkerson(dense, s, t, 2),
            ref_max_flow_ford_fulkerson(ref, s, t, 2))
      << "bounded_ff(" << s << ", " << t << ")";
  const Bytes full = max_flow_ford_fulkerson(dense, s, t);
  EXPECT_EQ(full, ref_max_flow_ford_fulkerson(ref, s, t))
      << "full_ff(" << s << ", " << t << ")";
  EXPECT_EQ(full, ref_max_flow_edmonds_karp(ref, s, t))
      << "full_ff vs edmonds_karp(" << s << ", " << t << ")";
}

TEST_P(DifferentialRandom, RandomOpsAgreeEverywhere) {
  Rng rng(GetParam());
  FlowGraph dense;
  ReferenceFlowGraph ref;
  std::vector<PeerId> first_touch;  // peers in the order they appeared
  auto seen = [&](PeerId p) {
    if (std::find(first_touch.begin(), first_touch.end(), p) ==
        first_touch.end()) {
      first_touch.push_back(p);
    }
  };
  for (int step = 0; step < 400; ++step) {
    const int op = static_cast<int>(rng.uniform_int(0, 9));
    const PeerId u = static_cast<PeerId>(rng.uniform_int(0, kPeers - 1));
    PeerId v = static_cast<PeerId>(rng.uniform_int(0, kPeers - 2));
    if (v >= u) ++v;  // uniform over v != u
    if (op < 5) {  // local transfers accumulate
      const Bytes amount = rng.uniform_int(0, 1000);
      seen(u);
      seen(v);
      dense.add_capacity(u, v, amount);
      ref.add_capacity(u, v, amount);
    } else {  // gossip max-merge of one record about the pair (u, v)
      // u plays the sender; u and v are drawn independently, so each
      // unordered pair is merged in both orientations. Non-positive claims,
      // on either side, are no-ops.
      const Bytes fwd = rng.uniform_int(-500, 1500);
      const Bytes back = rng.uniform_int(-500, 1500);
      const Bytes fwd_was = ref.capacity(u, v);
      const Bytes back_was = ref.capacity(v, u);
      const bool raises_fwd = fwd > fwd_was;
      const bool raises_back = back > back_was;
      // An insert creates its tail, then its head.
      if (raises_fwd) {
        seen(u);
        seen(v);
      }
      if (raises_back) {
        seen(v);
        seen(u);
      }
      ASSERT_EQ(ref.raise_pair(u, v, fwd, back), raises_fwd || raises_back);
      const std::uint64_t gen = dense.generation();
      ASSERT_EQ(dense.raise_pair(u, v, fwd, back), raises_fwd || raises_back)
          << step;
      // Only an insert (a raise of an absent edge) is structural.
      const std::uint64_t inserts = (raises_fwd && fwd_was == 0 ? 1u : 0u) +
                                    (raises_back && back_was == 0 ? 1u : 0u);
      EXPECT_EQ(dense.generation(), gen + inserts) << step;
    }
    if (step % 40 == 39) expect_same_state(dense, ref);
  }
  expect_same_state(dense, ref);
  // Slots are handed out on first touch and never recycled.
  for (std::size_t slot = 0; slot < first_touch.size(); ++slot) {
    EXPECT_EQ(dense.index().find(first_touch[slot]), slot);
  }
  // Adjacency arrays hold exactly the oracle's edges, ascending by peer.
  for (PeerId n : ref.nodes()) {
    const std::vector<PeerId> heads = util::sorted_keys(ref.out_edges(n));
    const EdgeView out = dense.out_edges(n);
    ASSERT_EQ(out.size(), heads.size()) << n;
    for (std::size_t i = 0; i < heads.size(); ++i) {
      EXPECT_EQ(out[i].peer, heads[i]) << n;
    }
    const std::vector<PeerId> tails = util::sorted_keys(ref.in_edges(n));
    const EdgeView in = dense.in_edges(n);
    ASSERT_EQ(in.size(), tails.size()) << n;
    for (std::size_t i = 0; i < tails.size(); ++i) {
      EXPECT_EQ(in[i], (Edge{tails[i], ref.capacity(tails[i], n)})) << n;
    }
  }
  for (PeerId s = 0; s < kPeers; ++s) {
    for (PeerId t = 0; t < kPeers; ++t) {
      if (s == t) continue;
      expect_same_flows(dense, ref, s, t);
    }
  }
}

TEST_P(DifferentialRandom, FlowsAgreeOnDenserGraphs) {
  Rng rng(GetParam() ^ 0xdecafbadULL);
  FlowGraph dense;
  ReferenceFlowGraph ref;
  // Build a denser web so augmenting paths get long enough to exercise
  // the reverse-residual bookkeeping in every variant.
  for (int i = 0; i < 80; ++i) {
    const PeerId u = static_cast<PeerId>(rng.uniform_int(0, kPeers - 1));
    PeerId v = static_cast<PeerId>(rng.uniform_int(0, kPeers - 2));
    if (v >= u) ++v;
    const Bytes amount = rng.uniform_int(1, 500);
    dense.add_capacity(u, v, amount);
    ref.add_capacity(u, v, amount);
  }
  expect_same_state(dense, ref);
  for (int probe = 0; probe < 60; ++probe) {
    const PeerId s = static_cast<PeerId>(rng.uniform_int(0, kPeers - 1));
    const PeerId t = static_cast<PeerId>(rng.uniform_int(0, kPeers - 1));
    if (s == t) continue;
    expect_same_flows(dense, ref, s, t);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialRandom,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 17ULL, 42ULL,
                                           1234ULL, 99999ULL));

}  // namespace
}  // namespace bc::graph
