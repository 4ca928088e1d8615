// Unit suite for the pluggable reputation backends (backend.hpp): the
// differential-gossip metric's scores, determinism, and memoisation, the
// kind parsing/factory, and the cross-backend property that both metrics
// rank a clear sharer above a clear freerider on the same evidence. The
// rank-indexed sweep is also checked bit for bit against the hash-map
// oracle in tests/support/bartercast/reference_gossip.hpp.
#include "bartercast/backend.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "bartercast/reference_gossip.hpp"
#include "bartercast/shared_history.hpp"
#include "graph/flow_graph.hpp"
#include "util/rng.hpp"

namespace bc::bartercast {
namespace {

TEST(BackendKindNames, RoundTrip) {
  EXPECT_EQ(backend_name(BackendKind::kMaxflow), "maxflow");
  EXPECT_EQ(backend_name(BackendKind::kDifferentialGossip),
            "differential-gossip");
  EXPECT_EQ(parse_backend("maxflow"), BackendKind::kMaxflow);
  EXPECT_EQ(parse_backend("differential-gossip"),
            BackendKind::kDifferentialGossip);
}

TEST(BackendKindNames, AliasesAndSeparators) {
  EXPECT_EQ(parse_backend("gossip"), BackendKind::kDifferentialGossip);
  EXPECT_EQ(parse_backend("differential_gossip"),
            BackendKind::kDifferentialGossip);
  EXPECT_EQ(parse_backend("pagerank"), std::nullopt);
  EXPECT_EQ(parse_backend(""), std::nullopt);
}

TEST(MakeBackend, ConstructsSelectedKind) {
  const auto mf = make_backend(BackendKind::kMaxflow, ReputationConfig{},
                               DifferentialGossipConfig{});
  const auto dg = make_backend(BackendKind::kDifferentialGossip,
                               ReputationConfig{},
                               DifferentialGossipConfig{});
  EXPECT_EQ(mf->name(), "maxflow");
  EXPECT_EQ(dg->name(), "differential-gossip");
  // The production maxflow mode supports per-subject dirty tracking; the
  // gossip sweep is global and must not.
  EXPECT_TRUE(mf->incremental_two_hop());
  EXPECT_FALSE(dg->incremental_two_hop());
}

TEST(DifferentialGossip, ZeroRoundsIsThePurePrior) {
  graph::FlowGraph g;
  g.add_capacity(1, 0, kGiB);  // peer 1 served 1 GiB to peer 0
  DifferentialGossipConfig cfg;
  cfg.rounds = 0;
  const DifferentialGossipBackend backend(cfg);
  const auto scores = backend.scores(g);
  // Prior of peer 1: atan(+1 GiB / 1 GiB) / (pi/2) = 0.5 exactly; peer 0
  // mirrors it negatively.
  EXPECT_NEAR(scores.at(1), 0.5, 1e-12);
  EXPECT_NEAR(scores.at(0), -0.5, 1e-12);
}

TEST(DifferentialGossip, SharerConvergesPositiveFreeriderNegative) {
  // Peer 1 seeds everyone; peer 2 only consumes; peers 0 and 3 trade.
  graph::FlowGraph g;
  g.add_capacity(1, 0, 4 * kGiB);
  g.add_capacity(1, 2, 4 * kGiB);
  g.add_capacity(1, 3, 4 * kGiB);
  g.add_capacity(0, 2, 2 * kGiB);
  g.add_capacity(0, 3, kGiB);
  g.add_capacity(3, 0, kGiB);
  const DifferentialGossipBackend backend;
  const auto scores = backend.scores(g);
  EXPECT_GT(scores.at(1), 0.0);
  EXPECT_LT(scores.at(2), 0.0);
  EXPECT_GT(scores.at(1), scores.at(2));
}

TEST(DifferentialGossip, ScoresAreDeterministic) {
  graph::FlowGraph g;
  g.add_capacity(2, 0, 3 * kGiB);
  g.add_capacity(2, 1, kGiB);
  g.add_capacity(0, 1, 2 * kGiB);
  g.add_capacity(1, 0, 512 * kMiB);
  const DifferentialGossipBackend backend;
  const auto first = backend.scores(g);
  const auto second = backend.scores(g);
  ASSERT_EQ(first.size(), second.size());
  for (const auto& [peer, value] : first) {
    // Bit-identical, not just close: the sweep's FP order is fixed.
    EXPECT_EQ(second.at(peer), value) << "peer " << peer;
  }
}

TEST(DifferentialGossip, ScoresStayBounded) {
  graph::FlowGraph g;
  // Extreme volumes must not push a score outside [-1, 1].
  g.add_capacity(0, 1, 500 * kGiB);
  g.add_capacity(1, 2, 500 * kGiB);
  g.add_capacity(2, 0, kMiB);
  const DifferentialGossipBackend backend;
  for (const auto& [peer, value] : backend.scores(g)) {
    EXPECT_GE(value, -1.0) << "peer " << peer;
    EXPECT_LE(value, 1.0) << "peer " << peer;
  }
}

TEST(DifferentialGossip, IsolatedPeerKeepsItsPrior) {
  graph::FlowGraph g;
  g.add_capacity(0, 1, kGiB);
  g.add_capacity(2, 3, 2 * kGiB);  // component disjoint from {0, 1}
  const DifferentialGossipBackend backend;
  const auto scores = backend.scores(g);
  // Peer 2's opinion pool is only peer 3 and vice versa; scores still
  // exist and carry the right sign.
  EXPECT_GT(scores.at(2), 0.0);
  EXPECT_LT(scores.at(3), 0.0);
}

TEST(DifferentialGossip, ViewOwnerAndUnknownSubjectsAreNeutral) {
  SharedHistory view(/*owner=*/0);
  view.record_local_download(1, kGiB);
  const DifferentialGossipBackend backend;
  EXPECT_EQ(backend.reputation(view, 0), 0.0);   // self
  EXPECT_EQ(backend.reputation(view, 99), 0.0);  // never seen
  EXPECT_GT(backend.reputation(view, 1), 0.0);   // served the owner
}

TEST(DifferentialGossip, MemoRefreshesWhenTheViewChanges) {
  SharedHistory view(/*owner=*/0);
  view.record_local_download(1, kGiB);
  const DifferentialGossipBackend backend;
  const double before = backend.reputation(view, 1);
  EXPECT_GT(before, 0.0);
  // The owner now uploads far more to 1 than it received: 1's net (and
  // with it the gossip score) must flip once the version bumps.
  view.record_local_upload(1, 10 * kGiB);
  const double after = backend.reputation(view, 1);
  EXPECT_LT(after, before);
  EXPECT_LT(after, 0.0);
}

TEST(CachedReputationBackend, GossipBackendDisablesIncrementalMode) {
  SharedHistory view(/*owner=*/0);
  CachedReputation cache(
      view, std::make_unique<DifferentialGossipBackend>());
  EXPECT_FALSE(cache.incremental());
  EXPECT_EQ(cache.backend().name(), "differential-gossip");
}

TEST(CachedReputationBackend, CachesPerVersionAcrossBackends) {
  for (const BackendKind kind :
       {BackendKind::kMaxflow, BackendKind::kDifferentialGossip}) {
    SharedHistory view(/*owner=*/0);
    view.record_local_download(1, kGiB);
    CachedReputation cache(view,
                           make_backend(kind, ReputationConfig{},
                                        DifferentialGossipConfig{}));
    const double first = cache.reputation(1);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.reputation(1), first);
    EXPECT_EQ(cache.hits(), 1u);
    view.record_local_download(1, kGiB);  // version bump invalidates
    const double updated = cache.reputation(1);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_GT(updated, first);  // 1 served even more
  }
}

// The headline cross-backend property: on identical evidence both
// aggregation metrics rank a clear sharer strictly above a clear
// freerider, so policy thresholds retain their sign under a backend swap.
TEST(CrossBackendProperty, BothBackendsRankSharerAboveFreerider) {
  constexpr PeerId kEvaluator = 0;
  constexpr PeerId kSharer = 1;
  constexpr PeerId kFreerider = 2;
  SharedHistory view(kEvaluator);
  // The sharer served the evaluator 5 GiB; the freerider consumed 3 GiB
  // from the evaluator and returned nothing.
  view.record_local_download(kSharer, 5 * kGiB);
  view.record_local_upload(kFreerider, 3 * kGiB);

  for (const BackendKind kind :
       {BackendKind::kMaxflow, BackendKind::kDifferentialGossip}) {
    const auto backend = make_backend(kind, ReputationConfig{},
                                      DifferentialGossipConfig{});
    const double sharer = backend->reputation(view, kSharer);
    const double freerider = backend->reputation(view, kFreerider);
    EXPECT_GT(sharer, 0.0) << backend->name();
    EXPECT_LT(freerider, 0.0) << backend->name();
    EXPECT_GT(sharer, freerider) << backend->name();
  }
}

// --- Bit-exact differential suite: production sweep vs hash-map oracle ---

void expect_bit_identical(const graph::FlowGraph& g,
                          const DifferentialGossipConfig& cfg) {
  const auto want = ref_gossip_scores(g, cfg);
  const auto got = DifferentialGossipBackend(cfg).scores(g);
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [peer, value] : want) {
    const auto it = got.find(peer);
    ASSERT_NE(it, got.end()) << "peer " << peer;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(it->second),
              std::bit_cast<std::uint64_t>(value))
        << "peer " << peer << ": " << it->second << " vs " << value
        << " (rounds " << cfg.rounds << ", self_weight " << cfg.self_weight
        << ")";
  }
}

void expect_bit_identical_all_configs(const graph::FlowGraph& g) {
  for (const int rounds : {0, 1, 4, 7}) {
    for (const double self_weight : {0.5, 1.0}) {
      DifferentialGossipConfig cfg;
      cfg.rounds = rounds;
      cfg.self_weight = self_weight;
      expect_bit_identical(g, cfg);
    }
  }
}

struct ViewShape {
  PeerId first_id;     // lowest id the draw may produce
  PeerId max_gap;      // consecutive ids differ by 1..max_gap
  std::size_t nodes;
  std::size_t isolated;  // nodes interned without any edge
  std::size_t edge_ops;
  Bytes max_cap;
};

// A random subjective graph. Nodes are interned in shuffled order, so
// first-touch slots and ascending-PeerId ranks disagree; edges come from a
// mix of the graph's two mutators.
graph::FlowGraph random_view(Rng& rng, const ViewShape& shape) {
  std::vector<PeerId> ids(shape.nodes);
  PeerId next = shape.first_id;
  for (PeerId& id : ids) {
    id = next;
    next += static_cast<PeerId>(rng.uniform_int(1, shape.max_gap));
  }
  rng.shuffle(ids);
  graph::FlowGraph g;
  // Interning: a zero-amount add creates both nodes but no edge.
  for (std::size_t i = 0; i + 1 < ids.size(); i += 2) {
    g.add_capacity(ids[i], ids[i + 1], 0);
  }
  if (ids.size() % 2 == 1) g.add_capacity(ids.back(), ids.front(), 0);
  const std::size_t linked = ids.size() - shape.isolated;
  if (linked < 2) return g;
  for (std::size_t op = 0; op < shape.edge_ops; ++op) {
    const std::size_t a = rng.index(linked);
    std::size_t b = rng.index(linked - 1);
    if (b >= a) ++b;
    const Bytes amount = rng.uniform_int(1, shape.max_cap);
    if (rng.chance(0.5)) {
      g.add_capacity(ids[a], ids[b], amount);
    } else {
      g.raise_pair(ids[a], ids[b], amount, 0);
    }
  }
  return g;
}

class GossipSweepDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GossipSweepDifferential, DenseSmallIds) {
  Rng rng(GetParam());
  const graph::FlowGraph g = random_view(
      rng, {.first_id = 0, .max_gap = 1, .nodes = 40, .isolated = 3,
            .edge_ops = 300, .max_cap = 4 * kGiB});
  ASSERT_TRUE(g.check_invariants());
  expect_bit_identical_all_configs(g);
}

TEST_P(GossipSweepDifferential, SparseIdsAboveTwoToThe31) {
  Rng rng(GetParam());
  const graph::FlowGraph g = random_view(
      rng, {.first_id = PeerId{1} << 31, .max_gap = 100000, .nodes = 60,
            .isolated = 5, .edge_ops = 400, .max_cap = 16 * kGiB});
  ASSERT_TRUE(g.check_invariants());
  ASSERT_GE(g.nodes().front(), PeerId{1} << 31);
  expect_bit_identical_all_configs(g);
}

TEST_P(GossipSweepDifferential, SaturatingCapacities) {
  // Capacities near int64 max: repeated adds saturate single edges, and
  // the prior's out/in sums saturate for most nodes.
  Rng rng(GetParam());
  const graph::FlowGraph g = random_view(
      rng, {.first_id = 7, .max_gap = 9, .nodes = 12, .isolated = 1,
            .edge_ops = 80,
            .max_cap = std::numeric_limits<Bytes>::max() / 3});
  ASSERT_TRUE(g.check_invariants());
  expect_bit_identical_all_configs(g);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GossipSweepDifferential,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(GossipSweepDifferentialEdge, EmptyGraph) {
  const graph::FlowGraph g;
  expect_bit_identical_all_configs(g);
  EXPECT_TRUE(DifferentialGossipBackend().scores(g).empty());
}

TEST(GossipSweepDifferentialEdge, OnlyIsolatedNodes) {
  graph::FlowGraph g;
  g.add_capacity(kInvalidPeer - 1, 3, 0);
  g.add_capacity(PeerId{1} << 31, 0, 0);
  expect_bit_identical_all_configs(g);
  const auto scores = DifferentialGossipBackend().scores(g);
  ASSERT_EQ(scores.size(), 4u);
  for (const auto& [peer, value] : scores) EXPECT_EQ(value, 0.0) << peer;
}

// --- Memo keying -----------------------------------------------------------

BarterCastMessage upload_claim(PeerId sender, PeerId to, Bytes total) {
  BarterCastMessage m;
  m.sender = sender;
  BarterRecord r;
  r.subject = sender;
  r.other = to;
  r.subject_to_other = total;
  m.records.push_back(r);
  return m;
}

TEST(DifferentialGossipMemo, RaiseWithoutInsertRefreshesScores) {
  SharedHistory view(/*owner=*/0);
  view.record_local_download(1, kGiB);
  view.apply_message(upload_claim(2, 1, kGiB));
  const DifferentialGossipBackend backend;
  const double before = backend.reputation(view, 2);
  // A larger cumulative claim for the same edge: the capacity rises in
  // place, so version() moves but no edge is inserted.
  const std::uint64_t generation = view.graph().generation();
  const std::uint64_t version = view.version();
  ASSERT_EQ(view.apply_message(upload_claim(2, 1, 8 * kGiB)).applied, 1u);
  ASSERT_EQ(view.graph().generation(), generation);
  ASSERT_GT(view.version(), version);
  const double after = backend.reputation(view, 2);
  EXPECT_GT(after, before);
  const auto want = ref_gossip_scores(view.graph(), backend.config());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(after),
            std::bit_cast<std::uint64_t>(want.at(2)));
}

TEST(DifferentialGossipMemo, AlternatingViewsKeepTheirOwnScores) {
  SharedHistory a(/*owner=*/0);
  a.record_local_download(1, kGiB);
  a.record_local_upload(2, 3 * kGiB);
  SharedHistory b(/*owner=*/0);
  b.record_local_upload(1, 5 * kGiB);
  const DifferentialGossipBackend backend;
  const auto want_a = ref_gossip_scores(a.graph(), backend.config());
  const auto want_b = ref_gossip_scores(b.graph(), backend.config());
  const double a1 = backend.reputation(a, 1);
  const double b1 = backend.reputation(b, 1);
  EXPECT_EQ(backend.reputation(b, 2), 0.0);  // unknown to view B
  const double a1_again = backend.reputation(a, 1);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a1),
            std::bit_cast<std::uint64_t>(want_a.at(1)));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(b1),
            std::bit_cast<std::uint64_t>(want_b.at(1)));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a1_again),
            std::bit_cast<std::uint64_t>(a1));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(backend.reputation(a, 2)),
            std::bit_cast<std::uint64_t>(want_a.at(2)));
  EXPECT_GT(a1, 0.0);
  EXPECT_LT(b1, 0.0);
}

TEST(DifferentialGossipMemo, ScoresCallDoesNotLeaveAStaleViewMemo) {
  SharedHistory view(/*owner=*/0);
  view.record_local_download(1, kGiB);
  const DifferentialGossipBackend backend;
  const double via_view = backend.reputation(view, 1);
  graph::FlowGraph other;
  other.add_capacity(0, 1, 9 * kGiB);  // 1 is a freerider here
  EXPECT_LT(backend.scores(other).at(1), 0.0);
  EXPECT_EQ(backend.reputation(view, 1), via_view);
}

}  // namespace
}  // namespace bc::bartercast
