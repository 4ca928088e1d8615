// Bit-exact determinism of the community simulator (guards future
// parallelism work): two runs from the same trace seed and scenario config
// must produce bit-identical metrics, down to the floating-point bit
// patterns of every time-series bin and reputation value.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "bartercast/backend.hpp"
#include "community/simulator.hpp"
#include "trace/generator.hpp"

namespace bc::community {
namespace {

trace::Trace small_trace(std::uint64_t seed) {
  trace::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.num_peers = 16;
  cfg.num_swarms = 2;
  cfg.duration = 10.0 * kHour;
  cfg.file_size_min = mib(15);
  cfg.file_size_max = mib(40);
  cfg.requests_per_peer_min = 1;
  cfg.requests_per_peer_max = 2;
  return trace::generate(cfg);
}

void put_double(std::ostringstream& out, double v) {
  // Doubles go out as raw bit patterns: "equal enough" is not determinism.
  out << std::bit_cast<std::uint64_t>(v) << ',';
}

void put_series(std::ostringstream& out, const TimeSeries& s) {
  out << s.num_bins() << ';';
  for (std::size_t i = 0; i < s.num_bins(); ++i) {
    out << s.bin_count(i) << ':';
    put_double(out, s.bin_mean(i));
  }
  out << '\n';
}

std::string fingerprint(const Metrics& m) {
  std::ostringstream out;
  put_series(out, m.reputation_sharers);
  put_series(out, m.reputation_freeriders);
  put_series(out, m.speed_sharers);
  put_series(out, m.speed_freeriders);
  for (const auto& o : m.outcomes) {
    out << o.peer << ',' << o.behavior << ','
        << o.total_uploaded << ',' << o.total_downloaded << ','
        << o.files_requested << ',' << o.files_completed << ',';
    put_double(out, o.final_system_reputation);
    put_double(out, o.time_downloading);
    out << o.late_downloaded << ',';
    put_double(out, o.late_time_downloading);
    out << '\n';
  }
  out << m.messages.messages_sent << ',' << m.messages.messages_received << ','
      << m.messages.records_applied << ',' << m.messages.records_dropped() << ','
      << m.messages.gossip_exchanges << '\n';
  return out.str();
}

std::string run_once(std::uint64_t trace_seed, std::uint64_t scenario_seed) {
  ScenarioConfig cfg;
  cfg.seed = scenario_seed;
  cfg.policy = bartercast::ReputationPolicy::rank_ban(-0.5);
  CommunitySimulator sim(small_trace(trace_seed), cfg);
  sim.run();
  return fingerprint(sim.metrics());
}

TEST(Determinism, SameSeedsGiveBitIdenticalMetrics) {
  const std::string first = run_once(21, 9);
  const std::string second = run_once(21, 9);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST(Determinism, DifferentScenarioSeedDiverges) {
  // A sanity check that the fingerprint is actually sensitive to the run:
  // changing the scenario seed must change some recorded bit.
  const std::string first = run_once(21, 9);
  const std::string other = run_once(21, 10);
  EXPECT_NE(first, other);
}

// Pins the differential-gossip backend's end-to-end output: a small seeded
// community (the PlotFixture shape: 30 peers, 4 swarms, 2 days) run under a
// ban policy with the gossip metric, digested over the bit patterns of the
// final system reputations. The reputations feed the choker, so a sweep
// that changed one FP addition would move this digest.
TEST(Determinism, GossipBackendFinalReputationsArePinned) {
  trace::GeneratorConfig tcfg;
  tcfg.seed = 55;
  tcfg.num_peers = 30;
  tcfg.num_swarms = 4;
  tcfg.duration = 2.0 * kDay;
  tcfg.file_size_max = mib(700);
  ScenarioConfig cfg;
  cfg.seed = 9;
  cfg.policy = bartercast::ReputationPolicy::ban(-0.5);
  cfg.population = "sharer:0.5,lazy:0.3,slanderer:0.2";
  cfg.node.backend = bartercast::BackendKind::kDifferentialGossip;
  CommunitySimulator sim(trace::generate(tcfg), cfg);
  sim.run();
  std::uint64_t digest = 0xcbf29ce484222325ull;  // FNV-1a 64
  auto mix = [&digest](std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      digest ^= (word >> (8 * b)) & 0xffu;
      digest *= 0x100000001b3ull;
    }
  };
  ASSERT_EQ(sim.metrics().outcomes.size(), 30u);
  for (const auto& o : sim.metrics().outcomes) {
    mix(o.peer);
    mix(std::bit_cast<std::uint64_t>(o.final_system_reputation));
  }
  EXPECT_EQ(digest, 0x4901214adc0fab83ull) << std::hex << digest;
}

// Pins the maxflow backend's end-to-end output down to the subjective
// graphs: the gossip pin's community under a population that also sends
// fabricated (slanderer) and inflated (sybil-region) records, digested over
// the final system reputations and every node's view — its node set and
// each out-edge (head, capacity), ascending. A change to how records are
// max-merged into a view moves this digest even where it leaves the
// reputations alone.
TEST(Determinism, MaxflowViewsArePinned) {
  trace::GeneratorConfig tcfg;
  tcfg.seed = 55;
  tcfg.num_peers = 30;
  tcfg.num_swarms = 4;
  tcfg.duration = 2.0 * kDay;
  tcfg.file_size_max = mib(700);
  ScenarioConfig cfg;
  cfg.seed = 9;
  cfg.policy = bartercast::ReputationPolicy::ban(-0.5);
  cfg.population = "sharer:0.5,lazy:0.3,slanderer:0.1,sybil-region:0.1";
  CommunitySimulator sim(trace::generate(tcfg), cfg);
  sim.run();
  std::uint64_t digest = 0xcbf29ce484222325ull;  // FNV-1a 64
  auto mix = [&digest](std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      digest ^= (word >> (8 * b)) & 0xffu;
      digest *= 0x100000001b3ull;
    }
  };
  ASSERT_EQ(sim.metrics().outcomes.size(), 30u);
  std::size_t edges = 0;
  for (const auto& o : sim.metrics().outcomes) {
    mix(o.peer);
    mix(std::bit_cast<std::uint64_t>(o.final_system_reputation));
    const graph::FlowGraph& view = sim.node(o.peer).view().graph();
    const std::vector<PeerId> nodes = view.nodes();
    mix(nodes.size());
    for (const PeerId n : nodes) {
      mix(n);
      for (const graph::Edge& e : view.out_edges(n)) {
        mix(e.peer);
        mix(std::bit_cast<std::uint64_t>(e.cap));
        ++edges;
      }
    }
  }
  EXPECT_GT(edges, 0u);
  EXPECT_EQ(digest, 0x75c9412893b7e781ull) << std::hex << digest;
}

}  // namespace
}  // namespace bc::community
