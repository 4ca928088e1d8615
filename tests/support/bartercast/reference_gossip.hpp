// Reference (oracle) differential-gossip sweep for differential testing.
//
// This is the hash-map form of DifferentialGossipBackend's sweep: it walks
// graph.nodes() in ascending PeerId order, maps every edge endpoint back to
// its position through an unordered_map, and reads adjacency through the
// PeerId API of FlowGraph. It fixes the floating-point addition order the
// production sweep must reproduce bit for bit (per node: the out-edges, then
// the in-edges, both ascending by PeerId), so
// tests/bartercast/gossip_backend_test.cpp compares the two with exact
// equality.
//
// Not for production use: it pays a hash probe per edge endpoint per round.
#pragma once

#include <unordered_map>

#include "bartercast/backend.hpp"
#include "graph/flow_graph.hpp"
#include "util/ids.hpp"

namespace bc::bartercast {

/// Converged, clamped score of every node of `graph` under `config`.
std::unordered_map<PeerId, double> ref_gossip_scores(
    const graph::FlowGraph& graph, const DifferentialGossipConfig& config);

}  // namespace bc::bartercast
