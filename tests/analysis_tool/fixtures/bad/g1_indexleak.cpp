// G1 fixture: dense graph internals leaking outside src/graph/. Slot
// numbers are per graph (first-touch order), so storing or arithmetic-ing
// them here silently targets a different peer in another graph.
#include "graph/peer_index.hpp"

namespace bc {

graph::NodeIndex slot_of(const graph::PeerIndex& index, PeerId id) {
  const graph::NodeIndex slot = index.find(id);
  if (slot == graph::kNoNode) return 0;
  return slot + 1;
}

}  // namespace bc
