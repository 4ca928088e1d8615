// V3 fixture: int64-scale values stored into 32-bit homes with no range
// proof — a wire id from an untrusted file truncates silently.
#include <cstdint>

using PeerId = std::uint32_t;

PeerId to_peer(std::int64_t raw_id) {
  return static_cast<PeerId>(raw_id);
}

unsigned record_slot(std::int64_t total_bytes) {
  unsigned slot;
  slot = total_bytes;
  return slot;
}

// A possibly negative byte count cast to an unsigned 64-bit wire word.
std::uint64_t wire_word(std::int64_t claimed_bytes) {
  return static_cast<std::uint64_t>(claimed_bytes);
}
