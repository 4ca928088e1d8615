#include "bittorrent/piece_picker.hpp"

#include <bit>
#include <cstdint>
#include <limits>
#include <span>

#include "util/assert.hpp"

namespace bc::bt {

void Availability::add_bitfield(const Bitfield& have) {
  BC_ASSERT(have.size() == num_pieces());
  for (int p = 0; p < have.size(); ++p) {
    if (have.get(p)) ++counts_[static_cast<std::size_t>(p)];
  }
}

void Availability::remove_bitfield(const Bitfield& have) {
  BC_ASSERT(have.size() == num_pieces());
  for (int p = 0; p < have.size(); ++p) {
    if (have.get(p)) {
      auto& c = counts_[static_cast<std::size_t>(p)];
      BC_ASSERT(c > 0);
      --c;
    }
  }
}

void Availability::add_piece(int piece) {
  BC_ASSERT(piece >= 0 && static_cast<std::size_t>(piece) < counts_.size());
  ++counts_[static_cast<std::size_t>(piece)];
}

std::optional<int> pick_piece(const PickRequest& req, Rng& rng) {
  BC_ASSERT(req.mine != nullptr && req.theirs != nullptr &&
            req.availability != nullptr && req.in_flight != nullptr);
  BC_ASSERT(req.mine->size() == req.theirs->size() &&
            req.mine->size() == req.in_flight->size());

  const bool random_first = req.mine->count() < req.random_first_threshold;
  const std::span<const std::uint64_t> mine = req.mine->words();
  const std::span<const std::uint64_t> theirs = req.theirs->words();
  const std::span<const std::uint64_t> in_flight = req.in_flight->words();
  int best_rarity = std::numeric_limits<int>::max();
  int chosen = -1;
  // Reservoir-style tie-breaking: each equally rare candidate replaces the
  // current choice with probability 1/k, giving a uniform pick in one pass.
  // Candidates are visited in ascending piece order, which fixes the draws.
  int ties = 0;
  for (std::size_t w = 0; w < mine.size(); ++w) {
    std::uint64_t candidates = theirs[w] & ~mine[w] & ~in_flight[w];
    for (; candidates != 0; candidates &= candidates - 1) {
      const int p = static_cast<int>(w * 64) + std::countr_zero(candidates);
      const int rarity = random_first ? 0 : req.availability->count(p);
      if (rarity < best_rarity) {
        best_rarity = rarity;
        chosen = p;
        ties = 1;
      } else if (rarity == best_rarity) {
        ++ties;
        if (rng.index(static_cast<std::size_t>(ties)) == 0) chosen = p;
      }
    }
  }
  if (chosen < 0) return std::nullopt;
  return chosen;
}

}  // namespace bc::bt
