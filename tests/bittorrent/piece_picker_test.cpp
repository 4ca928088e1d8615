#include "bittorrent/piece_picker.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <set>

namespace bc::bt {
namespace {

struct PickerFixture : ::testing::Test {
  PickerFixture()
      : mine(8), theirs(8, true), availability(8), in_flight(8), rng(1) {}

  PickRequest request() {
    PickRequest req;
    req.mine = &mine;
    req.theirs = &theirs;
    req.availability = &availability;
    req.in_flight = &in_flight;
    req.random_first_threshold = 0;  // pure rarest-first unless overridden
    return req;
  }

  Bitfield mine;
  Bitfield theirs;
  Availability availability;
  Bitfield in_flight;
  Rng rng;
};

TEST_F(PickerFixture, PicksRarestPiece) {
  // Piece 5 is the rarest (availability 1), everything else higher.
  for (int p = 0; p < 8; ++p) {
    for (int c = 0; c < (p == 5 ? 1 : 3); ++c) availability.add_piece(p);
  }
  const auto pick = pick_piece(request(), rng);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 5);
}

TEST_F(PickerFixture, SkipsOwnedPieces) {
  for (int p = 0; p < 8; ++p) availability.add_piece(p);
  for (int p = 0; p < 7; ++p) mine.set(p);
  const auto pick = pick_piece(request(), rng);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 7);
}

TEST_F(PickerFixture, SkipsPiecesUploaderLacks) {
  Bitfield partial(8);
  partial.set(3);
  auto req = request();
  req.theirs = &partial;
  const auto pick = pick_piece(req, rng);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 3);
}

TEST_F(PickerFixture, SkipsInFlight) {
  Bitfield partial(8);
  partial.set(3);
  partial.set(4);
  in_flight.set(3);
  auto req = request();
  req.theirs = &partial;
  const auto pick = pick_piece(req, rng);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 4);
}

TEST_F(PickerFixture, NothingUsefulReturnsNullopt) {
  Bitfield nothing(8);
  auto req = request();
  req.theirs = &nothing;
  EXPECT_FALSE(pick_piece(req, rng).has_value());
}

TEST_F(PickerFixture, CompleteDownloaderGetsNothing) {
  for (int p = 0; p < 8; ++p) mine.set(p);
  EXPECT_FALSE(pick_piece(request(), rng).has_value());
}

TEST_F(PickerFixture, AllInFlightReturnsNullopt) {
  for (int p = 0; p < 8; ++p) in_flight.set(p);
  EXPECT_FALSE(pick_piece(request(), rng).has_value());
}

TEST_F(PickerFixture, RandomFirstIgnoresRarity) {
  // With the random-first threshold active, common pieces are fair game.
  for (int p = 0; p < 8; ++p) {
    for (int c = 0; c < (p == 5 ? 1 : 3); ++c) availability.add_piece(p);
  }
  auto req = request();
  req.random_first_threshold = 4;  // mine.count()==0 < 4 -> random mode
  std::set<int> chosen;
  for (int i = 0; i < 200; ++i) {
    const auto pick = pick_piece(req, rng);
    ASSERT_TRUE(pick.has_value());
    chosen.insert(*pick);
  }
  EXPECT_GT(chosen.size(), 4u);  // spread, not always the rarest
}

TEST_F(PickerFixture, RarestTieBrokenUniformlyIsh) {
  // Pieces 2 and 6 equally rare; both must be chosen sometimes.
  for (int p = 0; p < 8; ++p) {
    for (int c = 0; c < ((p == 2 || p == 6) ? 1 : 5); ++c) {
      availability.add_piece(p);
    }
  }
  std::set<int> chosen;
  for (int i = 0; i < 100; ++i) {
    chosen.insert(*pick_piece(request(), rng));
  }
  EXPECT_EQ(chosen, (std::set<int>{2, 6}));
}

// Per-bit reference picker: the scan pick_piece did before it went
// word-parallel. Same candidates in the same ascending order, so the same
// reservoir draws.
std::optional<int> reference_pick(const PickRequest& req, Rng& rng) {
  const bool random_first = req.mine->count() < req.random_first_threshold;
  int best_rarity = std::numeric_limits<int>::max();
  int chosen = -1;
  int ties = 0;
  for (int p = 0; p < req.mine->size(); ++p) {
    if (req.mine->get(p) || !req.theirs->get(p)) continue;
    if (req.in_flight->get(p)) continue;
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
  if (chosen < 0) return std::nullopt;
  return chosen;
}

Bitfield random_bitfield(int n, double density, Rng& gen) {
  Bitfield b(n);
  for (int p = 0; p < n; ++p) {
    if (gen.chance(density)) b.set(p);
  }
  return b;
}

TEST(PickPiece, MatchesPerBitReference) {
  Rng gen(99);
  for (int n : {1, 63, 64, 65, 1000}) {
    for (int trial = 0; trial < 60; ++trial) {
      const Bitfield mine = random_bitfield(n, gen.uniform(), gen);
      const Bitfield theirs = random_bitfield(n, gen.uniform(), gen);
      const Bitfield in_flight = random_bitfield(n, gen.uniform(0.0, 0.3), gen);
      Availability availability(n);
      for (int p = 0; p < n; ++p) {
        for (auto c = gen.uniform_int(0, 3); c > 0; --c) {
          availability.add_piece(p);
        }
      }
      for (int threshold : {0, std::numeric_limits<int>::max()}) {
        PickRequest req;
        req.mine = &mine;
        req.theirs = &theirs;
        req.availability = &availability;
        req.in_flight = &in_flight;
        req.random_first_threshold = threshold;  // 0 rarest, max random
        Rng fast(gen());
        Rng slow = fast;
        EXPECT_EQ(pick_piece(req, fast), reference_pick(req, slow))
            << "n=" << n << " trial=" << trial;
        // Same draws consumed: the generators continue identically.
        for (int k = 0; k < 4; ++k) EXPECT_EQ(fast(), slow());
      }
    }
  }
}

TEST(Availability, TracksBitfields) {
  Availability a(4);
  Bitfield b(4);
  b.set(1);
  b.set(2);
  a.add_bitfield(b);
  EXPECT_EQ(a.count(0), 0);
  EXPECT_EQ(a.count(1), 1);
  a.add_piece(1);
  EXPECT_EQ(a.count(1), 2);
  a.remove_bitfield(b);
  EXPECT_EQ(a.count(1), 1);
  EXPECT_EQ(a.count(2), 0);
}

TEST(AvailabilityDeathTest, RemoveBelowZero) {
  Availability a(2);
  Bitfield b(2);
  b.set(0);
  EXPECT_DEATH(a.remove_bitfield(b), "");
}

}  // namespace
}  // namespace bc::bt
