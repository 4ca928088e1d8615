#include "bittorrent/bitfield.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace bc::bt {
namespace {

TEST(Bitfield, EmptyStart) {
  Bitfield b(10);
  EXPECT_EQ(b.size(), 10);
  EXPECT_EQ(b.count(), 0);
  EXPECT_TRUE(b.empty());
  EXPECT_FALSE(b.complete());
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(b.get(i));
}

TEST(Bitfield, FilledStart) {
  Bitfield b(10, /*filled=*/true);
  EXPECT_EQ(b.count(), 10);
  EXPECT_TRUE(b.complete());
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(b.get(i));
}

TEST(Bitfield, SetReturnsFreshness) {
  Bitfield b(5);
  EXPECT_TRUE(b.set(2));
  EXPECT_FALSE(b.set(2));
  EXPECT_EQ(b.count(), 1);
  EXPECT_TRUE(b.get(2));
  EXPECT_FALSE(b.get(1));
}

TEST(Bitfield, CompleteAfterAllSet) {
  Bitfield b(3);
  b.set(0);
  b.set(1);
  EXPECT_FALSE(b.complete());
  b.set(2);
  EXPECT_TRUE(b.complete());
}

TEST(Bitfield, WordBoundarySizes) {
  for (int n : {1, 63, 64, 65, 128, 129}) {
    Bitfield b(n, /*filled=*/true);
    EXPECT_EQ(b.count(), n) << "n=" << n;
    EXPECT_TRUE(b.complete()) << "n=" << n;
    Bitfield e(n);
    e.set(n - 1);
    EXPECT_EQ(e.count(), 1) << "n=" << n;
    EXPECT_TRUE(e.get(n - 1)) << "n=" << n;
  }
}

TEST(Bitfield, InterestingDetection) {
  Bitfield mine(4), theirs(4);
  EXPECT_FALSE(mine.is_interesting(theirs));  // both empty
  theirs.set(2);
  EXPECT_TRUE(mine.is_interesting(theirs));
  mine.set(2);
  EXPECT_FALSE(mine.is_interesting(theirs));  // nothing new
  mine.set(3);
  EXPECT_FALSE(mine.is_interesting(theirs));  // we are ahead
}

TEST(Bitfield, SeedNotInterestedInAnyone) {
  Bitfield seed(8, true), leecher(8);
  leecher.set(1);
  EXPECT_FALSE(seed.is_interesting(leecher));
  EXPECT_TRUE(leecher.is_interesting(seed));
}

TEST(Bitfield, ResetReturnsWhetherSetAndKeepsCount) {
  Bitfield b(70);
  b.set(3);
  b.set(64);
  b.set(69);
  EXPECT_TRUE(b.reset(64));
  EXPECT_EQ(b.count(), 2);
  EXPECT_FALSE(b.get(64));
  EXPECT_FALSE(b.reset(64));  // a second reset is a no-op
  EXPECT_EQ(b.count(), 2);
  EXPECT_FALSE(b.reset(5));  // never set
  EXPECT_EQ(b.count(), 2);
  EXPECT_TRUE(b.get(3));
  EXPECT_TRUE(b.get(69));
}

TEST(Bitfield, ResetUndoesFilled) {
  Bitfield b(65, /*filled=*/true);
  EXPECT_TRUE(b.reset(0));
  EXPECT_TRUE(b.reset(64));
  EXPECT_EQ(b.count(), 63);
  EXPECT_FALSE(b.complete());
  EXPECT_TRUE(b.set(64));
  EXPECT_EQ(b.count(), 64);
}

TEST(Bitfield, WordsHoldPackedBitsWithCleanTail) {
  Bitfield b(65, /*filled=*/true);
  ASSERT_EQ(b.words().size(), 2u);
  EXPECT_EQ(b.words()[0], ~std::uint64_t{0});
  EXPECT_EQ(b.words()[1], std::uint64_t{1});
}

TEST(Bitfield, IntersectsDetectsCommonPiece) {
  Bitfield a(100), b(100);
  EXPECT_FALSE(a.intersects(b));
  a.set(70);
  b.set(71);
  EXPECT_FALSE(a.intersects(b));
  b.set(70);
  EXPECT_TRUE(a.intersects(b));
  EXPECT_TRUE(b.intersects(a));
}

TEST(BitfieldDeathTest, OutOfRange) {
  Bitfield b(4);
  EXPECT_DEATH(b.get(4), "piece");
  EXPECT_DEATH(b.set(-1), "piece");
}

TEST(BitfieldDeathTest, ResetOutOfRange) {
  Bitfield b(4);
  EXPECT_DEATH(b.reset(4), "piece");
}

}  // namespace
}  // namespace bc::bt
