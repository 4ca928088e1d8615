#include "bartercast/history.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "bartercast/message.hpp"
#include "util/rng.hpp"

namespace bc::bartercast {
namespace {

TEST(PrivateHistory, StartsEmpty) {
  PrivateHistory h(0);
  EXPECT_EQ(h.owner(), 0u);
  EXPECT_EQ(h.size(), 0u);
  EXPECT_EQ(h.total_uploaded(), 0);
  EXPECT_EQ(h.total_downloaded(), 0);
  EXPECT_EQ(h.uploaded_to(5), 0);
  EXPECT_EQ(h.downloaded_from(5), 0);
  EXPECT_EQ(h.find(5), nullptr);
}

TEST(PrivateHistory, RecordsAccumulate) {
  PrivateHistory h(0);
  h.record_upload(1, 100, 1.0);
  h.record_upload(1, 50, 2.0);
  h.record_download(1, 30, 3.0);
  EXPECT_EQ(h.uploaded_to(1), 150);
  EXPECT_EQ(h.downloaded_from(1), 30);
  EXPECT_EQ(h.total_uploaded(), 150);
  EXPECT_EQ(h.total_downloaded(), 30);
  EXPECT_EQ(h.size(), 1u);
  ASSERT_NE(h.find(1), nullptr);
  EXPECT_EQ(h.find(1)->last_seen, 3.0);
}

TEST(PrivateHistory, LastSeenNeverDecreases) {
  PrivateHistory h(0);
  h.record_upload(1, 10, 5.0);
  h.record_upload(1, 10, 2.0);  // late-arriving record with older stamp
  EXPECT_EQ(h.find(1)->last_seen, 5.0);
}

TEST(PrivateHistory, TouchCreatesEntryWithoutBytes) {
  PrivateHistory h(0);
  h.touch(3, 7.0);
  EXPECT_EQ(h.size(), 1u);
  EXPECT_EQ(h.uploaded_to(3), 0);
  EXPECT_EQ(h.find(3)->last_seen, 7.0);
}

TEST(PrivateHistory, TopUploadersRanksByDownloadedBytes) {
  PrivateHistory h(0);
  h.record_download(1, 100, 1.0);
  h.record_download(2, 300, 1.0);
  h.record_download(3, 200, 1.0);
  h.record_upload(4, 999, 1.0);  // upload TO 4 is irrelevant for Nh
  EXPECT_EQ(h.top_uploaders(2), (std::vector<PeerId>{2, 3}));
  EXPECT_EQ(h.top_uploaders(10).size(), 4u);
}

TEST(PrivateHistory, TopUploadersTieBreaksByLowerId) {
  PrivateHistory h(0);
  h.record_download(9, 100, 1.0);
  h.record_download(2, 100, 1.0);
  EXPECT_EQ(h.top_uploaders(1), (std::vector<PeerId>{2}));
}

TEST(PrivateHistory, MostRecentRanksByLastSeen) {
  PrivateHistory h(0);
  h.record_upload(1, 10, 1.0);
  h.record_upload(2, 10, 3.0);
  h.touch(3, 2.0);
  EXPECT_EQ(h.most_recent(2), (std::vector<PeerId>{2, 3}));
}

TEST(PrivateHistory, MostRecentTieBreaksByLowerId) {
  PrivateHistory h(0);
  h.touch(8, 1.0);
  h.touch(4, 1.0);
  EXPECT_EQ(h.most_recent(1), (std::vector<PeerId>{4}));
}

TEST(PrivateHistory, EntriesSnapshot) {
  PrivateHistory h(0);
  h.record_upload(1, 10, 1.0);
  h.record_download(2, 20, 2.0);
  const auto entries = h.entries();
  EXPECT_EQ(entries.size(), 2u);
}

TEST(PrivateHistory, EntriesAreSortedByPeerId) {
  // Regression: entries() used to surface unordered_map iteration order;
  // persistence and audits consume it, so the snapshot must be key-sorted
  // whatever the recording order.
  PrivateHistory h(0);
  for (PeerId p : {9u, 3u, 7u, 1u, 5u}) h.record_upload(p, 10, 1.0);
  const auto entries = h.entries();
  ASSERT_EQ(entries.size(), 5u);
  const std::vector<PeerId> expected{1, 3, 5, 7, 9};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(entries[i].peer, expected[i]);
  }
}

// Full-sort reference for the §3.4 selections: order every entry, keep the
// first n. The history's bounded top-n pass must agree with it exactly.
std::vector<PeerId> reference_top(const PrivateHistory& h, std::size_t n,
                                  bool by_upload) {
  std::vector<HistoryEntry> all = h.entries();
  std::sort(all.begin(), all.end(),
            [&](const HistoryEntry& a, const HistoryEntry& b) {
              if (by_upload) {
                if (a.downloaded != b.downloaded) {
                  return a.downloaded > b.downloaded;
                }
              } else if (a.last_seen != b.last_seen) {
                return a.last_seen > b.last_seen;
              }
              return a.peer < b.peer;
            });
  std::vector<PeerId> out;
  for (std::size_t i = 0; i < all.size() && i < n; ++i) {
    out.push_back(all[i].peer);
  }
  return out;
}

BarterCastMessage reference_message(const PrivateHistory& h, std::size_t nh,
                                    std::size_t nr) {
  std::vector<PeerId> peers = reference_top(h, nh, /*by_upload=*/true);
  for (PeerId p : reference_top(h, nr, /*by_upload=*/false)) {
    if (std::find(peers.begin(), peers.end(), p) == peers.end()) {
      peers.push_back(p);
    }
  }
  BarterCastMessage msg;
  msg.sender = h.owner();
  for (PeerId p : peers) {
    msg.records.push_back(
        BarterRecord{h.owner(), p, h.uploaded_to(p), h.downloaded_from(p)});
  }
  return msg;
}

// A random history over `peers` remote peers whose amounts and timestamps
// come from small sets, so `downloaded` and `last_seen` tie often.
PrivateHistory random_history(Rng& rng, int peers, int ops) {
  PrivateHistory h(0);
  for (int i = 0; i < ops; ++i) {
    const auto remote = static_cast<PeerId>(rng.uniform_int(1, peers));
    const Bytes amount = 10 * rng.uniform_int(0, 3);
    const Seconds now = static_cast<double>(rng.uniform_int(0, 4));
    switch (rng.uniform_int(0, 2)) {
      case 0: h.record_upload(remote, amount, now); break;
      case 1: h.record_download(remote, amount, now); break;
      default: h.touch(remote, now); break;
    }
  }
  return h;
}

TEST(PrivateHistorySelection, MatchesFullSortReference) {
  Rng rng(2024);
  for (int round = 0; round < 200; ++round) {
    const int peers = static_cast<int>(rng.uniform_int(1, 40));
    const PrivateHistory h =
        random_history(rng, peers, static_cast<int>(rng.uniform_int(1, 120)));
    const std::size_t size = h.size();
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{10},
                          size, size + 3}) {
      EXPECT_EQ(h.top_uploaders(n), reference_top(h, n, true)) << n;
      EXPECT_EQ(h.most_recent(n), reference_top(h, n, false)) << n;
    }
    for (std::size_t nh : {std::size_t{0}, std::size_t{1}, std::size_t{10}}) {
      for (std::size_t nr : {std::size_t{0}, std::size_t{10}, size}) {
        const BarterCastMessage built =
            build_message(h, MessageSelection{nh, nr}, 0.0);
        EXPECT_EQ(built.records, reference_message(h, nh, nr).records)
            << nh << " " << nr;
      }
    }
    const std::vector<HistoryEntry> entries = h.entries();
    ASSERT_EQ(entries.size(), size);
    for (std::size_t i = 1; i < entries.size(); ++i) {
      EXPECT_LT(entries[i - 1].peer, entries[i].peer);
    }
  }
}

TEST(PrivateHistory, LookupsSurviveGrowthWithSparseIds) {
  // Ids spread over the whole 32-bit range, including the largest valid
  // one, and enough of them to grow the entry table many times.
  PrivateHistory h(0);
  std::vector<PeerId> ids{kInvalidPeer - 1};
  for (std::uint64_t i = 1; i < 3000; ++i) {
    ids.push_back(static_cast<PeerId>(i * 2654435761u % kInvalidPeer));
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    h.record_download(ids[i], static_cast<Bytes>(i + 1), 1.0);
  }
  EXPECT_EQ(h.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(h.contains(ids[i])) << ids[i];
    EXPECT_EQ(h.downloaded_from(ids[i]), static_cast<Bytes>(i + 1));
  }
  EXPECT_FALSE(h.contains(kInvalidPeer));
  EXPECT_FALSE(h.contains(7));
  EXPECT_EQ(h.top_uploaders(2), (std::vector<PeerId>{ids.back(),
                                                     ids[ids.size() - 2]}));
}

TEST(PrivateHistoryDeathTest, OwnerEntryRejected) {
  PrivateHistory h(7);
  EXPECT_DEATH(h.record_upload(7, 10, 1.0), "owner");
}

TEST(PrivateHistoryDeathTest, NegativeAmountRejected) {
  PrivateHistory h(0);
  EXPECT_DEATH(h.record_upload(1, -10, 1.0), "amount");
}

}  // namespace
}  // namespace bc::bartercast
