// Private transfer history (paper §3.4).
//
// "The private history at peer i is a table where an entry (j, up, down) is
// a record of the number of bytes peer i has uploaded to, respectively
// downloaded from, peer j." The table additionally remembers when each peer
// was last seen, because message construction selects "the Nr peers most
// recently seen by i" besides the Nh peers with the highest upload to i.
#pragma once

#include <cstddef>
#include <vector>

#include "util/ids.hpp"
#include "util/units.hpp"

namespace bc::bartercast {

struct HistoryEntry {
  PeerId peer = kInvalidPeer;
  Bytes uploaded = 0;    // bytes the owner uploaded to `peer`
  Bytes downloaded = 0;  // bytes the owner downloaded from `peer`
  Seconds last_seen = 0.0;
};

class PrivateHistory {
 public:
  explicit PrivateHistory(PeerId owner) : owner_(owner) {}

  PeerId owner() const { return owner_; }

  /// Records `amount` bytes uploaded by the owner to `remote` at time `now`.
  void record_upload(PeerId remote, Bytes amount, Seconds now);
  /// Records `amount` bytes downloaded by the owner from `remote`.
  void record_download(PeerId remote, Bytes amount, Seconds now);
  /// Marks `remote` as seen without a transfer (e.g. a gossip exchange).
  void touch(PeerId remote, Seconds now);

  Bytes uploaded_to(PeerId remote) const;
  Bytes downloaded_from(PeerId remote) const;

  Bytes total_uploaded() const { return total_up_; }
  Bytes total_downloaded() const { return total_down_; }
  std::size_t size() const { return size_; }
  bool contains(PeerId remote) const { return find(remote) != nullptr; }

  /// The n peers with the highest upload *to the owner* (i.e. highest
  /// `downloaded`), the Nh selection of §3.4. Deterministic: ties break
  /// toward the lower peer id.
  std::vector<PeerId> top_uploaders(std::size_t n) const;

  /// The n most recently seen peers (the Nr selection). Ties break toward
  /// the lower peer id.
  std::vector<PeerId> most_recent(std::size_t n) const;

  /// The deduplicated Nh + Nr selection of §3.4: the `nh` top uploaders,
  /// then those of the `nr` most recently seen peers not already chosen.
  /// The pointers are invalidated by any later record or touch.
  std::vector<const HistoryEntry*> select(std::size_t nh,
                                          std::size_t nr) const;

  /// Snapshot of all entries, sorted by peer id (deterministic across runs
  /// and standard-library implementations).
  std::vector<HistoryEntry> entries() const;

  /// The entry for `remote`, or nullptr. Invalidated like select().
  const HistoryEntry* find(PeerId remote) const;

 private:
  HistoryEntry& entry(PeerId remote, Seconds now);
  // The cell holding `remote`, else the free cell its probe ends at.
  std::size_t slot_of(PeerId remote) const;
  void grow();

  PeerId owner_;
  // Entries in one flat open-addressed table keyed by peer (linear probing,
  // at most 3/4 full; a cell whose peer is kInvalidPeer is free; entries
  // are never removed). Selections scan the cells directly, so no result
  // depends on hash-map iteration order, and a lookup is one probe run.
  std::vector<HistoryEntry> cells_;  // power-of-two sized, or empty
  std::size_t size_ = 0;
  Bytes total_up_ = 0;
  Bytes total_down_ = 0;
};

}  // namespace bc::bartercast
