#include "bartercast/history.hpp"

#include <algorithm>
#include <cstdint>

#include "util/assert.hpp"
#include "util/checked.hpp"

namespace bc::bartercast {

namespace {

// The §3.4 selection orders. Both are strict total orders (peer ids are
// unique), so a selection never depends on the order entries are stored in.
bool more_uploaded(const HistoryEntry& a, const HistoryEntry& b) {
  if (a.downloaded != b.downloaded) return a.downloaded > b.downloaded;
  return a.peer < b.peer;
}

bool more_recent(const HistoryEntry& a, const HistoryEntry& b) {
  // </> instead of != keeps the exact-tie branch explicit: equal timestamps
  // fall through to the peer-id total order.
  if (a.last_seen > b.last_seen) return true;
  if (a.last_seen < b.last_seen) return false;
  return a.peer < b.peer;
}

/// The first n occupied cells under `before`, in that order. One pass
/// through an n-slot sorted buffer: O(E log n) comparisons, not a full sort.
template <typename Before>
std::vector<const HistoryEntry*> top_n(const std::vector<HistoryEntry>& cells,
                                       std::size_t n, Before before) {
  std::vector<const HistoryEntry*> top;
  if (n == 0) return top;
  top.reserve(std::min(n, cells.size()) + 1);
  const auto by = [&](const HistoryEntry* a, const HistoryEntry* b) {
    return before(*a, *b);
  };
  for (const HistoryEntry& e : cells) {
    if (e.peer == kInvalidPeer) continue;
    if (top.size() == n && !before(e, *top.back())) continue;
    top.insert(std::upper_bound(top.begin(), top.end(), &e, by), &e);
    if (top.size() > n) top.pop_back();
  }
  return top;
}

std::vector<PeerId> peers_of(const std::vector<const HistoryEntry*>& picked) {
  std::vector<PeerId> out;
  out.reserve(picked.size());
  for (const HistoryEntry* e : picked) out.push_back(e->peer);
  return out;
}

/// Fibonacci hashing: the high product bits spread dense simulator ids.
BC_NO_SANITIZE_INTEGER std::size_t hash_of(PeerId peer) {
  return static_cast<std::size_t>(
      (std::uint64_t{peer} * 0x9e3779b97f4a7c15ull) >> 32);
}

}  // namespace

std::size_t PrivateHistory::slot_of(PeerId remote) const {
  const std::size_t mask = cells_.size() - 1;
  std::size_t i = hash_of(remote) & mask;
  while (cells_[i].peer != remote && cells_[i].peer != kInvalidPeer) {
    i = (i + 1) & mask;
  }
  return i;
}

void PrivateHistory::grow() {
  std::vector<HistoryEntry> old = std::move(cells_);
  cells_.assign(old.empty() ? 4 : old.size() * 2, HistoryEntry{});
  for (const HistoryEntry& e : old) {
    if (e.peer != kInvalidPeer) cells_[slot_of(e.peer)] = e;
  }
}

HistoryEntry& PrivateHistory::entry(PeerId remote, Seconds now) {
  BC_ASSERT_MSG(remote != owner_, "no history entry for the owner itself");
  BC_ASSERT(remote != kInvalidPeer);
  if (!cells_.empty()) {
    HistoryEntry& e = cells_[slot_of(remote)];
    if (e.peer == remote) {
      e.last_seen = std::max(e.last_seen, now);
      return e;
    }
  }
  if ((size_ + 1) * 4 > cells_.size() * 3) grow();
  HistoryEntry& e = cells_[slot_of(remote)];
  e.peer = remote;
  e.last_seen = now;
  ++size_;
  return e;
}

void PrivateHistory::record_upload(PeerId remote, Bytes amount, Seconds now) {
  BC_ASSERT(amount >= 0);
  // Owner-local ledger: a wrap here is a program bug, not adversarial
  // input, so checked (debug-asserted) addition is the right policy.
  HistoryEntry& e = entry(remote, now);
  e.uploaded = util::checked_add(e.uploaded, amount);
  total_up_ = util::checked_add(total_up_, amount);
}

void PrivateHistory::record_download(PeerId remote, Bytes amount,
                                     Seconds now) {
  BC_ASSERT(amount >= 0);
  HistoryEntry& e = entry(remote, now);
  e.downloaded = util::checked_add(e.downloaded, amount);
  total_down_ = util::checked_add(total_down_, amount);
}

void PrivateHistory::touch(PeerId remote, Seconds now) { entry(remote, now); }

Bytes PrivateHistory::uploaded_to(PeerId remote) const {
  const HistoryEntry* e = find(remote);
  return e == nullptr ? 0 : e->uploaded;
}

Bytes PrivateHistory::downloaded_from(PeerId remote) const {
  const HistoryEntry* e = find(remote);
  return e == nullptr ? 0 : e->downloaded;
}

std::vector<PeerId> PrivateHistory::top_uploaders(std::size_t n) const {
  return peers_of(top_n(cells_, n, more_uploaded));
}

std::vector<PeerId> PrivateHistory::most_recent(std::size_t n) const {
  return peers_of(top_n(cells_, n, more_recent));
}

std::vector<const HistoryEntry*> PrivateHistory::select(std::size_t nh,
                                                        std::size_t nr) const {
  std::vector<const HistoryEntry*> out = top_n(cells_, nh, more_uploaded);
  for (const HistoryEntry* e : top_n(cells_, nr, more_recent)) {
    if (std::find(out.begin(), out.end(), e) == out.end()) out.push_back(e);
  }
  return out;
}

std::vector<HistoryEntry> PrivateHistory::entries() const {
  std::vector<HistoryEntry> out;
  out.reserve(size_);
  for (const HistoryEntry& e : cells_) {
    if (e.peer != kInvalidPeer) out.push_back(e);
  }
  std::sort(out.begin(), out.end(),
            [](const HistoryEntry& a, const HistoryEntry& b) {
              return a.peer < b.peer;
            });
  return out;
}

const HistoryEntry* PrivateHistory::find(PeerId remote) const {
  if (cells_.empty() || remote == kInvalidPeer) return nullptr;
  const HistoryEntry& e = cells_[slot_of(remote)];
  return e.peer == remote ? &e : nullptr;
}

}  // namespace bc::bartercast
