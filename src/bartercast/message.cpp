#include "bartercast/message.hpp"

#include "util/assert.hpp"

namespace bc::bartercast {

BarterCastMessage build_message(const PrivateHistory& history,
                                const MessageSelection& selection,
                                Seconds now) {
  BarterCastMessage msg;
  msg.sender = history.owner();
  msg.sent_at = now;
  const std::vector<const HistoryEntry*> picked =
      history.select(selection.nh, selection.nr);
  msg.records.reserve(picked.size());
  for (const HistoryEntry* e : picked) {
    BarterRecord r;
    r.subject = history.owner();
    r.other = e->peer;
    r.subject_to_other = e->uploaded;
    r.other_to_subject = e->downloaded;
    msg.records.push_back(r);
  }
  return msg;
}

BarterCastMessage build_lying_message(const PrivateHistory& history,
                                      const MessageSelection& selection,
                                      Bytes claimed_upload, Seconds now) {
  BC_ASSERT(claimed_upload >= 0);
  BarterCastMessage msg = build_message(history, selection, now);
  for (auto& r : msg.records) {
    r.subject_to_other = claimed_upload;
    r.other_to_subject = 0;
  }
  return msg;
}

}  // namespace bc::bartercast
