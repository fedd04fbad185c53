// EventQueue stress test: randomized schedule/cancel interleavings checked
// against a deliberately naive reference model.
//
// The production queue is a two-tier calendar (one-ns L0 buckets, per-block
// L1 lists) in front of a 4-ary heap, over recycled slots with lazy
// cancellation.  The reference is a flat vector scanned linearly for the
// (when, order) minimum — too slow to ship, but trivially correct.  Any
// divergence in execution order, fired set, or size accounting is a bug in
// the clever structure, not the model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace nestv::sim {
namespace {

/// Reference model: O(n) scan for the earliest live event, strict
/// (when, order) order, eager cancellation.  Orders use the production
/// queue's bands: keys below EventQueue::kKeyLimit, plain events above.
class NaiveQueue {
 public:
  // Returns a model-level id (the schedule count doubles as the handle).
  std::uint64_t schedule(TimePoint when) {
    return push(when, EventQueue::kKeyLimit | next_seq_++);
  }

  std::uint64_t schedule_keyed(TimePoint when, std::uint64_t key) {
    return push(when, key);
  }

  void cancel(std::uint64_t id) {
    for (Entry& e : entries_) {
      if (e.id == id && e.live) {
        e.live = false;
        return;
      }
    }
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const Entry& e : entries_) n += e.live;
    return n;
  }

  [[nodiscard]] TimePoint next_time() const { return entries_[best()].when; }

  /// Pops the earliest live entry; returns its id.  Precondition: size()>0.
  std::uint64_t pop_min() {
    Entry& e = entries_[best()];
    e.live = false;
    last_when_ = e.when;
    return e.id;
  }

  /// Time of the last popped entry.
  [[nodiscard]] TimePoint last_when() const { return last_when_; }

 private:
  struct Entry {
    TimePoint when;
    std::uint64_t order;
    std::uint64_t id;
    bool live;
  };
  static bool earlier(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.order < b.order;
  }
  std::uint64_t push(TimePoint when, std::uint64_t order) {
    entries_.push_back(Entry{when, order, next_id_, true});
    return next_id_++;
  }
  [[nodiscard]] std::size_t best() const {
    std::size_t best = entries_.size();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (!entries_[i].live) continue;
      if (best == entries_.size() || earlier(entries_[i], entries_[best])) {
        best = i;
      }
    }
    return best;
  }
  std::vector<Entry> entries_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_id_ = 0;
  TimePoint last_when_ = 0;
};

/// One randomized episode: mixed schedules (with deliberately colliding
/// timestamps), cancellations, and partial drains, then a full drain.
/// `fired` sequences from both queues must match exactly.
void run_episode(std::uint64_t seed) {
  Rng rng(seed);
  EventQueue q;
  NaiveQueue ref;

  std::vector<std::uint64_t> fired_q, fired_ref;
  // Maps the model id -> production EventId for cancellation.
  std::vector<std::pair<std::uint64_t, EventId>> live_ids;

  const int kOps = 2000;
  for (int op = 0; op < kOps; ++op) {
    const auto dice = rng.uniform_int(0, 9);
    if (dice < 5 || q.empty()) {
      // Schedule.  Timestamps collide on purpose: only 16 distinct values,
      // so same-instant tie-breaking is exercised constantly.
      const TimePoint when = static_cast<TimePoint>(rng.uniform_int(0, 15));
      const std::uint64_t mseq = ref.schedule(when);
      const EventId id =
          q.schedule(when, [mseq, &fired_q] { fired_q.push_back(mseq); });
      EXPECT_NE(id, 0u) << "EventId 0 is reserved for 'no timer'";
      live_ids.emplace_back(mseq, id);
    } else if (dice < 7 && !live_ids.empty()) {
      // Cancel a random pending event.
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(live_ids.size()) - 1));
      ref.cancel(live_ids[idx].first);
      q.cancel(live_ids[idx].second);
      live_ids.erase(live_ids.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (dice < 8 && !live_ids.empty()) {
      // Double-cancel / cancel-after-fire: re-cancel an id that may have
      // already fired or been cancelled.  Must be a no-op in both models.
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(live_ids.size()) - 1));
      ref.cancel(live_ids[idx].first);
      q.cancel(live_ids[idx].second);
      ref.cancel(live_ids[idx].first);
      q.cancel(live_ids[idx].second);
      live_ids.erase(live_ids.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      // Partial drain.
      const int n = rng.uniform_int(1, 4);
      for (int i = 0; i < n && !q.empty(); ++i) {
        q.pop_and_run();
        fired_ref.push_back(ref.pop_min());
        std::erase_if(live_ids, [&](const auto& p) {
          return p.first == fired_ref.back();
        });
      }
    }
    ASSERT_EQ(q.size(), ref.size()) << "size diverged at op " << op;
    ASSERT_EQ(q.empty(), ref.size() == 0);
  }

  while (!q.empty()) {
    q.pop_and_run();
    fired_ref.push_back(ref.pop_min());
  }
  EXPECT_EQ(ref.size(), 0u);
  ASSERT_EQ(fired_q, fired_ref) << "execution order diverged, seed " << seed;
}

class EventQueueStress : public ::testing::TestWithParam<int> {};

TEST_P(EventQueueStress, MatchesNaiveReference) {
  run_episode(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueStress, ::testing::Range(0, 12));

/// Draws an absolute time relative to the last pop, covering every tier of
/// the calendar queue and the edges between them.
TimePoint draw_when(Rng& rng, TimePoint now) {
  constexpr TimePoint kBlock = 4096;
  switch (rng.uniform_int(0, 9)) {
    case 0:
      return now;  // the current instant
    case 1:
    case 2:
      return now + rng.uniform_int(1, kBlock - 1);  // under one block
    case 3:
      return now + rng.uniform_int(1, 24);  // dense: many same-instant hits
    case 4:
    case 5:
      return now + rng.uniform_int(kBlock, milliseconds(1));  // one block..1 ms
    case 6:
      // Beyond ~1 ms: the far tier.
      return now + rng.uniform_int(milliseconds(1), milliseconds(40));
    case 7: {
      // A block edge: first or last ns of a block up to ~260 blocks ahead
      // (L0/L1 and L1/heap boundaries included).
      const TimePoint block = (now / kBlock) + rng.uniform_int(0, 260);
      const TimePoint t =
          block * kBlock + (rng.uniform_int(0, 1) ? kBlock - 1 : 0);
      return t < now ? now : t;
    }
    default:
      // Behind the last pop (and often behind the window's block).
      return now - rng.uniform_int(0, std::min<TimePoint>(now, 3 * kBlock));
  }
}

/// One randomized episode over all tiers: plain and keyed events (often at
/// an instant already queued), cancels in every tier, double cancels,
/// next_time() peeks between schedules, partial drains, and drains to
/// empty followed by a far jump.  Fill phases (few pops) alternate with
/// drain phases so the queue also runs deep.  Checks every pop against the
/// model.
void run_tier_episode(std::uint64_t seed) {
  Rng rng(seed);
  EventQueue q;
  NaiveQueue ref;
  std::vector<std::uint64_t> fired_q;
  std::vector<std::pair<std::uint64_t, EventId>> pending;  // model id -> id
  std::vector<TimePoint> instants;  // recently used times, for collisions
  std::uint64_t key_serial = 0;
  TimePoint now = 0;
  std::size_t max_depth = 0;

  auto pop_one = [&](int op) {
    const TimePoint t = q.pop_and_run();
    const std::uint64_t want = ref.pop_min();
    ASSERT_FALSE(fired_q.empty());
    ASSERT_EQ(fired_q.back(), want) << "order diverged at op " << op;
    ASSERT_EQ(t, ref.last_when()) << "time diverged at op " << op;
    now = t;
    std::erase_if(pending, [&](const auto& p) { return p.first == want; });
  };

  const int kOps = 3000;
  for (int op = 0; op < kOps; ++op) {
    const bool filling = (op / 400) % 2 == 0;
    const auto dice = rng.uniform_int(0, 999);
    if (dice < 450 || q.empty()) {
      TimePoint when = draw_when(rng, now);
      if (!instants.empty() && rng.uniform_int(0, 3) == 0) {
        when = instants[rng.uniform_int(0, instants.size() - 1)];
      }
      instants.push_back(when);
      if (instants.size() > 32) instants.erase(instants.begin());
      std::uint64_t mid;
      EventId id;
      if (rng.uniform_int(0, 2) == 0) {
        // Unique keys in random order: the high part is random.
        const std::uint64_t key =
            (rng.uniform_int(0, 1u << 20) << 32) | key_serial++;
        mid = ref.schedule_keyed(when, key);
        id = q.schedule_keyed(when, key,
                              [mid, &fired_q] { fired_q.push_back(mid); });
      } else {
        mid = ref.schedule(when);
        id = q.schedule(when, [mid, &fired_q] { fired_q.push_back(mid); });
      }
      ASSERT_NE(id, 0u);
      pending.emplace_back(mid, id);
    } else if (dice < 570) {
      ASSERT_EQ(q.next_time(), ref.next_time()) << "peek diverged at op " << op;
    } else if (dice < 670 && !pending.empty()) {
      const auto idx = rng.uniform_int(0, pending.size() - 1);
      ref.cancel(pending[idx].first);
      q.cancel(pending[idx].second);
      if (rng.uniform_int(0, 3) == 0) q.cancel(pending[idx].second);  // twice
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (dice < 673) {
      // Drain to empty, then jump far ahead (possibly to an odd block).
      while (!q.empty()) {
        pop_one(op);
        if (::testing::Test::HasFatalFailure()) return;
      }
      const TimePoint when = now + rng.uniform_int(milliseconds(2), seconds(3));
      const std::uint64_t mid = ref.schedule(when);
      pending.emplace_back(
          mid, q.schedule(when, [mid, &fired_q] { fired_q.push_back(mid); }));
    } else if (!filling || rng.uniform_int(0, 3) == 0) {
      const auto n = filling ? 1 : rng.uniform_int(1, 6);
      for (std::uint64_t i = 0; i < n && !q.empty(); ++i) {
        pop_one(op);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    ASSERT_EQ(q.size(), ref.size()) << "size diverged at op " << op;
    max_depth = std::max(max_depth, q.size());
  }
  while (!q.empty()) {
    pop_one(kOps);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(ref.size(), 0u);
  EXPECT_GE(max_depth, 40u) << "episode never built a deep queue";
}

class EventQueueTiers : public ::testing::TestWithParam<int> {};

TEST_P(EventQueueTiers, MatchesNaiveReference) {
  run_tier_episode(static_cast<std::uint64_t>(GetParam()) * 104729 + 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueTiers, ::testing::Range(0, 16));

/// A queue whose events record their label in `fired` when they run.
struct Recorder {
  EventQueue q;
  std::vector<int> fired;
  EventId plain(TimePoint when, int label) {
    return q.schedule(when, [this, label] { fired.push_back(label); });
  }
  EventId keyed(TimePoint when, std::uint64_t key, int label) {
    return q.schedule_keyed(when, key,
                            [this, label] { fired.push_back(label); });
  }
  void drain() {
    while (!q.empty()) q.pop_and_run();
  }
};

TEST(EventQueueTiers, KeyedEventsKeepKeyOrderWhenMovedFromL1) {
  // All four land in one block ~100 us ahead (the L1 tier); a plain event
  // is scheduled first and keys arrive out of order.
  Recorder r;
  const TimePoint t = microseconds(100);
  r.plain(t, 3);
  r.keyed(t, 20, 2);
  r.keyed(t, 10, 1);
  r.plain(t, 4);
  r.keyed(t, 5, 0);
  r.drain();
  EXPECT_EQ(r.fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTiers, OddBlockWindowPopsCurrentBlockFirst) {
  // Move the window to an odd block, then queue one event in it and one in
  // the next block: the next block's buckets sit lower in the ring.
  Recorder r;
  r.plain(4096 * 3 + 10, 0);
  r.q.pop_and_run();  // window now at block 3
  r.plain(4096 * 4 + 1, 2);
  r.plain(4096 * 3 + 4000, 1);
  r.drain();
  EXPECT_EQ(r.fired, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueTiers, ScheduleAfterPeekCanBecomeTheTop) {
  Recorder r;
  r.plain(5000, 2);
  r.plain(milliseconds(50), 3);  // heap tier
  EXPECT_EQ(r.q.next_time(), 5000u);
  r.plain(100, 0);  // earlier than the peeked top, in L0
  EXPECT_EQ(r.q.next_time(), 100u);
  r.keyed(100, 1, -1);  // same instant, keyed: fires first
  EXPECT_EQ(r.q.pop_and_run(), 100u);
  r.keyed(100, 7, 1);  // keyed beats the plain event still queued at 100
  r.drain();
  EXPECT_EQ(r.fired, (std::vector<int>{-1, 1, 0, 2, 3}));
}

TEST(EventQueueTiers, CancelInEveryTierAndBehindTheWindow) {
  Recorder r;
  r.plain(4096 * 5, 0);
  r.q.pop_and_run();  // window at block 5
  const EventId behind = r.plain(10, 1);               // heap (behind)
  const EventId near = r.plain(4096 * 5 + 7, 2);       // L0
  const EventId mid = r.plain(4096 * 40, 3);           // L1
  const EventId far = r.plain(seconds(1), 4);          // heap (far)
  r.plain(4096 * 5 + 7, 5);                            // survives
  EXPECT_EQ(r.q.next_time(), 10u);
  for (EventId id : {behind, near, mid, far}) r.q.cancel(id);
  EXPECT_EQ(r.q.size(), 1u);
  EXPECT_EQ(r.q.next_time(), 4096u * 5 + 7);
  r.drain();
  EXPECT_EQ(r.fired, (std::vector<int>{0, 5}));
  // Every cancelled id is now stale; cancelling again is a no-op.
  for (EventId id : {behind, near, mid, far}) r.q.cancel(id);
  EXPECT_TRUE(r.q.empty());
}

TEST(EventQueueTiers, DrainThenFarJumpKeepsNearTierUsable) {
  Recorder r;
  r.plain(seconds(2) + 3, 0);
  r.drain();
  // The window followed the jump: near-future events after it still fire
  // in order, including one behind the last pop.
  r.plain(seconds(2) + 4, 2);
  r.plain(seconds(2) + 2, 1);
  r.plain(seconds(2) + 4096 * 3, 3);
  r.drain();
  EXPECT_EQ(r.fired, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueueStress, SelfCancellingTimerIsSafe) {
  // A timer that cancels its own id while running: the slot was already
  // released before invocation, so the cancel must be a no-op — not a
  // double free of the slot or a corruption of a recycled generation.
  EventQueue q;
  EventId self = 0;
  int ran = 0;
  self = q.schedule(10, [&] {
    ++ran;
    q.cancel(self);
  });
  // A second event at the same instant must still fire afterwards.
  q.schedule(10, [&] { ++ran; });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(ran, 2);
}

TEST(EventQueueStress, CancelAfterFireIsNoOpEvenWhenSlotIsRecycled) {
  EventQueue q;
  int first = 0, second = 0;
  const EventId a = q.schedule(1, [&] { ++first; });
  q.pop_and_run();
  EXPECT_EQ(first, 1);
  // The slot is recycled by the next schedule; the stale id must not be
  // able to cancel the new occupant (generation mismatch).
  const EventId b = q.schedule(2, [&] { ++second; });
  EXPECT_NE(a, b);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop_and_run();
  EXPECT_EQ(second, 1);
}

TEST(EventQueueStress, RescheduleStormAtOneInstant) {
  // Heavy churn at a single timestamp: schedule 1000, cancel every other
  // one, then verify survivors fire in exact scheduling order.
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.schedule(5, [i, &fired] { fired.push_back(i); }));
  }
  for (int i = 0; i < 1000; i += 2) {
    q.cancel(ids[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(q.size(), 500u);
  while (!q.empty()) q.pop_and_run();
  ASSERT_EQ(fired.size(), 500u);
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], static_cast<int>(i) * 2 + 1);
  }
}

}  // namespace
}  // namespace nestv::sim
