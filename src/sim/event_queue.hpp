// Priority queue of timed events with deterministic tie-breaking.
//
// Hot-path layout (this is the innermost loop of every benchmark): a
// two-tier calendar queue in front of a 4-ary heap.  Almost every event a
// simulation schedules is due within a few microseconds, so those never
// touch the heap.
//   - L0: kL0Buckets one-nanosecond buckets covering the current and the
//     next aligned kBlockNs block.  A bucket is an index-linked FIFO of
//     pooled nodes sorted by `order`: a plain event appends at the tail
//     (its seq exceeds every queued one), a keyed event is inserted into
//     the bucket's keyed prefix.  A bitmap plus one summary word per block
//     finds the first non-empty bucket in O(1).
//   - L1: kL1Blocks coarse FIFO lists, one per block after L0 (about 1 ms).
//     When the window enters a block, its list moves into L0 in list order.
//   - Far tier: the 4-ary heap of 24-byte POD entries {when, order, slot,
//     gen} keeps events beyond L1 and events scheduled behind the window.
//   - pop merges the L0 head with the heap top by (when, order), so the
//     firing order is the same total order a single heap would give.  The
//     settled top is cached: next_time() followed by pop_and_run()
//     searches once.
//   - Closures live in a stable slot table recycled through a free list;
//     an EventId packs (generation << 32 | slot).  Cancellation is O(1) and
//     lazy: a heap-resident slot is released at once (its heap entry no
//     longer matches the generation), a listed node is flagged dead and
//     released when it surfaces.
//   - schedule/cancel/pop_and_run perform no allocation at steady state:
//     closures up to InlineTask::kInlineBytes are stored in the slot
//     itself, every vector reuses its capacity, and the calendar's fixed
//     arrays (about 67 KB per queue) are allocated once.
//   - schedule / pop_and_run / the L0 and sift helpers are defined inline
//     below so the engine's run loop compiles into one flat function; a
//     simulation executes several million events per wall second, and an
//     out-of-line call per queue operation is measurable at that rate.
//     Work done once per block or per cancel lives in event_queue.cpp.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/inline_task.hpp"
#include "sim/time.hpp"

namespace nestv::sim {

/// Opaque handle that allows cancelling a scheduled event.  Never zero for
/// a scheduled event, so 0 doubles as "no timer" in client code.
using EventId = std::uint64_t;

/// Priority queue of (time, order) events.  Two events scheduled for the
/// same instant fire in scheduling order, which keeps every simulation run
/// bit-for-bit reproducible (DESIGN.md section 6).  schedule_keyed()
/// instead takes an explicit same-instant key: those events fire before
/// every plainly-scheduled event at their instant, ordered by key — the
/// sharded conductor uses it to make cross-machine frame ordering a
/// function of the frame, not of which execution mode delivered it.
class EventQueue {
 public:
  /// Keys passed to schedule_keyed() must stay below this bound (plain
  /// events occupy the band at and above it).
  static constexpr std::uint64_t kKeyLimit = std::uint64_t{1} << 63;

  EventQueue();

  /// Takes the task by rvalue reference: the closure is moved exactly once,
  /// from the caller's temporary into the slot (callers hand over lambdas
  /// or `std::move` a named task; nothing is relocated per call layer).
  EventId schedule(TimePoint when, InlineTask&& action) {
    return schedule_ordered(when, kKeyLimit | next_seq_++,
                            std::move(action));
  }

  /// Schedules with an explicit same-instant order.  At any instant, all
  /// keyed events fire (by ascending key) before any plain event; keys
  /// must be unique per instant for the order to be total.
  EventId schedule_keyed(TimePoint when, std::uint64_t key,
                         InlineTask&& action) {
    assert(key < kKeyLimit && "ordering key collides with the plain band");
    return schedule_ordered(when, key, std::move(action));
  }

  /// Cancels a scheduled event.  Cancelling an already-fired or unknown id
  /// is a safe no-op (timers routinely race their own cancellation).
  void cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest live event.  Precondition: !empty().
  [[nodiscard]] TimePoint next_time() {
    settle();
    return top_.when;
  }

  /// Removes and runs the earliest live event.  Returns its time.
  /// Precondition: !empty().
  TimePoint pop_and_run() {
    settle();
    const std::uint32_t slot = top_.slot;
    const TimePoint when = top_.when;
    if (top_in_heap_) {
      heap_pop_top();
    } else {
      l0_unlink_head(static_cast<std::uint32_t>(when & kL0Mask));
    }
    top_valid_ = false;
    // Everything left is at or after `when`, so the window may move up to
    // its block before the action schedules relative to it.
    if ((when >> kBlockBits) > block_) advance_to(when >> kBlockBits);
    // Move the closure out and free the slot *before* invoking: the action
    // may schedule (reusing this slot) or cancel its own id.
    InlineTask task = std::move(tasks_[slot]);
    release_slot(slot);
    --live_;
    task();
    return when;
  }

 private:
  static constexpr unsigned kBlockBits = 12;
  static constexpr TimePoint kBlockNs = TimePoint{1} << kBlockBits;  // 4096
  static constexpr std::uint32_t kL0Buckets = 2 * kBlockNs;          // 8192
  static constexpr TimePoint kL0Mask = kL0Buckets - 1;
  static constexpr std::uint64_t kL1Blocks = 256;
  static constexpr std::uint32_t kNil = 0xffffffffu;

  enum class State : std::uint8_t { kFree, kHeap, kListed, kListedDead };

  /// Per-slot bookkeeping, kept apart from the closures so list walks and
  /// cancellation checks stay on dense cache lines.
  struct Node {
    TimePoint when = 0;
    std::uint64_t order = 0;  ///< same-instant tie-break (key or seq band)
    std::uint32_t next = kNil;  ///< successor in an L0 bucket or L1 list
    std::uint32_t gen = 1;      ///< bumped on release; 0 never matches
    State state = State::kFree;
  };

  struct HeapEntry {
    TimePoint when = 0;
    std::uint64_t order = 0;
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };

  struct List {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  // Returns true when (aw, ao) sorts strictly before (bw, bo).
  static bool earlier(TimePoint aw, std::uint64_t ao, TimePoint bw,
                      std::uint64_t bo) {
    if (aw != bw) return aw < bw;
    return ao < bo;
  }
  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    return earlier(a.when, a.order, b.when, b.order);
  }

  static EventId make_id(std::uint32_t gen, std::uint32_t slot) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  EventId schedule_ordered(TimePoint when, std::uint64_t order,
                           InlineTask&& action) {
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(nodes_.size());
      nodes_.emplace_back();
      tasks_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    tasks_[slot] = std::move(action);
    Node& n = nodes_[slot];
    n.when = when;
    n.order = order;
    // Blocks behind the window wrap to a huge distance: far tier.
    const std::uint64_t ahead = (when >> kBlockBits) - block_;
    if (ahead < 2) {
      l0_insert(slot);
    } else if (ahead < 2 + kL1Blocks) {
      l1_append(slot);
    } else {
      n.state = State::kHeap;
      heap_push(HeapEntry{when, order, slot, n.gen});
    }
    if (top_valid_ && earlier(when, order, top_.when, top_.order)) {
      top_valid_ = false;
    }
    ++live_;
    return make_id(n.gen, slot);
  }

  // --- L0: one-nanosecond buckets -------------------------------------------

  void l0_insert(std::uint32_t slot) {
    Node& n = nodes_[slot];
    n.state = State::kListed;
    const auto b = static_cast<std::uint32_t>(n.when & kL0Mask);
    List& bucket = l0_[b];
    if (bucket.head == kNil) {
      n.next = kNil;
      bucket.head = bucket.tail = slot;
      l0_bits_[b >> 6] |= std::uint64_t{1} << (b & 63);
      l0_summary_[b >> 12] |= std::uint64_t{1} << ((b >> 6) & 63);
      return;
    }
    if (n.order >= kKeyLimit) {  // plain: the largest order queued so far
      n.next = kNil;
      nodes_[bucket.tail].next = slot;
      bucket.tail = slot;
      return;
    }
    // Keyed: sorted insert into the bucket's keyed prefix.
    std::uint32_t prev = kNil;
    std::uint32_t cur = bucket.head;
    while (cur != kNil && nodes_[cur].order < n.order) {
      prev = cur;
      cur = nodes_[cur].next;
    }
    n.next = cur;
    if (prev == kNil) {
      bucket.head = slot;
    } else {
      nodes_[prev].next = slot;
    }
    if (cur == kNil) bucket.tail = slot;
  }

  /// First non-empty bucket in window order (current block's half, then
  /// the next block's), or kNil when L0 is empty.
  [[nodiscard]] std::uint32_t l0_first() const {
    const auto half = static_cast<std::uint32_t>(block_ & 1);
    for (const std::uint32_t h : {half, half ^ 1u}) {
      if (l0_summary_[h] != 0) {
        const std::uint32_t word =
            h * 64 +
            static_cast<std::uint32_t>(std::countr_zero(l0_summary_[h]));
        return word * 64 +
               static_cast<std::uint32_t>(std::countr_zero(l0_bits_[word]));
      }
    }
    return kNil;
  }

  void l0_unlink_head(std::uint32_t b) {
    List& bucket = l0_[b];
    bucket.head = nodes_[bucket.head].next;
    if (bucket.head != kNil) return;
    bucket.tail = kNil;
    std::uint64_t& word = l0_bits_[b >> 6];
    word &= ~(std::uint64_t{1} << (b & 63));
    if (word == 0) {
      l0_summary_[b >> 12] &= ~(std::uint64_t{1} << ((b >> 6) & 63));
    }
  }

  // --- cold paths (event_queue.cpp) ------------------------------------------

  void l1_append(std::uint32_t slot);
  /// First block after L0 whose L1 list is non-empty.  Precondition:
  /// l1_nodes_ > 0.
  [[nodiscard]] std::uint64_t l1_first_block() const;
  void move_l1_block(std::uint64_t block);
  /// Makes `target` (> block_) the window's current block and moves the
  /// L1 lists that enter L0.  Precondition: no listed node lies before
  /// block `target`.
  void advance_to(std::uint64_t target);
  /// With L0 empty: advances the window to the first L1 block unless the
  /// heap top comes earlier.  Returns whether it advanced.
  bool enter_l1();

  /// Caches the earliest live event as top_.  Precondition: !empty().
  void settle() {
    if (top_valid_) return;
    assert(live_ > 0 && "settle() on empty queue");
    drop_dead_heap_prefix();
    for (;;) {
      const std::uint32_t b = l0_first();
      if (b == kNil) {
        if (l1_nodes_ > 0 && enter_l1()) continue;
        set_heap_top();
        return;
      }
      const std::uint32_t head = l0_[b].head;
      const Node& n = nodes_[head];
      if (n.state == State::kListedDead) {
        l0_unlink_head(b);
        release_slot(head);
        continue;
      }
      if (!heap_.empty() &&
          earlier(heap_.front().when, heap_.front().order, n.when, n.order)) {
        set_heap_top();
      } else {
        top_ = Top{n.when, n.order, head};
        top_in_heap_ = false;
        top_valid_ = true;
      }
      return;
    }
  }

  void set_heap_top() {
    assert(!heap_.empty() && "queue holds no live event");
    const HeapEntry& e = heap_.front();
    top_ = Top{e.when, e.order, e.slot};
    top_in_heap_ = true;
    top_valid_ = true;
  }

  // --- far tier: 4-ary heap --------------------------------------------------

  static constexpr std::size_t kArity = 4;

  // Hole-based sift-up: shift losing parents down and write `e` once,
  // rather than swapping 24-byte entries at every level.
  void heap_push(HeapEntry e) {
    std::size_t i = heap_.size();
    heap_.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!earlier(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    const HeapEntry e = heap_[i];
    for (;;) {
      const std::size_t first_child = i * kArity + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t last_child =
          first_child + kArity < n ? first_child + kArity : n;
      for (std::size_t c = first_child + 1; c < last_child; ++c) {
        if (earlier(heap_[c], heap_[best])) best = c;
      }
      if (!earlier(heap_[best], e)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = e;
  }

  void heap_pop_top() {
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
  }

  /// Discards heap entries whose slot was cancelled (generation mismatch).
  void drop_dead_heap_prefix() {
    while (!heap_.empty() &&
           nodes_[heap_.front().slot].gen != heap_.front().gen) {
      heap_pop_top();
    }
  }

  /// Frees a slot for reuse; the generation bump invalidates any handle or
  /// heap entry still referring to it.
  void release_slot(std::uint32_t slot) {
    tasks_[slot].reset();
    Node& n = nodes_[slot];
    n.state = State::kFree;
    ++n.gen;
    free_.push_back(slot);
  }

  struct Top {
    TimePoint when = 0;
    std::uint64_t order = 0;
    std::uint32_t slot = 0;
  };

  std::vector<Node> nodes_;           ///< per-slot bookkeeping
  std::vector<InlineTask> tasks_;     ///< stable closure storage
  std::vector<std::uint32_t> free_;   ///< recycled slot indices
  std::vector<HeapEntry> heap_;       ///< far tier: 4-ary min-heap
  std::vector<List> l0_;              ///< kL0Buckets one-ns buckets
  std::vector<List> l1_;              ///< kL1Blocks block lists (ring)
  std::uint64_t l0_bits_[kL0Buckets / 64] = {};
  std::uint64_t l0_summary_[2] = {};  ///< one word per L0 block half
  std::uint64_t l1_bits_[kL1Blocks / 64] = {};
  std::size_t l1_nodes_ = 0;          ///< listed in L1, dead ones included
  std::uint64_t block_ = 0;           ///< window's current block
  Top top_;                           ///< cached earliest live event
  bool top_valid_ = false;
  bool top_in_heap_ = false;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
};

}  // namespace nestv::sim
