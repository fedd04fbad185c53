#include "sim/event_queue.hpp"

#include <algorithm>

namespace nestv::sim {

// Everything the run loop touches per event lives inline in the header;
// below are cancellation and the L1 paths, which run once per cancel, per
// event beyond L0, or per block of simulated time.

EventQueue::EventQueue() : l0_(kL0Buckets), l1_(kL1Blocks) {}

void EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  // Ids that already fired (or were never scheduled) no longer match their
  // slot's generation and are ignored, so self-cancelling timers are
  // harmless.
  if (slot >= nodes_.size()) return;
  Node& n = nodes_[slot];
  if (n.gen != gen) return;
  if (n.state == State::kHeap) {
    release_slot(slot);
  } else if (n.state == State::kListed) {
    // Still linked into a bucket or block list: drop the closure now, free
    // the node when it surfaces.
    n.state = State::kListedDead;
    tasks_[slot].reset();
  } else {
    return;
  }
  if (top_valid_ && top_.slot == slot) top_valid_ = false;
  --live_;
}

void EventQueue::l1_append(std::uint32_t slot) {
  Node& n = nodes_[slot];
  n.state = State::kListed;
  n.next = kNil;
  const std::uint64_t ring = (n.when >> kBlockBits) % kL1Blocks;
  List& list = l1_[ring];
  if (list.head == kNil) {
    list.head = slot;
    l1_bits_[ring / 64] |= std::uint64_t{1} << (ring % 64);
  } else {
    nodes_[list.tail].next = slot;
  }
  list.tail = slot;
  ++l1_nodes_;
}

std::uint64_t EventQueue::l1_first_block() const {
  // The ring holds blocks block_+2 .. block_+1+kL1Blocks; scan it from the
  // first of them, wrapping once (the start word is visited twice: its
  // high bits first, its low bits last).
  const std::uint64_t start = (block_ + 2) % kL1Blocks;
  const std::uint64_t first_word = start / 64;
  const unsigned shift = static_cast<unsigned>(start % 64);
  constexpr std::uint64_t kWords = kL1Blocks / 64;
  for (std::uint64_t k = 0; k <= kWords; ++k) {
    const std::uint64_t w = (first_word + k) % kWords;
    std::uint64_t bits = l1_bits_[w];
    if (k == 0) bits &= ~std::uint64_t{0} << shift;
    if (k == kWords) bits &= ~(~std::uint64_t{0} << shift);
    if (bits != 0) {
      const std::uint64_t ring =
          w * 64 + static_cast<std::uint64_t>(std::countr_zero(bits));
      return block_ + 2 + (ring + kL1Blocks - start) % kL1Blocks;
    }
  }
  assert(false && "l1_first_block() with no listed L1 node");
  return block_ + 2;
}

void EventQueue::move_l1_block(std::uint64_t block) {
  const std::uint64_t ring = block % kL1Blocks;
  List& list = l1_[ring];
  std::uint32_t slot = list.head;
  if (slot == kNil) return;
  list = List{};
  l1_bits_[ring / 64] &= ~(std::uint64_t{1} << (ring % 64));
  // List order is scheduling order, so plain events reach each (empty)
  // bucket by ascending seq; keyed ones sort into the keyed prefix.
  while (slot != kNil) {
    const std::uint32_t next = nodes_[slot].next;
    --l1_nodes_;
    if (nodes_[slot].state == State::kListedDead) {
      release_slot(slot);
    } else {
      l0_insert(slot);
    }
    slot = next;
  }
}

void EventQueue::advance_to(std::uint64_t target) {
  const std::uint64_t old = block_;
  block_ = target;
  if (l1_nodes_ == 0) return;
  // The blocks entering L0 are target and target+1; move those the old L1
  // range held.  Every L1 block before target is empty (precondition), and
  // so is every ring entry the new range reuses.
  for (std::uint64_t b = std::max(target, old + 2); b <= target + 1; ++b) {
    if (b < old + 2 + kL1Blocks) move_l1_block(b);
  }
}

bool EventQueue::enter_l1() {
  const std::uint64_t first = l1_first_block();
  if (!heap_.empty() && heap_.front().when < (first << kBlockBits)) {
    return false;
  }
  advance_to(first);
  return true;
}

}  // namespace nestv::sim
