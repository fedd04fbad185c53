// Chunked-slab storage shared by every per-flow table: conntrack
// (net/conn_table), the flow cache (net/flowcache) and both ONCache
// directions (net/oncache).
//
// At the macro scale (hundreds of stacks, ~10^5..10^6 concurrent flows)
// per-flow state dominates memory, so all three tables use one compact
// layout instead of node-based containers:
//
//   * Arena: fixed-size slots in chunks grown on demand (stable
//     addresses, no per-entry heap nodes) with a LIFO free list threaded
//     through a slot field.  Chunks grow in a shallow geometric sequence,
//     four chunks per doubling (8, 8, 8, 8, 16, 16, ... slots): a stack
//     that tracks three flows pays for 8 slots, and a table sampled
//     mid-growth carries at most ~25% allocated-but-unused slack, where
//     plain doubling averages ~2x that.
//   * Index: one open-addressed array of 4-byte buckets (8-bit tag,
//     24-bit slot ref) with linear probing and tombstones.  Probes ask the
//     owner whether a slot holds the key, so one slot may be bound under
//     several keys (conntrack's orig and reply tuples), but only for
//     buckets whose tag passes the owner's filter: at 70-85% load most
//     buckets a probe passes belong to other keys, and the tag spares
//     their slot loads, which land in arena chunks far from the index.
//     The array is rebuilt to 70% load once live + tombstones pass 85%,
//     at a *non-power-of-two* size: pow2 rounding lands a table anywhere
//     between 2x and 4x its element count, and at per-stack populations
//     that waste alone was a double-digit share of all conntrack bytes.
//     The modulo is paid once per lookup (one hash, then linear steps).
//   * LruTable: arena + index + an intrusive LRU list threaded through the
//     slots, with generation-stamped O(1) flush (the two flow caches).
//
// Allocation order, rebuild timing and rebuild order (slot order) are
// part of the contract, not just the footprint: conntrack ids, GC order
// and every state_bytes() figure in the gated benches follow from them.
// So is the order in which entries are erased, since it sets the free
// list and with it which slots the next inserts reuse.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/stats.hpp"

namespace nestv::net::slab {

/// "No slot": empty bucket, free-list end, lookup miss.
inline constexpr std::uint32_t kNil = 0xffffffffU;
/// Smallest index array, and the flow caches' eager starting size.
inline constexpr std::size_t kMinBuckets = 32;

/// Index buckets pack an 8-bit tag above a 24-bit slot ref.  The two top
/// refs spell the empty and tombstone buckets, so a table indexes at most
/// kMaxSlots slots.
inline constexpr unsigned kTagShift = 24;
inline constexpr std::uint32_t kRefMask = (1U << kTagShift) - 1;
inline constexpr std::uint32_t kMaxSlots = kRefMask - 1;

/// One index bucket.  Throws rather than let a slot past kMaxSlots alias
/// another slot (or the empty / tombstone markers).
[[nodiscard]] inline std::uint32_t bucket_of(std::uint8_t tag,
                                             std::uint32_t slot) {
  if (slot >= kMaxSlots) {
    throw std::length_error("slab::Index: slot ref does not fit 24 bits");
  }
  return (std::uint32_t{tag} << kTagShift) | slot;
}

/// Top byte of a multiplicative remix of `hash`: owner hashes need not mix
/// their top bits (FlowKeyHash's ignore the ports), so tags come from here.
[[nodiscard]] constexpr std::uint8_t hash_tag(std::size_t hash) {
  return static_cast<std::uint8_t>(
      (std::uint64_t{hash} * 0x9e3779b97f4a7c15ULL) >> 56);
}

/// Open-addressed array size that holds `live` entries at 70% load.
[[nodiscard]] constexpr std::size_t sized_for(std::size_t live) {
  const std::size_t n = live * 10 / 7 + 1;
  return n < kMinBuckets ? kMinBuckets : n;
}

/// True when one more entry would push live + tombstones past 85%.
[[nodiscard]] constexpr bool wants_grow(std::size_t live, std::size_t dead,
                                        std::size_t size) {
  return (live + dead + 1) * 20 >= size * 17;
}

/// Slot storage: `Link` is the slot field that holds the free-list link
/// while the slot is free; occupancy marking is the owner's business.
template <typename Slot, std::uint32_t Slot::*Link>
class Arena {
 public:
  [[nodiscard]] Slot& operator[](std::uint32_t s) {
    const auto [c, off] = chunk_of(s);
    return chunks_[c][off];
  }
  [[nodiscard]] const Slot& operator[](std::uint32_t s) const {
    const auto [c, off] = chunk_of(s);
    return chunks_[c][off];
  }

  /// The most recently released slot, else the next never-used one.
  std::uint32_t alloc() {
    if (free_head_ != kNil) {
      const std::uint32_t s = free_head_;
      free_head_ = (*this)[s].*Link;
      return s;
    }
    if (used_ == cap_) {
      const std::uint32_t n =
          kFirstChunkSlots
          << (static_cast<std::uint32_t>(chunks_.size()) / kChunksPerDoubling);
      chunks_.push_back(std::make_unique<Slot[]>(n));
      bases_.push_back(cap_);
      cap_ += n;
    }
    return used_++;
  }
  void release(std::uint32_t s) {
    (*this)[s].*Link = free_head_;
    free_head_ = s;
  }

  /// Slots ever handed out: every live slot is below this bound.
  [[nodiscard]] std::uint32_t used() const { return used_; }
  [[nodiscard]] std::size_t bytes() const {
    return std::size_t{cap_} * sizeof(Slot);
  }

 private:
  static constexpr std::uint32_t kFirstChunkSlots = 8;
  static constexpr std::uint32_t kChunksPerDoubling = 4;

  /// Slot s lives in the chunk whose base is the largest <= s (reverse
  /// scan: chunks are few and hot slots sit in the last ones).
  [[nodiscard]] std::pair<std::size_t, std::size_t> chunk_of(
      std::uint32_t s) const {
    std::size_t c = bases_.size() - 1;
    while (bases_[c] > s) --c;
    return {c, s - bases_[c]};
  }

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> bases_;  ///< first slot of each chunk
  std::uint32_t used_ = 0;
  std::uint32_t cap_ = 0;  ///< slots allocated across chunks
  std::uint32_t free_head_ = kNil;
};

/// Open-addressed slot index of 4-byte buckets: an 8-bit tag over a
/// 24-bit slot ref.  Probes call the owner's `holds(slot)` (key equality
/// against the owner's slots; hashes are the owner's too) only for
/// buckets whose tag passes the owner's `accepts(tag)`, so most buckets a
/// probe walks past cost no slot load.  Owners choose the tag; the one
/// rule is that a bucket's tag must pass for every key its slot holds.
class Index {
 public:
  /// `buckets` = 0 defers allocation to the first insert.
  explicit Index(std::size_t buckets = 0) : buckets_(buckets, kEmpty) {}

  /// First slot in `hash`'s probe chain whose bucket tag passes and for
  /// which holds(slot), or kNil.
  template <typename Accepts, typename Holds>
  [[nodiscard]] std::uint32_t find(std::size_t hash, const Accepts& accepts,
                                   const Holds& holds) const {
    const std::size_t i = position(hash, accepts, holds);
    return i == kNoPos ? kNil : buckets_[i] & kRefMask;
  }
  /// Re-points the binding find() would return at (`tag`, `s`); false if
  /// none.
  template <typename Accepts, typename Holds>
  bool rebind(std::size_t hash, const Accepts& accepts, const Holds& holds,
              std::uint8_t tag, std::uint32_t s) {
    const std::size_t i = position(hash, accepts, holds);
    if (i == kNoPos) return false;
    buckets_[i] = bucket_of(tag, s);
    return true;
  }

  /// True when the next insert() must be preceded by a rebuild().
  [[nodiscard]] bool full() const {
    return wants_grow(live_, dead_, buckets_.size());
  }
  /// Binds `s` under `tag` in the first empty or tombstoned bucket of its
  /// chain.
  void insert(std::size_t hash, std::uint8_t tag, std::uint32_t s) {
    const std::uint32_t bound = bucket_of(tag, s);
    const std::size_t n = buckets_.size();
    for (std::size_t i = hash % n;; i = step(i, n)) {
      std::uint32_t& b = buckets_[i];
      if (b == kEmpty || b == kTomb) {
        if (b == kTomb) --dead_;
        b = bound;
        ++live_;
        return;
      }
    }
  }
  /// Tombstones the first bucket holding `s` in `hash`'s probe chain.
  /// Slot identity, not key equality (nor the tag), picks the bucket: a
  /// key re-bound to another slot survives its old owner's erase.
  void erase(std::size_t hash, std::uint32_t s) {
    const std::size_t n = buckets_.size();
    if (n == 0) return;
    for (std::size_t i = hash % n;; i = step(i, n)) {
      std::uint32_t& b = buckets_[i];
      if (b == kEmpty) return;
      if ((b & kRefMask) == s) {
        b = kTomb;
        --live_;
        ++dead_;
        return;
      }
    }
  }
  /// Rewrites the tag of every bucket holding `s` in `hash`'s probe chain.
  void retag(std::size_t hash, std::uint32_t s, std::uint8_t tag) {
    const std::size_t n = buckets_.size();
    if (n == 0) return;
    const std::uint32_t bound = bucket_of(tag, s);
    for (std::size_t i = hash % n;; i = step(i, n)) {
      std::uint32_t& b = buckets_[i];
      if (b == kEmpty) return;
      if ((b & kRefMask) == s) b = bound;
    }
  }
  /// Reallocates at 70% load for `count` bindings and drops tombstones;
  /// `each(place)` must call place(hash, tag, slot) for every binding, in
  /// the order they should land.
  template <typename Each>
  void rebuild(std::size_t count, const Each& each) {
    const std::size_t n = sized_for(count);
    buckets_.assign(n, kEmpty);
    buckets_.shrink_to_fit();
    live_ = 0;
    dead_ = 0;
    each([this, n](std::size_t hash, std::uint8_t tag, std::uint32_t s) {
      const std::uint32_t bound = bucket_of(tag, s);
      std::size_t i = hash % n;
      while (buckets_[i] != kEmpty) i = step(i, n);
      buckets_[i] = bound;
      ++live_;
    });
  }

  [[nodiscard]] std::size_t bytes() const {
    return buckets_.capacity() * sizeof(std::uint32_t);
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xffffffffU;
  static constexpr std::uint32_t kTomb = 0xfffffffeU;
  static constexpr std::size_t kNoPos = ~std::size_t{0};

  [[nodiscard]] static std::size_t step(std::size_t i, std::size_t n) {
    return i + 1 == n ? 0 : i + 1;
  }
  template <typename Accepts, typename Holds>
  [[nodiscard]] std::size_t position(std::size_t hash, const Accepts& accepts,
                                     const Holds& holds) const {
    const std::size_t n = buckets_.size();
    if (n == 0) return kNoPos;
    for (std::size_t i = hash % n;; i = step(i, n)) {
      const std::uint32_t b = buckets_[i];
      if (b == kEmpty) return kNoPos;
      if (accepts(static_cast<std::uint8_t>(b >> kTagShift)) && b != kTomb &&
          holds(b & kRefMask)) {
        return i;
      }
    }
  }

  std::vector<std::uint32_t> buckets_;
  std::size_t live_ = 0;  ///< bound buckets
  std::size_t dead_ = 0;  ///< tombstones
};

/// Bounded LRU map with generation-stamped and targeted invalidation.
/// `Path` must carry a std::uint16_t `generation` field (stamped here on
/// insert).  Not thread-safe (each table belongs to one stack).
template <typename Key, typename Path, typename Hash>
class LruTable {
 public:
  explicit LruTable(std::size_t capacity) : capacity_(capacity) {}

  /// Looks up `key`, refreshing LRU order.  Entries stamped before the
  /// last invalidate_all() are reaped here and reported as misses.
  [[nodiscard]] const Path* lookup(const Key& key) {
    const std::uint32_t s = find_slot(key);
    if (s == kNil) {
      rate_.miss();
      return nullptr;
    }
    if (stale(s)) {
      erase_slot(s);
      rate_.miss();
      return nullptr;
    }
    lru_unlink(s);
    lru_push_front(s);
    rate_.hit();
    return &slots_[s].path;
  }

  /// Lookup without touching LRU order or hit/miss counters.
  [[nodiscard]] const Path* peek(const Key& key) const {
    const std::uint32_t s = find_slot(key);
    return s == kNil || stale(s) ? nullptr : &slots_[s].path;
  }
  [[nodiscard]] bool contains(const Key& key) const {
    return peek(key) != nullptr;
  }

  /// Inserts (or replaces) the entry, stamping the current generation and
  /// evicting the least-recently-used entry (stale or not) when full.
  void insert(const Key& key, Path path) {
    path.generation = static_cast<std::uint16_t>(generation_);
    const std::size_t hash = Hash{}(key);
    const std::uint32_t existing = find_slot(key, hash);
    if (existing != kNil) {
      slots_[existing].path = std::move(path);
      lru_unlink(existing);
      lru_push_front(existing);
      return;
    }
    if (size_ >= capacity_ && lru_tail_ != kNil) {
      erase_slot(lru_tail_);
      ++evictions_;
    }
    const std::uint32_t s = slots_.alloc();
    Slot& sl = slots_[s];
    sl.key = key;
    sl.path = std::move(path);
    if (index_.full()) reindex();
    index_.insert(hash, hash_tag(hash), s);
    lru_push_front(s);
    ++size_;
  }

  void invalidate(const Key& key) {
    const std::uint32_t s = find_slot(key);
    if (s == kNil) return;
    erase_slot(s);
    ++invalidations_;
  }
  /// Flushes entries for which pred(key, path) holds, most-recent-first
  /// (the predicate may observe entries; order is part of the contract).
  /// Returns the count.
  template <typename Pred>
  std::size_t invalidate_if(const Pred& pred) {
    std::size_t flushed = 0;
    for (std::uint32_t s = lru_head_; s != kNil;) {
      const Slot& sl = slots_[s];
      const std::uint32_t next = sl.lru_next;
      if (pred(sl.key, sl.path)) {
        erase_slot(s);
        ++flushed;
      }
      s = next;
    }
    invalidations_ += flushed;
    return flushed;
  }
  /// Flushes the entries whose id_of(key, path) is in `ids`: ids[0]'s
  /// entries most-recent-first, then ids[1]'s, and so on.  These are the
  /// erasures, in the same order, of one invalidate_if per id, so the free
  /// list (and with it slot reuse and rebuild timing) comes out identical,
  /// for one LRU walk instead of ids.size().  Returns the count.
  template <typename IdOf>
  std::size_t invalidate_ids(std::span<const std::uint64_t> ids,
                             const IdOf& id_of) {
    if (ids.empty() || size_ == 0) return 0;
    // (id, position in ids), sorted: lower_bound finds a repeated id's
    // first position, and the per-id loop's later calls flushed nothing.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> rank;
    rank.reserve(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      rank.emplace_back(ids[i], static_cast<std::uint32_t>(i));
    }
    std::sort(rank.begin(), rank.end());
    // (rank, slot) of every match, in LRU order.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> doomed;
    for (std::uint32_t s = lru_head_; s != kNil; s = slots_[s].lru_next) {
      const std::uint64_t id = id_of(slots_[s].key, slots_[s].path);
      const auto it = std::lower_bound(
          rank.begin(), rank.end(), id,
          [](const auto& r, std::uint64_t v) { return r.first < v; });
      if (it != rank.end() && it->first == id) {
        doomed.emplace_back(it->second, s);
      }
    }
    std::stable_sort(
        doomed.begin(), doomed.end(),
        [](const auto& x, const auto& y) { return x.first < y.first; });
    for (const auto& [r, s] : doomed) erase_slot(s);
    invalidations_ += doomed.size();
    return doomed.size();
  }
  /// O(1) full flush: bumps the generation; stale entries stay resident
  /// until a lookup or eviction reaps them.
  void invalidate_all() {
    ++generation_;
    invalidations_ += size_;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  [[nodiscard]] const sim::HitRateCounter& hit_rate() const { return rate_; }
  [[nodiscard]] std::uint64_t hits() const { return rate_.hits(); }
  [[nodiscard]] std::uint64_t misses() const { return rate_.misses(); }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }
  [[nodiscard]] std::uint64_t invalidations() const { return invalidations_; }
  /// Resident bytes: slot chunks + index array.
  [[nodiscard]] std::size_t state_bytes() const {
    return slots_.bytes() + index_.bytes();
  }

 private:
  /// Marks a free slot in lru_prev (an occupied slot holds a slot index
  /// or kNil there).
  static constexpr std::uint32_t kFreeMark = 0xfffffffeU;

  /// The LRU links double as lifecycle state: lru_prev is kFreeMark while
  /// the slot is free, and a free slot's lru_next is the free-list link.
  struct Slot {
    Path path;
    Key key;
    std::uint32_t lru_prev = kFreeMark;
    std::uint32_t lru_next = kNil;
  };

  [[nodiscard]] bool stale(std::uint32_t s) const {
    return slots_[s].path.generation !=
           static_cast<std::uint16_t>(generation_);
  }
  /// The tag is a hash remix, and holds() plain key equality, so a tag
  /// mismatch is an exact miss.
  [[nodiscard]] std::uint32_t find_slot(const Key& key,
                                        std::size_t hash) const {
    const std::uint8_t tag = hash_tag(hash);
    return index_.find(
        hash, [tag](std::uint8_t t) { return t == tag; },
        [this, &key](std::uint32_t s) { return slots_[s].key == key; });
  }
  [[nodiscard]] std::uint32_t find_slot(const Key& key) const {
    return find_slot(key, Hash{}(key));
  }
  /// Rebinds every occupied slot in slot order (the slot being inserted
  /// is not yet linked, so it is not among them).
  void reindex() {
    index_.rebuild(size_, [this](const auto& place) {
      for (std::uint32_t s = 0; s < slots_.used(); ++s) {
        if (slots_[s].lru_prev == kFreeMark) continue;
        const std::size_t hash = Hash{}(slots_[s].key);
        place(hash, hash_tag(hash), s);
      }
    });
  }
  void erase_slot(std::uint32_t s) {
    index_.erase(Hash{}(slots_[s].key), s);
    lru_unlink(s);
    slots_[s].lru_prev = kFreeMark;
    slots_.release(s);
    --size_;
  }
  void lru_unlink(std::uint32_t s) {
    Slot& sl = slots_[s];
    if (sl.lru_prev != kNil) {
      slots_[sl.lru_prev].lru_next = sl.lru_next;
    } else {
      lru_head_ = sl.lru_next;
    }
    if (sl.lru_next != kNil) {
      slots_[sl.lru_next].lru_prev = sl.lru_prev;
    } else {
      lru_tail_ = sl.lru_prev;
    }
    sl.lru_prev = sl.lru_next = kNil;
  }
  void lru_push_front(std::uint32_t s) {
    Slot& sl = slots_[s];
    sl.lru_prev = kNil;
    sl.lru_next = lru_head_;
    if (lru_head_ != kNil) slots_[lru_head_].lru_prev = s;
    lru_head_ = s;
    if (lru_tail_ == kNil) lru_tail_ = s;
  }

  std::size_t capacity_;
  Arena<Slot, &Slot::lru_next> slots_;
  /// Allocated at kMinBuckets up front (conntrack's index starts empty).
  Index index_{kMinBuckets};
  std::uint32_t lru_head_ = kNil;  ///< most recently used
  std::uint32_t lru_tail_ = kNil;  ///< least recently used
  std::size_t size_ = 0;
  std::uint64_t generation_ = 1;
  sim::HitRateCounter rate_;
  std::uint64_t evictions_ = 0;
  std::uint64_t invalidations_ = 0;
};

}  // namespace nestv::net::slab
