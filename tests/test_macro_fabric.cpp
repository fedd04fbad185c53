// Macro-scale layers: the compact per-flow state stores (ConnTable, the
// slab FlowCache, and the slab table contract they share), the
// hierarchical fabric's deterministic ECMP, and the churn scenario's
// execution-mode equivalence (shards / worker counts).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <optional>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/conn_table.hpp"
#include "net/fabric_switch.hpp"
#include "net/flowcache/flowcache.hpp"
#include "net/oncache.hpp"
#include "net/packet_pool.hpp"
#include "net/slab_table.hpp"
#include "scenario/macro_scale.hpp"
#include "sim/engine.hpp"

namespace {

using namespace nestv;

net::ConnKey key_of(std::uint32_t a, std::uint32_t b, std::uint16_t sp,
                    std::uint16_t dp) {
  net::ConnKey k;
  k.src_ip = net::Ipv4Address(a);
  k.dst_ip = net::Ipv4Address(b);
  k.src_port = sp;
  k.dst_port = dp;
  k.proto = net::L4Proto::kUdp;
  return k;
}

// ---- ConnTable ------------------------------------------------------------

TEST(ConnTable, CreateFindReplyErase) {
  net::ConnTable t;
  net::ConnEntry e;
  e.orig = key_of(1, 2, 100, 200);
  e.reply = key_of(2, 9, 200, 333);
  const auto ref = t.create(e);
  ASSERT_TRUE(ref);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.alive(ref.id));

  // Before reply registration only the orig tuple resolves.
  EXPECT_TRUE(t.find(e.orig));
  EXPECT_FALSE(t.find(e.reply));

  ref.entry->confirmed = true;
  t.register_reply(ref.id, e.reply);
  const auto by_reply = t.find(e.reply);
  ASSERT_TRUE(by_reply);
  EXPECT_EQ(by_reply.id, ref.id);

  t.erase(ref.id);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.alive(ref.id));
  EXPECT_FALSE(t.find(e.orig));
  EXPECT_FALSE(t.find(e.reply));
}

TEST(ConnTable, StaleIdsStayDeadAfterSlotReuse) {
  net::ConnTable t;
  net::ConnEntry e;
  e.orig = key_of(1, 2, 1, 1);
  const auto first = t.create(e);
  t.erase(first.id);
  // The freed slot is reused; the old id's generation must not resolve.
  e.orig = key_of(3, 4, 2, 2);
  const auto second = t.create(e);
  EXPECT_NE(first.id, second.id);
  EXPECT_FALSE(t.alive(first.id));
  EXPECT_TRUE(t.alive(second.id));
}

TEST(ConnTable, ChurnStormKeepsIndexConsistent) {
  // Insert/erase far past several geometric chunk growths and index
  // rehashes; every surviving entry must stay reachable by both tuples
  // and every erased one unreachable.
  net::ConnTable t;
  std::vector<std::uint64_t> ids;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    net::ConnEntry e;
    e.orig = key_of(std::uint32_t(i + 1), 0x0a0a0a0a,
                    std::uint16_t(i & 0xffff), 53);
    e.reply = key_of(0x0a0a0a0a, std::uint32_t(i + 1), 53,
                     std::uint16_t(i & 0xffff));
    e.confirmed = true;
    const auto ref = t.create(e);
    t.register_reply(ref.id, e.reply);
    ids.push_back(ref.id);
  }
  EXPECT_EQ(t.size(), std::size_t(n));
  for (int i = 0; i < n; i += 2) t.erase(ids[std::size_t(i)]);
  EXPECT_EQ(t.size(), std::size_t(n) / 2);
  for (int i = 0; i < n; ++i) {
    const auto k = key_of(std::uint32_t(i + 1), 0x0a0a0a0a,
                          std::uint16_t(i & 0xffff), 53);
    EXPECT_EQ(t.find(k) ? true : false, i % 2 == 1) << i;
    EXPECT_EQ(t.alive(ids[std::size_t(i)]), i % 2 == 1) << i;
  }
  // Entry pointers are stable across all growth (slab storage).
  const auto ref = t.find_id(ids[1]);
  ASSERT_TRUE(ref);
  EXPECT_EQ(ref.entry->orig.src_ip.value(), 2u);
}

TEST(ConnTable, PortOccupancyTracksRegisteredTuples) {
  net::ConnTable t;
  net::ConnEntry e;
  e.orig = key_of(1, 2, 4000, 80);
  const auto ref = t.create(e);
  // orig registers (udp, dst_ip=2, dst_port=80).
  EXPECT_TRUE(t.port_in_use(net::L4Proto::kUdp, net::Ipv4Address(2), 80));
  EXPECT_FALSE(t.port_in_use(net::L4Proto::kUdp, net::Ipv4Address(2), 81));
  EXPECT_FALSE(t.port_in_use(net::L4Proto::kTcp, net::Ipv4Address(2), 80));
  t.erase(ref.id);
  EXPECT_FALSE(t.port_in_use(net::L4Proto::kUdp, net::Ipv4Address(2), 80));
}

TEST(ConnTable, NearIdleFootprintIsSmall) {
  // Hundreds of mostly-idle stacks are the macro-scale common case: a
  // table holding three connections must cost a couple of KB, not a
  // 256-slot chunk.
  net::ConnTable t;
  for (int i = 0; i < 3; ++i) {
    net::ConnEntry e;
    e.orig = key_of(std::uint32_t(i + 1), 99, 1000, 80);
    (void)t.create(e);
  }
  EXPECT_GT(t.state_bytes(), 0u);
  EXPECT_LT(t.state_bytes(), 8u * 1024u);
}

// ---- FlowCache ------------------------------------------------------------

net::flowcache::FlowKey flow_key(std::uint32_t i) {
  net::flowcache::FlowKey k;
  k.src_ip = net::Ipv4Address(i + 1);
  k.dst_ip = net::Ipv4Address(0x7f000001);
  k.src_port = std::uint16_t(i & 0xffff);
  k.dst_port = 443;
  k.proto = net::L4Proto::kUdp;
  return k;
}

TEST(FlowCacheCompact, GrowthKeepsAllEntriesReachable) {
  // Push the cache through many slab-chunk and bucket-array growths; every
  // resident entry must remain reachable with its payload intact.
  net::flowcache::FlowCache fc(4096);
  const std::uint32_t n = 3000;
  for (std::uint32_t i = 0; i < n; ++i) {
    net::flowcache::CachedPath p;
    p.out_ifindex = int(i);
    fc.insert(flow_key(i), p);
  }
  EXPECT_EQ(fc.size(), std::size_t(n));
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto* p = fc.peek(flow_key(i));
    ASSERT_NE(p, nullptr) << i;
    EXPECT_EQ(p->out_ifindex, int(i));
  }
}

TEST(FlowCacheCompact, LruEvictionAtCapacity) {
  net::flowcache::FlowCache fc(64);
  for (std::uint32_t i = 0; i < 200; ++i) {
    fc.insert(flow_key(i), net::flowcache::CachedPath{});
  }
  EXPECT_EQ(fc.size(), 64u);
  EXPECT_EQ(fc.evictions(), 200u - 64u);
  // Oldest gone, newest resident.
  EXPECT_EQ(fc.peek(flow_key(0)), nullptr);
  EXPECT_NE(fc.peek(flow_key(199)), nullptr);
}

TEST(FlowCacheCompact, NearIdleFootprintIsSmall) {
  net::flowcache::FlowCache fc;  // default capacity 4096
  fc.insert(flow_key(1), net::flowcache::CachedPath{});
  fc.insert(flow_key(2), net::flowcache::CachedPath{});
  EXPECT_GT(fc.state_bytes(), 0u);
  // Buckets and slabs scale with occupancy, not capacity.
  EXPECT_LT(fc.state_bytes(), 8u * 1024u);
}

TEST(FlowCacheCompact, InvalidateConnFlushesOnlyBackedEntries) {
  net::flowcache::FlowCache fc(64);
  net::flowcache::CachedPath backed;
  backed.ct_id = 77;
  fc.insert(flow_key(1), backed);
  fc.insert(flow_key(2), net::flowcache::CachedPath{});
  EXPECT_EQ(fc.invalidate_conn(77), 1u);
  EXPECT_EQ(fc.peek(flow_key(1)), nullptr);
  EXPECT_NE(fc.peek(flow_key(2)), nullptr);
}

// ---- Shared slab table: storage contract -----------------------------------
//
// Pins the storage layout every per-flow table shares (chunk sequence
// 8, 8, 8, 8, 16, ... slots; index sized to 70% load, rebuilt past 85%;
// LIFO slot reuse; LRU order).  The gated bytes-per-flow metrics are sums
// of these footprints, so any drift here shows up there too.

TEST(SlabTableContract, FlowCacheStateBytesFollowChunksAndBuckets) {
  // 64-byte slots; 4-byte buckets, 32 allocated up front.
  const std::vector<std::pair<std::uint32_t, std::size_t>> expect = {
      {1, 8 * 64 + 32 * 4},      // first chunk, eager 32 buckets
      {8, 8 * 64 + 32 * 4},      // first chunk full
      {9, 16 * 64 + 32 * 4},     // second 8-slot chunk
      {33, 48 * 64 + 39 * 4},    // 8+8+8+8+16; rebuilt at 27 -> 27*10/7+1
      {3000, 3040 * 64 + 4175 * 4},
  };
  for (const auto& [n, bytes] : expect) {
    net::flowcache::FlowCache fc(4096);
    for (std::uint32_t i = 0; i < n; ++i) {
      fc.insert(flow_key(i), net::flowcache::CachedPath{});
    }
    EXPECT_EQ(fc.state_bytes(), bytes) << n << " inserts";
  }
}

TEST(SlabTableContract, ConnTableStateBytesFollowChunksAndBuckets) {
  // 72-byte slots; the tuple index is allocated on first insert and the
  // port index only on the first port_in_use(), so neither is paid early.
  const std::vector<std::pair<std::uint32_t, std::size_t>> expect = {
      {1, 8 * 72 + 32 * 4},
      {8, 8 * 72 + 32 * 4},
      {9, 16 * 72 + 32 * 4},
      {33, 48 * 72 + 48 * 4},
      {3000, 3040 * 72 + 4175 * 4},
  };
  for (const auto& [n, bytes] : expect) {
    net::ConnTable t;
    for (std::uint32_t i = 0; i < n; ++i) {
      net::ConnEntry e;
      e.orig = key_of(i + 1, 99, std::uint16_t(i), 80);
      (void)t.create(e);
    }
    EXPECT_EQ(t.state_bytes(), bytes) << n << " creates";
  }
}

TEST(SlabTableContract, ConnTableReusesSlotsLifoWithFreshIds) {
  net::ConnTable t;
  std::vector<std::uint64_t> ids;
  for (std::uint32_t i = 0; i < 3; ++i) {
    net::ConnEntry e;
    e.orig = key_of(i + 1, 99, 1000, 80);
    ids.push_back(t.create(e).id);
  }
  // ids are (generation << 32) | (slot + 1).
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 3}));
  t.erase(ids[1]);
  t.erase(ids[0]);
  // Last freed, first reused: slot 0, then slot 1, each one generation on.
  net::ConnEntry e;
  e.orig = key_of(7, 99, 1000, 80);
  const auto a = t.create(e);
  e.orig = key_of(8, 99, 1000, 80);
  const auto b = t.create(e);
  EXPECT_EQ(a.id, (std::uint64_t{1} << 32) | 1);
  EXPECT_EQ(b.id, (std::uint64_t{1} << 32) | 2);
  EXPECT_FALSE(t.alive(ids[0]));
  EXPECT_FALSE(t.alive(ids[1]));
  EXPECT_EQ(t.at_slot(0).id, a.id);
  EXPECT_EQ(t.at_slot(1).id, b.id);
  EXPECT_EQ(t.at_slot(2).id, ids[2]);
  EXPECT_EQ(t.slot_count(), 3u);
}

TEST(SlabTableContract, LruEvictsLeastRecentAndFlushesLazily) {
  net::flowcache::FlowCache fc(4);
  for (std::uint32_t i = 1; i <= 4; ++i) {
    fc.insert(flow_key(i), net::flowcache::CachedPath{});
  }
  ASSERT_NE(fc.lookup(flow_key(1)), nullptr);  // 1 becomes most recent
  fc.insert(flow_key(5), net::flowcache::CachedPath{});
  EXPECT_EQ(fc.evictions(), 1u);
  EXPECT_EQ(fc.peek(flow_key(2)), nullptr) << "2 was least recent";
  std::vector<std::uint32_t> order;
  (void)fc.invalidate_if([&](const net::flowcache::FlowKey& k,
                             const net::flowcache::CachedPath&) {
    order.push_back(k.src_ip.value() - 1);
    return false;
  });
  EXPECT_EQ(order, (std::vector<std::uint32_t>{5, 1, 4, 3}));

  // invalidate_all only bumps the generation: entries stay resident (and
  // keep counting toward capacity) until a lookup or eviction reaps them.
  fc.invalidate_all();
  EXPECT_EQ(fc.invalidations(), 4u);
  EXPECT_EQ(fc.size(), 4u);
  EXPECT_EQ(fc.peek(flow_key(5)), nullptr);
  EXPECT_EQ(fc.lookup(flow_key(5)), nullptr);  // reaped here, as a miss
  EXPECT_EQ(fc.size(), 3u);
  EXPECT_EQ(fc.misses(), 1u);
  fc.insert(flow_key(6), net::flowcache::CachedPath{});
  EXPECT_EQ(fc.evictions(), 1u) << "a reaped slot made room";
  fc.insert(flow_key(7), net::flowcache::CachedPath{});
  EXPECT_EQ(fc.evictions(), 2u) << "the stale LRU tail (3) goes first";
  order.clear();
  (void)fc.invalidate_if([&](const net::flowcache::FlowKey& k,
                             const net::flowcache::CachedPath&) {
    order.push_back(k.src_ip.value() - 1);
    return false;
  });
  EXPECT_EQ(order, (std::vector<std::uint32_t>{7, 6, 1, 4}));
  EXPECT_EQ(fc.invalidations(), 4u);
}

TEST(SlabTableContract, ReboundReplyTupleResolvesToOldOwnerAfterRebuild) {
  // Characterization of a known deviation from nf_conntrack, kept because
  // the gated outputs depend on it; a later change fixes it and re-pins
  // the baselines.  An inbound flow to a local socket is never confirmed
  // (only POSTROUTING confirms), so its orig tuple T stays registered
  // while a second connection registers T as its reply: register_reply
  // re-points T's one binding at the new owner and leaves the port count
  // alone.  The next index rebuild re-inserts every slot's tuples in slot
  // order, so T resolves to its old owner again.
  net::ConnTable t;
  const net::ConnKey tuple = key_of(1, 2, 1000, 80);
  net::ConnEntry old_owner;
  old_owner.orig = tuple;
  const auto a = t.create(old_owner);
  EXPECT_TRUE(t.port_in_use(net::L4Proto::kUdp, net::Ipv4Address(2), 80));

  net::ConnEntry rebinder;
  rebinder.orig = key_of(2, 1, 80, 1000);
  rebinder.reply = tuple;
  rebinder.confirmed = true;
  const auto b = t.create(rebinder);
  t.register_reply(b.id, tuple);
  EXPECT_EQ(t.find(tuple).id, b.id);

  // Grow past the 32-bucket index's 85% mark to force a rebuild.
  for (std::uint32_t i = 0; i < 40; ++i) {
    net::ConnEntry e;
    e.orig = key_of(100 + i, 99, 5000, 53);
    (void)t.create(e);
  }
  EXPECT_EQ(t.find(tuple).id, a.id) << "rebuild re-inserted slot 0 first";

  // T was counted once in the port index: erasing the old owner clears
  // the port although the survivor still holds T as its reply.
  t.erase(a.id);
  EXPECT_EQ(t.find(tuple).id, b.id);
  EXPECT_FALSE(t.port_in_use(net::L4Proto::kUdp, net::Ipv4Address(2), 80));
}

// ---- Shared slab table: differential test against a reference LRU ---------

struct DiffKey {
  std::uint32_t v = 0;
  friend bool operator==(const DiffKey&, const DiffKey&) = default;
};
/// Deliberately weak: long probe chains exercise tombstones and rebuilds.
struct DiffKeyHash {
  std::size_t operator()(const DiffKey& k) const noexcept { return k.v % 13; }
};
struct DiffKeyStdHash {
  std::size_t operator()(const DiffKey& k) const noexcept { return k.v; }
};
struct DiffPath {
  std::uint32_t payload = 0;
  std::uint16_t generation = 0;
};

/// std::list + std::unordered_map model of the LRU table's contract.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  std::optional<std::uint32_t> lookup(DiffKey k) {
    const auto it = map_.find(k);
    if (it == map_.end()) {
      ++misses;
      return std::nullopt;
    }
    if (it->second->gen != gen_) {
      erase(it);
      ++misses;
      return std::nullopt;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    ++hits;
    return lru_.front().payload;
  }
  std::optional<std::uint32_t> peek(DiffKey k) const {
    const auto it = map_.find(k);
    if (it == map_.end() || it->second->gen != gen_) return std::nullopt;
    return it->second->payload;
  }
  void insert(DiffKey k, std::uint32_t payload) {
    if (const auto it = map_.find(k); it != map_.end()) {
      it->second->payload = payload;
      it->second->gen = gen_;
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    if (lru_.size() >= capacity_ && !lru_.empty()) {
      erase(map_.find(lru_.back().key));
      ++evictions;
    }
    lru_.push_front(Entry{k, payload, gen_});
    map_[k] = lru_.begin();
  }
  void invalidate(DiffKey k) {
    const auto it = map_.find(k);
    if (it == map_.end()) return;
    erase(it);
    ++invalidations;
  }
  std::size_t invalidate_payload_mod(std::uint32_t m, std::uint32_t r) {
    std::size_t n = 0;
    for (auto it = lru_.begin(); it != lru_.end();) {
      const auto next = std::next(it);
      if (it->payload % m == r) {
        erase(map_.find(it->key));
        ++n;
      }
      it = next;
    }
    invalidations += n;
    return n;
  }
  void invalidate_all() {
    ++gen_;
    invalidations += lru_.size();
  }

  /// (key, payload, fresh) most-recent-first.
  [[nodiscard]] std::vector<std::tuple<std::uint32_t, std::uint32_t, bool>>
  order() const {
    std::vector<std::tuple<std::uint32_t, std::uint32_t, bool>> out;
    for (const Entry& e : lru_) {
      out.emplace_back(e.key.v, e.payload, e.gen == gen_);
    }
    return out;
  }
  [[nodiscard]] std::size_t size() const { return lru_.size(); }
  [[nodiscard]] std::uint16_t generation() const { return gen_; }

  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;

 private:
  struct Entry {
    DiffKey key;
    std::uint32_t payload;
    std::uint16_t gen;
  };
  using Map = std::unordered_map<DiffKey, std::list<Entry>::iterator,
                                 DiffKeyStdHash>;
  void erase(Map::iterator it) {
    lru_.erase(it->second);
    map_.erase(it);
  }

  std::size_t capacity_;
  std::uint16_t gen_ = 1;
  std::list<Entry> lru_;
  Map map_;
};

TEST(SlabTableContract, LruTableMatchesReferenceModel) {
  using Table = net::slab::LruTable<DiffKey, DiffPath, DiffKeyHash>;
  for (const std::uint32_t seed : {1u, 2u, 3u, 4u}) {
    std::mt19937 rng(seed);
    const std::size_t capacity = 8 + std::size_t(rng() % 48);
    const std::uint32_t keys = std::uint32_t(capacity) * 3;
    Table table(capacity);
    ReferenceLru ref(capacity);
    for (int step = 0; step < 4000; ++step) {
      const DiffKey k{std::uint32_t(rng() % keys)};
      const std::uint32_t op = rng() % 100;
      const std::string at =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      if (op < 40) {
        const auto payload = std::uint32_t(rng());
        table.insert(k, DiffPath{payload, 0});
        ref.insert(k, payload);
      } else if (op < 70) {
        const DiffPath* got = table.lookup(k);
        const auto want = ref.lookup(k);
        ASSERT_EQ(got != nullptr, want.has_value()) << at;
        if (got != nullptr) {
          ASSERT_EQ(got->payload, *want) << at;
        }
      } else if (op < 85) {
        const DiffPath* got = table.peek(k);
        const auto want = ref.peek(k);
        ASSERT_EQ(got != nullptr, want.has_value()) << at;
        if (got != nullptr) {
          ASSERT_EQ(got->payload, *want) << at;
        }
      } else if (op < 95) {
        table.invalidate(k);
        ref.invalidate(k);
      } else if (op < 99) {
        const auto m = std::uint32_t(2 + rng() % 6);
        const auto r = std::uint32_t(rng() % m);
        const std::size_t got = table.invalidate_if(
            [m, r](const DiffKey&, const DiffPath& p) {
              return p.payload % m == r;
            });
        ASSERT_EQ(got, ref.invalidate_payload_mod(m, r)) << at;
      } else {
        table.invalidate_all();
        ref.invalidate_all();
      }
      ASSERT_EQ(table.size(), ref.size()) << at;
      ASSERT_EQ(table.hits(), ref.hits) << at;
      ASSERT_EQ(table.misses(), ref.misses) << at;
      ASSERT_EQ(table.evictions(), ref.evictions) << at;
      ASSERT_EQ(table.invalidations(), ref.invalidations) << at;
      // A never-matching predicate walks the table in LRU order, stale
      // (pre-invalidate_all) entries included.
      std::vector<std::tuple<std::uint32_t, std::uint32_t, bool>> order;
      (void)table.invalidate_if([&](const DiffKey& key, const DiffPath& p) {
        order.emplace_back(key.v, p.payload,
                           p.generation == ref.generation());
        return false;
      });
      ASSERT_EQ(order, ref.order()) << at;
      ASSERT_EQ(table.invalidations(), ref.invalidations) << at;
    }
  }
}

// ---- Tagged conntrack index: differential test against untagged probes ----
//
// The reference model is the conntrack table as it stood before index
// buckets carried tags: every probe asks the slot.  The tagged ConnTable
// must return the same ids, port answers and footprints after every
// operation, including the re-bind quirk and rebuild duplicates.

namespace untagged {

using net::slab::kNil;

/// The slab index with untagged 4-byte slot refs.
class Index {
 public:
  template <typename Holds>
  [[nodiscard]] std::uint32_t find(std::size_t hash,
                                   const Holds& holds) const {
    const std::size_t i = position(hash, holds);
    return i == kNoPos ? kNil : buckets_[i];
  }
  template <typename Holds>
  bool rebind(std::size_t hash, const Holds& holds, std::uint32_t s) {
    const std::size_t i = position(hash, holds);
    if (i == kNoPos) return false;
    buckets_[i] = s;
    return true;
  }
  [[nodiscard]] bool full() const {
    return net::slab::wants_grow(live_, dead_, buckets_.size());
  }
  void insert(std::size_t hash, std::uint32_t s) {
    const std::size_t n = buckets_.size();
    for (std::size_t i = hash % n;; i = step(i, n)) {
      std::uint32_t& b = buckets_[i];
      if (b == kNil || b == kTomb) {
        if (b == kTomb) --dead_;
        b = s;
        ++live_;
        return;
      }
    }
  }
  void erase(std::size_t hash, std::uint32_t s) {
    const std::size_t n = buckets_.size();
    if (n == 0) return;
    for (std::size_t i = hash % n;; i = step(i, n)) {
      std::uint32_t& b = buckets_[i];
      if (b == kNil) return;
      if (b == s) {
        b = kTomb;
        --live_;
        ++dead_;
        return;
      }
    }
  }
  template <typename Each>
  void rebuild(std::size_t count, const Each& each) {
    const std::size_t n = net::slab::sized_for(count);
    buckets_.assign(n, kNil);
    buckets_.shrink_to_fit();
    live_ = 0;
    dead_ = 0;
    each([this, n](std::size_t hash, std::uint32_t s) {
      std::size_t i = hash % n;
      while (buckets_[i] != kNil) i = step(i, n);
      buckets_[i] = s;
      ++live_;
    });
  }
  [[nodiscard]] std::size_t bytes() const {
    return buckets_.capacity() * sizeof(std::uint32_t);
  }

 private:
  static constexpr std::uint32_t kTomb = 0xfffffffeU;
  static constexpr std::size_t kNoPos = ~std::size_t{0};

  static std::size_t step(std::size_t i, std::size_t n) {
    return i + 1 == n ? 0 : i + 1;
  }
  template <typename Holds>
  std::size_t position(std::size_t hash, const Holds& holds) const {
    const std::size_t n = buckets_.size();
    if (n == 0) return kNoPos;
    for (std::size_t i = hash % n;; i = step(i, n)) {
      const std::uint32_t b = buckets_[i];
      if (b == kNil) return kNoPos;
      if (b != kTomb && holds(b)) return i;
    }
  }

  std::vector<std::uint32_t> buckets_;
  std::size_t live_ = 0;
  std::size_t dead_ = 0;
};

/// ConnTable's storage, probing and port index over the untagged index.
class ConnTable {
 public:
  struct Ref {
    std::uint64_t id = 0;
    net::ConnEntry* entry = nullptr;
  };

  Ref find(const net::ConnKey& key) {
    const std::uint32_t s = index_.find(
        net::ConnKeyHash{}(key),
        [this, &key](std::uint32_t b) { return slot_has_tuple(b, key); });
    if (s == kNil) return {};
    return Ref{id_of(s, slots_[s].gen), &slots_[s].entry};
  }
  Ref find_id(std::uint64_t id) {
    const std::uint32_t s = slot_of(id);
    if (s == kNil) return {};
    return Ref{id, &slots_[s].entry};
  }
  Ref create(const net::ConnEntry& entry) {
    const std::uint32_t s = slots_.alloc();
    Slot& sl = slots_[s];
    sl.entry = entry;
    sl.next_free = kOccupied;
    index_insert(entry.orig, s);
    port_add(entry.orig);
    return Ref{id_of(s, sl.gen), &sl.entry};
  }
  void register_reply(std::uint64_t id, const net::ConnKey& reply) {
    const std::uint32_t s = slot_of(id);
    if (s == kNil) return;
    if (index_.rebind(
            net::ConnKeyHash{}(reply),
            [this, &reply](std::uint32_t b) {
              return slot_has_tuple(b, reply);
            },
            s)) {
      return;
    }
    index_insert(reply, s);
    port_add(reply);
  }
  void erase(std::uint64_t id) {
    const std::uint32_t s = slot_of(id);
    if (s == kNil) return;
    Slot& sl = slots_[s];
    each_tuple(sl.entry, [this, s](const net::ConnKey& k) {
      index_.erase(net::ConnKeyHash{}(k), s);
      port_remove(k);
    });
    ++sl.gen;
    slots_.release(s);
  }
  bool port_in_use(net::L4Proto proto, net::Ipv4Address ip,
                   std::uint16_t port) {
    if (!ports_built_) {
      ports_built_ = true;
      each_binding(
          [this](const net::ConnKey& k, std::uint32_t) { port_add(k); });
    }
    if (port_keys_.empty()) return false;
    const std::uint64_t key = port_key(proto, ip, port);
    const std::size_t n = port_keys_.size();
    for (std::size_t i = port_hash(key) % n;; i = i + 1 == n ? 0 : i + 1) {
      if (port_keys_[i] == 0) return false;
      if (port_keys_[i] == key) return port_counts_[i] > 0;
    }
  }
  [[nodiscard]] std::size_t state_bytes() const {
    return slots_.bytes() + index_.bytes() +
           port_keys_.capacity() * sizeof(std::uint64_t) +
           port_counts_.capacity() * sizeof(std::uint32_t);
  }

 private:
  static constexpr std::uint32_t kOccupied = 0xfffffffeU;
  struct Slot {
    net::ConnEntry entry;
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNil;
  };

  static std::uint64_t id_of(std::uint32_t s, std::uint32_t gen) {
    return (std::uint64_t{gen} << 32) | (s + 1);
  }
  std::uint32_t slot_of(std::uint64_t id) const {
    const auto s = static_cast<std::uint32_t>(id & 0xffffffffU) - 1;
    if (s >= slots_.used()) return kNil;
    const Slot& sl = slots_[s];
    if (sl.next_free != kOccupied ||
        sl.gen != static_cast<std::uint32_t>(id >> 32)) {
      return kNil;
    }
    return s;
  }
  bool slot_has_tuple(std::uint32_t s, const net::ConnKey& key) const {
    const Slot& sl = slots_[s];
    if (sl.next_free != kOccupied) return false;
    return sl.entry.orig == key ||
           (sl.entry.confirmed && sl.entry.reply == key);
  }
  template <typename Fn>
  static void each_tuple(const net::ConnEntry& e, const Fn& fn) {
    fn(e.orig);
    if (e.confirmed && !(e.reply == e.orig)) fn(e.reply);
  }
  template <typename Fn>
  void each_binding(const Fn& fn) const {
    for (std::uint32_t s = 0; s < slots_.used(); ++s) {
      if (slots_[s].next_free != kOccupied) continue;
      each_tuple(slots_[s].entry, [&](const net::ConnKey& k) { fn(k, s); });
    }
  }
  void index_insert(const net::ConnKey& key, std::uint32_t s) {
    if (index_.full()) {
      std::size_t tuples = 0;
      each_binding([&tuples](const net::ConnKey&, std::uint32_t) {
        ++tuples;
      });
      index_.rebuild(tuples, [this](const auto& place) {
        each_binding([&place](const net::ConnKey& k, std::uint32_t b) {
          place(net::ConnKeyHash{}(k), b);
        });
      });
    }
    index_.insert(net::ConnKeyHash{}(key), s);
  }

  static std::uint64_t port_key(net::L4Proto proto, net::Ipv4Address ip,
                                std::uint16_t port) {
    return (std::uint64_t{ip.value()} << 24) | (std::uint64_t{port} << 8) |
           static_cast<std::uint64_t>(proto) | (1ULL << 60);
  }
  static std::uint64_t port_hash(std::uint64_t key) {
    const std::uint64_t h = key * 0x9e3779b97f4a7c15ULL;
    return h ^ (h >> 29);
  }
  void port_add(const net::ConnKey& key) {
    if (!ports_built_) return;
    if (net::slab::wants_grow(ports_live_, ports_dead_, port_keys_.size())) {
      port_grow();
    }
    const std::uint64_t pk = port_key(key.proto, key.dst_ip, key.dst_port);
    const std::size_t n = port_keys_.size();
    std::size_t tomb = ~std::size_t{0};
    for (std::size_t i = port_hash(pk) % n;; i = i + 1 == n ? 0 : i + 1) {
      const std::uint64_t k = port_keys_[i];
      if (k == pk) {
        ++port_counts_[i];
        return;
      }
      if (k == ~0ULL && tomb == ~std::size_t{0}) tomb = i;
      if (k == 0) {
        const std::size_t dst = tomb != ~std::size_t{0} ? tomb : i;
        if (tomb != ~std::size_t{0}) --ports_dead_;
        port_keys_[dst] = pk;
        port_counts_[dst] = 1;
        ++ports_live_;
        return;
      }
    }
  }
  void port_remove(const net::ConnKey& key) {
    if (!ports_built_ || port_keys_.empty()) return;
    const std::uint64_t pk = port_key(key.proto, key.dst_ip, key.dst_port);
    const std::size_t n = port_keys_.size();
    for (std::size_t i = port_hash(pk) % n;; i = i + 1 == n ? 0 : i + 1) {
      const std::uint64_t k = port_keys_[i];
      if (k == 0) return;
      if (k == pk) {
        if (port_counts_[i] > 0 && --port_counts_[i] == 0) {
          port_keys_[i] = ~0ULL;
          --ports_live_;
          ++ports_dead_;
        }
        return;
      }
    }
  }
  void port_grow() {
    const std::vector<std::uint64_t> old_keys = std::move(port_keys_);
    const std::vector<std::uint32_t> old_counts = std::move(port_counts_);
    std::size_t live = 0;
    for (const std::uint64_t k : old_keys) live += (k != 0 && k != ~0ULL);
    const std::size_t n = net::slab::sized_for(live);
    port_keys_.assign(n, 0);
    port_counts_.assign(n, 0);
    port_keys_.shrink_to_fit();
    port_counts_.shrink_to_fit();
    ports_live_ = 0;
    ports_dead_ = 0;
    for (std::size_t j = 0; j < old_keys.size(); ++j) {
      const std::uint64_t k = old_keys[j];
      if (k == 0 || k == ~0ULL) continue;
      std::size_t i = port_hash(k) % n;
      while (port_keys_[i] != 0) i = i + 1 == n ? 0 : i + 1;
      port_keys_[i] = k;
      port_counts_[i] = old_counts[j];
      ++ports_live_;
    }
  }

  net::slab::Arena<Slot, &Slot::next_free> slots_;
  Index index_;
  std::vector<std::uint64_t> port_keys_;
  std::vector<std::uint32_t> port_counts_;
  std::size_t ports_live_ = 0;
  std::size_t ports_dead_ = 0;
  bool ports_built_ = false;
};

}  // namespace untagged

/// Tuple universe small enough that tuples repeat across connections
/// (rebinds, duplicate origs) and every digest value recurs; ConnKeyHash
/// is fixed, so the overlap comes from the tuples instead of a weak hash.
/// `hosts` scales the universe: 2 * hosts * 3 * 6 * 3 tuples.
net::ConnKey small_tuple(std::mt19937& rng, std::uint32_t hosts) {
  net::ConnKey k = key_of(1 + rng() % hosts, 1 + rng() % 3,
                          std::uint16_t(1 + rng() % 6),
                          std::uint16_t(1 + rng() % 3));
  if (rng() % 4 == 0) k.proto = net::L4Proto::kTcp;
  return k;
}

TEST(SlabTableContract, TaggedConnTableMatchesUntaggedProbing) {
  for (std::uint32_t seed = 11; seed <= 18; ++seed) {
    std::mt19937 rng(seed);
    // Half the seeds hold several connections per tuple on average.
    const std::uint32_t hosts = seed % 2 == 0 ? 12 : 2;
    const int sweep_every = seed % 2 == 0 ? 250 : 10;
    net::ConnTable table;
    untagged::ConnTable ref;
    // Live ids, and those still awaiting confirmation.
    std::vector<std::uint64_t> live;
    std::vector<std::uint64_t> unconfirmed;
    std::vector<std::uint64_t> dead;
    std::size_t peak = 0;
    const auto take = [&rng](std::vector<std::uint64_t>& v) {
      const std::size_t i = rng() % v.size();
      const std::uint64_t id = v[i];
      v[i] = v.back();
      v.pop_back();
      return id;
    };
    const auto same_find = [&](const net::ConnKey& k,
                               const std::string& at) {
      const auto got = table.find(k);
      const auto want = ref.find(k);
      ASSERT_EQ(got.id, want.id) << at;
    };
    for (int step = 0; step < 8000; ++step) {
      const std::string at =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      // Grow (index rebuilds at each 85% mark), churn at a steady
      // population (tombstone-driven rebuilds, each leaving a duplicate
      // binding, and LIFO slot reuse), then drain.
      const std::uint32_t op = rng() % 100;
      const std::uint32_t create_share =
          step < 2500 ? 40 : step < 6500 ? 25 : 15;
      net::ConnKey k = small_tuple(rng, hosts);
      if (op < create_share || live.empty()) {
        net::ConnEntry e;
        e.orig = k;
        const auto a = table.create(e);
        const auto b = ref.create(e);
        ASSERT_EQ(a.id, b.id) << at;
        live.push_back(a.id);
        unconfirmed.push_back(a.id);
      } else if (op < 60 && !unconfirmed.empty()) {
        // Netfilter's confirmation: the reply is set, then registered.
        // It may equal the orig, or rebind another connection's tuple.
        const std::uint64_t id = take(unconfirmed);
        const std::uint32_t pick = rng() % 3;
        net::ConnKey reply = k;
        if (pick == 0) reply = table.find_id(id).entry->orig;
        if (pick == 1 && live.size() > 1) {
          reply = table.find_id(live[rng() % live.size()]).entry->orig;
        }
        for (auto* e : {table.find_id(id).entry, ref.find_id(id).entry}) {
          e->reply = reply;
          e->confirmed = true;
        }
        table.register_reply(id, reply);
        ref.register_reply(id, reply);
        k = reply;
      } else if (op < 80) {
        const std::uint64_t id = take(live);
        std::erase(unconfirmed, id);
        k = table.find_id(id).entry->orig;
        table.erase(id);
        ref.erase(id);
        dead.push_back(id);
      } else if (op < 82 && !dead.empty()) {
        const std::uint64_t id = dead[rng() % dead.size()];
        table.erase(id);  // stale id: a no-op on both
        ref.erase(id);
      } else if (op < 90) {
        ASSERT_EQ(table.port_in_use(k.proto, k.dst_ip, k.dst_port),
                  ref.port_in_use(k.proto, k.dst_ip, k.dst_port))
            << at;
      }
      // Orig, reply and absent tuples alike: the operated-on tuple and
      // its mirror image.
      same_find(k, at);
      same_find(key_of(k.dst_ip.value(), k.src_ip.value(), k.dst_port,
                       k.src_port),
                at);
      ASSERT_EQ(table.state_bytes(), ref.state_bytes()) << at;
      peak = std::max(peak, live.size());
      if (step % sweep_every == sweep_every - 1) {
        for (std::uint32_t a = 1; a <= hosts; ++a) {
          for (std::uint32_t b = 1; b <= 3; ++b) {
            for (std::uint16_t sp = 1; sp <= 6; ++sp) {
              for (std::uint16_t dp = 1; dp <= 3; ++dp) {
                net::ConnKey t = key_of(a, b, sp, dp);
                same_find(t, at);
                same_find(key_of(b, a, dp, sp), at);
                t.proto = net::L4Proto::kTcp;
                same_find(t, at);
                ASSERT_EQ(table.port_in_use(t.proto, t.dst_ip, t.dst_port),
                          ref.port_in_use(t.proto, t.dst_ip, t.dst_port))
                    << at;
              }
            }
          }
        }
      }
    }
    // Enough connections for several rebuilds, and slot reuse throughout.
    EXPECT_GT(peak, 300u) << seed;
  }
}

TEST(SlabTableContract, IndexBucketRefsStopShortOf24Bits) {
  using net::slab::bucket_of;
  using net::slab::kMaxSlots;
  EXPECT_EQ(kMaxSlots, (1u << 24) - 2);
  EXPECT_EQ(bucket_of(0xab, 5), 0xab000005u);
  EXPECT_EQ(bucket_of(0xff, kMaxSlots - 1), 0xfffffffdu);
  // The next refs would spell the tombstone and empty buckets, or spill
  // into the tag: the table throws instead of aliasing.
  EXPECT_THROW((void)bucket_of(0xff, kMaxSlots), std::length_error);
  EXPECT_THROW((void)bucket_of(0, kMaxSlots + 1), std::length_error);
  EXPECT_THROW((void)bucket_of(0, 1u << 24), std::length_error);
}

// ---- One-pass GC invalidation ---------------------------------------------
//
// Conntrack GC flushes the flow caches once per reaped id.  The one-pass
// flush must erase the same entries in the same order (by id in reap
// order, most-recent-first within an id): the erase order is the free
// list, which decides slot reuse, reindex order and so rebuild timing.

/// Drives two identical tables through warm-up, one reap (per-id loop on
/// `per_id`, one pass on `batched`) and growth past an index rebuild,
/// comparing them after every step.  Slot reuse is observed through the
/// stable entry addresses: each new entry must take the slot of the same
/// reaped entry in both tables.
template <typename Table, typename Path, typename PerId, typename OnePass>
void expect_same_reap(std::uint32_t seed, const PerId& per_id_flush,
                      const OnePass& one_pass_flush) {
  std::mt19937 rng(seed);
  const std::size_t capacity = 64 + rng() % 192;
  Table per_id(capacity);
  Table batched(capacity);
  const auto both = [&](const auto& op) {
    op(per_id);
    op(batched);
  };
  const auto order = [](Table& t) {
    std::vector<std::pair<std::uint32_t, std::uint64_t>> out;
    (void)t.invalidate_if([&out](const auto& k, const Path& p) {
      out.emplace_back(k.src_ip.value(), p.ct_id);
      return false;
    });
    return out;
  };
  const auto expect_same = [&](const std::string& at) {
    ASSERT_EQ(per_id.state_bytes(), batched.state_bytes()) << at;
    ASSERT_EQ(per_id.size(), batched.size()) << at;
    ASSERT_EQ(per_id.hits(), batched.hits()) << at;
    ASSERT_EQ(per_id.misses(), batched.misses()) << at;
    ASSERT_EQ(per_id.evictions(), batched.evictions()) << at;
    ASSERT_EQ(per_id.invalidations(), batched.invalidations()) << at;
    ASSERT_EQ(order(per_id), order(batched)) << at;
  };
  const std::string tag = "seed " + std::to_string(seed);

  // Warm up to ~3/4 of capacity; ct ids repeat so one id backs several
  // entries, and lookups shuffle the LRU order.
  const std::uint32_t conns = std::uint32_t(capacity / 4);
  std::uint32_t next_key = 0;
  for (std::size_t i = 0; i < capacity * 3 / 4; ++i) {
    Path p;
    p.ct_id = 1 + rng() % conns;
    const auto k = flow_key(next_key++);
    both([&](Table& t) { t.insert(k, p); });
    const auto probe = flow_key(rng() % next_key);
    both([&](Table& t) { (void)t.lookup(probe); });
  }
  expect_same(tag + " warm");

  // Slot address -> resident key, per table.
  const auto slots = [&](Table& t) {
    std::unordered_map<const void*, std::uint32_t> at;
    for (const auto& [ip, ct] : order(t)) {
      at[t.peek(flow_key(ip - 1))] = ip - 1;
    }
    return at;
  };
  const auto per_id_slots = slots(per_id);
  const auto batched_slots = slots(batched);

  // Reap a third of the ids in shuffled order, plus a repeat and an id
  // nothing carries.
  std::vector<std::uint64_t> reaped;
  for (std::uint32_t c = 1; c <= conns; ++c) {
    if (rng() % 3 == 0) reaped.push_back(c);
  }
  std::shuffle(reaped.begin(), reaped.end(), rng);
  if (!reaped.empty()) reaped.push_back(reaped.front());
  reaped.push_back(conns + 1);
  std::size_t flushed = 0;
  for (const std::uint64_t id : reaped) flushed += per_id_flush(per_id, id);
  ASSERT_EQ(one_pass_flush(batched, reaped), flushed) << tag;
  ASSERT_GT(flushed, 0u) << tag;
  expect_same(tag + " reaped");

  // Grow past capacity: freed slots are reused LIFO, then the index
  // rebuilds (in slot order) and evictions churn it.
  for (std::size_t i = 0; i < capacity * 2; ++i) {
    Path p;
    p.ct_id = conns + 2 + i;
    const auto k = flow_key(next_key++);
    both([&](Table& t) { t.insert(k, p); });
    const std::string at = tag + " insert " + std::to_string(i);
    if (i < flushed) {
      const auto a = per_id_slots.find(per_id.peek(k));
      const auto b = batched_slots.find(batched.peek(k));
      ASSERT_TRUE(a != per_id_slots.end() && b != batched_slots.end()) << at;
      ASSERT_EQ(a->second, b->second) << at << ": reused another slot";
    }
    expect_same(at);
  }
}

TEST(SlabTableContract, OnePassConnInvalidationMatchesPerIdLoop) {
  using net::flowcache::CachedPath;
  using net::flowcache::FlowCache;
  using Egress = net::oncache::SlabCache<net::flowcache::FlowKey,
                                         net::oncache::EgressPath,
                                         net::flowcache::FlowKeyHash>;
  for (const std::uint32_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    expect_same_reap<FlowCache, CachedPath>(
        seed,
        [](FlowCache& t, std::uint64_t id) { return t.invalidate_conn(id); },
        [](FlowCache& t, std::span<const std::uint64_t> ids) {
          return t.invalidate_conns(ids);
        });
    expect_same_reap<Egress, net::oncache::EgressPath>(
        seed,
        [](Egress& t, std::uint64_t id) {
          return t.invalidate_if(
              [id](const net::flowcache::FlowKey&,
                   const net::oncache::EgressPath& p) {
                return p.ct_id == id;
              });
        },
        [](Egress& t, std::span<const std::uint64_t> ids) {
          return t.invalidate_ids(
              ids, [](const net::flowcache::FlowKey&,
                      const net::oncache::EgressPath& p) { return p.ct_id; });
        });
  }
}

// ---- FabricSwitch ECMP ----------------------------------------------------

TEST(FabricSwitch, EcmpPickIsAPureFunctionOfTheFlow) {
  sim::Engine engine;
  sim::CostModel costs;
  net::FabricDirectory dir;
  net::FabricSwitch sw(engine, "tor0", costs, dir, /*ecmp_salt=*/7);
  for (int u = 0; u < 4; ++u) sw.add_uplink(sw.add_port());

  auto frame_of = [](std::uint32_t flow) {
    net::EthernetFrame f;
    f.packet.src_ip = net::Ipv4Address(10 + flow);
    f.packet.dst_ip = net::Ipv4Address(0x0a0a0001);
    f.packet.src_port = std::uint16_t(10000 + flow);
    f.packet.dst_port = 80;
    f.packet.proto = net::L4Proto::kUdp;
    return f;
  };

  // Stable per flow (any call order, any repetition), spread across the
  // group over many flows.
  std::vector<std::size_t> first;
  for (std::uint32_t i = 0; i < 64; ++i) {
    first.push_back(sw.ecmp_pick(frame_of(i)));
  }
  for (std::uint32_t i = 64; i-- > 0;) {
    EXPECT_EQ(sw.ecmp_pick(frame_of(i)), first[i]) << i;
  }
  std::vector<int> used(4, 0);
  for (const std::size_t pick : first) {
    ASSERT_LT(pick, 4u);
    used[pick] = 1;
  }
  EXPECT_GE(used[0] + used[1] + used[2] + used[3], 3)
      << "64 distinct flows should spread over the uplink group";

  // Both directions of one flow may differ (the hash is direction
  // sensitive, which is fine — each direction is itself stable), but the
  // ARP and IPv4 domains must both resolve without touching state.
  net::EthernetFrame arp;
  arp.ethertype = 0x0806;
  arp.arp_is_request = true;
  arp.arp_sender_ip = net::Ipv4Address(1);
  arp.arp_target_ip = net::Ipv4Address(2);
  const std::size_t a = sw.ecmp_pick(arp);
  EXPECT_EQ(sw.ecmp_pick(arp), a);
}

// ---- macro-scale scenario -------------------------------------------------

scenario::MacroScaleConfig tiny_config() {
  scenario::MacroScaleConfig cfg;
  cfg.seed = 7;
  cfg.machines = 4;
  cfg.machines_per_rack = 2;
  cfg.spines = 2;
  cfg.trace_users = 16;
  cfg.flows = 80;
  cfg.tcp_streams = 1;
  cfg.arrival_window = sim::milliseconds(40);
  cfg.drain = sim::milliseconds(40);
  return cfg;
}

TEST(MacroScale, ChurnRunsToCompletionWithoutLeaks) {
  const std::int64_t pool_before = net::PacketPool::live_nodes();
  const auto r = scenario::run_macro_scale(tiny_config());
  EXPECT_EQ(net::PacketPool::live_nodes(), pool_before)
      << "packet pool nodes leaked across the churn run";
  EXPECT_EQ(r.flows_completed, 80.0);
  EXPECT_GT(r.peak_concurrent_flows, 0u);
  EXPECT_GT(r.conntrack_peak_entries, 0u);
  EXPECT_GT(r.conntrack_gc_reaped, 0u)
      << "idle GC should reap departed flows while the run is live";
  EXPECT_GT(r.state_bytes_per_flow, 0.0);
  EXPECT_GT(r.stream_bytes_delivered, 0.0);
}

TEST(MacroScale, ShardsAndWorkersDoNotChangeSimulatedOutputs) {
  // The multi-path fabric keeps the conservative-parallel guarantee: the
  // ECMP choice and the keyed wire order are functions of the flow, so
  // every shard/worker shape must reproduce the single-engine run.
  const auto base = scenario::run_macro_scale(tiny_config());
  struct Shape {
    int shards;
    unsigned workers;
  };
  for (const Shape s : {Shape{2, 1}, Shape{2, 2}, Shape{4, 2}, Shape{4, 4}}) {
    auto cfg = tiny_config();
    cfg.shards = s.shards;
    cfg.max_workers = s.workers;
    const auto r = scenario::run_macro_scale(cfg);
    const std::string at = " at shards=" + std::to_string(s.shards) +
                           " workers=" + std::to_string(s.workers);
    EXPECT_EQ(r.flows_completed, base.flows_completed) << at;
    EXPECT_EQ(r.rr_transactions, base.rr_transactions) << at;
    EXPECT_EQ(r.rr_latency_ns_sum, base.rr_latency_ns_sum) << at;
    EXPECT_EQ(r.stream_bytes_delivered, base.stream_bytes_delivered) << at;
    EXPECT_EQ(r.flow_digest, base.flow_digest) << at;
    EXPECT_EQ(r.peak_concurrent_flows, base.peak_concurrent_flows) << at;
    EXPECT_EQ(r.conntrack_peak_entries, base.conntrack_peak_entries) << at;
    EXPECT_EQ(r.state_bytes_at_peak, base.state_bytes_at_peak) << at;
    EXPECT_EQ(r.conntrack_gc_reaped, base.conntrack_gc_reaped) << at;
    EXPECT_EQ(r.events_total, base.events_total) << at;
  }
}

}  // namespace
