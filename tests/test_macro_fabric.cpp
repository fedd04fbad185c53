// Macro-scale layers: the compact per-flow state stores (ConnTable, the
// slab FlowCache, and the slab table contract they share), the
// hierarchical fabric's deterministic ECMP, and the churn scenario's
// execution-mode equivalence (shards / worker counts).
#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/conn_table.hpp"
#include "net/fabric_switch.hpp"
#include "net/flowcache/flowcache.hpp"
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
