// Compact connection-tracking store: one open-addressed tuple index over
// slab-allocated entries.
//
// The original conntrack kept two node-based maps — tuple -> id and
// id -> entry — so every tracked flow paid three heap nodes (orig tuple,
// reply tuple, entry) plus two bucket arrays, and the SNAT port allocator
// scanned the whole tuple map per candidate.  At the macro scale this
// repo now targets (hundreds of machines, ~10^5..10^6 concurrent flows)
// that footprint and scan dominate; ONCache (PAPERS.md) makes the same
// observation for overlay datapaths.  This store keeps the exact external
// semantics (ids are opaque, both tuples of a confirmed connection resolve
// to one entry, gc reaps by idle time) on the shared slab storage
// (net/slab_table.hpp), plus:
//
//   * one tuple index covering both directions of every connection;
//   * ids encoding (slot, generation), so id lookup (the packet fast path
//     and the flow-cache liveness check) is O(1) with no hashing;
//   * a flat (proto, ip, port) occupancy index mirroring the registered
//     tuples, so NAT port allocation is O(1) per candidate instead of a
//     full-table scan.
//
// state_bytes() reports the resident footprint so benches can gate
// bytes-of-state-per-flow as a first-class metric.
#pragma once

#include <cstdint>
#include <vector>

#include "net/address.hpp"
#include "net/packet.hpp"
#include "net/slab_table.hpp"
#include "sim/time.hpp"

namespace nestv::net {

/// 5-tuple key for connection tracking (direction-sensitive).
struct ConnKey {
  Ipv4Address src_ip;
  Ipv4Address dst_ip;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  L4Proto proto = L4Proto::kUdp;

  friend bool operator==(const ConnKey&, const ConnKey&) = default;
};

struct ConnKeyHash {
  std::size_t operator()(const ConnKey& k) const noexcept;
};

/// A tracked connection with its NAT bindings.  Field order packs the
/// NAT scalars and flags into one 16-byte block (64 bytes total; this
/// struct is the unit of the conntrack slab, so padding here is paid per
/// tracked flow on every stack).
struct ConnEntry {
  ConnKey orig;        ///< initiator's original tuple
  ConnKey reply;       ///< tuple reply packets carry (post-NAT view)
  Ipv4Address snat_ip;
  Ipv4Address dnat_ip;
  std::uint16_t snat_port = 0;
  std::uint16_t dnat_port = 0;
  bool snat = false;
  bool dnat = false;
  /// A connection is confirmed once its first packet completed POSTROUTING
  /// and the reply tuple is registered (mirrors nf_conntrack_confirm).
  bool confirmed = false;
  sim::TimePoint last_seen = 0;
  std::uint64_t packets = 0;
};

class ConnTable {
 public:
  /// A live connection: the opaque id plus the stable entry pointer.
  /// Entry pointers stay valid across inserts (slab storage) until the
  /// connection is erased.
  struct Ref {
    std::uint64_t id = 0;
    ConnEntry* entry = nullptr;
    explicit operator bool() const { return entry != nullptr; }
  };

  ConnTable() = default;

  /// Looks up a connection by either of its registered tuples.
  [[nodiscard]] Ref find(const ConnKey& key);
  [[nodiscard]] const ConnEntry* find(const ConnKey& key) const;

  /// O(1) id lookup; null Ref if the id was reaped (slot generation moved).
  [[nodiscard]] Ref find_id(std::uint64_t id);
  [[nodiscard]] bool alive(std::uint64_t id) const;

  /// Inserts a new connection, registering entry.orig in the index.
  /// Returns the new connection's Ref.
  Ref create(const ConnEntry& entry);

  /// Registers the (confirmed) reply tuple of `id`.  If the tuple is
  /// already bound to another connection it is re-bound, matching the
  /// overwrite semantics of the map-based implementation.  Known quirk,
  /// kept because gated outputs depend on it: the re-bind adds no port
  /// count, and when the old owner still registers the tuple (an
  /// unconfirmed inbound flow) the next index rebuild, which re-inserts
  /// in slot order, can resolve it to the old owner again.  Call it once
  /// the entry is confirmed with entry.reply == `reply`, as netfilter's
  /// confirmation does: the index tags follow the entry's tuples.
  void register_reply(std::uint64_t id, const ConnKey& reply);

  /// Erases the connection and both its tuples; no-op on a dead id.
  void erase(std::uint64_t id);

  [[nodiscard]] std::size_t size() const { return live_; }

  /// True if any registered tuple has (proto, dst_ip, dst_port) equal to
  /// the arguments — the NAT port-allocation clash test.  The occupancy
  /// index behind it is built lazily on the first call (and mirrored on
  /// every insert/erase afterwards): only stacks that actually allocate
  /// NAT ports ever pay for it, which at macro scale is a minority.
  [[nodiscard]] bool port_in_use(L4Proto proto, Ipv4Address ip,
                                 std::uint16_t port);

  /// Slot-order iteration bound (slots in [0, slot_count()) may be free).
  [[nodiscard]] std::size_t slot_count() const { return slots_.used(); }
  /// Ref for slot `i`, or null when the slot is free.
  [[nodiscard]] Ref at_slot(std::size_t i);

  /// Resident bytes: slab chunks + tuple index + port-use index.
  [[nodiscard]] std::size_t state_bytes() const;

 private:
  static constexpr std::uint32_t kOccupied = 0xfffffffeU;

  struct Slot {
    ConnEntry entry;
    std::uint32_t gen = 0;
    /// kOccupied while live; otherwise the free-list link.
    std::uint32_t next_free = slab::kNil;
  };

  [[nodiscard]] static std::uint64_t id_of(std::uint32_t s,
                                           std::uint32_t gen) {
    return (std::uint64_t{gen} << 32) | (s + 1);
  }
  /// Slot of `id`, or slab::kNil when the id is stale.
  [[nodiscard]] std::uint32_t slot_of(std::uint64_t id) const;
  [[nodiscard]] bool slot_has_tuple(std::uint32_t s,
                                    const ConnKey& key) const;
  /// Index tag of every bucket bound to a slot holding `e`: digests of
  /// both tuples it registers (see conn_table.cpp).
  [[nodiscard]] static std::uint8_t summary(const ConnEntry& e);
  /// Calls fn(tuple) for each tuple `e` registers: orig, plus the reply
  /// once confirmed (when it differs).
  template <typename Fn>
  static void each_tuple(const ConnEntry& e, const Fn& fn) {
    fn(e.orig);
    if (e.confirmed && !(e.reply == e.orig)) fn(e.reply);
  }
  /// Calls fn(tuple, slot) for every live slot's tuples, in slot order.
  template <typename Fn>
  void each_binding(const Fn& fn) const {
    for (std::uint32_t s = 0; s < slots_.used(); ++s) {
      if (slots_[s].next_free != kOccupied) continue;
      each_tuple(slots_[s].entry, [&](const ConnKey& k) { fn(k, s); });
    }
  }
  void index_insert(const ConnKey& key, std::uint8_t tag, std::uint32_t s);

  [[nodiscard]] static std::uint64_t port_key(L4Proto proto, Ipv4Address ip,
                                              std::uint16_t port) {
    return (std::uint64_t{ip.value()} << 24) |
           (std::uint64_t{port} << 8) | static_cast<std::uint64_t>(proto) |
           (1ULL << 60);  // keep keys nonzero
  }
  void port_add(const ConnKey& key);
  void port_remove(const ConnKey& key);
  void port_grow();

  slab::Arena<Slot, &Slot::next_free> slots_;
  std::size_t live_ = 0;
  /// Tuple index over both directions; allocated on the first create().
  /// Invariant: every bucket bound to slot s carries summary(s) or the
  /// wildcard tag, so the tag filter never hides a slot that holds the
  /// probed key.  create, rebuilds and rebinds write summary(s);
  /// register_reply re-tags the slot's buckets, whose summary the
  /// confirmation changed; erase wildcards the slot's buckets it leaves
  /// bound.  A per-tuple tag would not do: a probe for either tuple may
  /// stop at a bucket bound for the other (and the re-bind quirk above
  /// leaves such bindings), and first-match order is pinned.
  slab::Index index_;

  /// Port-occupancy map, split into parallel arrays (12 bytes per bucket
  /// instead of a padded 16-byte struct): port_keys_[i] holds the packed
  /// (proto, ip, port) key (0 = empty, ~0ULL = tombstone), port_counts_[i]
  /// how many registered tuples carry it.
  std::vector<std::uint64_t> port_keys_;
  std::vector<std::uint32_t> port_counts_;
  std::size_t ports_live_ = 0;
  std::size_t ports_dead_ = 0;
  bool ports_built_ = false;  ///< index materialized (first port_in_use)
};

}  // namespace nestv::net
