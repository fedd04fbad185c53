// Per-flow fast-path cache (the ONCache idea applied to the simulation).
//
// Every packet of an established flow normally walks the full per-hop
// chain — netfilter hooks with rule scans, conntrack lookup, FIB lookup,
// ARP resolution — yet for all but the first packet the outcome is fully
// determined by the flow.  A FlowCache memoizes that outcome as a
// CachedPath: the forward decision (egress interface + resolved next-hop
// MAC, or local delivery, or drop), the NAT header rewrite, and one
// aggregated "fast path" CPU charge that replaces the per-hop costs.
//
// Coherence is the hard part, handled two ways:
//  * generation-stamped invalidation: entries record the cache generation
//    and the owning stack's routing-table generation at insert; a bumped
//    generation turns every stale entry into a lazy miss (O(1) full flush,
//    used for route-table edits).
//  * targeted invalidation: rule-table edits, FDB/neighbour expiry, NIC
//    hot-unplug and conntrack expiry flush exactly the affected entries
//    (invalidate_match / invalidate_mac / invalidate_ifindex /
//    invalidate_conn), so unrelated flows keep their fast path.
//
// Storage is the shared slab LRU table (net/slab_table.hpp): entries live
// in chunked slots, never per-entry heap nodes.  The node-based
// std::list + std::unordered_map it replaces cost ~2.5x the bytes per
// cached flow (bench/abl_conntrack reports both); at the macro scale
// target (~10^5..10^6 concurrent flows across hundreds of stacks) that
// footprint is the difference between fitting in cache and not.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "net/flowcache/flow_key.hpp"
#include "net/netfilter.hpp"
#include "net/slab_table.hpp"

namespace nestv::net::flowcache {

/// The memoized verdict chain for one flow direction.  40 bytes: this is
/// the unit of the flow-cache slab, so every field earns its width —
/// the fast-path charge is u32 nanoseconds (per-packet charges are
/// hundreds of ns), the validity stamps are u16 (compared for equality
/// against counters that move once per route/rule edit; aliasing needs
/// an entry to sit resident across exactly 65536 edits, orders beyond
/// any run), ifindexes are i16 per-stack ordinals, and no interface
/// names are stored (rule-match targeting resolves the key's ingress
/// ifindex and the path's egress ifindex through the owning stack,
/// whose names are immutable for the lifetime of an entry — NIC unplug
/// flushes by ifindex first).
struct CachedPath {
  enum class Action : std::uint8_t { kForward, kDeliverLocal, kDrop };

  /// Conntrack entry backing this flow; a cached path whose backing
  /// expired must not serve hits (checked by the owning stack).
  std::uint64_t ct_id = 0;

  /// Post-hook header view (the NAT rewrite to apply on a hit).  Equal to
  /// the key's tuple when the flow is not translated.
  Ipv4Address new_src_ip;
  Ipv4Address new_dst_ip;
  std::uint16_t new_src_port = 0;
  std::uint16_t new_dst_port = 0;

  /// Aggregated per-hop CPU charge of the fast path (replaces hook +
  /// route + ARP costs on a hit).
  std::uint32_t fast_cost = 0;

  // Validity stamps (set by FlowCache / the owning stack at insert).
  std::uint16_t generation = 0;   ///< cache generation at insert
  std::uint16_t routes_gen = 0;   ///< owning stack's routing generation

  /// Resolved L2 next hop (kForward): the cached path skips ARP too.
  MacAddress next_hop_mac;

  std::int16_t out_ifindex = -1;  ///< kForward only

  Action action = Action::kForward;
  bool rewrites = false;
};

/// LRU cache of CachedPath entries with generation-stamped and targeted
/// invalidation.  lookup() does not check routes_gen or conntrack
/// liveness: the owning stack validates those (it owns the authoritative
/// state) and calls invalidate() on failure.
class FlowCache : public slab::LruTable<FlowKey, CachedPath, FlowKeyHash> {
 public:
  explicit FlowCache(std::size_t capacity = 4096) : LruTable(capacity) {}

  /// Rule-table edit: flushes entries whose ingress *or* post-rewrite
  /// header view matches the changed rule's predicate.  `iface_name`
  /// resolves an ifindex to the owning stack's interface name ("" when
  /// out of range) — entries store ifindexes, not names.
  std::size_t invalidate_match(
      const RuleMatch& match,
      const std::function<std::string(int)>& iface_name);
  /// FDB / neighbour expiry: flushes entries forwarded via `mac`.
  std::size_t invalidate_mac(MacAddress mac);
  /// NIC hot-unplug: flushes entries entering or leaving `ifindex`.
  std::size_t invalidate_ifindex(int ifindex);
  /// Conntrack expiry: flushes entries backed by connection `ct_id`.
  std::size_t invalidate_conn(std::uint64_t ct_id);
  /// Conntrack GC: invalidate_conn for each of `ct_ids` in order, in one
  /// walk (see LruTable::invalidate_ids).
  std::size_t invalidate_conns(std::span<const std::uint64_t> ct_ids);
};

}  // namespace nestv::net::flowcache
