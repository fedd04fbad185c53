#include "net/stack.hpp"

#include "net/oncache.hpp"
#include "net/pcap.hpp"
#include "net/trace.hpp"
#include "sim/test_hooks.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "net/tcp.hpp"

namespace nestv::net {

// ---- FullStack --------------------------------------------------------------

FullStack::FullStack(sim::Engine& engine, std::string name,
                     const sim::CostModel& costs,
                     sim::SerialResource* softirq)
    : StackBackend(engine, std::move(name), costs, softirq),
      nf_(costs),
      fcache_(costs.flowcache_capacity) {
  // Rule-table edits flush exactly the cached flows the changed rule
  // could have matched (on either their ingress or post-NAT header view)
  // — from the flowcache and from the overlay fast-path cache when one is
  // attached.
  nf_.set_mutation_listener([this](const RuleMatch& m) {
    const auto name_of = [this](int ifindex) {
      const auto i = static_cast<std::size_t>(ifindex);
      return ifindex >= 0 && i < ifaces_.size() ? ifaces_[i].cfg.name
                                                : std::string{};
    };
    if (!sim::test_hooks::skip_flowcache_rule_invalidation) {
      fcache_.invalidate_match(m, name_of);
    }
    if (oncache_ != nullptr &&
        !sim::test_hooks::skip_oncache_rule_invalidation) {
      oncache_->invalidate_rule_match(m, name_of);
    }
  });
  // Interface 0 is always loopback.
  Interface lo;
  lo.cfg.name = "lo";
  lo.cfg.ip = Ipv4Address(127, 0, 0, 1);
  lo.cfg.subnet = Ipv4Cidr(Ipv4Address(127, 0, 0, 0), 8);
  lo.cfg.mtu = 65536;
  lo.cfg.gso_bytes = costs.gso_loopback;
  ifaces_.push_back(std::move(lo));
  routes_.add_connected(ifaces_[0].cfg.subnet, 0);
}

FullStack::~FullStack() = default;

int FullStack::add_interface(InterfaceBackend& backend,
                             const InterfaceConfig& cfg) {
  const int ifindex = static_cast<int>(ifaces_.size());
  Interface itf;
  itf.cfg = cfg;
  itf.backend = &backend;
  ifaces_.push_back(std::move(itf));
  backend.set_rx(
      [this, ifindex](EthernetFrame f) { rx(ifindex, std::move(f)); });
  backend.set_rx_train([this, ifindex](std::vector<EthernetFrame> fs) {
    rx_train(ifindex, std::move(fs));
  });
  if (cfg.subnet.prefix_len() > 0) {
    routes_.add_connected(cfg.subnet, ifindex);
  }
  return ifindex;
}

void FullStack::configure_loopback(std::uint32_t gso_bytes) {
  ifaces_[0].cfg.gso_bytes = gso_bytes;
}

int FullStack::ifindex_of(const std::string& name) const {
  for (std::size_t i = 0; i < ifaces_.size(); ++i) {
    if (ifaces_[i].cfg.name == name) return static_cast<int>(i);
  }
  return -1;
}

Ipv4Address FullStack::iface_ip(int ifindex) const {
  return ifaces_.at(static_cast<std::size_t>(ifindex)).cfg.ip;
}

MacAddress FullStack::iface_mac(int ifindex) const {
  return ifaces_.at(static_cast<std::size_t>(ifindex)).cfg.mac;
}

void FullStack::set_iface_gso(int ifindex, std::uint32_t gso_bytes) {
  ifaces_.at(static_cast<std::size_t>(ifindex)).cfg.gso_bytes = gso_bytes;
}

void FullStack::seed_neighbor(int ifindex, Ipv4Address ip,
                              MacAddress mac) {
  ifaces_.at(static_cast<std::size_t>(ifindex))
      .neighbors.insert(ip, mac, engine_->now());
}

std::uint32_t FullStack::egress_gso(Ipv4Address dst) const {
  if (is_local_address(dst)) return ifaces_[0].cfg.gso_bytes;
  const auto r = routes_.lookup(dst);
  if (!r || r->ifindex < 0 ||
      static_cast<std::size_t>(r->ifindex) >= ifaces_.size()) {
    return 1448;
  }
  return ifaces_[static_cast<std::size_t>(r->ifindex)].cfg.gso_bytes;
}

bool FullStack::is_local_address(Ipv4Address a) const {
  if (a.is_loopback()) return true;
  for (const Interface& i : ifaces_) {
    if (!i.cfg.ip.is_unspecified() && i.cfg.ip == a) return true;
  }
  return false;
}

// ---- RX path ----------------------------------------------------------------

void FullStack::rx(int ifindex, EthernetFrame frame) {
  const Interface& itf = ifaces_.at(static_cast<std::size_t>(ifindex));
  if (capture_ != nullptr) capture_->record(engine_->now(), frame);
  // MAC filter: frames not for us (Hostlo's reflect-to-all-queues shows
  // every endpoint every frame) cost a lookup and are dropped here.
  if (!frame.dst.is_broadcast() && !frame.dst.is_multicast() &&
      frame.dst != itf.cfg.mac) {
    softirq_run(costs_->arp_hit, [this] { ++dropped_; });
    return;
  }
  if (frame.ethertype == 0x0806) {
    softirq_run(costs_->arp_hit,
                [this, ifindex, f = std::move(frame)] { handle_arp(ifindex, f); });
    return;
  }
  if (frame.ethertype != 0x0800) {
    ++dropped_;
    return;
  }
  Packet p = std::move(frame.packet);
  if (nestv_trace_enabled())
    std::fprintf(stderr, "[%s t=%llu] rx if=%d %s\n", name_.c_str(),
                 (unsigned long long)engine_->now(), ifindex, p.describe().c_str());
  p.ct_id = 0;  // conntrack attachment is per-stack
  p.ct_reply = false;
  if (gro_enabled_ && forced_resegment_ == 0 && p.proto == L4Proto::kTcp &&
      p.payload_bytes > 0 && !p.inner) {
    gro_rx(ifindex, std::move(p));
    return;
  }
  ip_rx(ifindex, std::move(p));
}

void FullStack::rx_train(int ifindex, std::vector<EthernetFrame> frames) {
  if (frames.size() == 1) {
    rx(ifindex, std::move(frames[0]));
    return;
  }
  const Interface& itf = ifaces_.at(static_cast<std::size_t>(ifindex));
  sim::Duration carry = 0;  // pooled per-frame softirq charges
  const auto flush_carry = [this, &carry] {
    if (carry != 0) {
      softirq_run(carry, [] {});
      carry = 0;
    }
  };
  for (EthernetFrame& frame : frames) {
    if (capture_ != nullptr) capture_->record(engine_->now(), frame);
    if (!frame.dst.is_broadcast() && !frame.dst.is_multicast() &&
        frame.dst != itf.cfg.mac) {
      // MAC filter miss: the lookup cost pools with the other per-frame
      // charges of this train.
      carry += costs_->arp_hit;
      ++dropped_;
      continue;
    }
    if (frame.ethertype == 0x0806) {
      flush_carry();
      softirq_run(costs_->arp_hit, [this, ifindex, f = std::move(frame)] {
        handle_arp(ifindex, f);
      });
      continue;
    }
    if (frame.ethertype != 0x0800) {
      ++dropped_;
      continue;
    }
    Packet p = std::move(frame.packet);
    if (nestv_trace_enabled())
      std::fprintf(stderr, "[%s t=%llu] rx if=%d %s\n", name_.c_str(),
                   (unsigned long long)engine_->now(), ifindex,
                   p.describe().c_str());
    p.ct_id = 0;
    p.ct_reply = false;
    if (gro_enabled_ && forced_resegment_ == 0 && p.proto == L4Proto::kTcp &&
        p.payload_bytes > 0 && !p.inner) {
      gro_rx(ifindex, std::move(p), &carry);
      continue;
    }
    // Non-GRO packets run their protocol work in submission order behind
    // whatever charges pooled so far.
    flush_carry();
    ip_rx(ifindex, std::move(p));
  }
  flush_carry();
}

void FullStack::gro_rx(int ifindex, Packet p, sim::Duration* carry) {
  const ConnKey key{p.src_ip, p.dst_ip, p.src_port, p.dst_port, p.proto};
  auto it = gro_flows_.find(key);
  // In train mode the per-frame merge charges pool in *carry; they must be
  // submitted before any flush so the flushed packet's protocol work queues
  // behind them on softirq, same order as per-frame delivery.
  const auto flush_carry = [this, carry] {
    if (carry != nullptr && *carry != 0) {
      softirq_run(*carry, [] {});
      *carry = 0;
    }
  };
  const auto charge_frame = [this, carry] {
    if (carry != nullptr) {
      *carry += costs_->gro_pkt;
    } else {
      softirq_run(costs_->gro_pkt, [] {});
    }
  };

  // Merge only strictly in-order continuations below the 64KB IP limit.
  if (it != gro_flows_.end()) {
    GroFlow& flow = it->second;
    const bool contiguous =
        flow.merged.tcp_seq + flow.merged.payload_bytes == p.tcp_seq;
    if (!contiguous ||
        flow.merged.payload_bytes + p.payload_bytes > 65000 ||
        flow.ifindex != ifindex) {
      flush_carry();
      gro_flush(key);
      it = gro_flows_.end();
    }
  }

  if (it == gro_flows_.end()) {
    GroFlow flow;
    flow.merged = p;
    flow.ifindex = ifindex;
    flow.count = 1;
    const bool flush_now = p.tcp_flags.psh;
    auto [ins, ok] = gro_flows_.emplace(key, std::move(flow));
    (void)ok;
    if (flush_now) {
      flush_carry();
      gro_flush(key);
    } else {
      ins->second.flush_timer = engine_->schedule_in(
          costs_->gro_timeout, [this, key] { gro_flush(key); });
    }
    charge_frame();
    return;
  }

  GroFlow& flow = it->second;
  flow.merged.payload_bytes += p.payload_bytes;
  flow.merged.tcp_ack = p.tcp_ack;
  flow.merged.tcp_flags.psh = flow.merged.tcp_flags.psh || p.tcp_flags.psh;
  flow.merged.tcp_flags.fin = flow.merged.tcp_flags.fin || p.tcp_flags.fin;
  ++flow.count;
  charge_frame();
  if (flow.merged.tcp_flags.psh || flow.merged.tcp_flags.fin) {
    flush_carry();
    gro_flush(key);
  }
}

void FullStack::reassemble_rx(int ifindex, Packet p) {
  const ReassemblyKey key{p.src_ip, p.dst_ip, p.ip_id};
  auto it = reassembly_.find(key);
  if (it == reassembly_.end()) {
    ReassemblyState state;
    state.ifindex = ifindex;
    state.timeout = engine_->schedule_in(sim::seconds(30), [this, key] {
      // RFC 791 reassembly timeout: discard the partial datagram.
      if (reassembly_.erase(key) > 0) ++reassembly_failures_;
    });
    it = reassembly_.emplace(key, std::move(state)).first;
  }
  ReassemblyState& state = it->second;
  state.received += p.payload_bytes;
  if (!p.frag_more) {
    state.total = p.frag_offset + p.payload_bytes;
  }
  if (p.frag_offset == 0) {
    state.first = std::move(p);  // carries the L4 header fields
  }
  // Per-fragment kernel work (lookup + queueing into the frag queue).
  softirq_run(costs_->gro_pkt, [] {});

  if (state.total != 0 && state.received >= state.total) {
    Packet merged = std::move(state.first);
    merged.payload_bytes = state.total;
    merged.frag_more = false;
    merged.frag_offset = 0;
    const int in_if = state.ifindex;
    engine_->cancel(state.timeout);
    reassembly_.erase(it);
    ip_rx(in_if, std::move(merged));
  }
}

void FullStack::gro_flush(const ConnKey& key) {
  const auto it = gro_flows_.find(key);
  if (it == gro_flows_.end()) return;
  GroFlow flow = std::move(it->second);
  // Cancelling an already-fired timer is a safe no-op (EventQueue tracks
  // pending ids), so flushing from the timer itself needs no special case.
  if (flow.flush_timer != 0) engine_->cancel(flow.flush_timer);
  gro_flows_.erase(it);
  ip_rx(flow.ifindex, std::move(flow.merged));
}

void FullStack::ip_rx(int ifindex, Packet p) {
  // nf_defrag: fragments are reassembled before any hook runs.
  if (p.frag_more || p.frag_offset > 0) {
    reassemble_rx(ifindex, std::move(p));
    return;
  }
  // br_netfilter linearization: split oversized TCP GSO frames so each
  // resulting packet traverses the hooks (and pays their cost) separately.
  if (forced_resegment_ != 0 && p.proto == L4Proto::kTcp &&
      p.payload_bytes > forced_resegment_) {
    std::uint32_t offset = 0;
    while (offset < p.payload_bytes) {
      const std::uint32_t chunk =
          std::min(forced_resegment_, p.payload_bytes - offset);
      Packet piece = p;
      piece.tcp_seq = p.tcp_seq + offset;
      piece.payload_bytes = chunk;
      piece.tcp_flags.psh =
          p.tcp_flags.psh && offset + chunk >= p.payload_bytes;
      offset += chunk;
      ip_rx_one(ifindex, std::move(piece));
    }
    return;
  }
  ip_rx_one(ifindex, std::move(p));
}

void FullStack::ip_rx_one(int ifindex, Packet p) {
  if (oncache_ != nullptr && oncache_rx(ifindex, p)) return;
  if (flowcache_enabled_ && flowcache_rx(ifindex, p)) return;
  // Remember the ingress-time identity before any hook rewrites headers;
  // the slow path memoizes its outcome under this key.
  std::optional<flowcache::FlowKey> fkey;
  if (flowcache_enabled_) fkey = flowcache::FlowKey::of(p, ifindex);

  const std::string& in_name =
      ifaces_.at(static_cast<std::size_t>(ifindex)).cfg.name;

  sim::Duration cost = costs_->route_lookup;
  const auto pre = nf_.run_hook(Hook::kPrerouting, p, in_name, "",
                                engine_->now());
  cost += pre.cost;
  if (pre.verdict == Verdict::kDrop) {
    if (nestv_trace_enabled()) std::fprintf(stderr, "[%s] DROP pre %s\n", name_.c_str(), p.describe().c_str());
    softirq_run(cost, [this] { ++dropped_; });
    return;
  }

  if (is_local_address(p.dst_ip)) {
    if (nestv_trace_enabled()) std::fprintf(stderr, "[%s] LOCAL %s\n", name_.c_str(), p.describe().c_str());
    const auto input =
        nf_.run_hook(Hook::kInput, p, in_name, "", engine_->now());
    cost += input.cost;
    if (input.verdict == Verdict::kDrop) {
      softirq_run(cost, [this] { ++dropped_; });
      return;
    }
    if (fkey) {
      record_flow(*fkey, p, flowcache::CachedPath::Action::kDeliverLocal,
                  -1, MacAddress{});
    }
    softirq_run(cost, [this, ifindex, pkt = std::move(p)]() mutable {
      deliver_local(std::move(pkt), ifindex);
    });
    return;
  }

  if (!forwarding_) {
    if (nestv_trace_enabled()) std::fprintf(stderr, "[%s] DROP nofwd %s\n", name_.c_str(), p.describe().c_str());
    softirq_run(cost, [this] { ++dropped_; });
    return;
  }
  const auto fwd =
      nf_.run_hook(Hook::kForward, p, in_name, "", engine_->now());
  cost += fwd.cost;
  if (fwd.verdict == Verdict::kDrop) {
    if (nestv_trace_enabled()) std::fprintf(stderr, "[%s] DROP fwdchain %s\n", name_.c_str(), p.describe().c_str());
    softirq_run(cost, [this] { ++dropped_; });
    return;
  }
  const auto route = routes_.lookup(p.dst_ip);
  if (!route || route->ifindex <= 0) {
    if (nestv_trace_enabled()) std::fprintf(stderr, "[%s] DROP noroute %s\n", name_.c_str(), p.describe().c_str());
    softirq_run(cost, [this] { ++dropped_; });
    return;
  }
  if (p.ttl <= 1) {
    softirq_run(cost, [this, pkt = p] {
      ++dropped_;
      send_icmp_error(pkt, 11, 0);  // time exceeded in transit
    });
    return;
  }
  p.ttl -= 1;
  ++forwarded_;
  if (forward_jitter_sigma_ > 0.0) {
    // Mean-1 lognormal (mu = -sigma^2/2) so jitter adds variance without
    // shifting the calibrated average forwarding cost.
    const double s = forward_jitter_sigma_;
    cost = static_cast<sim::Duration>(
        static_cast<double>(cost) * jitter_rng_.lognormal(-0.5 * s * s, s));
  }
  if (nestv_trace_enabled()) std::fprintf(stderr, "[%s t=%llu] fwd-sched out=%d cost=%llu busy_until=%llu %s\n", name_.c_str(), (unsigned long long)engine_->now(), route->ifindex, (unsigned long long)cost, (unsigned long long)(softirq_ ? softirq_->busy_until() : 0), p.describe().c_str());
  // Init-capture the interface name: a plain copy-capture of the
  // `const std::string&` would make the closure member `const std::string`,
  // whose "move" is a throwing copy — disqualifying the closure from
  // InlineTask's inline storage and putting a heap allocation on every
  // forwarded packet.
  softirq_run(cost, [this, pkt = std::move(p), out = route->ifindex,
                     in_name = std::string(in_name), fkey]() mutable {
    egress(std::move(pkt), out, in_name, fkey);
  });
}

// ---- local delivery ----------------------------------------------------------

void FullStack::deliver_local(Packet p, int ifindex) {
  (void)ifindex;
  ++delivered_;
  if (p.proto == L4Proto::kUdp) {
    deliver_udp(std::move(p));
  } else if (p.proto == L4Proto::kTcp) {
    deliver_tcp(std::move(p));
  } else if (p.proto == L4Proto::kIcmp) {
    deliver_icmp(p);
  } else {
    ++dropped_;
  }
}

void FullStack::deliver_icmp(const Packet& p) {
  if (p.icmp_type == 8) {
    // Echo request: reply in kernel context (no app wakeup).
    Packet reply;
    reply.src_ip = p.dst_ip;
    reply.dst_ip = p.src_ip;
    reply.proto = L4Proto::kIcmp;
    reply.icmp_type = 0;
    reply.icmp_id = p.icmp_id;
    reply.icmp_seq = p.icmp_seq;
    reply.payload_bytes = p.payload_bytes;
    reply.packet_id = next_packet_id();
    reply.sent_at = p.sent_at;  // requester's timestamp rides along
    l4_emit(costs_->l4_segment, std::move(reply));
    return;
  }
  if (p.icmp_type == 0) {
    // Echo reply: complete the matching ping.
    const auto it = pings_.find(p.icmp_seq);
    if (it != pings_.end()) {
      auto done = std::move(it->second.done);
      const auto rtt = engine_->now() - it->second.sent_at;
      pings_.erase(it);
      if (done) done(rtt);
    }
    return;
  }
  // Errors (3 = destination unreachable, 11 = time exceeded).
  if (icmp_error_handler_) icmp_error_handler_(p);
}

void FullStack::send_icmp_error(const Packet& offender, std::uint8_t type,
                                std::uint8_t code) {
  // Never generate errors about ICMP errors (RFC 1122) or unknown sources.
  if (offender.proto == L4Proto::kIcmp && offender.icmp_type != 8) return;
  if (offender.src_ip.is_unspecified()) return;
  ++icmp_errors_tx_;
  Packet err;
  // Report from the receiving interface's primary address.
  err.src_ip = ifaces_.size() > 1 ? ifaces_[1].cfg.ip : ifaces_[0].cfg.ip;
  err.dst_ip = offender.src_ip;
  err.proto = L4Proto::kIcmp;
  err.icmp_type = type;
  err.icmp_code = code;
  // The error quotes the offending header: IP + 8 bytes.
  err.payload_bytes = kIpv4HeaderBytes + 8;
  err.packet_id = next_packet_id();
  err.sent_at = engine_->now();
  l4_emit(costs_->l4_segment, std::move(err));
}

void FullStack::udp_unbound(const Packet& p) {
  send_icmp_error(p, 3, 3);  // destination port unreachable
}

// ---- TX path -------------------------------------------------------------------

void FullStack::emit_packet(Packet p) {
  p.ct_id = 0;
  p.ct_reply = false;
  if (p.packet_id == 0) p.packet_id = next_packet_id();

  sim::Duration cost = costs_->route_lookup;
  const auto out_hook =
      nf_.run_hook(Hook::kOutput, p, "", "", engine_->now());
  cost += out_hook.cost;
  if (out_hook.verdict == Verdict::kDrop) {
    softirq_run(cost, [this] { ++dropped_; });
    return;
  }

  if (is_local_address(p.dst_ip)) {
    // Loopback: lo device work, then straight to local delivery (the
    // SameNode intra-pod path of figs 10-13).
    const auto& c = *costs_;
    cost += c.loopback_pkt +
            static_cast<sim::Duration>(c.loopback_copy_byte *
                                       static_cast<double>(p.payload_bytes));
    const auto input = nf_.run_hook(Hook::kInput, p, "lo", "", engine_->now());
    cost += input.cost;
    if (input.verdict == Verdict::kDrop) {
      softirq_run(cost, [this] { ++dropped_; });
      return;
    }
    softirq_run(cost, [this, pkt = std::move(p)]() mutable {
      deliver_local(std::move(pkt), 0);
    });
    return;
  }

  const auto route = routes_.lookup(p.dst_ip);
  if (!route || route->ifindex <= 0) {
    softirq_run(cost, [this] { ++dropped_; });
    return;
  }
  softirq_run(cost, [this, pkt = std::move(p), out = route->ifindex]() mutable {
    egress(std::move(pkt), out, "");
  });
}

void FullStack::egress(Packet p, int out_ifindex,
                       const std::string& in_iface,
                       std::optional<flowcache::FlowKey> record) {
  if (nestv_trace_enabled()) std::fprintf(stderr, "[%s t=%llu] egress if=%d %s\n", name_.c_str(), (unsigned long long)engine_->now(), out_ifindex, p.describe().c_str());
  const Interface& itf = ifaces_.at(static_cast<std::size_t>(out_ifindex));
  const auto post = nf_.run_hook(Hook::kPostrouting, p, in_iface,
                                 itf.cfg.name, engine_->now());
  if (post.verdict == Verdict::kDrop) {
    if (nestv_trace_enabled()) std::fprintf(stderr, "[%s] DROP post %s\n", name_.c_str(), p.describe().c_str());
    softirq_run(post.cost, [this] { ++dropped_; });
    return;
  }
  softirq_run(post.cost,
              [this, pkt = std::move(p), out_ifindex, record]() mutable {
                arp_resolve_and_send(std::move(pkt), out_ifindex, record);
              });
}

void FullStack::arp_resolve_and_send(
    Packet p, int out_ifindex, std::optional<flowcache::FlowKey> record) {
  Interface& itf = ifaces_.at(static_cast<std::size_t>(out_ifindex));
  if (itf.backend == nullptr) {
    // Hot-unplugged (QMP device_del): the netdev is gone, traffic routed
    // at it is dropped like a carrier-less link.
    ++dropped_;
    return;
  }
  // ip_fragment: UDP datagrams larger than the egress MTU leave as
  // 8-byte-aligned fragments sharing the datagram's ip_id.
  const std::uint32_t mtu_payload =
      itf.cfg.mtu > (kIpv4HeaderBytes + kUdpHeaderBytes)
          ? itf.cfg.mtu - kIpv4HeaderBytes - kUdpHeaderBytes
          : 1472;
  if (p.proto == L4Proto::kUdp && !p.frag_more && p.frag_offset == 0 &&
      p.payload_bytes > mtu_payload) {
    const std::uint32_t chunk = mtu_payload & ~7u;  // 8-byte aligned
    if (p.ip_id == 0) p.ip_id = next_ip_id_++;
    std::uint32_t offset = 0;
    const std::uint32_t total = p.payload_bytes;
    while (offset < total) {
      Packet piece = p;
      piece.frag_offset = static_cast<std::uint16_t>(offset);
      piece.payload_bytes = std::min(chunk, total - offset);
      piece.frag_more = offset + piece.payload_bytes < total;
      offset += piece.payload_bytes;
      arp_resolve_and_send(std::move(piece), out_ifindex);
    }
    return;
  }
  if (nestv_trace_enabled())
    std::fprintf(stderr, "[%s t=%llu] arp_resolve %s\n", name_.c_str(),
                 (unsigned long long)engine_->now(), p.describe().c_str());
  const auto route = routes_.lookup(p.dst_ip);
  const Ipv4Address next_hop = route ? route->next_hop : p.dst_ip;

  const auto mac = itf.neighbors.lookup(next_hop, engine_->now());
  if (!mac) {
    auto& pending = itf.arp_pending[next_hop];
    pending.push_back(std::move(p));
    // One outstanding request per next-hop; later packets just park.
    if (pending.size() == 1) send_arp_request(out_ifindex, next_hop);
    return;
  }
  if (record) {
    // Whole path resolved (hooks run, route picked, L2 next hop known):
    // memoize it so the flow's next packets skip all of the above.
    record_flow(*record, p, flowcache::CachedPath::Action::kForward,
                out_ifindex, *mac);
  }
  if (oncache_ != nullptr && p.inner) {
    // An encapsulated outer packet fully resolved: close the pending
    // overlay record opened at the bridge and promoted by the VTEP.
    oncache_->complete_egress(p, out_ifindex, *mac);
  }
  EthernetFrame f;
  f.src = itf.cfg.mac;
  f.dst = *mac;
  f.ethertype = 0x0800;
  f.packet = std::move(p);
  if (capture_ != nullptr) capture_->record(engine_->now(), f);
  itf.backend->xmit(std::move(f));
}

void FullStack::send_arp_request(int ifindex, Ipv4Address target) {
  Interface& itf = ifaces_.at(static_cast<std::size_t>(ifindex));
  ++arp_tx_;
  EthernetFrame f;
  f.src = itf.cfg.mac;
  f.dst = MacAddress::broadcast();
  f.ethertype = 0x0806;
  f.arp_is_request = true;
  f.arp_sender_ip = itf.cfg.ip;
  f.arp_sender_mac = itf.cfg.mac;
  f.arp_target_ip = target;
  itf.backend->xmit(std::move(f));
}

void FullStack::handle_arp(int ifindex, const EthernetFrame& frame) {
  Interface& itf = ifaces_.at(static_cast<std::size_t>(ifindex));
  // Learn the sender either way.
  itf.neighbors.insert(frame.arp_sender_ip, frame.arp_sender_mac,
                       engine_->now());

  if (frame.arp_is_request && frame.arp_target_ip == itf.cfg.ip) {
    EthernetFrame reply;
    reply.src = itf.cfg.mac;
    reply.dst = frame.arp_sender_mac;
    reply.ethertype = 0x0806;
    reply.arp_is_request = false;
    reply.arp_sender_ip = itf.cfg.ip;
    reply.arp_sender_mac = itf.cfg.mac;
    reply.arp_target_ip = frame.arp_sender_ip;
    itf.backend->xmit(std::move(reply));
  }

  // Flush packets parked on this resolution.
  const auto pending = itf.arp_pending.find(frame.arp_sender_ip);
  if (pending != itf.arp_pending.end()) {
    std::vector<Packet> pkts = std::move(pending->second);
    itf.arp_pending.erase(pending);
    for (Packet& p : pkts) {
      arp_resolve_and_send(std::move(p), ifindex);
    }
  }
}

void FullStack::loopback_deliver(Packet p) { deliver_local(std::move(p), 0); }

// ---- flow cache ------------------------------------------------------------

bool FullStack::flowcache_rx(int ifindex, Packet& p) {
  using Action = flowcache::CachedPath::Action;
  const auto key = flowcache::FlowKey::of(p, ifindex);
  const flowcache::CachedPath* path = fcache_.lookup(key);
  if (path == nullptr) return false;

  // Validate the authoritative state the cache cannot watch: the routing
  // table generation and the conntrack backing.  Stale entries are flushed
  // and the packet falls through to the slow path (which re-records).
  if (path->routes_gen != static_cast<std::uint16_t>(routes_.generation()) ||
      (path->ct_id != 0 && !nf_.conn_alive(path->ct_id))) {
    fcache_.invalidate(key);
    return false;
  }
  if (path->action == Action::kForward) {
    const auto idx = static_cast<std::size_t>(path->out_ifindex);
    if (path->out_ifindex <= 0 || idx >= ifaces_.size() ||
        ifaces_[idx].backend == nullptr) {
      fcache_.invalidate(key);
      return false;
    }
    if (p.ttl <= 1) return false;  // slow path owns the ICMP error
  }

  if (nestv_trace_enabled())
    std::fprintf(stderr, "[%s t=%llu] fcache-hit if=%d %s\n", name_.c_str(),
                 (unsigned long long)engine_->now(), ifindex,
                 p.describe().c_str());

  sim::Duration cost = path->fast_cost;
  // Apply the memoized NAT rewrite (identity when the flow is untranslated).
  p.src_ip = path->new_src_ip;
  p.dst_ip = path->new_dst_ip;
  p.src_port = path->new_src_port;
  p.dst_port = path->new_dst_port;
  p.ct_id = path->ct_id;
  if (path->ct_id != 0) nf_.touch(path->ct_id, engine_->now());

  switch (path->action) {
    case Action::kDrop:
      softirq_run(cost, [this] { ++dropped_; });
      return true;
    case Action::kDeliverLocal:
      softirq_run(cost, [this, ifindex, pkt = std::move(p)]() mutable {
        deliver_local(std::move(pkt), ifindex);
      });
      return true;
    case Action::kForward: {
      p.ttl -= 1;
      ++forwarded_;
      if (forward_jitter_sigma_ > 0.0) {
        // Same mean-1 lognormal noise as the slow forwarding path.
        const double s = forward_jitter_sigma_;
        cost = static_cast<sim::Duration>(
            static_cast<double>(cost) *
            jitter_rng_.lognormal(-0.5 * s * s, s));
      }
      softirq_run(cost, [this, pkt = std::move(p), out = path->out_ifindex,
                         mac = path->next_hop_mac]() mutable {
        Interface& itf = ifaces_.at(static_cast<std::size_t>(out));
        if (itf.backend == nullptr) {  // unplugged while queued
          ++dropped_;
          return;
        }
        EthernetFrame f;
        f.src = itf.cfg.mac;
        f.dst = mac;
        f.ethertype = 0x0800;
        f.packet = std::move(pkt);
        if (capture_ != nullptr) capture_->record(engine_->now(), f);
        itf.backend->xmit(std::move(f));
      });
      return true;
    }
  }
  return false;
}

// ---- oncache overlay fast path ---------------------------------------------

bool FullStack::oncache_rx(int ifindex, Packet& p) {
  (void)ifindex;
  if (!oncache_->enabled()) return false;
  // Only VXLAN datagrams addressed to this stack's VTEP port qualify; the
  // inner frame must be present (truncated payloads take the slow path and
  // are dropped by the VTEP there).
  if (p.proto != L4Proto::kUdp || !p.inner ||
      p.dst_port != oncache_->vtep_port() || !is_local_address(p.dst_ip)) {
    return false;
  }
  const oncache::IngressPath* path = oncache_->match_ingress(p);
  if (path == nullptr) return false;
  if (nestv_trace_enabled())
    std::fprintf(stderr, "[%s t=%llu] oncache-hit rx %s\n", name_.c_str(),
                 (unsigned long long)engine_->now(), p.describe().c_str());
  ++delivered_;  // the outer datagram was locally delivered (fused)
  const sim::Duration cost =
      path->fast_cost +
      static_cast<sim::Duration>(
          costs_->vxlan_copy_byte *
          static_cast<double>(p.inner->wire_bytes()));
  const int out_port = path->out_port;
  // Sole consumer: steal the inner frame, as the VTEP slow path does.
  EthernetFrame inner = std::move(*p.inner);
  softirq_run(cost, [this, out_port, f = std::move(inner)]() mutable {
    oncache_->deliver_ingress(out_port, std::move(f));
  });
  return true;
}

void FullStack::oncache_xmit(int out_ifindex, EthernetFrame frame) {
  Interface& itf = ifaces_.at(static_cast<std::size_t>(out_ifindex));
  if (itf.backend == nullptr) {
    // Hot-unplugged while the fused event was in flight.
    ++dropped_;
    return;
  }
  if (capture_ != nullptr) capture_->record(engine_->now(), frame);
  itf.backend->xmit(std::move(frame));
}

void FullStack::record_flow(const flowcache::FlowKey& key, const Packet& p,
                            flowcache::CachedPath::Action action,
                            int out_ifindex, MacAddress next_hop_mac) {
  flowcache::CachedPath path;
  path.action = action;
  path.out_ifindex = static_cast<std::int16_t>(out_ifindex);
  path.new_src_ip = p.src_ip;
  path.new_dst_ip = p.dst_ip;
  path.new_src_port = p.src_port;
  path.new_dst_port = p.dst_port;
  path.rewrites = p.src_ip != key.src_ip || p.dst_ip != key.dst_ip ||
                  p.src_port != key.src_port || p.dst_port != key.dst_port;
  path.next_hop_mac = next_hop_mac;
  path.ct_id = p.ct_id;
  path.fast_cost = static_cast<std::uint32_t>(
      costs_->flowcache_hit +
      (path.rewrites ? costs_->flowcache_rewrite : 0));
  path.routes_gen = static_cast<std::uint16_t>(routes_.generation());
  // Building the entry is not free: one-time softirq charge per flow.
  softirq_run(costs_->flowcache_insert, [] {});
  fcache_.insert(key, std::move(path));
}

std::size_t FullStack::conntrack_gc(sim::Duration idle_timeout) {
  const auto reaped = nf_.gc(engine_->now(), idle_timeout);
  fcache_.invalidate_conns(reaped);
  // Overlay egress entries carry the outer connection's ct_id; a cached
  // entry must never outlive its conntrack backing.
  if (oncache_ != nullptr) oncache_->invalidate_conns(reaped);
  return reaped.size();
}

void FullStack::detach_interface(int ifindex) {
  Interface& itf = ifaces_.at(static_cast<std::size_t>(ifindex));
  if (itf.backend != nullptr) itf.backend->set_rx({});
  itf.backend = nullptr;
  // Parked packets die with the netdev.
  for (const auto& [next_hop, pkts] : itf.arp_pending) {
    dropped_ += pkts.size();
  }
  itf.arp_pending.clear();
  // Targeted flush: only flows entering or leaving this ifindex.
  fcache_.invalidate_ifindex(ifindex);
  // Overlay entries leaving the dead NIC (and, if it was the VTEP uplink,
  // everything that could have arrived through it).
  if (oncache_ != nullptr) oncache_->invalidate_egress_ifindex(ifindex);
}

// ---- ICMP API -------------------------------------------------------------------

void FullStack::ping(Ipv4Address dst, std::uint32_t payload_bytes,
                     std::function<void(sim::Duration)> done) {
  const std::uint16_t seq = next_ping_seq_++;
  pings_[seq] = PendingPing{engine_->now(), std::move(done)};
  Packet p;
  // Source selection: first non-loopback interface, as the FIB would pick.
  p.src_ip = ifaces_.size() > 1 ? ifaces_[1].cfg.ip : ifaces_[0].cfg.ip;
  p.dst_ip = dst;
  p.proto = L4Proto::kIcmp;
  p.icmp_type = 8;
  p.icmp_id = 1;
  p.icmp_seq = seq;
  p.payload_bytes = payload_bytes;
  p.packet_id = next_packet_id();
  p.sent_at = engine_->now();
  l4_emit(costs_->l4_segment, std::move(p));
}

}  // namespace nestv::net
