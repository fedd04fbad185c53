#include "net/flowcache/flowcache.hpp"

namespace nestv::net::flowcache {

std::size_t FlowCache::invalidate_match(
    const RuleMatch& match,
    const std::function<std::string(int)>& iface_name) {
  return invalidate_if([&match, &iface_name](const FlowKey& key,
                                             const CachedPath& path) {
    const std::string in = iface_name(key.in_ifindex);
    const std::string out = path.action == CachedPath::Action::kForward
                                ? iface_name(path.out_ifindex)
                                : std::string{};
    // Ingress view: the tuple hooks saw before any rewrite.
    Packet ingress;
    ingress.src_ip = key.src_ip;
    ingress.dst_ip = key.dst_ip;
    ingress.src_port = key.src_port;
    ingress.dst_port = key.dst_port;
    ingress.proto = key.proto;
    if (match.matches(ingress, in, out)) return true;
    // Egress view: POSTROUTING-side rules match the rewritten header.
    Packet egress = ingress;
    egress.src_ip = path.new_src_ip;
    egress.dst_ip = path.new_dst_ip;
    egress.src_port = path.new_src_port;
    egress.dst_port = path.new_dst_port;
    return match.matches(egress, in, out);
  });
}

std::size_t FlowCache::invalidate_mac(MacAddress mac) {
  return invalidate_if([mac](const FlowKey&, const CachedPath& path) {
    return path.action == CachedPath::Action::kForward &&
           path.next_hop_mac == mac;
  });
}

std::size_t FlowCache::invalidate_ifindex(int ifindex) {
  return invalidate_if([ifindex](const FlowKey& key, const CachedPath& path) {
    return key.in_ifindex == ifindex || path.out_ifindex == ifindex;
  });
}

std::size_t FlowCache::invalidate_conn(std::uint64_t ct_id) {
  return invalidate_if([ct_id](const FlowKey&, const CachedPath& path) {
    return path.ct_id == ct_id;
  });
}

std::size_t FlowCache::invalidate_conns(
    std::span<const std::uint64_t> ct_ids) {
  return invalidate_ids(ct_ids, [](const FlowKey&, const CachedPath& path) {
    return path.ct_id;
  });
}

}  // namespace nestv::net::flowcache
