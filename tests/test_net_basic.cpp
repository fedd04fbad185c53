// Unit tests for addresses, packets, wire format, routing and neighbours.
#include <gtest/gtest.h>

#include "net/address.hpp"
#include "net/neighbor.hpp"
#include "net/packet.hpp"
#include "net/route.hpp"
#include "net/wire.hpp"
#include "sim/rng.hpp"

namespace nestv::net {
namespace {

// ---- MAC addresses -------------------------------------------------------------

TEST(MacAddress, RoundTripString) {
  const MacAddress m({0x02, 0x00, 0x00, 0xab, 0xcd, 0xef});
  EXPECT_EQ(m.to_string(), "02:00:00:ab:cd:ef");
  const auto parsed = MacAddress::parse("02:00:00:ab:cd:ef");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, m);
}

TEST(MacAddress, ParseRejectsGarbage) {
  EXPECT_FALSE(MacAddress::parse("not-a-mac").has_value());
  EXPECT_FALSE(MacAddress::parse("02:00:00:ab:cd").has_value());
}

TEST(MacAddress, BroadcastAndMulticast) {
  EXPECT_TRUE(MacAddress::broadcast().is_broadcast());
  EXPECT_TRUE(MacAddress::broadcast().is_multicast());
  const MacAddress multicast({0x01, 0x00, 0x5e, 0, 0, 1});
  EXPECT_TRUE(multicast.is_multicast());
  EXPECT_FALSE(multicast.is_broadcast());
  EXPECT_FALSE(MacAddress::local_from_id(7).is_multicast());
}

TEST(MacAddress, LocalFromIdUniqueAndLocal) {
  const auto a = MacAddress::local_from_id(1);
  const auto b = MacAddress::local_from_id(2);
  EXPECT_NE(a, b);
  EXPECT_EQ(a.octets()[0], 0x02);  // locally administered, unicast
}

TEST(MacAddress, AsU64Distinct) {
  EXPECT_NE(MacAddress::local_from_id(1).as_u64(),
            MacAddress::local_from_id(256).as_u64());
}

// ---- IPv4 addresses --------------------------------------------------------------

TEST(Ipv4Address, RoundTripString) {
  const Ipv4Address a(192, 168, 122, 1);
  EXPECT_EQ(a.to_string(), "192.168.122.1");
  const auto parsed = Ipv4Address::parse("192.168.122.1");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, a);
}

TEST(Ipv4Address, ParseRejectsInvalid) {
  EXPECT_FALSE(Ipv4Address::parse("1.2.3").has_value());
  EXPECT_FALSE(Ipv4Address::parse("256.1.1.1").has_value());
  EXPECT_FALSE(Ipv4Address::parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(Ipv4Address::parse("").has_value());
}

TEST(Ipv4Address, Loopback) {
  EXPECT_TRUE(Ipv4Address(127, 0, 0, 1).is_loopback());
  EXPECT_TRUE(Ipv4Address(127, 255, 0, 9).is_loopback());
  EXPECT_FALSE(Ipv4Address(128, 0, 0, 1).is_loopback());
  EXPECT_TRUE(Ipv4Address().is_unspecified());
}

// ---- CIDR ---------------------------------------------------------------------------

TEST(Ipv4Cidr, ContainsAndMask) {
  const Ipv4Cidr net(Ipv4Address(10, 0, 3, 0), 24);
  EXPECT_TRUE(net.contains(Ipv4Address(10, 0, 3, 200)));
  EXPECT_FALSE(net.contains(Ipv4Address(10, 0, 4, 1)));
  EXPECT_EQ(net.mask(), 0xffffff00u);
}

TEST(Ipv4Cidr, NormalizesBase) {
  const Ipv4Cidr net(Ipv4Address(10, 0, 3, 77), 24);
  EXPECT_EQ(net.network(), Ipv4Address(10, 0, 3, 0));
}

TEST(Ipv4Cidr, HostEnumeration) {
  const Ipv4Cidr net(Ipv4Address(172, 17, 0, 0), 16);
  EXPECT_EQ(net.host(1), Ipv4Address(172, 17, 0, 1));
  EXPECT_EQ(net.host(257), Ipv4Address(172, 17, 1, 1));
}

TEST(Ipv4Cidr, ZeroPrefixMatchesEverything) {
  const Ipv4Cidr all(Ipv4Address(0), 0);
  EXPECT_TRUE(all.contains(Ipv4Address(1, 2, 3, 4)));
  EXPECT_TRUE(all.contains(Ipv4Address(255, 255, 255, 255)));
}

TEST(Ipv4Cidr, ParseRoundTrip) {
  const auto parsed = Ipv4Cidr::parse("192.168.122.0/24");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->to_string(), "192.168.122.0/24");
  EXPECT_FALSE(Ipv4Cidr::parse("192.168.122.0").has_value());
  EXPECT_FALSE(Ipv4Cidr::parse("192.168.122.0/33").has_value());
}

TEST(Ipv4Cidr, ParseRejectsNonNumericPrefix) {
  // A prefix must be all digits: no silent /0 or truncation.
  EXPECT_FALSE(Ipv4Cidr::parse("10.0.0.0/abc").has_value());
  EXPECT_FALSE(Ipv4Cidr::parse("10.0.0.0/24x").has_value());
  EXPECT_FALSE(Ipv4Cidr::parse("10.0.0.0/").has_value());
  EXPECT_FALSE(Ipv4Cidr::parse("10.0.0.0/-1").has_value());
  EXPECT_FALSE(Ipv4Cidr::parse("10.0.0.0/ 24").has_value());
  const auto zero = Ipv4Cidr::parse("10.0.0.0/0");
  ASSERT_TRUE(zero.has_value());
  EXPECT_EQ(zero->prefix_len(), 0);
  const auto full = Ipv4Cidr::parse("10.0.0.7/32");
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->to_string(), "10.0.0.7/32");
}

// ---- packets -------------------------------------------------------------------------

TEST(Packet, SizeAccounting) {
  Packet p;
  p.proto = L4Proto::kUdp;
  p.payload_bytes = 100;
  EXPECT_EQ(p.ip_total_bytes(), 20u + 8u + 100u);
  p.proto = L4Proto::kTcp;
  EXPECT_EQ(p.ip_total_bytes(), 20u + 20u + 100u);
}

TEST(Packet, DeepCopyOfInnerFrame) {
  Packet outer;
  outer.proto = L4Proto::kUdp;
  outer.inner = std::make_unique<EthernetFrame>();
  outer.inner->packet.payload_bytes = 500;

  const Packet copy = outer;
  ASSERT_NE(copy.inner, nullptr);
  EXPECT_NE(copy.inner.get(), outer.inner.get());
  EXPECT_EQ(copy.inner->packet.payload_bytes, 500u);
}

TEST(Packet, InnerFrameCountsInSize) {
  Packet outer;
  outer.proto = L4Proto::kUdp;
  outer.payload_bytes = 8;  // VXLAN header
  outer.inner = std::make_unique<EthernetFrame>();
  outer.inner->packet.payload_bytes = 100;
  outer.inner->packet.proto = L4Proto::kTcp;
  // outer IP(20)+UDP(8)+vxlan(8) + inner eth(14)+ip(20)+tcp(20)+100
  EXPECT_EQ(outer.ip_total_bytes(), 20u + 8u + 8u + 14u + 20u + 20u + 100u);
}

TEST(Frame, WireBytes) {
  EthernetFrame f;
  f.packet.proto = L4Proto::kUdp;
  f.packet.payload_bytes = 64;
  EXPECT_EQ(f.wire_bytes(), 14u + 20u + 8u + 64u);
  f.ethertype = 0x0806;  // ARP
  EXPECT_EQ(f.wire_bytes(), 14u + 28u);
}

TEST(TcpFlagsTest, ToStringShowsBits) {
  TcpFlags f{.syn = true, .ack = true};
  EXPECT_EQ(f.to_string(), "SA");
  EXPECT_EQ(TcpFlags{}.to_string(), "-");
}

// ---- wire serialization -----------------------------------------------------------------

TEST(Wire, UdpRoundTrip) {
  Packet p;
  p.src_ip = Ipv4Address(10, 0, 0, 1);
  p.dst_ip = Ipv4Address(10, 0, 0, 2);
  p.proto = L4Proto::kUdp;
  p.src_port = 1234;
  p.dst_port = 5678;
  p.payload_bytes = 100;
  p.ip_id = 99;
  p.ttl = 63;

  const auto bytes = wire::serialize_ipv4(p);
  EXPECT_EQ(bytes.size(), p.ip_total_bytes());
  const auto back = wire::parse_ipv4(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->src_ip, p.src_ip);
  EXPECT_EQ(back->dst_ip, p.dst_ip);
  EXPECT_EQ(back->src_port, p.src_port);
  EXPECT_EQ(back->dst_port, p.dst_port);
  EXPECT_EQ(back->payload_bytes, p.payload_bytes);
  EXPECT_EQ(back->ttl, p.ttl);
  EXPECT_EQ(back->ip_id, p.ip_id);
}

TEST(Wire, TcpRoundTripWithFlags) {
  Packet p;
  p.src_ip = Ipv4Address(192, 168, 1, 1);
  p.dst_ip = Ipv4Address(192, 168, 1, 2);
  p.proto = L4Proto::kTcp;
  p.src_port = 40000;
  p.dst_port = 80;
  p.tcp_seq = 123456;
  p.tcp_ack = 654321;
  p.tcp_flags = TcpFlags{.syn = true, .ack = true, .psh = true};
  p.tcp_window = 29200;
  p.payload_bytes = 10;

  const auto back = wire::parse_ipv4(wire::serialize_ipv4(p));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->tcp_seq, p.tcp_seq);
  EXPECT_EQ(back->tcp_ack, p.tcp_ack);
  EXPECT_EQ(back->tcp_flags, p.tcp_flags);
  EXPECT_EQ(back->tcp_window, p.tcp_window);
  EXPECT_EQ(back->payload_bytes, p.payload_bytes);
}

TEST(Wire, HeaderChecksumValidates) {
  Packet p;
  p.src_ip = Ipv4Address(1, 2, 3, 4);
  p.dst_ip = Ipv4Address(5, 6, 7, 8);
  p.proto = L4Proto::kUdp;
  auto bytes = wire::serialize_ipv4(p);
  // RFC 1071: checksum over a correct header is zero.
  EXPECT_EQ(wire::internet_checksum(bytes.data(), 20), 0);
  // Corrupt one byte: parse must fail.
  bytes[15] ^= 0xff;
  EXPECT_FALSE(wire::parse_ipv4(bytes).has_value());
}

TEST(Wire, ParseRejectsTruncated) {
  EXPECT_FALSE(wire::parse_ipv4({0x45, 0x00}).has_value());
}

TEST(Wire, FrameSerializationHasMacsAndEthertype) {
  EthernetFrame f;
  f.src = MacAddress::local_from_id(1);
  f.dst = MacAddress::local_from_id(2);
  f.packet.proto = L4Proto::kUdp;
  f.packet.payload_bytes = 4;
  const auto bytes = wire::serialize_frame(f);
  ASSERT_GE(bytes.size(), 14u);
  EXPECT_EQ(bytes[12], 0x08);
  EXPECT_EQ(bytes[13], 0x00);
  EXPECT_EQ(bytes[0], f.dst.octets()[0]);
  EXPECT_EQ(bytes[6], f.src.octets()[0]);
}

// ---- routing table -----------------------------------------------------------------------

TEST(RoutingTable, LongestPrefixWins) {
  RoutingTable t;
  t.add_connected(Ipv4Cidr(Ipv4Address(10, 0, 0, 0), 8), 1);
  t.add_connected(Ipv4Cidr(Ipv4Address(10, 1, 0, 0), 16), 2);
  const auto r = t.lookup(Ipv4Address(10, 1, 2, 3));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->ifindex, 2);
}

TEST(RoutingTable, DefaultRouteUsedAsLastResort) {
  RoutingTable t;
  t.add_connected(Ipv4Cidr(Ipv4Address(10, 0, 0, 0), 24), 1);
  t.add_default(Ipv4Address(10, 0, 0, 1), 1);
  const auto r = t.lookup(Ipv4Address(8, 8, 8, 8));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->next_hop, Ipv4Address(10, 0, 0, 1));
}

TEST(RoutingTable, ConnectedRouteNextHopIsDestination) {
  RoutingTable t;
  t.add_connected(Ipv4Cidr(Ipv4Address(10, 0, 0, 0), 24), 3);
  const auto r = t.lookup(Ipv4Address(10, 0, 0, 9));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->next_hop, Ipv4Address(10, 0, 0, 9));
  EXPECT_EQ(r->ifindex, 3);
}

TEST(RoutingTable, NoRouteReturnsNullopt) {
  RoutingTable t;
  t.add_connected(Ipv4Cidr(Ipv4Address(10, 0, 0, 0), 24), 1);
  EXPECT_FALSE(t.lookup(Ipv4Address(11, 0, 0, 1)).has_value());
}

TEST(RoutingTable, MetricBreaksTies) {
  RoutingTable t;
  t.add(Route{Ipv4Cidr(Ipv4Address(10, 0, 0, 0), 24), 1, std::nullopt, 10});
  t.add(Route{Ipv4Cidr(Ipv4Address(10, 0, 0, 0), 24), 2, std::nullopt, 5});
  const auto r = t.lookup(Ipv4Address(10, 0, 0, 1));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->ifindex, 2);
}

// ---- neighbour table ----------------------------------------------------------------------

TEST(NeighborTable, InsertLookup) {
  NeighborTable t;
  const auto mac = MacAddress::local_from_id(5);
  t.insert(Ipv4Address(10, 0, 0, 5), mac, 1000);
  const auto found = t.lookup(Ipv4Address(10, 0, 0, 5), 2000);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, mac);
  EXPECT_FALSE(t.lookup(Ipv4Address(10, 0, 0, 6), 2000).has_value());
}

TEST(NeighborTable, EntriesExpire) {
  NeighborTable t(sim::seconds(10));
  t.insert(Ipv4Address(10, 0, 0, 5), MacAddress::local_from_id(5), 0);
  EXPECT_TRUE(t.lookup(Ipv4Address(10, 0, 0, 5), sim::seconds(9)));
  EXPECT_FALSE(t.lookup(Ipv4Address(10, 0, 0, 5), sim::seconds(11)));
}

// ---- property sweep: wire round-trips over random packets ----------------------------------

class WireRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireRoundTrip, RandomPacketsSurvive) {
  sim::Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    Packet p;
    p.src_ip = Ipv4Address(static_cast<std::uint32_t>(rng.next_u64()));
    p.dst_ip = Ipv4Address(static_cast<std::uint32_t>(rng.next_u64()));
    p.proto = rng.chance(0.5) ? L4Proto::kUdp : L4Proto::kTcp;
    p.src_port = static_cast<std::uint16_t>(rng.uniform_int(1, 65535));
    p.dst_port = static_cast<std::uint16_t>(rng.uniform_int(1, 65535));
    p.payload_bytes = static_cast<std::uint32_t>(rng.uniform_int(0, 9000));
    p.tcp_seq = static_cast<std::uint32_t>(rng.next_u64());
    p.tcp_ack = static_cast<std::uint32_t>(rng.next_u64());
    p.ip_id = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    const auto back = wire::parse_ipv4(wire::serialize_ipv4(p));
    ASSERT_TRUE(back.has_value());
    ASSERT_EQ(back->src_ip, p.src_ip);
    ASSERT_EQ(back->dst_ip, p.dst_ip);
    ASSERT_EQ(back->payload_bytes, p.payload_bytes);
    if (p.proto == L4Proto::kTcp) {
      ASSERT_EQ(back->tcp_seq, p.tcp_seq);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireRoundTrip,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull));

}  // namespace
}  // namespace nestv::net
