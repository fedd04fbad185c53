#include "net/address.hpp"

#include <cassert>
#include <cstdio>
#include <string_view>

#include "sim/parse.hpp"

namespace nestv::net {

MacAddress MacAddress::local_from_id(std::uint64_t id) {
  std::array<std::uint8_t, 6> o{};
  o[0] = 0x02;  // locally administered, unicast
  o[1] = static_cast<std::uint8_t>(id >> 32);
  o[2] = static_cast<std::uint8_t>(id >> 24);
  o[3] = static_cast<std::uint8_t>(id >> 16);
  o[4] = static_cast<std::uint8_t>(id >> 8);
  o[5] = static_cast<std::uint8_t>(id);
  return MacAddress(o);
}

MacAddress MacAddress::broadcast() {
  return MacAddress({0xff, 0xff, 0xff, 0xff, 0xff, 0xff});
}

bool MacAddress::is_broadcast() const {
  for (auto o : octets_)
    if (o != 0xff) return false;
  return true;
}

std::optional<MacAddress> MacAddress::parse(const std::string& text) {
  std::array<unsigned, 6> v{};
  if (std::sscanf(text.c_str(), "%x:%x:%x:%x:%x:%x", &v[0], &v[1], &v[2],
                  &v[3], &v[4], &v[5]) != 6) {
    return std::nullopt;
  }
  std::array<std::uint8_t, 6> o{};
  for (std::size_t i = 0; i < 6; ++i) {
    if (v[i] > 0xff) return std::nullopt;
    o[i] = static_cast<std::uint8_t>(v[i]);
  }
  return MacAddress(o);
}

std::string MacAddress::to_string() const {
  char buf[18];
  std::snprintf(buf, sizeof buf, "%02x:%02x:%02x:%02x:%02x:%02x", octets_[0],
                octets_[1], octets_[2], octets_[3], octets_[4], octets_[5]);
  return buf;
}

std::uint64_t MacAddress::as_u64() const {
  std::uint64_t v = 0;
  for (auto o : octets_) v = (v << 8) | o;
  return v;
}

std::optional<Ipv4Address> Ipv4Address::parse(const std::string& text) {
  unsigned a, b, c, d;
  char tail;
  if (std::sscanf(text.c_str(), "%u.%u.%u.%u%c", &a, &b, &c, &d, &tail) != 4) {
    return std::nullopt;
  }
  if (a > 255 || b > 255 || c > 255 || d > 255) return std::nullopt;
  return Ipv4Address(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b),
                     static_cast<std::uint8_t>(c), static_cast<std::uint8_t>(d));
}

std::string Ipv4Address::to_string() const {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", value_ >> 24,
                (value_ >> 16) & 0xff, (value_ >> 8) & 0xff, value_ & 0xff);
  return buf;
}

Ipv4Cidr::Ipv4Cidr(Ipv4Address base, int prefix_len)
    : prefix_len_(prefix_len) {
  assert(prefix_len >= 0 && prefix_len <= 32);
  base_ = Ipv4Address(base.value() & mask());
}

std::optional<Ipv4Cidr> Ipv4Cidr::parse(const std::string& text) {
  const auto slash = text.find('/');
  if (slash == std::string::npos) return std::nullopt;
  const auto addr = Ipv4Address::parse(text.substr(0, slash));
  if (!addr) return std::nullopt;
  const auto len =
      sim::parse_uint(std::string_view(text).substr(slash + 1), 32);
  if (!len) return std::nullopt;
  return Ipv4Cidr(*addr, static_cast<int>(*len));
}

Ipv4Address Ipv4Cidr::host(std::uint32_t i) const {
  return Ipv4Address(base_.value() + i);
}

std::string Ipv4Cidr::to_string() const {
  return base_.to_string() + "/" + std::to_string(prefix_len_);
}

}  // namespace nestv::net
