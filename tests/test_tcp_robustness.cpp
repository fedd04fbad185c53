// TCP robustness under loss, reordering-free recovery, congestion control
// and adaptive RTO.  Uses a deterministic lossy middle device.
#include <gtest/gtest.h>

#include "net/bridge.hpp"
#include "net/stack.hpp"
#include "net/tcp.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace nestv::net {
namespace {

/// Drops frames by a deterministic pseudo-random coin, both directions.
class LossyWire : public Device {
 public:
  LossyWire(sim::Engine& engine, const sim::CostModel& costs,
            double loss_probability, std::uint64_t seed)
      : Device(engine, "lossy-wire", costs),
        loss_(loss_probability),
        rng_(seed) {
    add_port();  // 0: side a
    add_port();  // 1: side b
  }

  void ingress(EthernetFrame frame, int port) override {
    if (rng_.chance(loss_)) {
      ++dropped;
      return;
    }
    transmit(port == 0 ? 1 : 0, std::move(frame));
  }

  std::uint64_t dropped = 0;

 private:
  double loss_;
  sim::Rng rng_;
};

struct LossFixture {
  sim::CostModel costs{};
  sim::Engine engine;
  std::unique_ptr<LossyWire> wire;
  std::unique_ptr<PortBackend> pa, pb;
  std::unique_ptr<NetworkStack> alice, bob;
  Ipv4Address ip_a{10, 0, 0, 1}, ip_b{10, 0, 0, 2};

  explicit LossFixture(double loss, bool congestion_control,
                       std::uint64_t seed = 11) {
    costs.tcp_congestion_control = congestion_control;
    wire = std::make_unique<LossyWire>(engine, costs, loss, seed);
    pa = std::make_unique<PortBackend>(engine, "pa", costs);
    pb = std::make_unique<PortBackend>(engine, "pb", costs);
    Device::connect(*pa, 0, *wire, 0);
    Device::connect(*pb, 0, *wire, 1);
    alice = std::make_unique<NetworkStack>(engine, "alice", costs, nullptr);
    bob = std::make_unique<NetworkStack>(engine, "bob", costs, nullptr);
    const Ipv4Cidr subnet(Ipv4Address(10, 0, 0, 0), 24);
    alice->add_interface(*pa, {"eth0", MacAddress::local_from_id(1), ip_a,
                               subnet, 1500, 1448});
    bob->add_interface(*pb, {"eth0", MacAddress::local_from_id(2), ip_b,
                             subnet, 1500, 1448});
    // Pre-seed neighbours: ARP itself is lossy and uninteresting here.
    alice->seed_neighbor(1, ip_b, MacAddress::local_from_id(2));
    bob->seed_neighbor(1, ip_a, MacAddress::local_from_id(1));
  }

  /// Transfers `bytes` and returns (delivered, retransmits).
  std::pair<std::uint64_t, std::uint64_t> transfer(std::uint64_t bytes,
                                                   sim::Duration limit) {
    std::uint64_t received = 0;
    bob->tcp_listen(80, nullptr, [&received](TcpSocket sock) {
      sock.set_on_receive([&received](std::uint32_t n) { received += n; });
    });
    TcpSocket client = alice->tcp_connect(ip_a, ip_b, 80, nullptr);
    client.set_on_connected([&client, bytes] {
      for (std::uint64_t sent = 0; sent < bytes; sent += 8192) {
        client.send(static_cast<std::uint32_t>(
            std::min<std::uint64_t>(8192, bytes - sent)));
      }
    });
    engine.run_until(limit);
    return {received, client.retransmits()};
  }
};

TEST(TcpLoss, LosslessTransfersWithoutRetransmit) {
  LossFixture f(0.0, false);
  const auto [received, retx] = f.transfer(200000, sim::seconds(5));
  EXPECT_EQ(received, 200000u);
  EXPECT_EQ(retx, 0u);
}

TEST(TcpLoss, RecoversFromModerateLossFixedWindow) {
  LossFixture f(0.02, false);
  const auto [received, retx] = f.transfer(100000, sim::seconds(30));
  EXPECT_EQ(received, 100000u);
  EXPECT_GT(retx, 0u);
}

TEST(TcpLoss, RecoversFromModerateLossWithCc) {
  LossFixture f(0.02, true);
  const auto [received, retx] = f.transfer(100000, sim::seconds(30));
  EXPECT_EQ(received, 100000u);
  EXPECT_GT(retx, 0u);
}

TEST(TcpLoss, RecoversFromHeavyLoss) {
  LossFixture f(0.15, true, 23);
  const auto [received, retx] = f.transfer(30000, sim::seconds(60));
  EXPECT_EQ(received, 30000u);
  EXPECT_GT(retx, 2u);
}

TEST(TcpLoss, AdaptiveRtoRecoversFasterThanFixed) {
  // The fixed RTO is 200 ms; the adaptive one converges to ~RTT-scale, so
  // loss recovery completes sooner with congestion control enabled.
  LossFixture fixed(0.05, false, 7);
  LossFixture adaptive(0.05, true, 7);
  const auto t_budget = sim::seconds(60);

  auto time_transfer = [&](LossFixture& f) {
    std::uint64_t received = 0;
    f.bob->tcp_listen(80, nullptr, [&received](TcpSocket sock) {
      sock.set_on_receive([&received](std::uint32_t n) { received += n; });
    });
    TcpSocket client = f.alice->tcp_connect(f.ip_a, f.ip_b, 80, nullptr);
    client.set_on_connected([&client] {
      for (int i = 0; i < 10; ++i) client.send(8192);
    });
    while (received < 81920 && f.engine.now() < t_budget) {
      f.engine.run_until(f.engine.now() + sim::milliseconds(10));
    }
    return f.engine.now();
  };
  const auto t_fixed = time_transfer(fixed);
  const auto t_adaptive = time_transfer(adaptive);
  EXPECT_LT(t_adaptive, t_fixed);
}

TEST(TcpCc, SlowStartRampsWindow) {
  LossFixture f(0.0, true);
  std::uint64_t received = 0;
  f.bob->tcp_listen(80, nullptr, [&received](TcpSocket sock) {
    sock.set_on_receive([&received](std::uint32_t n) { received += n; });
  });
  TcpSocket client = f.alice->tcp_connect(f.ip_a, f.ip_b, 80, nullptr);
  client.set_on_connected([&client] {
    for (int i = 0; i < 100; ++i) client.send(8192);
  });
  f.engine.run_until(sim::milliseconds(1));
  const auto early = client.congestion_window();
  f.engine.run_until(sim::seconds(5));
  EXPECT_EQ(received, 819200u);
  EXPECT_GE(client.congestion_window(), early);
  // IW10 initial window with mss 1448.
  EXPECT_GE(early, 10u * 1448u);
}

TEST(TcpCc, SrttConverges) {
  LossFixture f(0.0, true);
  std::uint64_t received = 0;
  f.bob->tcp_listen(80, nullptr, [&received](TcpSocket sock) {
    sock.set_on_receive([&received](std::uint32_t n) { received += n; });
  });
  TcpSocket client = f.alice->tcp_connect(f.ip_a, f.ip_b, 80, nullptr);
  client.set_on_connected([&client] {
    for (int i = 0; i < 50; ++i) client.send(1448);
  });
  f.engine.run_until(sim::seconds(1));
  // The wire is ~microseconds: srtt must be far below the fixed 200ms RTO.
  EXPECT_GT(client.srtt_ns(), 0.0);
  EXPECT_LT(client.srtt_ns(), 1e6);  // < 1 ms
}

TEST(TcpCc, WindowAccessorWithoutCc) {
  LossFixture f(0.0, false);
  TcpSocket client = f.alice->tcp_connect(f.ip_a, f.ip_b, 80, nullptr);
  EXPECT_EQ(client.congestion_window(), f.costs.tcp_window_bytes);
}

// ---- property sweep: all bytes always arrive, any loss rate, any seed -------

// gtest names each case after the raw bytes of its param, so the struct must
// have no padding: uninitialised padding bytes made the case names differ from
// run to run.  `cc` is a 0/1 flag held in a full word for that reason.
struct LossCase {
  double loss;
  std::uint64_t cc;
  std::uint64_t seed;
};
static_assert(sizeof(LossCase) == 24, "LossCase must stay padding-free");

class LossSweep : public ::testing::TestWithParam<LossCase> {};

TEST_P(LossSweep, ExactDeliveryAlways) {
  const auto param = GetParam();
  LossFixture f(param.loss, param.cc != 0, param.seed);
  const auto [received, retx] = f.transfer(50000, sim::seconds(120));
  (void)retx;
  ASSERT_EQ(received, 50000u)
      << "loss=" << param.loss << " cc=" << param.cc
      << " seed=" << param.seed;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LossSweep,
    ::testing::Values(LossCase{0.0, false, 1}, LossCase{0.01, false, 2},
                      LossCase{0.05, false, 3}, LossCase{0.01, true, 4},
                      LossCase{0.05, true, 5}, LossCase{0.10, true, 6},
                      LossCase{0.10, false, 7}, LossCase{0.02, true, 8}));

}  // namespace
}  // namespace nestv::net
