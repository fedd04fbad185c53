// Quickstart: build the paper's three single-server deployments (NoCont,
// vanilla nested NAT, BrFusion), run a Netperf latency + throughput probe
// against each, and print what fig 2 / fig 4 measure.
//
//   $ ./examples/quickstart [seed]
#include <cstdio>

#include "scenario/single_server.hpp"
#include "sim/parse.hpp"
#include "workload/netperf.hpp"

int main(int argc, char** argv) {
  using namespace nestv;
  const std::uint64_t seed =
      argc > 1 ? sim::parse_uint_or_exit(argv[1], "seed") : 42;

  std::printf("nestv quickstart: nested virtualization without the nest\n");
  std::printf("%-10s %14s %16s %14s\n", "mode", "rr-lat (us)",
              "stream (Mbps)", "transactions");

  for (const auto mode :
       {scenario::ServerMode::kNoCont, scenario::ServerMode::kNat,
        scenario::ServerMode::kBrFusion}) {
    scenario::TestbedConfig config;
    config.seed = seed;
    auto s = scenario::make_single_server(mode, 5001, config);

    workload::Netperf netperf(s.bed->engine(), s.client, s.server, 5001);
    const auto rr = netperf.run_udp_rr(1280, sim::milliseconds(300));
    const auto stream =
        netperf.run_tcp_stream(1280, sim::milliseconds(500));

    std::printf("%-10s %14.1f %16.0f %14llu\n", to_string(mode),
                rr.mean_latency_us, stream.throughput_mbps,
                static_cast<unsigned long long>(rr.transactions));
  }
  std::printf("\nExpected shape (paper fig 2): NAT ~68%% below NoCont in\n"
              "throughput, ~31%% above in latency; BrFusion ~= NoCont.\n");
  return 0;
}
