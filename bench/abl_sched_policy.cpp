// Ablation — Kubernetes node-selection policy vs VM cost and vs the
// improvement Hostlo can still extract on top.  The paper's simulation
// hardcodes "most requested" ("simply put, this is a grouping strategy",
// section 5.3.1); this sweep shows why: spreading policies buy more VMs,
// inflating the baseline — and leaving *more* waste for Hostlo to reclaim.
#include <cstdio>

#include "json_report.hpp"
#include "orch/scheduler.hpp"
#include "sim/parse.hpp"
#include "trace/google_trace.hpp"

int main(int argc, char** argv) {
  using namespace nestv;
  const std::uint64_t seed =
      argc > 1 ? sim::parse_uint_or_exit(argv[1], "seed") : 2019;
  trace::TraceConfig tc;
  tc.seed = seed;
  const auto users = trace::generate_google_like_trace(tc);
  orch::AwsM5Catalog catalog;
  orch::HostloRescheduler hostlo(catalog);

  std::printf("ablation: placement policy vs fleet cost (492 users)\n");
  std::printf("%-16s | %12s | %12s | %10s | %8s\n", "policy", "k8s $/h",
              "hostlo $/h", "reclaimed", "savers");
  bench::JsonReport report("abl_sched_policy", seed);
  for (const auto policy : {orch::PlacementPolicy::kMostRequested,
                            orch::PlacementPolicy::kLeastRequested,
                            orch::PlacementPolicy::kFirstFit}) {
    orch::KubernetesScheduler k8s(catalog, policy);
    double base_total = 0, improved_total = 0;
    int savers = 0;
    for (const auto& u : users) {
      const auto base = k8s.schedule(u);
      const auto improved = hostlo.improve(u, base);
      base_total += base.cost_per_hour();
      improved_total += improved.cost_per_hour();
      if (base.cost_per_hour() - improved.cost_per_hour() > 1e-9) ++savers;
    }
    std::printf("%-16s | %12.2f | %12.2f | %9.1f%% | %8d\n",
                to_string(policy), base_total, improved_total,
                100.0 * (1.0 - improved_total / base_total), savers);
    const std::string key = to_string(policy);
    report.add(key + "_k8s_cost_per_hour", base_total);
    report.add(key + "_reclaimed_pct",
               100.0 * (1.0 - improved_total / base_total));
  }
  report.write();
  return 0;
}
