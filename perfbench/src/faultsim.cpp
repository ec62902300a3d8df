// faultsim: label-routed packets on implicit HSN(2,Q6) (4,096 nodes) under
// uniform Poisson traffic, with 1% of the nodes failed plus a few
// transient outage windows — below the fragmentation threshold, so
// delivery measures routing rather than disconnection. The engine is
// shard::sharded_simulate_with_faults at nproc shards on ExecPolicy{nproc};
// detours and bounded-BFS fallbacks dominate its work, and the shard seam
// frames and exchanges messages every round.
//
// A run draws kScenarios independent scenarios (traffic + fault plan) from
// its seed and cycles through them, so one unlucky fault pattern does not
// set the whole run. The failed-node count is fixed at 1% (the nodes are
// uniform at random) rather than Bernoulli, for the same reason. A
// scenario is small (about 1,000 packets, 0.1-0.2 s), so a 15 s run times
// about 100 simulations and its p90 has about ten beyond it.
//
// Every simulation starts from a freshly built topology, SimNetwork and
// partition, so it pays the route-cache fill a user's single run pays.
// Each build is timed, outside the simulation's timing: setup_s is their
// median, sampled across the whole run.

#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "ipg/families.hpp"
#include "net/topology.hpp"
#include "shard/fault_engine.hpp"
#include "shard/partition.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"
#include "sim/traffic.hpp"
#include "util/prng.hpp"

namespace perfbench {
namespace {

using ipg::net::ImplicitSuperIPTopology;
using ipg::sim::FaultPlan;
using ipg::sim::FaultSimResult;
using ipg::sim::SimNetwork;

constexpr int kScenarios = 16;
constexpr double kFailedFraction = 0.01;
constexpr int kTransientWindows = 4;
constexpr double kPacketsPerTime = 40.0;  // about 1,000 packets per scenario
constexpr double kHorizon = 25.0;
constexpr ipg::sim::LinkTiming kTiming{1.0, 2.0};

struct Scenario {
  std::vector<ipg::sim::Packet> packets;
  FaultPlan plan;
  FaultSimResult oracle;
};

bool identical(const FaultSimResult& a, const FaultSimResult& b) {
  return a.injected == b.injected && a.delivered == b.delivered &&
         a.dropped == b.dropped && a.detours == b.detours &&
         a.bfs_fallbacks == b.bfs_fallbacks &&
         a.planned_hop_sum == b.planned_hop_sum &&
         a.actual_hop_sum == b.actual_hop_sum && a.makespan == b.makespan &&
         a.latency.count() == b.latency.count() &&
         a.latency.mean() == b.latency.mean() &&
         a.latency.max() == b.latency.max() &&
         a.latency.mean_hops() == b.latency.mean_hops();
}

std::vector<Scenario> make_scenarios(ipg::Node n, std::uint64_t seed) {
  std::uint64_t state = seed;
  const int failed = static_cast<int>(std::lround(kFailedFraction * n));
  std::vector<Scenario> out(kScenarios);
  for (Scenario& s : out) {
    s.packets = ipg::sim::uniform_traffic(n, kPacketsPerTime, kHorizon,
                                          ipg::splitmix64(state));
    s.plan = FaultPlan::random_node_faults(n, failed, ipg::splitmix64(state));
    const FaultPlan transient = FaultPlan::random_transient_node_faults(
        n, kTransientWindows, 0.8 * kHorizon, 0.1 * kHorizon,
        ipg::splitmix64(state));
    for (const ipg::sim::FaultWindow& w : transient.windows()) {
      s.plan.fail_node(w.a, w.fail_time, w.repair_time);
    }
  }
  return out;
}

double ratio(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(a) / static_cast<double>(b);
}

}  // namespace

Report run_faultsim(const Options& opt, Tracer& tracer) {
  const ipg::SuperIPSpec spec = ipg::make_hsn(2, ipg::hypercube_nucleus(6));
  const int shards = opt.threads;
  const ipg::ExecPolicy exec{opt.threads};
  Report rep;
  rep.threads_used = {{"pool_threads", opt.threads}, {"shards", shards}};

  // Inputs first, from the seed alone.
  const auto n =
      static_cast<ipg::Node>(ImplicitSuperIPTopology(spec).num_nodes());
  std::vector<Scenario> scenarios = make_scenarios(n, opt.seed);

  std::unique_ptr<ImplicitSuperIPTopology> topo;
  std::unique_ptr<SimNetwork> net;
  std::unique_ptr<ipg::shard::RankRangePartition> part;
  std::vector<double> setup_times;
  std::vector<double> network_times;
  // Builds everything a simulation needs; records the build's wall time
  // and, inside it, the SimNetwork constructor's.
  auto build_stack = [&](std::uint64_t request) {
    part.reset();
    net.reset();
    topo.reset();
    const Clock::time_point t0 = Clock::now();
    {
      Scope span(tracer, "net.topology", request);
      topo = std::make_unique<ImplicitSuperIPTopology>(spec);
    }
    const Clock::time_point t1 = Clock::now();
    {
      Scope span(tracer, "sim.network", request);
      net = std::make_unique<SimNetwork>(*topo, kTiming);
    }
    network_times.push_back(seconds_since(t1));
    {
      Scope span(tracer, "shard.partition", request);
      part = std::make_unique<ipg::shard::RankRangePartition>(
          topo->num_nodes(), shards);
    }
    setup_times.push_back(seconds_since(t0));
  };
  std::printf("faultsim: %s, %u nodes, %d scenarios of about %.0f packets, "
              "%d shards\n",
              spec.name.c_str(), n, kScenarios, kPacketsPerTime * kHorizon,
              shards);

  auto sharded = [&](const Scenario& s) {
    return ipg::shard::sharded_simulate_with_faults(*net, s.packets, s.plan,
                                                    *part, {}, {}, exec);
  };

  // Warm-up: first-touch page faults, allocator growth.
  build_stack(0);
  (void)sharded(scenarios[0]);

  // The oracles: the sequential engine on the same inputs, outside timing.
  std::vector<double> sequential_s;
  std::uint64_t injected = 0, delivered = 0, planned_hops = 0;
  std::uint64_t actual_hops = 0, detours = 0, fallbacks = 0;
  for (std::size_t k = 0; k < scenarios.size(); ++k) {
    Scenario& s = scenarios[k];
    build_stack(k);
    tracer.set_enabled(opt.trace);
    const Clock::time_point t0 = Clock::now();
    {
      Scope span(tracer, "sim.sequential", k);
      s.oracle = ipg::sim::simulate_with_faults(*net, s.packets, s.plan);
    }
    sequential_s.push_back(seconds_since(t0));
    tracer.set_enabled(false);
    injected += s.oracle.injected;
    delivered += s.oracle.delivered;
    planned_hops += s.oracle.planned_hop_sum;
    actual_hops += s.oracle.actual_hop_sum;
    detours += s.oracle.detours;
    fallbacks += s.oracle.bfs_fallbacks;
  }

  std::uint64_t request = 0;
  // Sharded simulations for `seconds`, cycling through the scenarios; the
  // wall time and packet rate of each land in sim_s and rates.
  auto timed_sims = [&](double seconds, std::vector<double>& sim_s,
                        std::vector<double>& rates) {
    const Clock::time_point start = Clock::now();
    do {
      const Scenario& s = scenarios[request % scenarios.size()];
      build_stack(request);
      const Clock::time_point s0 = Clock::now();
      FaultSimResult got;
      {
        Scope span(tracer, "shard.sharded_simulate", request);
        got = sharded(s);
      }
      sim_s.push_back(seconds_since(s0));
      rates.push_back(static_cast<double>(s.packets.size()) / sim_s.back());
      ++rep.attempted;
      if (!identical(got, s.oracle)) {
        ++rep.failed;
        std::printf("oracle: sharded simulation %llu diverges from the "
                    "sequential engine\n",
                    static_cast<unsigned long long>(request));
      }
      ++request;
    } while (seconds_since(start) < seconds);
  };

  double untraced_mean_s = 0.0;
  if (opt.trace) {
    std::vector<double> untraced_s, ignored;
    timed_sims(opt.seconds, untraced_s, ignored);
    untraced_mean_s = mean(untraced_s);
    tracer.set_enabled(true);
  }
  const std::size_t first_span = tracer.spans().size();
  std::vector<double> sim_s, rates;
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  timed_sims(opt.seconds, sim_s, rates);
  const double wall = seconds_since(t0);
  const double cpu = process_cpu_s() - cpu0;
  const std::size_t last_span = tracer.spans().size();
  tracer.set_enabled(false);

  std::vector<double> sim_ms;
  for (const double s : sim_s) sim_ms.push_back(1e3 * s);
  rep.set("setup_s", median(setup_times));
  std::printf("%zu sharded simulations, median %.4f s, p90 %.4f s, p99 "
              "%.4f s; sequential mean %.4f s; delivered %.5f, hop inflation "
              "%.5f, %llu detours and %llu BFS fallbacks for %llu packets\n",
              sim_s.size(), median(sim_s), quantile(sim_s, 0.9),
              quantile(sim_s, 0.99), mean(sequential_s),
              ratio(delivered, injected), ratio(actual_hops, planned_hops),
              static_cast<unsigned long long>(detours),
              static_cast<unsigned long long>(fallbacks),
              static_cast<unsigned long long>(injected));

  rep.set_ok_frac();
  rep.set("qps", median(rates));
  rep.set("p50_ms", quantile(sim_ms, 0.5));
  rep.set("p90_ms", quantile(sim_ms, 0.9));
  rep.set("delivered_frac", ratio(delivered, injected));
  rep.set("hop_inflation", ratio(actual_hops, planned_hops));

  if (opt.trace) {
    rep.set("sim.sequential_s", mean(sequential_s));
    rep.set("shard.seam_s", mean(sim_s) - mean(sequential_s));
    rep.set("sim.network_setup_s", median(network_times));
    rep.set("sim.detours_per_pkt", ratio(detours, injected));
    rep.set("sim.bfs_fallbacks_per_pkt", ratio(fallbacks, injected));
    rep.set("cpu_util", cpu / (wall * static_cast<double>(host_cpus())));
    rep.set("trace.overhead_frac", mean(sim_s) / untraced_mean_s - 1.0);
    // The sharded engine runs both layers inside one call, so the table
    // puts all of it under shard; sim.sequential_s and shard.seam_s, from
    // the separate sequential runs, give the split.
    tracer.print_layer_table(first_span, last_span, wall);

    // Baseline outside the timed region: the sequential engine without the
    // fault plan, each scenario on a cold network.
    tracer.set_enabled(true);
    std::vector<double> faultfree_s;
    for (std::size_t k = 0; k < scenarios.size(); ++k) {
      build_stack(k);
      Scope span(tracer, "sim.faultfree", k);
      const Clock::time_point f0 = Clock::now();
      (void)ipg::sim::simulate_with_faults(*net, scenarios[k].packets,
                                           FaultPlan{});
      faultfree_s.push_back(seconds_since(f0));
    }
    tracer.set_enabled(false);
    rep.set("sim.faultfree_s", mean(faultfree_s));
  }
  return rep;
}

}  // namespace perfbench
