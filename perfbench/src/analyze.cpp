// analyze: the paper's Section 5 design-space study at ExecPolicy{nproc}.
// Each pass runs the five-stage pipeline over a fixed spec list:
//   build_super_ip_graph -> compute_orbit_quotient (module-preserving) ->
//   exact_analysis over that quotient -> cluster_by_nucleus +
//   module_orbit_quotient -> i_metrics over the module orbits.
// The list mixes the 12 golden variants, whose cost is mostly fixed
// per-call overhead (pool spin-up, certification), with mid-size plain
// specs and HSN(2,Q8), where the closure build and the sweep dominate.
// Every spec's figures are checked against values pinned once from the
// brute-force oracle (ExactOptions{.use_orbit_quotient = false} and the
// plain i_metrics sweep).
//
// The study's set-up is building each spec's topology, the IPGraph from
// build_super_ip_graph; thread pools are made per call, inside the work.
// So setup_s is the summed build time of a pass, the median over passes:
// work moved from the analysis stages into the build shows there.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/exact.hpp"
#include "analysis/orbit.hpp"
#include "bench.hpp"
#include "cluster/imetrics.hpp"
#include "cluster/partitions.hpp"
#include "ipg/families.hpp"
#include "ipg/super.hpp"
#include "ipg/symmetric.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kMaxNodes = std::uint64_t{1} << 24;

std::vector<ipg::SuperIPSpec> spec_list() {
  using namespace ipg;
  std::vector<SuperIPSpec> specs = {
      make_hcn(2),
      make_hsn(3, hypercube_nucleus(2)),
      make_ring_cn(3, star_nucleus(3)),
      make_complete_cn(3, hypercube_nucleus(2)),
      make_directed_cn(3, star_nucleus(3)),
      make_super_flip(3, hypercube_nucleus(2)),
  };
  const std::size_t plain = specs.size();
  for (std::size_t i = 0; i < plain; ++i) {
    specs.push_back(make_symmetric(specs[i]));
  }
  specs.push_back(make_hsn(3, hypercube_nucleus(4)));          // 4,096 nodes
  specs.push_back(make_complete_cn(3, hypercube_nucleus(4)));  // 4,096
  specs.push_back(make_ring_cn(3, star_nucleus(4)));           // 13,824
  // 13,824 nodes; directed-CN compresses weakly under the orbit quotient.
  specs.push_back(make_directed_cn(3, star_nucleus(4)));
  specs.push_back(make_hsn(2, hypercube_nucleus(8)));  // 65,536
  return specs;
}

/// The figures the oracle pins for one spec.
struct Figures {
  ipg::Dist diameter = 0;
  std::vector<std::uint64_t> histogram;
  ipg::Dist i_diameter = 0;
  double avg_i_distance = 0.0;

  bool operator==(const Figures&) const = default;
};

/// Per-pass totals over the spec list.
struct PassTotals {
  double build_s = 0.0;
  std::uint64_t orbits = 0;
  std::uint64_t module_orbits = 0;
};

Figures run_pipeline(const ipg::SuperIPSpec& spec, const ipg::ExecPolicy& exec,
                     Tracer& tracer, std::uint64_t request,
                     PassTotals& totals) {
  Scope whole(tracer, "bench.spec", request);
  ipg::IPGraph g;
  {
    Scope s(tracer, "ipg.build", request, true);
    const Clock::time_point t0 = Clock::now();
    g = ipg::build_super_ip_graph(spec, kMaxNodes, exec);
    totals.build_s += seconds_since(t0);
  }
  ipg::OrbitQuotient q;
  {
    Scope s(tracer, "analysis.quotient", request);
    q = ipg::compute_orbit_quotient(
        g, spec, ipg::OrbitOptions{.module_preserving_only = true});
  }
  ipg::ExactAnalysis ea;
  {
    Scope s(tracer, "analysis.exact", request, true);
    ipg::ExactOptions eo;
    eo.orbit = &q;
    ea = ipg::exact_analysis(g.graph, exec, eo);
  }
  ipg::Clustering c;
  ipg::OrbitQuotient mq;
  {
    Scope s(tracer, "cluster.modules", request);
    c = ipg::cluster_by_nucleus(g, spec.m);
    mq = ipg::module_orbit_quotient(q, c.module_of, c.num_modules);
  }
  ipg::IMetrics im;
  {
    Scope s(tracer, "cluster.imetrics", request);
    im = ipg::i_metrics(g.graph, c, mq, exec);
  }
  totals.orbits += q.num_orbits();
  totals.module_orbits += mq.num_orbits();
  return {ea.distances.diameter, ea.distances.histogram, im.i_diameter,
          im.avg_i_distance};
}

std::map<std::string, Figures> read_oracle(const std::string& path) {
  std::map<std::string, Figures> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, diameter, i_diameter, avg, hist;
    std::getline(fields, name, '\t');
    std::getline(fields, diameter, '\t');
    std::getline(fields, i_diameter, '\t');
    std::getline(fields, avg, '\t');
    std::getline(fields, hist, '\t');
    Figures f;
    f.diameter = static_cast<ipg::Dist>(std::stoul(diameter));
    f.i_diameter = static_cast<ipg::Dist>(std::stoul(i_diameter));
    f.avg_i_distance = std::strtod(avg.c_str(), nullptr);
    std::istringstream h(hist);
    std::uint64_t v = 0;
    while (h >> v) f.histogram.push_back(v);
    out[name] = f;
  }
  return out;
}

}  // namespace

int pin_analyze_oracle(const std::string& path, int threads) {
  const ipg::ExecPolicy exec{threads};
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f,
               "# analyze oracle: brute-force figures per spec "
               "(perfbench --pin-oracle)\n"
               "# name\tdiameter\ti_diameter\tavg_i_distance\t"
               "distance histogram\n");
  for (const ipg::SuperIPSpec& spec : spec_list()) {
    const ipg::IPGraph g = ipg::build_super_ip_graph(spec, kMaxNodes, exec);
    ipg::ExactOptions brute;
    brute.use_orbit_quotient = false;
    const ipg::ExactAnalysis ea = ipg::exact_analysis(g.graph, exec, brute);
    const ipg::Clustering c = ipg::cluster_by_nucleus(g, spec.m);
    const ipg::IMetrics im = ipg::i_metrics(g.graph, c, exec);
    std::fprintf(f, "%s\t%u\t%u\t%a\t", spec.name.c_str(),
                 ea.distances.diameter, im.i_diameter, im.avg_i_distance);
    for (std::size_t d = 0; d < ea.distances.histogram.size(); ++d) {
      std::fprintf(f, "%s%" PRIu64, d ? " " : "", ea.distances.histogram[d]);
    }
    std::fprintf(f, "\n");
    std::printf("pinned %s (%u nodes)\n", spec.name.c_str(), g.num_nodes());
  }
  return std::fclose(f) == 0 ? 0 : 1;
}

Report run_analyze(const Options& opt, Tracer& tracer) {
  Report rep;
  rep.threads_used = {{"pool_threads", opt.threads}};
  const ipg::ExecPolicy exec{opt.threads};
  const std::map<std::string, Figures> oracle = read_oracle(opt.oracle);

  const std::vector<ipg::SuperIPSpec> specs = spec_list();
  for (const ipg::SuperIPSpec& s : specs) {
    if (!s.valid()) throw std::runtime_error("invalid spec " + s.name);
  }
  std::printf("analyze: %zu specs at %d threads, oracle %zu entries\n",
              specs.size(), opt.threads, oracle.size());

  std::uint64_t request = 0;
  // Per-spec latency percentiles, one value per pass (report lines only).
  std::vector<double> pass_p50_ms, pass_p99_ms, pass_build_s;
  PassTotals totals;
  auto pass = [&](std::vector<double>& pass_s) {
    Scope span(tracer, "bench.pass", request);
    const Clock::time_point t0 = Clock::now();
    std::vector<double> spec_ms;
    totals = {};
    for (const ipg::SuperIPSpec& spec : specs) {
      const Clock::time_point s0 = Clock::now();
      const Figures got = run_pipeline(spec, exec, tracer, request++, totals);
      spec_ms.push_back(1e3 * seconds_since(s0));
      ++rep.attempted;
      const auto want = oracle.find(spec.name);
      if (want == oracle.end() || !(want->second == got)) {
        ++rep.failed;
        std::printf(
            "oracle: %s diverges (diameter %u, i_diameter %u, avg_i %a)\n",
            spec.name.c_str(), got.diameter, got.i_diameter,
            got.avg_i_distance);
      }
    }
    pass_s.push_back(seconds_since(t0));
    pass_build_s.push_back(totals.build_s);
    pass_p50_ms.push_back(quantile(spec_ms, 0.5));
    pass_p99_ms.push_back(quantile(spec_ms, 0.99));
  };
  auto passes_for = [&](double seconds) {
    std::vector<double> pass_s;
    pass_p50_ms.clear();
    pass_p99_ms.clear();
    pass_build_s.clear();
    const Clock::time_point t0 = Clock::now();
    do {
      pass(pass_s);
    } while (seconds_since(t0) < seconds);
    return pass_s;
  };

  // Warm-up pass (untimed, untraced): first-touch page faults and
  // allocator growth.
  {
    std::vector<double> ignored;
    pass(ignored);
  }
  double untraced_mean_s = 0.0;
  if (opt.trace) {
    untraced_mean_s = mean(passes_for(opt.seconds));
    tracer.set_enabled(true);
  }
  const std::size_t first_span = tracer.spans().size();
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  const std::vector<double> pass_s = passes_for(opt.seconds);
  const double wall = seconds_since(t0);
  const double cpu = process_cpu_s() - cpu0;
  tracer.set_enabled(false);
  const std::size_t last_span = tracer.spans().size();

  std::printf(
      "%zu passes, analyze_s median %.4f s, p90 %.4f s (min %.4f, max "
      "%.4f), of which building the topologies %.4f s; per spec p50 %.3f "
      "ms, p99 %.3f ms (medians over passes of %zu specs)\n",
      pass_s.size(), median(pass_s), quantile(pass_s, 0.9),
      quantile(pass_s, 0.0), quantile(pass_s, 1.0), median(pass_build_s),
      median(pass_p50_ms), median(pass_p99_ms), specs.size());

  // A request here is one pass over the spec list: p50_ms is analyze_s.
  rep.set_ok_frac();
  rep.set("setup_s", median(pass_build_s));
  rep.set("qps", static_cast<double>(specs.size()) / median(pass_s));
  rep.set("p50_ms", 1e3 * median(pass_s));
  rep.set("p90_ms", 1e3 * quantile(pass_s, 0.9));
  rep.set("delivered_frac", 1.0);  // every spec of every pass was analyzed
  rep.set("hop_inflation", 1.0);   // no faults

  if (opt.trace) {
    const auto passes = static_cast<double>(pass_s.size());
    auto per_pass = [&](const char* span) {
      return tracer.total_s(span) / passes;
    };
    rep.set("ipg.build_s", per_pass("ipg.build"));
    rep.set("ipg.build_cpu_s", tracer.total_cpu_s("ipg.build") / passes);
    rep.set("analysis.quotient_s", per_pass("analysis.quotient"));
    rep.set("analysis.exact_s", per_pass("analysis.exact"));
    rep.set("analysis.exact_cpu_s",
            tracer.total_cpu_s("analysis.exact") / passes);
    rep.set("analysis.orbits", static_cast<double>(totals.orbits));
    rep.set("analysis.sources_swept",
            static_cast<double>(totals.orbits + totals.module_orbits));
    rep.set("cluster.modules_s", per_pass("cluster.modules"));
    rep.set("cluster.imetrics_s", per_pass("cluster.imetrics"));
    rep.set("cpu_util", cpu / (wall * static_cast<double>(host_cpus())));
    rep.set("trace.overhead_frac", mean(pass_s) / untraced_mean_s - 1.0);
    tracer.print_layer_table(first_span, last_span, wall);
  }
  return rep;
}

}  // namespace perfbench
