// serve-uniform / serve-zipf: route::RouteService over an implicit HSN as
// shipped (default QueryEngineOptions, default RouteService::Options: one
// worker, a 64-batch ring) with this thread, on a CPU of its own, as the
// one client. A closed loop measures throughput; an open loop at a fixed
// offered rate measures latency from each batch's scheduled send time, so
// a stall also charges the batches queued behind it. The run alternates
// short closed and open slices, so both see the same host conditions, and
// samples setup_s between them.
//
//   serve-uniform  HSN(6,S4), 191,102,976 nodes, 96-bit labels: the packed
//                  kernel answers; pairs never repeat, so the route cache
//                  only adds misses and admissions.
//   serve-zipf     HSN(6,Q4), 16,777,216 nodes, 48-symbol labels that do
//                  not pack: every miss runs the scalar SuperIPRouter;
//                  pairs are Zipf(s = 1) over 4x the default cache's
//                  capacity, so hits carry most queries while admissions
//                  and evictions continue.

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "ipg/families.hpp"
#include "net/topology.hpp"
#include "route/query_engine.hpp"
#include "route/service.hpp"
#include "util/prng.hpp"

namespace perfbench {
namespace {

using ipg::net::ImplicitSuperIPTopology;
using ipg::route::AnswerStatus;
using ipg::route::QueryEngine;
using ipg::route::QueryEngineOptions;
using ipg::route::QueryKind;
using ipg::route::RouteAnswer;
using ipg::route::RouteQuery;
using ipg::route::RouteService;

constexpr std::size_t kBatch = 32;
/// The frozen open-loop rate of both workloads, queries/s: under half the
/// closed-loop rate of the slowest serve-uniform runs seen on the
/// reference host (about 500,000), so the open loop keeps its schedule
/// through slow host phases.
constexpr double kOfferedQps = 200000.0;
/// Pre-generated (src, dst) pairs, cycled; the query kind follows from
/// the position in the batch. 2^20 pairs outlast the cache (2^16 entries)
/// and span more than one halving period of its frequency sketch (10x the
/// capacity in misses), so a uniform pair seen again after a full cycle is
/// new to both.
constexpr std::size_t kPoolBatches = (std::size_t{1} << 20) / kBatch;
/// Every kSampleEvery-th batch keeps a digest of its answers; after
/// timing, up to kMaxChecked of them, evenly spaced, are checked against
/// the scalar oracle.
constexpr std::uint64_t kSampleEvery = 32;
constexpr std::size_t kMaxChecked = 4096;
/// Zipf pair set: 4x the default 65,536-entry route cache.
constexpr std::uint64_t kZipfPairs =
    4 * QueryEngineOptions{}.cache_capacity;
/// The run alternates kRounds closed-loop and open-loop slices; after each
/// round it builds and drops kSetupRepsPerRound extra stacks for setup_s.
constexpr int kRounds = 10;
constexpr int kSetupRepsPerRound = 4;
/// Rates and latency percentiles are taken per window. Other tenants of a
/// shared host stall its vCPUs for milliseconds at a time, in bursts, and
/// a stall only ever adds time. So each figure is reported from the
/// quarter of windows least disturbed: the third quartile of the window
/// rates, the first quartile of the window percentiles. A regression in
/// the program moves every window; a burst of stalls moves only some.
constexpr double kRateWindow = 0.1;     // seconds, closed loop
constexpr double kLatencyWindow = 0.1;  // seconds of send times, open loop
/// Open-loop validity, on the median window: the sender's median lateness
/// stays under kMaxLateMs (host freezes of a few ms delay some sends, but
/// the sender catches up and every batch is timed from its due time), and
/// the backlog at a window's start stays under the batches due in
/// kMaxBacklogS — a rate the service cannot sustain grows it without
/// bound.
constexpr double kMaxLateMs = 1.0;
constexpr double kMaxBacklogS = 0.1;
/// Batches replayed on one thread for the per-layer engine/kernel costs.
constexpr std::size_t kReplayBatches = 4096;

/// The fixed per-batch mix: 1/4 distance, 1/4 next hop, 1/2 full route.
QueryKind kind_at(std::size_t i) {
  switch (i % 4) {
    case 0:
      return QueryKind::kDistance;
    case 1:
      return QueryKind::kNextHop;
    default:
      return QueryKind::kFullRoute;
  }
}

/// Node ids of both topologies fit 32 bits; the compact pool keeps the
/// benchmark's own share of the process's memory small.
struct Pair {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
};

std::vector<Pair> make_pool(bool zipf, std::uint64_t n, std::uint64_t seed) {
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::runtime_error("node ids do not fit the 32-bit query pool");
  }
  ipg::Xoshiro256 rng(seed);
  auto draw = [&rng, n] {
    return Pair{static_cast<std::uint32_t>(rng.below(n)),
                static_cast<std::uint32_t>(rng.below(n))};
  };
  std::vector<Pair> pool(kPoolBatches * kBatch);
  if (!zipf) {
    for (Pair& p : pool) p = draw();
    return pool;
  }
  std::vector<Pair> pairs(kZipfPairs);
  for (Pair& p : pairs) p = draw();
  std::vector<double> cdf(kZipfPairs);
  double sum = 0.0;
  for (std::size_t r = 0; r < cdf.size(); ++r) {
    sum += 1.0 / static_cast<double>(r + 1);
    cdf[r] = sum;
  }
  for (Pair& p : pool) {
    const double u = rng.uniform() * sum;
    const auto r = static_cast<std::size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    p = pairs[std::min(r, pairs.size() - 1)];
  }
  return pool;
}

/// Batch `id` of the cycled pool, with the fixed query mix.
void fill_batch(const std::vector<Pair>& pool, std::uint64_t id,
                std::vector<RouteQuery>& out) {
  const std::size_t off = (id % kPoolBatches) * kBatch;
  out.resize(kBatch);
  for (std::size_t j = 0; j < kBatch; ++j) {
    out[j] = {pool[off + j].src, pool[off + j].dst, kind_at(j)};
  }
}

struct Pending {
  std::future<std::vector<RouteAnswer>> answers;
  std::uint64_t id = 0;
  Clock::time_point due;  ///< scheduled send time (open loop)
};

struct Sample {
  std::uint64_t id = 0;
  std::uint64_t digest = 0;
};

/// Hash of every field of a batch's answers. Keeping only this for
/// sampled batches stops memory from growing with throughput.
std::uint64_t digest(const std::vector<RouteAnswer>& answers) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::int64_t v) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 0x100000001b3ull;
    h ^= h >> 29;
  };
  for (const RouteAnswer& a : answers) {
    mix(static_cast<std::int64_t>(a.status));
    mix(a.distance);
    mix(a.first_gen);
    mix(static_cast<std::int64_t>(a.next_hop));
    mix(static_cast<std::int64_t>(a.gens.size()));
    for (const int g : a.gens) mix(g);
  }
  return h;
}

/// The benchmark's client: submits pool batches, collects futures, keeps
/// the success counters and the sampled digests for the oracle check.
class Client {
 public:
  Client(RouteService& service, const std::vector<Pair>& pool,
         Tracer& tracer)
      : service_(service), pool_(pool), tracer_(tracer) {}

  Pending submit(std::uint64_t id, Clock::time_point due) {
    std::vector<RouteQuery> batch;
    fill_batch(pool_, id, batch);
    Scope span(tracer_, "route.submit", id);
    ++attempted;
    return {service_.submit(std::move(batch)), id, due};
  }

  /// Collects a batch whose future is ready.
  void complete(Pending& p) {
    std::vector<RouteAnswer> answers;
    bool ok = true;
    try {
      answers = p.answers.get();
    } catch (...) {
      ok = false;
    }
    ok = ok && answers.size() == kBatch;
    if (!ok) {
      ++failed;
      return;
    }
    answered += kBatch;
    for (const RouteAnswer& a : answers) {
      delivered += a.status == AnswerStatus::kOk;
    }
    if (p.id % kSampleEvery == 0) samples.push_back({p.id, digest(answers)});
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t answered = 0;
  std::uint64_t delivered = 0;
  std::vector<Sample> samples;

 private:
  RouteService& service_;
  const std::vector<Pair>& pool_;
  Tracer& tracer_;
};

bool ready(const Pending& p) {
  return p.answers.wait_for(std::chrono::seconds(0)) ==
         std::future_status::ready;
}

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// Closed loop: keeps `window` batches outstanding until `seconds` pass or
/// `max_batches` complete. Returns the completed-query rate of each
/// kRateWindow-long window.
std::vector<double> closed_loop(Client& client, std::uint64_t& next_id,
                                std::size_t window, double seconds,
                                std::uint64_t max_batches, Tracer& tracer) {
  Scope phase(tracer, "client.closed_loop", next_id);
  std::deque<Pending> inflight;
  std::vector<double> rates;
  std::uint64_t done = 0;
  std::uint64_t window_done = 0;
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline = t0 + to_duration(seconds);
  Clock::time_point window_start = t0;
  auto finish_front = [&] {
    {
      Scope span(tracer, "route.wait", inflight.front().id);
      inflight.front().answers.wait();
    }
    client.complete(inflight.front());
    inflight.pop_front();
  };
  for (;;) {
    while (inflight.size() < window) {
      inflight.push_back(client.submit(next_id++, Clock::now()));
    }
    finish_front();
    ++done;
    ++window_done;
    const Clock::time_point now = Clock::now();
    if (seconds_between(window_start, now) >= kRateWindow) {
      rates.push_back(static_cast<double>(window_done * kBatch) /
                      seconds_between(window_start, now));
      window_done = 0;
      window_start = now;
    }
    if (now >= deadline || done >= max_batches) break;
  }
  while (!inflight.empty()) finish_front();
  return rates;
}

/// Open-loop figures per kLatencyWindow-long window of send times,
/// gathered over every open-loop slice of a run.
struct OpenLoop {
  std::vector<double> p50_ms, p90_ms, p99_ms, late_p50_ms, late_p99_ms;
  std::vector<double> outstanding;  ///< batches in flight at window starts
  std::size_t batches = 0;
  std::size_t max_backlog_end = 0;  ///< most batches left when a slice ended
};

/// One open-loop slice: batch i is due at start + i * kBatch / kOfferedQps
/// and is timed from that moment. Futures are observed in FIFO order, so a
/// batch that finishes before an older one is seen when the older one
/// completes.
void open_loop(Client& client, std::uint64_t& next_id, double seconds,
               Tracer& tracer, OpenLoop& out) {
  Scope phase(tracer, "client.open_loop", next_id);
  const Clock::duration interval =
      to_duration(static_cast<double>(kBatch) / kOfferedQps);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  const Clock::time_point end = start + to_duration(seconds);
  const auto windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(seconds / kLatencyWindow)));
  std::vector<std::vector<double>> latency(windows), late(windows);
  auto window_of = [&](Clock::time_point due) {
    return std::min(windows - 1, static_cast<std::size_t>(
                                     seconds_between(start, due) /
                                     kLatencyWindow));
  };
  std::deque<Pending> inflight;
  auto finish_front = [&] {
    Pending& p = inflight.front();
    const std::uint64_t failed_before = client.failed;
    client.complete(p);
    // A failed batch misses every latency limit.
    latency[window_of(p.due)].push_back(
        client.failed != failed_before
            ? std::numeric_limits<double>::infinity()
            : 1e3 * seconds_since(p.due));
    inflight.pop_front();
  };
  std::size_t current_window = 0;
  for (std::uint64_t i = 0;; ++i) {
    const Clock::time_point due =
        start + static_cast<Clock::rep>(i) * interval;
    if (due >= end) break;
    {
      // The pacer polls instead of sleeping, so its own wake-up latency
      // neither delays a send nor postpones seeing a completion; it owns
      // one CPU of the thread budget.
      Scope span(tracer, "client.pace", next_id);
      while (Clock::now() < due) {
        if (!inflight.empty() && ready(inflight.front())) finish_front();
      }
    }
    if (window_of(due) != current_window) {
      current_window = window_of(due);
      out.outstanding.push_back(static_cast<double>(inflight.size()));
    }
    late[current_window].push_back(1e3 * seconds_since(due));
    inflight.push_back(client.submit(next_id++, due));
  }
  out.max_backlog_end = std::max(out.max_backlog_end, inflight.size());
  while (!inflight.empty()) {
    {
      Scope span(tracer, "route.wait", inflight.front().id);
      while (!ready(inflight.front())) {
      }
    }
    finish_front();
  }
  for (std::size_t w = 0; w < windows; ++w) {
    if (latency[w].empty()) continue;
    out.batches += latency[w].size();
    out.p50_ms.push_back(quantile(latency[w], 0.5));
    out.p90_ms.push_back(quantile(latency[w], 0.9));
    out.p99_ms.push_back(quantile(latency[w], 0.99));
    out.late_p50_ms.push_back(quantile(late[w], 0.5));
    out.late_p99_ms.push_back(quantile(late[w], 0.99));
  }
}

/// The objects setup_s times: topology, engine, service.
struct Stack {
  std::unique_ptr<ImplicitSuperIPTopology> topo;
  std::unique_ptr<QueryEngine> engine;
  std::unique_ptr<RouteService> service;

  /// Builds all three; returns the wall time it took.
  double build(const ipg::SuperIPSpec& spec) {
    const Clock::time_point t0 = Clock::now();
    topo = std::make_unique<ImplicitSuperIPTopology>(spec);
    engine = std::make_unique<QueryEngine>(*topo);
    service = std::make_unique<RouteService>(*engine, RouteService::Options{});
    return seconds_since(t0);
  }
};

/// Feeds `batches` pool batches from `first_batch` on through
/// answer_batch on this thread; returns microseconds per query.
double replay_us_per_query(const QueryEngine& engine,
                           const std::vector<Pair>& pool,
                           std::uint64_t first_batch, std::uint64_t batches) {
  std::vector<RouteQuery> queries;
  std::vector<RouteAnswer> answers(kBatch);
  double busy_s = 0.0;
  for (std::uint64_t b = 0; b < batches; ++b) {
    fill_batch(pool, first_batch + b, queries);
    const Clock::time_point t0 = Clock::now();
    engine.answer_batch(queries, answers);
    busy_s += seconds_since(t0);
  }
  return 1e6 * busy_s / static_cast<double>(batches * kBatch);
}

struct Phases {
  std::vector<double> rates;  ///< closed-loop queries/s per window
  OpenLoop open;
  double wall_s = 0.0;  ///< of the slices, without the setup samples
  double cpu_s = 0.0;
};

double delta(std::uint64_t after, std::uint64_t before) {
  return static_cast<double>(after - before);
}

/// The least disturbed quarter of windows (see kRateWindow).
double quiet_rate(const std::vector<double>& rates) {
  return quantile(rates, 0.75);
}
double quiet_latency(const std::vector<double>& ms) {
  return quantile(ms, 0.25);
}

}  // namespace

Report run_serve(const Options& opt, Tracer& tracer) {
  const bool zipf = opt.workload == "serve-zipf";
  const ipg::SuperIPSpec spec =
      zipf ? ipg::make_hsn(6, ipg::hypercube_nucleus(4))
           : ipg::make_hsn(6, ipg::star_nucleus(4));
  const int workers = RouteService::Options{}.workers;
  // The closed loop keeps the service's intake ring full, so a client
  // hiccup never starves the workers and submit() never blocks.
  const std::size_t window = RouteService::Options{}.ring_capacity;
  Report rep;
  rep.threads_used = {{"service_workers", workers}, {"client_threads", 1}};

  // Inputs first, from the seed alone.
  const std::vector<Pair> pool = make_pool(
      zipf, ImplicitSuperIPTopology(spec).num_nodes(), opt.seed);
  const double inputs_rss_mib = current_rss_mib();

  // The client stands in for callers on other machines, so it gets a CPU
  // of its own: the service is built while this thread may run only on
  // the other CPUs, which its worker inherits, and then this thread moves
  // to the one left. Otherwise the OS may queue the worker behind the
  // spinning pacer on one CPU, and the run would time that.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof allowed, &allowed);
  int client_cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) client_cpu = c;
  }
  cpu_set_t service_cpus = allowed;
  CPU_CLR(client_cpu, &service_cpus);
  cpu_set_t client_cpus;
  CPU_ZERO(&client_cpus);
  CPU_SET(client_cpu, &client_cpus);
  if (pthread_setaffinity_np(pthread_self(), sizeof service_cpus,
                             &service_cpus) != 0) {
    throw std::runtime_error("cannot keep the service off the client's CPU");
  }
  Stack stack;
  std::vector<double> setup_times = {stack.build(spec)};
  if (pthread_setaffinity_np(pthread_self(), sizeof client_cpus,
                             &client_cpus) != 0) {
    throw std::runtime_error("cannot pin the client to its CPU");
  }
  std::printf("%s: %s, %llu nodes, packed kernel %s, %d workers, window "
              "%zu, offered %.0f q/s, pool %zu queries, client on CPU %d\n",
              opt.workload.c_str(), spec.name.c_str(),
              static_cast<unsigned long long>(stack.topo->num_nodes()),
              stack.engine->packed_kernel_active() ? "active" : "inactive",
              workers, window, kOfferedQps, pool.size(), client_cpu);

  Client client(*stack.service, pool, tracer);
  std::uint64_t next_id = 0;

  // Warm-up (untimed, untraced): thread start-up for both, and for Zipf
  // traffic the route-cache and schedule-cache fill that a long-running
  // server has already paid.
  const std::uint64_t warm_batches = std::uint64_t{1} << (zipf ? 15 : 12);
  closed_loop(client, next_id, window, 60.0, warm_batches, tracer);
  const std::uint64_t first_timed_batch = next_id;

  // kRounds rounds of a closed-loop slice (40% of a round) and an
  // open-loop slice (60%); the set-up samples between rounds are untimed
  // and untraced.
  auto run_phases = [&] {
    Phases ph;
    const double slice_s = opt.seconds / kRounds;
    for (int r = 0; r < kRounds; ++r) {
      const double cpu0 = process_cpu_s();
      const Clock::time_point t0 = Clock::now();
      const std::vector<double> rates =
          closed_loop(client, next_id, window, 0.4 * slice_s,
                      std::numeric_limits<std::uint64_t>::max(), tracer);
      ph.rates.insert(ph.rates.end(), rates.begin(), rates.end());
      open_loop(client, next_id, 0.6 * slice_s, tracer, ph.open);
      ph.wall_s += seconds_since(t0);
      ph.cpu_s += process_cpu_s() - cpu0;
      const bool tracing = tracer.enabled();
      tracer.set_enabled(false);
      for (int k = 0; k < kSetupRepsPerRound; ++k) {
        Stack extra;
        setup_times.push_back(extra.build(spec));
      }
      tracer.set_enabled(tracing);
    }
    return ph;
  };

  double untraced_qps = 0.0;
  if (opt.trace) {
    untraced_qps = quiet_rate(run_phases().rates);
    tracer.set_enabled(true);
  }
  const ipg::ShardedCacheStats cache0 = stack.engine->cache_stats();
  const ipg::route::RingStats ring0 = stack.service->ring_stats();
  const std::size_t first_span = tracer.spans().size();
  const Phases ph = run_phases();
  const std::size_t last_span = tracer.spans().size();
  const ipg::ShardedCacheStats cache1 = stack.engine->cache_stats();
  const ipg::route::RingStats ring1 = stack.service->ring_stats();
  tracer.set_enabled(false);

  const double qps = quiet_rate(ph.rates);
  const double p50 = quiet_latency(ph.open.p50_ms);
  const double p90 = quiet_latency(ph.open.p90_ms);
  const double late_p50 = median(ph.open.late_p50_ms);
  const double late_p99 = median(ph.open.late_p99_ms);
  const double backlog = median(ph.open.outstanding);
  const double max_backlog =
      kMaxBacklogS * kOfferedQps / static_cast<double>(kBatch);
  std::printf("closed loop: %.0f q/s (%zu windows; median window %.0f q/s)\n",
              qps, ph.rates.size(), median(ph.rates));
  std::printf("open loop: %zu batches in %zu windows, p50 %.4f ms, p90 %.4f "
              "ms, p99 %.4f ms (median window: p50 %.4f, p90 %.4f, p99 %.4f "
              "ms); sender late p50 %.4f ms, p99 %.4f ms, outstanding %.0f "
              "(median window); most left at a slice's end %zu\n",
              ph.open.batches, ph.open.p90_ms.size(), p50, p90,
              quiet_latency(ph.open.p99_ms), median(ph.open.p50_ms),
              median(ph.open.p90_ms), median(ph.open.p99_ms), late_p50,
              late_p99, backlog, ph.open.max_backlog_end);
  std::printf("memory: %.1f MiB resident after input generation, peak %.1f "
              "MiB\n",
              inputs_rss_mib, peak_rss_mib());
  if (late_p50 > kMaxLateMs || backlog > max_backlog) {
    rep.valid = false;
    rep.invalid_reason =
        "open loop could not hold the offered rate (sender late p50 " +
        std::to_string(late_p50) + " ms, " + std::to_string(backlog) +
        " batches outstanding at a window start)";
  }

  // Oracle: sampled answers against the scalar path of a cache-less engine.
  {
    const QueryEngine oracle(*stack.topo,
                             QueryEngineOptions{.cache_capacity = 0});
    std::vector<RouteQuery> queries;
    std::vector<RouteAnswer> want(kBatch);
    std::uint64_t diverged = 0;
    const std::size_t stride = client.samples.size() / kMaxChecked + 1;
    std::size_t checked = 0;
    for (std::size_t i = 0; i < client.samples.size(); i += stride) {
      const Sample& s = client.samples[i];
      fill_batch(pool, s.id, queries);
      oracle.answer_batch_scalar(queries, want);
      diverged += digest(want) != s.digest;
      ++checked;
    }
    std::printf("oracle: %zu of %zu sampled batches checked, %llu diverged\n",
                checked, client.samples.size(),
                static_cast<unsigned long long>(diverged));
    client.failed += diverged;
  }
  rep.attempted = client.attempted;
  rep.failed = client.failed;

  rep.set_ok_frac();
  rep.set("setup_s", median(setup_times));
  rep.set("qps", qps);
  rep.set("p50_ms", p50);
  rep.set("p90_ms", p90);
  rep.set("delivered_frac",
          static_cast<double>(client.delivered) /
              static_cast<double>(std::max<std::uint64_t>(1, client.answered)));
  // No faults: every answer is the route that was planned.
  rep.set("hop_inflation", 1.0);

  if (opt.trace) {
    std::vector<double> submit_ms = tracer.durations("route.submit");
    for (double& s : submit_ms) s *= 1e3;
    rep.set("route.submit_block_ms.p99", quantile(submit_ms, 0.99));
    rep.set("route.ring.enqueue_waits",
            delta(ring1.enqueue_waits, ring0.enqueue_waits));
    rep.set("route.ring.max_depth", static_cast<double>(ring1.max_depth));
    const double lookups = delta(cache1.lookups(), cache0.lookups());
    const double misses = delta(cache1.misses, cache0.misses);
    rep.set("util.cache.hit_ratio", delta(cache1.hits, cache0.hits) / lookups);
    rep.set("util.cache.admit_ratio",
            misses > 0 ? delta(cache1.admitted, cache0.admitted) / misses
                       : 0.0);
    rep.set("util.cache.evictions_per_kq",
            1e3 * delta(cache1.evictions, cache0.evictions) / lookups);
    rep.set("client.late_ms.p99", late_p99);
    rep.set("client.backlog_end", static_cast<double>(ph.open.max_backlog_end));
    // Not host_cpus(): this thread is pinned to one CPU by now.
    const double cpus = CPU_COUNT(&allowed);
    rep.set("cpu_util", ph.cpu_s / (ph.wall_s * cpus));
    rep.set("trace.overhead_frac", untraced_qps / qps - 1.0);
    tracer.print_layer_table(first_span, last_span, ph.wall_s);

    // Per-query engine cost on one thread over batches the run timed: a
    // fresh default engine warmed like the service's, then one whose cache
    // is off, which leaves the routing kernel alone.
    stack.service->shutdown();
    const QueryEngine engine(*stack.topo);
    replay_us_per_query(engine, pool, 0, warm_batches);
    const QueryEngine kernel(*stack.topo,
                             QueryEngineOptions{.cache_capacity = 0});
    tracer.set_enabled(true);
    {
      Scope span(tracer, "route.engine_replay", first_timed_batch);
      rep.set("route.engine_us_per_query",
              replay_us_per_query(engine, pool, first_timed_batch,
                                  kReplayBatches));
    }
    {
      Scope span(tracer, "route.kernel_replay", first_timed_batch);
      rep.set("route.kernel_us_per_query",
              replay_us_per_query(kernel, pool, first_timed_batch,
                                  kReplayBatches));
    }
    tracer.set_enabled(false);
  }
  return rep;
}

}  // namespace perfbench
