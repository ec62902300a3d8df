#include "bench.hpp"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>

namespace perfbench {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

namespace {

/// A "Vm...:" line of /proc/self/status, MiB.
double status_mib(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::stod(line.substr(key.size())) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

}  // namespace

double peak_rss_mib() { return status_mib("VmHWM:"); }

double current_rss_mib() { return status_mib("VmRSS:"); }

int host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 1;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // A failed batch's latency is +inf; never interpolate into inf - inf.
  if (frac == 0.0 || !(v[hi] > v[lo])) return v[lo];
  return v[lo] + frac * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// The metric lists BENCHMARK.json declares; run.py checks that a run
// prints exactly these names.
Report::Report()
    : end_to_end{
          {"setup_s", 0.0, "s"},
          {"peak_rss_mib", 0.0, "MiB"},
          {"ok_frac", 0.0, "ratio"},
          {"qps", 0.0, "1/s"},
          {"p50_ms", 0.0, "ms"},
          {"p90_ms", 0.0, "ms"},
          {"delivered_frac", 0.0, "ratio"},
          {"hop_inflation", 0.0, "ratio"},
      },
      per_layer{
          {"route.submit_block_ms.p99", 0.0, "ms"},
          {"route.ring.enqueue_waits", 0.0, "count"},
          {"route.ring.max_depth", 0.0, "count"},
          {"route.engine_us_per_query", 0.0, "us"},
          {"route.kernel_us_per_query", 0.0, "us"},
          {"util.cache.hit_ratio", 0.0, "ratio"},
          {"util.cache.admit_ratio", 0.0, "ratio"},
          {"util.cache.evictions_per_kq", 0.0, "count/kq"},
          {"client.late_ms.p99", 0.0, "ms"},
          {"client.backlog_end", 0.0, "count"},
          {"cpu_util", 0.0, "ratio"},
          {"ipg.build_s", 0.0, "s"},
          {"ipg.build_cpu_s", 0.0, "s"},
          {"analysis.quotient_s", 0.0, "s"},
          {"analysis.exact_s", 0.0, "s"},
          {"analysis.exact_cpu_s", 0.0, "s"},
          {"analysis.orbits", 0.0, "count"},
          {"analysis.sources_swept", 0.0, "count"},
          {"cluster.modules_s", 0.0, "s"},
          {"cluster.imetrics_s", 0.0, "s"},
          {"sim.network_setup_s", 0.0, "s"},
          {"sim.faultfree_s", 0.0, "s"},
          {"sim.sequential_s", 0.0, "s"},
          {"shard.seam_s", 0.0, "s"},
          {"sim.detours_per_pkt", 0.0, "count"},
          {"sim.bfs_fallbacks_per_pkt", 0.0, "count"},
          {"trace.overhead_frac", 0.0, "ratio"},
      } {}

void Report::set(const std::string& name, double value) {
  for (std::vector<Metric>* list : {&end_to_end, &per_layer}) {
    for (Metric& m : *list) {
      if (m.name == name) {
        m.value = value;
        return;
      }
    }
  }
  throw std::logic_error("unknown metric " + name);
}

void Report::set_ok_frac() {
  set("ok_frac", 1.0 - static_cast<double>(failed) /
                           static_cast<double>(attempted > 0 ? attempted : 1));
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int Tracer::begin(const char* name, std::uint64_t request, bool with_cpu) {
  Span s;
  s.name = name;
  s.request = request;
  s.parent = open_.empty() ? -1 : open_.back();
  const int index = static_cast<int>(spans_.size());
  open_.push_back(index);
  cpu_at_begin_.push_back(with_cpu ? process_cpu_s() : -1.0);
  s.start_us = 1e6 * seconds_since(origin_);
  spans_.push_back(s);
  return index;
}

void Tracer::end(int index) {
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_us = 1e6 * seconds_since(origin_);
  if (cpu_at_begin_.back() >= 0.0) {
    s.cpu_s = process_cpu_s() - cpu_at_begin_.back();
  }
  cpu_at_begin_.pop_back();
  open_.pop_back();
}

std::vector<double> Tracer::durations(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::string_view(s.name) == name) {
      out.push_back(1e-6 * (s.end_us - s.start_us));
    }
  }
  return out;
}

double Tracer::total_s(const char* name) const {
  double sum = 0.0;
  for (const double d : durations(name)) sum += d;
  return sum;
}

double Tracer::total_cpu_s(const char* name) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (std::string_view(s.name) == name && s.cpu_s >= 0.0) sum += s.cpu_s;
  }
  return sum;
}

namespace {

std::string layer_of(const char* name) {
  const std::string_view n(name);
  return std::string(n.substr(0, n.find('.')));
}

}  // namespace

void Tracer::print_layer_table(std::size_t first, std::size_t last,
                               double traced_e2e_s) const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  // layer -> (spans, self seconds)
  std::map<std::string, std::pair<std::uint64_t, double>> layers;
  for (std::size_t i = first; i < last; ++i) {
    const Span& s = spans_[i];
    auto& row = layers[layer_of(s.name)];
    ++row.first;
    row.second += 1e-6 * (s.end_us - s.start_us - child_us[i]);
  }
  // The benchmark's own spans (bench.*, client.*) hold its loops, checks
  // and pacing; with the gaps between root spans they are the time no
  // library call accounts for.
  double library_s = 0.0;
  std::printf("layer self time over the traced timed region (%.6f s, %zu "
              "spans)\n",
              traced_e2e_s, last - first);
  std::printf("  %-10s %10s %12s %8s\n", "layer", "spans", "self_s", "share");
  for (const auto& [layer, row] : layers) {
    const bool own = layer == "bench" || layer == "client";
    if (!own) library_s += row.second;
    std::printf("  %-10s %10llu %12.6f %7.1f%%%s\n", layer.c_str(),
                static_cast<unsigned long long>(row.first), row.second,
                100.0 * row.second / traced_e2e_s,
                own ? "  (benchmark code)" : "");
  }
  const double covered = library_s / traced_e2e_s;
  std::printf("  library layers: %.6f s = %.1f%% of the traced end-to-end "
              "time; uninstrumented (benchmark code and gaps) %.1f%%\n",
              library_s, 100.0 * covered, 100.0 * (1.0 - covered));
}

bool Tracer::write_chrome(const std::string& path,
                          const std::string& host_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // A traced serve run records about 40k spans per second; the file keeps
  // the first kMaxEvents so it stays a few tens of MB.
  constexpr std::size_t kMaxEvents = 200000;
  const std::size_t n = std::min(spans_.size(), kMaxEvents);
  std::fprintf(f,
               "{\"otherData\": %s,\n\"droppedEvents\": %zu,\n"
               "\"traceEvents\": [\n",
               host_json.c_str(), spans_.size() - n);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"request\":%llu,\"parent\":%d}}%s\n",
                 s.name, layer_of(s.name).c_str(), s.start_us,
                 s.end_us - s.start_us,
                 static_cast<unsigned long long>(s.request), s.parent,
                 i + 1 < n ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
