#pragma once
// Shared plumbing of the end-to-end benchmark: clocks, sample statistics,
// the run options, the in-memory span tracer and the report every workload
// fills in. Spans are recorded only here, around calls into the library's
// public API; nothing inside the library is instrumented.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b);
double seconds_since(Clock::time_point t0);
/// CPU time of every thread of this process.
double process_cpu_s();
/// Peak resident set of this process (VmHWM), MiB.
double peak_rss_mib();
/// Resident set of this process now (VmRSS), MiB.
double current_rss_mib();
/// CPUs this process may run on — what `nproc` prints.
int host_cpus();

/// Linearly interpolated quantile, q in [0, 1] (0 for an empty sample).
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 0;        ///< 0: nproc
  std::string trace_out;  ///< Chrome trace-event file (traced runs)
  std::string oracle;     ///< analyze: pinned oracle file
  std::string commit = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. The end-to-end and per-layer name lists
/// are fixed (the Report constructor mirrors BENCHMARK.json); a workload
/// sets the ones it measures and leaves the per-layer metrics of layers it
/// never calls at 0.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when the measurement itself is not trustworthy (open-loop
  /// sender late or backlog growing); such a run reports no latency.
  bool valid = true;
  std::string invalid_reason;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Thread/worker/shard counts used, for the host stamp.
  std::vector<std::pair<std::string, int>> threads_used;

  Report();
  void set(const std::string& name, double value);
  /// ok_frac = 1 - failed / attempted.
  void set_ok_frac();
};

/// Span recorder. Spans nest on the calling thread (the benchmark's client
/// thread); each carries the request id of the batch, spec or simulation
/// it belongs to. Disabled tracers record nothing.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    double start_us = 0.0;
    double end_us = 0.0;
    double cpu_s = -1.0;  ///< process CPU time inside the span, if asked
    int parent = -1;
    std::uint64_t request = 0;
  };

  explicit Tracer(bool enabled);

  bool enabled() const noexcept { return enabled_; }
  /// Traced runs measure once untraced, then switch tracing on.
  void set_enabled(bool on) noexcept { enabled_ = on; }
  int begin(const char* name, std::uint64_t request, bool with_cpu);
  void end(int index);

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Durations (seconds) of every span called `name`.
  std::vector<double> durations(const char* name) const;
  /// Summed duration / CPU time of every span called `name`.
  double total_s(const char* name) const;
  double total_cpu_s(const char* name) const;

  /// Prints each layer's self time (span time not covered by child spans;
  /// the layer is the name up to its first '.') over spans [first, last),
  /// as a share of `traced_e2e_s`, the wall time of the traced region,
  /// and the share the library's layers account for: everything but the
  /// benchmark's own bench.* and client.* spans.
  void print_layer_table(std::size_t first, std::size_t last,
                         double traced_e2e_s) const;

  /// Writes a Chrome trace-event JSON file; returns false on I/O error.
  bool write_chrome(const std::string& path,
                    const std::string& host_json) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<double> cpu_at_begin_;
};

/// RAII span; a no-op on a disabled tracer.
class Scope {
 public:
  Scope(Tracer& t, const char* name, std::uint64_t request,
        bool with_cpu = false)
      : tracer_(t),
        index_(t.enabled() ? t.begin(name, request, with_cpu) : -1) {}
  ~Scope() {
    if (index_ >= 0) tracer_.end(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

Report run_serve(const Options& opt, Tracer& tracer);
Report run_analyze(const Options& opt, Tracer& tracer);
Report run_faultsim(const Options& opt, Tracer& tracer);
/// Recomputes the analyze oracle by brute force and writes it to `path`.
int pin_analyze_oracle(const std::string& path, int threads);

}  // namespace perfbench
