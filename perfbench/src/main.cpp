// perfbench: runs one benchmark workload against the ipg library's public
// API and prints its metrics. Normally started through perfbench/run.py,
// which builds this binary and supplies the oracle file and the commit
// stamp.
//
//   perfbench --workload serve-uniform|serve-zipf|analyze|faultsim
//             --seed N --seconds S --trace 0|1 [--threads T]
//             [--oracle FILE] [--trace-out FILE]
//             [--commit STR]
//   perfbench --pin-oracle FILE [--threads T]
//
// The last stdout line is the result object {correct, attempted, failed,
// metrics}: the end-to-end metrics untraced, the per-layer metrics traced.
// Exit codes: 0 ok, 1 an output diverged from its oracle or the open loop
// could not hold its rate, 2 bad arguments or a thread budget above nproc.

#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("GCC ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string host_json(const Options& opt, int nproc, const Report& rep) {
  std::string s = "{\"nproc\": " + std::to_string(nproc) +
                  ", \"cpu_model\": " + json_string(cpu_model()) +
                  ", \"compiler\": " + json_string(compiler()) +
                  ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
                  ", \"commit\": " + json_string(opt.commit) +
                  ", \"workload\": " + json_string(opt.workload) +
                  ", \"seed\": " + std::to_string(opt.seed) +
                  ", \"seconds\": " + json_number(opt.seconds) +
                  ", \"trace\": " + (opt.trace ? "1" : "0") +
                  ", \"threads\": " + std::to_string(opt.threads);
  for (const auto& [name, count] : rep.threads_used) {
    s += ", " + json_string(name) + ": " + std::to_string(count);
  }
  return s + "}";
}

void print_result(const Report& rep, bool trace) {
  std::string s = "{\"correct\": ";
  s += rep.failed == 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(rep.attempted);
  s += ", \"failed\": " + std::to_string(rep.failed);
  s += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : trace ? rep.per_layer : rep.end_to_end) {
    s += (first ? "" : ", ") + json_string(m.name) +
         ": {\"value\": " + json_number(m.value) +
         ", \"unit\": " + json_string(m.unit) + "}";
    first = false;
  }
  std::printf("%s}}\n", s.c_str());
}

int usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string pin;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        opt.trace = std::stoi(v) != 0;
      } else if (a == "--threads") {
        opt.threads = std::stoi(v);
      } else if (a == "--oracle") {
        opt.oracle = v;
      } else if (a == "--trace-out") {
        opt.trace_out = v;
      } else if (a == "--commit") {
        opt.commit = v;
      } else if (a == "--pin-oracle") {
        pin = v;
      } else {
        return usage(("unknown argument " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }

  const int nproc = host_cpus();
  if (opt.threads == 0) opt.threads = nproc;
  if (opt.threads < 1) return usage("--threads must be positive");
  if (!pin.empty()) return pin_analyze_oracle(pin, opt.threads);

  const bool serve =
      opt.workload == "serve-uniform" || opt.workload == "serve-zipf";
  if (!serve && opt.workload != "analyze" && opt.workload != "faultsim") {
    return usage(
        "--workload must be serve-uniform, serve-zipf, analyze or faultsim");
  }
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");
  // Serving uses the service's default single worker plus this thread as
  // the client; the other workloads run a pool of `threads`. More threads
  // than CPUs would time oversubscription, not the system, so such runs
  // are refused.
  if (opt.threads > nproc) {
    std::fprintf(stderr,
                 "perfbench: refusing %s at %d threads on a host with "
                 "nproc = %d\n",
                 opt.workload.c_str(), opt.threads, nproc);
    return 2;
  }
  if (serve && opt.threads < 2) {
    return usage("serving needs one worker and one client thread");
  }
  if (opt.workload == "analyze" && opt.oracle.empty()) {
    return usage("analyze needs --oracle");
  }

  Tracer tracer(false);
  Report rep;
  try {
    if (serve) {
      rep = run_serve(opt, tracer);
    } else if (opt.workload == "analyze") {
      rep = run_analyze(opt, tracer);
    } else {
      rep = run_faultsim(opt, tracer);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  rep.set("peak_rss_mib", peak_rss_mib());

  const std::string host = host_json(opt, nproc, rep);
  std::printf("host %s\n", host.c_str());
  if (opt.trace && !opt.trace_out.empty()) {
    if (tracer.write_chrome(opt.trace_out, host)) {
      std::printf("trace: %zu spans recorded, written to %s\n",
                  tracer.spans().size(), opt.trace_out.c_str());
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opt.trace_out.c_str());
    }
  }
  if (!rep.valid) {
    std::fprintf(stderr, "perfbench: invalid run, no latency reported: %s\n",
                 rep.invalid_reason.c_str());
    return 1;
  }
  print_result(rep, opt.trace);
  return rep.failed == 0 ? 0 : 1;
}
