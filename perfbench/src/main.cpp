// perfbench — the spotbid benchmark harness (README.md in this directory).
//
//   perfbench --workload point_rpc|mixed_rpc --seed N --seconds S --trace 0|1
//             --workdir DIR [--inject corrupt|error|lose]
//
// --trace 0 runs the end-to-end phases (RPC against a spotbidd child, then
// the offline sim_sweep); --trace 1 runs the per-layer tiers instead. The
// last line of standard output is the JSON result; the exit code is 0 only
// when every correctness check passed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness.hpp"
#include "spotbid/core/parallel.hpp"

namespace {

using perfbench::Options;
using perfbench::Outcome;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --workdir DIR [--inject corrupt|error|lose]\n",
               why);
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out;
}

perfbench::Fault parse_fault(const std::string& name) {
  if (name == "corrupt") return perfbench::Fault::kCorrupt;
  if (name == "error") return perfbench::Fault::kError;
  if (name == "lose") return perfbench::Fault::kLose;
  throw std::invalid_argument{"unknown fault " + name};
}

/// What every result is stamped with (README.md "Stamp").
std::string stamp(const Options& options, const perfbench::WorkloadSpec& spec) {
  const char* threads = std::getenv("SPOTBID_THREADS");
#ifdef SPOTBID_NO_CONTRACTS
  const char* contracts = "off";
#else
  const char* contracts = "on";
#endif
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g, \"trace\": %d, "
                "\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"contracts\": \"%s\", \"SPOTBID_THREADS\": \"%s\", \"pool_threads\": %d, "
                "\"daemon_shards\": %d, \"daemon_workers\": %d, \"daemon_queue_capacity\": %d, "
                "\"recalibrate_ms\": %ld, \"network\": \"loopback\"}",
                spec.name.c_str(), static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0, std::thread::hardware_concurrency(),
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, contracts,
                threads != nullptr ? threads : "unset", spotbid::core::default_thread_count(),
                perfbench::kDaemonShards, perfbench::kDaemonWorkers,
                perfbench::kDaemonQueueCapacity, spec.recalibrate_ms);
  return buf;
}

/// The value a metric is reported at: the daemon path's wall-clock times
/// are rescaled from the host speed of this run to the reference speed.
double reported(const Outcome::Metric& m, double factor) {
  return m.scale == Outcome::Scale::kTime ? m.value * factor : m.value;
}

std::string result_json(const Outcome& out, double factor) {
  std::string json = "{\"correct\": ";
  json += out.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Outcome::Metric& m = out.metrics[i];
    const double value = reported(m, factor);
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
    json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  return json + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") options.workload = value;
      else if (flag == "--seed") options.seed = std::stoull(value);
      else if (flag == "--seconds") options.seconds = std::stod(value);
      else if (flag == "--trace") { options.trace = value == "1"; have_trace = true; }
      else if (flag == "--workdir") options.workdir = value;
      else if (flag == "--inject") options.inject = parse_fault(value);
      else return usage(("unknown flag " + flag).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (options.workload.empty() || options.workdir.empty() || !have_trace ||
      !(options.seconds > 0.0))
    return usage("--workload, --seconds, --trace and --workdir are required");

  Outcome out;
  std::string stamp_json;
  try {
    const perfbench::WorkloadSpec& spec = perfbench::workload_spec(options.workload);
    stamp_json = stamp(options, spec);
    std::printf("stamp %s\n", stamp_json.c_str());
    std::fflush(stdout);
    // The worker pool starts before anything pins the main thread, so its
    // threads keep the whole machine.
    (void)spotbid::core::ThreadPool::global();
    // End to end, seven tenths of the run drive the daemon and the rest the
    // offline sweep, interleaved with the daemon's rounds. Traced, the
    // tiers run fixed request counts and the sweep gets the same share.
    const double sim_s = 0.3 * options.seconds;
    if (options.trace) {
      perfbench::run_layers(options, spec, out);
      perfbench::SimSweep sim{options, true, out};
      sim.run_for(sim_s);
      sim.report();
    } else {
      perfbench::SimSweep sim{options, false, out};
      perfbench::run_rpc(options, spec, 0.7 * options.seconds, out,
                         [&] { sim.run_for(sim_s / perfbench::kRounds); });
      sim.report();
    }
  } catch (const std::exception& e) {
    out.fail(std::string{"aborted: "} + e.what());
  }

  const double factor = perfbench::host_speed::factor();
  std::printf("info host speed %.4g of the reference (%zu probes)\n", factor,
              perfbench::host_speed::count());
  for (const Outcome::Metric& m : out.metrics) {
    std::printf("metric %-30s %16.4f %-6s", m.name.c_str(), reported(m, factor),
                m.unit.c_str());
    if (m.scale != Outcome::Scale::kNone) std::printf(" (as measured %.4f)", m.value);
    std::printf("\n");
    if (!std::isfinite(m.value)) out.fail("metric " + m.name + " is not finite");
  }
  if (out.attempted == 0) out.fail("nothing attempted");
  // A healthy run answers every request OK; any other outcome is a failure.
  if (out.failed != 0) out.fail(std::to_string(out.failed) + " requests failed");
  const double fail_frac =
      out.attempted > 0 ? static_cast<double>(out.failed) / static_cast<double>(out.attempted)
                        : 0.0;
  std::printf("info fail_frac = %.6g (%llu of %llu)\n", fail_frac,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  for (const std::string& p : out.problems) std::printf("FAIL %s\n", p.c_str());

  const std::string result = result_json(out, factor);
  {
    std::ofstream record{options.workdir + "/result-" + options.workload + "-" +
                             std::to_string(options.seed) + "-trace" +
                             (options.trace ? "1" : "0") + ".json",
                         std::ios::trunc};
    record << "{\"stamp\": " << (stamp_json.empty() ? "null" : stamp_json)
           << ", \"problems\": [";
    for (std::size_t i = 0; i < out.problems.size(); ++i)
      record << (i > 0 ? ", " : "") << "\"" << json_escape(out.problems[i]) << "\"";
    record << "], \"host_speed\": " << factor << ", \"as_measured\": {";
    for (std::size_t i = 0; i < out.metrics.size(); ++i)
      record << (i > 0 ? ", " : "") << "\"" << out.metrics[i].name
             << "\": " << out.metrics[i].value;
    record << "}, \"result\": " << result << "}\n";
  }
  std::printf("%s\n", result.c_str());
  return out.correct() ? 0 : 1;
}
