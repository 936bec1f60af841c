#pragma once

// Shared vocabulary of the perfbench load generator: workload definitions,
// the seeded request stream, small statistics helpers, the heap-allocation
// counter and the result record every stage appends metrics to.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "spotbid/serve/request.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[nodiscard]] inline std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count();
}

/// splitmix64: one u64 of state, cheap to seed per lane.
struct SplitMix64 {
  std::uint64_t state = 0;

  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in (0, 1].
  double uniform() { return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53; }
  double exponential(double mean) { return -mean * std::log(uniform()); }
};

/// Seed of one (phase, lane) request stream: a pure function of the
/// workload seed, so every stream can be regenerated for verification.
[[nodiscard]] std::uint64_t lane_seed(std::uint64_t seed, int phase, int lane);

/// One RPC workload: the traffic mix and whether the daemon republishes
/// its keys in the background. Everything else is shared (below).
struct WorkloadSpec {
  std::string name;
  double optimal_bid_frac = 0.0;  ///< share of kOptimalBid requests
  long recalibrate_ms = 0;        ///< spotbidd --recalibrate-ms (0 = off)
};

/// What both RPC workloads share (README.md "Workloads"): one epoll shard
/// and one worker, so daemon threads plus the generator's two threads fit a
/// 4-core machine; two fixed open-loop rates, committed as absolute numbers
/// so a faster program runs the same offered load; and the closed loop's
/// connections x window.
inline constexpr int kDaemonShards = 1;
inline constexpr int kDaemonWorkers = 1;
/// Admission queue bound: about a second of the hi rate, so only a worker
/// stalled that long (by the host, not the program) rejects requests as
/// overloaded; a failed request fails the run.
inline constexpr int kDaemonQueueCapacity = 65536;
inline constexpr double kRateLo = 10'000.0;  ///< open-loop arrivals/s, "lo" phase
inline constexpr double kRateHi = 25'000.0;  ///< open-loop arrivals/s, "hi" phase
inline constexpr int kSatConnections = 2;    ///< closed-loop connections (one thread each)
inline constexpr int kSatWindow = 256;       ///< requests in flight per connection

/// The workload named on the command line; throws for an unknown name.
[[nodiscard]] const WorkloadSpec& workload_spec(const std::string& name);

/// Market keys spotbidd serves (all trace-calibrated), sorted: the daemon
/// publishes them in this order, which fixes their epochs.
[[nodiscard]] const std::vector<std::string>& market_keys();
inline constexpr int kDaemonSlots = 12 * 24 * 7;
inline constexpr std::uint64_t kDaemonSeed = 2015;

/// The seeded request stream of one lane: Zipf(s=1)-skewed keys, point
/// kinds unless the workload mixes in kOptimalBid.
class RequestStream {
 public:
  RequestStream(const WorkloadSpec& spec, std::uint64_t seed);
  [[nodiscard]] spotbid::serve::Request next();

 private:
  const WorkloadSpec* spec_;
  SplitMix64 rng_;
  std::vector<double> zipf_cdf_;
};

/// Point kinds answer with a few O(log K) queries; kOptimalBid and
/// kPortfolioBid run an optimizer.
[[nodiscard]] bool is_heavy(spotbid::serve::Kind kind);

/// q-quantile (nearest rank below) of a sample; sorts it in place.
[[nodiscard]] double quantile(std::vector<double>& sample, double q);
[[nodiscard]] double median(std::vector<double> sample);

/// Host speed: a fixed single-threaded kernel (xorshift plus scattered
/// read-modify-writes over an 8 MiB table, ~90 ms) that never touches the
/// program. On a shared host the daemon path's wall-clock times move with
/// the host's speed; they are reported at the reference speed (README.md
/// "Host-speed scaling").
namespace host_speed {
/// Kernel iterations per second taken as the reference speed (a fixed
/// number: on the 4-vCPU 2.1 GHz Xeon VM the bounds were set on, two
/// concurrent kernels each ran at 0.45-0.68 of it).
inline constexpr double kReferenceRate = 3.0e8;
/// Run the kernel once on the calling thread and return its rate
/// (iterations per second). Safe to call from several threads at once.
[[nodiscard]] double measure();
/// Keep one measured rate (single-threaded).
void record(double rate);
[[nodiscard]] std::size_t count();
/// Median recorded rate over kReferenceRate (1 when nothing was sampled).
[[nodiscard]] double factor();
}  // namespace host_speed

/// Counts global operator new calls while armed (alloc_count.cpp replaces
/// the global allocation functions for the whole perfbench binary).
namespace allocs {
void arm();
[[nodiscard]] std::uint64_t disarm();  ///< allocations since arm()
}  // namespace allocs

/// Everything a run reports. A problem makes the run incorrect.
struct Outcome {
  /// How a metric follows host speed: kTime shrinks on a faster host;
  /// kNone is not rescaled (CPU time, memory, the replay, per-layer).
  enum class Scale { kNone, kTime };
  struct Metric {
    std::string name;
    double value = 0.0;  ///< as measured
    std::string unit;
    Scale scale = Scale::kNone;
  };
  std::vector<Metric> metrics;
  std::vector<std::string> problems;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(std::string name, double value, std::string unit, Scale scale = Scale::kNone) {
    metrics.push_back({std::move(name), value, std::move(unit), scale});
  }
  void fail(std::string why) { problems.push_back(std::move(why)); }
  [[nodiscard]] bool correct() const { return problems.empty(); }
};

/// A fault the self-test injects into one reply: kCorrupt alters its
/// payload before verification, kError turns it into an error reply and
/// kLose drops it before counting.
enum class Fault { kNone, kCorrupt, kError, kLose };

/// Command-line options shared by every stage.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  ///< scratch directory for daemon files and spans
  /// Self-test fault injection, applied once on the rtt phase.
  Fault inject = Fault::kNone;
};

/// Rounds the end-to-end run interleaves its phases over, so a burst of
/// outside noise lands on every phase alike instead of on one.
inline constexpr int kRounds = 8;

/// The end-to-end RPC phases against a spotbidd child process, in kRounds
/// rounds; `between_rounds` runs after each round with the calling thread
/// on the generator's CPU, whose speed the host probes measure (the daemon
/// idles meanwhile; the worker pool's threads keep their own affinity).
void run_rpc(const Options& options, const WorkloadSpec& spec, double budget_s, Outcome& out,
             const std::function<void()>& between_rounds);

/// The offline simulation sweep (no net, no serve). Construction builds the
/// stack and checks the replica fold at 1 thread against nproc; run_for()
/// adds timed sweeps and replays; report() appends the metrics: end-to-end
/// ones, or with `traced` the market / client / core per-layer ones.
class SimSweep {
 public:
  SimSweep(const Options& options, bool traced, Outcome& out);
  ~SimSweep();
  SimSweep(const SimSweep&) = delete;
  SimSweep& operator=(const SimSweep&) = delete;
  void run_for(double seconds);
  void report();

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// The traced run's four in-process tiers plus the reconciliation against a
/// spotbidd child's window-1 round trip. The tiers run fixed request counts.
void run_layers(const Options& options, const WorkloadSpec& spec, Outcome& out);

}  // namespace perfbench
