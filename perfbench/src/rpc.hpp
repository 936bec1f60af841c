#pragma once

// The pieces of the RPC load generator the traced run reuses: the spotbidd child
// process, a raw wire connection, reply classification and the in-process
// reference that every reply is checked against.

#include <sched.h>
#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness.hpp"
#include "spotbid/net/frame_assembler.hpp"
#include "spotbid/net/socket.hpp"
#include "spotbid/net/wire.hpp"
#include "spotbid/serve/model_snapshot.hpp"

namespace perfbench {

/// What happened to one request.
enum class Fate : std::uint8_t { kMissing, kOk, kNotFound, kOverloaded, kError, kUnexpected };

/// One request's reply, reduced to what verification needs.
struct ReplyRec {
  std::uint64_t hash = 0;   ///< response_hash of the reply (epoch zeroed)
  std::uint64_t epoch = 0;  ///< snapshot epoch that answered
  Fate fate = Fate::kMissing;
};

/// One seeded request stream sent in order on one connection.
struct Lane {
  std::uint64_t seed = 0;
  std::vector<ReplyRec> replies;  ///< index i: the i-th request of the stream
  std::string error;              ///< socket failure that ended the lane early
};

/// Snapshots identical to the ones spotbidd serves. spotbidd publishes the
/// sorted keys once (epochs 1..K), then every recalibration round r
/// republishes all keys in the same order, calibrated from seed + r; so an
/// epoch names exactly one (key, round).
class ReferenceModels {
 public:
  /// nullptr when `epoch` does not belong to `key`.
  const spotbid::serve::ModelSnapshot* for_epoch(std::uint64_t epoch, const std::string& key);

 private:
  std::mutex mutex_;
  std::map<std::uint64_t, std::shared_ptr<spotbid::serve::ModelSnapshot>> cache_;
};

/// spotbidd's cold-start calibration of one key, reproduced in process.
[[nodiscard]] std::shared_ptr<spotbid::serve::ModelSnapshot> calibrate(const std::string& key,
                                                                       std::uint64_t seed);

/// FNV-1a of the response's wire encoding with the epoch zeroed.
[[nodiscard]] std::uint64_t response_hash(spotbid::serve::Response response);

/// A spotbidd child process; stopped (SIGTERM, then SIGKILL) on destruction.
class Daemon {
 public:
  Daemon(const std::string& exe, const std::vector<std::string>& args,
         const std::string& log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Poll the --port-file until the daemon reports its port.
  std::uint16_t wait_port(const std::string& port_file, double timeout_s);
  /// SIGTERM and reap; returns the exit status (idempotent).
  int stop();
  /// user + system CPU seconds so far, from /proc/<pid>/stat.
  [[nodiscard]] double cpu_seconds() const;
  /// Peak resident set (VmHWM) in MiB.
  [[nodiscard]] double peak_rss_mb() const;
  /// Freeze every daemon thread (SIGSTOP); returns once all have stopped.
  void pause();
  /// Let the daemon run again (SIGCONT).
  void resume();

 private:
  bool exited();
  void reaped(int status);
  pid_t pid_ = -1;
  int status_ = 0;
};

/// One handshaken protocol connection. send() and recv() may run on two
/// different threads (the open loop's sender and receiver).
class Conn {
 public:
  Conn(std::uint16_t port, double recv_timeout_s);
  void send(std::uint64_t seq, const spotbid::serve::Request& request);
  /// Next reply payload; throws SocketError on close or timeout.
  const std::vector<std::uint8_t>& recv();

 private:
  spotbid::net::TcpStream stream_;
  spotbid::net::FrameAssembler assembler_{16384};
  std::vector<std::uint8_t> payload_;
  std::uint8_t version_ = spotbid::net::kProtocolVersion;
};

/// Closed loop: `connections` threads, each one connection with up to
/// `window` requests in flight, for `seconds`. OK completions are bucketed
/// per 100 ms so the throughput is a median over the phase, not one
/// wall-clock ratio. With *fault set, lane 0 applies it once (self-test).
struct ClosedLoop {
  std::vector<Lane> lanes;
  std::vector<double> point_us, heavy_us;  ///< per-request round trips
  std::vector<std::uint64_t> buckets;      ///< OK completions per 100 ms
  double wall_s = 0.0;
};
[[nodiscard]] ClosedLoop closed_loop(std::uint16_t port, const WorkloadSpec& spec,
                                     std::uint64_t seed, int phase_id, int connections,
                                     int window, double seconds, Fault* fault);
/// OK completions per second of each whole 100 ms bucket (the first, a
/// ramp-up, and the partial tail are left out).
[[nodiscard]] std::vector<double> bucket_rates(const ClosedLoop& loop);

/// Decode one reply payload into rec. With *fault kCorrupt or kError, the
/// first OK reply is altered or turned into an error reply, and *fault is
/// reset (the self-test's injected faults).
Fate classify(const std::vector<std::uint8_t>& payload, std::uint64_t expected_seq,
              ReplyRec& rec, Fault* fault);

/// Open loop: a sender thread fires at precomputed Poisson due times and
/// never waits for replies; a receiver thread drains them. Latency runs
/// from the due time, so a stalled sender or server charges every request
/// it delayed (no coordinated omission). Failed requests count as +inf.
struct OpenLoop {
  Lane lane;
  std::vector<double> point_us, heavy_us, lag_us;
  double sender_busy = 0.0;    ///< sender thread CPU / phase wall time
  double receiver_busy = 0.0;  ///< receiver thread CPU / phase wall time
  double achieved_rate = 0.0;
};

[[nodiscard]] OpenLoop open_loop(std::uint16_t port, const WorkloadSpec& spec,
                                 std::uint64_t seed, int phase_id, double rate,
                                 double seconds);

/// Conservation: every request of every lane was answered exactly once, in
/// order, by a frame of an expected kind; adds the lanes to attempted and
/// failed, and fails the run otherwise.
void check_conservation(const std::string& phase, const std::vector<const Lane*>& lanes,
                        Outcome& out);

/// Pooled percentiles of an open-loop phase's rounds (point and heavy
/// class), over the rounds `measured` marks (all when it is empty); fails
/// the run when the generator lagged or saturated in any round.
struct OpenLoopSummary {
  std::size_t points = 0, heavies = 0;
  double point_p50 = 0.0, point_p99 = 0.0, heavy_p50 = 0.0, heavy_p99 = 0.0;
};
OpenLoopSummary summarize(const std::vector<OpenLoop>& rounds, const char* name,
                          Outcome& out, const std::vector<bool>& measured = {});

/// Places the program while spotbidd runs: every daemon thread on one CPU
/// and every generator thread on another, the last two of the caller's
/// mask, so the two never compete for a core, run-to-run placement stays
/// the same and at most two vCPUs are busy at once (a shared host takes
/// more time from a guest the more of its vCPUs are busy). Below two CPUs
/// nothing is pinned. The caller's affinity is restored on destruction.
class CpuSplit {
 public:
  CpuSplit();
  ~CpuSplit();
  CpuSplit(const CpuSplit&) = delete;
  CpuSplit& operator=(const CpuSplit&) = delete;

  /// Pin the calling thread (and what it spawns) to the daemon's CPU.
  void daemon_side() const;
  /// Pin the calling thread (and threads it starts) to the generator's CPU.
  void generator_side() const;
  /// Ticks the host took from the daemon's and the generator's CPUs since
  /// boot (the steal column of /proc/stat; 0 where it cannot be read).
  [[nodiscard]] std::uint64_t steal_ticks() const;
  /// Give the calling thread its original affinity back.
  void unpinned() const;

 private:
  void pin(int cpu) const;
  cpu_set_t original_{};
  int daemon_cpu_ = -1;  ///< CPU numbers; -1 when nothing is pinned
  int generator_cpu_ = -1;
};

/// Re-execute every answered request of every lane in process; returns the
/// number of replies that differ.
[[nodiscard]] std::uint64_t verify_replies(const WorkloadSpec& spec,
                                           const std::vector<const Lane*>& lanes,
                                           ReferenceModels& refs);

/// Launch spotbidd for a workload (on the daemon side of `split`; the
/// calling thread ends on the generator side) and wait for its first
/// correct reply; *setup_s is spawn-to-that-reply.
[[nodiscard]] std::unique_ptr<Daemon> launch_ready(const WorkloadSpec& spec,
                                                   const Options& options,
                                                   ReferenceModels& refs, const CpuSplit& split,
                                                   std::uint16_t* port, double* setup_s);

}  // namespace perfbench
