// The end-to-end RPC phases: spotbidd runs as a child process with
// trace-calibrated keys, and one seeded generator drives it over loopback.
//
//   setup   launch kSetupLaunches fresh daemons while the serving one is
//           stopped; each launch is timed from spawn to its first correct
//           reply, and the daemon is stopped again;
//   warmup  a short closed loop, verified but not timed;
//   rtt     window 1 on one connection;
//   lo, hi  open-loop Poisson arrivals at the workload's two fixed rates,
//           each request timed from its scheduled due time;
//   sat     closed loop, kSatConnections x kSatWindow in flight.
//
// Every phase must conserve requests (one reply per request, in order), and
// after the timed phases every reply is compared bit for bit (epoch zeroed)
// with serve::execute_one on a snapshot rebuilt in process from the
// daemon's --seed/--slots.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <thread>

#include "harness.hpp"
#include "rpc.hpp"
#include "spotbid/ec2/instance_types.hpp"
#include "spotbid/serve/engine.hpp"
#include "spotbid/trace/generator.hpp"

extern char** environ;

namespace perfbench {

using namespace spotbid;

// ------------------------------------------------------------ reference

std::shared_ptr<serve::ModelSnapshot> calibrate(const std::string& key, std::uint64_t seed) {
  const ec2::InstanceType& type = ec2::require_type(key.substr(key.find('/') + 1));
  trace::GeneratorConfig config;
  config.slots = kDaemonSlots;
  config.seed = seed;
  return serve::ModelSnapshot::from_trace(key, trace::generate_for_type(type, config), type);
}

const serve::ModelSnapshot* ReferenceModels::for_epoch(std::uint64_t epoch,
                                                       const std::string& key) {
  const auto& keys = market_keys();
  if (epoch == 0) return nullptr;
  const std::uint64_t index = (epoch - 1) % keys.size();
  const std::uint64_t round = (epoch - 1) / keys.size();
  if (keys[index] != key) return nullptr;
  const std::lock_guard<std::mutex> lock{mutex_};
  auto& slot = cache_[epoch];
  if (!slot) slot = calibrate(key, kDaemonSeed + round);
  return slot.get();
}

std::uint64_t response_hash(serve::Response response) {
  response.epoch = 0;
  const std::vector<std::uint8_t> bytes = net::encode_response(0, response);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ull;
  return h;
}

// --------------------------------------------------------------- daemon

Daemon::Daemon(const std::string& exe, const std::vector<std::string>& args,
               const std::string& log_path) {
  std::vector<std::string> argv_store{exe};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  const int rc = posix_spawn(&pid_, exe.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) throw std::runtime_error{"cannot spawn " + exe};
}

Daemon::~Daemon() { (void)stop(); }

int Daemon::stop() {
  if (pid_ <= 0) return status_;
  ::kill(pid_, SIGTERM);
  ::kill(pid_, SIGCONT);  // a paused daemon acts on SIGTERM only once resumed
  int status = 0;
  const auto give_up = Clock::now() + std::chrono::seconds{20};
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (Clock::now() > give_up) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds{2});
  }
  reaped(status);
  return status_;
}

void Daemon::reaped(int status) {
  pid_ = -1;
  status_ = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

bool Daemon::exited() {
  if (pid_ <= 0) return true;
  int status = 0;
  if (::waitpid(pid_, &status, WNOHANG) != pid_) return false;
  reaped(status);
  return true;
}

void Daemon::pause() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGSTOP);
  // The stop is reported once every thread of the daemon has stopped.
  int status = 0;
  if (::waitpid(pid_, &status, WUNTRACED) == pid_ && !WIFSTOPPED(status)) reaped(status);
}

void Daemon::resume() {
  if (pid_ > 0) ::kill(pid_, SIGCONT);
}

double Daemon::cpu_seconds() const {
  std::ifstream in{"/proc/" + std::to_string(pid_) + "/stat"};
  std::string text{std::istreambuf_iterator<char>{in}, {}};
  const std::size_t paren = text.rfind(')');
  if (paren == std::string::npos) return 0.0;
  std::istringstream fields{text.substr(paren + 2)};
  std::string field;
  double ticks = 0.0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  for (int i = 3; i <= 15 && fields >> field; ++i)
    if (i >= 14) ticks += std::stod(field);
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double Daemon::peak_rss_mb() const {
  std::ifstream in{"/proc/" + std::to_string(pid_) + "/status"};
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

std::uint16_t Daemon::wait_port(const std::string& port_file, double timeout_s) {
  // Busy: the caller has a CPU of its own, and a sleeping poller would add
  // the host's wake-up latency to every timed launch.
  const auto give_up = Clock::now() + std::chrono::duration<double>(timeout_s);
  while (Clock::now() < give_up) {
    std::ifstream in{port_file};
    std::string text{std::istreambuf_iterator<char>{in}, {}};
    if (!text.empty() && text.back() == '\n') return static_cast<std::uint16_t>(std::stoul(text));
    if (exited()) throw std::runtime_error{"spotbidd exited during startup"};
  }
  throw std::runtime_error{"spotbidd did not write its port file"};
}

// ----------------------------------------------------------- connection

Conn::Conn(std::uint16_t port, double recv_timeout_s)
    : stream_(net::TcpStream::connect("127.0.0.1", port)) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(recv_timeout_s);
  tv.tv_usec = static_cast<suseconds_t>((recv_timeout_s - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(stream_.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  stream_.write_all(net::encode_hello(0));
  const net::Frame frame = net::decode_frame(recv());
  if (frame.type != net::FrameType::kHello) throw net::WireError{"handshake refused"};
  version_ = std::min(frame.version, net::kProtocolVersion);
}

void Conn::send(std::uint64_t seq, const serve::Request& request) {
  stream_.write_all(net::encode_request(seq, request, version_));
}

const std::vector<std::uint8_t>& Conn::recv() {
  // Buffered: one recv() may carry many replies, so a busy receiver pays
  // one syscall per burst rather than two per frame.
  while (!assembler_.next_payload(payload_)) {
    const std::span<std::uint8_t> room = assembler_.write_spans()[0];
    const ssize_t n = ::recv(stream_.fd(), room.data(), room.size(), 0);
    if (n > 0) {
      assembler_.commit(static_cast<std::size_t>(n));
    } else if (n == 0) {
      throw net::SocketError{"server closed the connection"};
    } else if (errno != EINTR) {
      throw net::SocketError{errno == EAGAIN ? "reply timed out" : "recv failed"};
    }
  }
  return payload_;
}

Fate classify(const std::vector<std::uint8_t>& payload, std::uint64_t expected_seq,
              ReplyRec& rec, Fault* fault) {
  try {
    const net::Frame frame = net::decode_frame(payload);
    if (frame.seq != expected_seq) return Fate::kUnexpected;
    if (frame.type == net::FrameType::kError)
      return net::decode_error_body(frame).code == net::ErrorCode::kOverloaded
                 ? Fate::kOverloaded
                 : Fate::kError;
    if (frame.type != net::FrameType::kResponse) return Fate::kUnexpected;
    serve::Response response = net::decode_response_body(frame);
    if (fault != nullptr && *fault == Fault::kError && response.status == serve::Status::kOk) {
      response.status = serve::Status::kInvalid;  // self-test: one error reply
      *fault = Fault::kNone;
    }
    switch (response.status) {
      case serve::Status::kOk: break;
      case serve::Status::kNotFound: return Fate::kNotFound;
      case serve::Status::kOverloaded: return Fate::kOverloaded;
      default: return Fate::kError;
    }
    if (fault != nullptr && *fault == Fault::kCorrupt) {  // self-test: alter one payload bit
      response.expected_cost = Money{std::nextafter(response.expected_cost.usd(), 1e300)};
      *fault = Fault::kNone;
    }
    rec.epoch = response.epoch;
    rec.hash = response_hash(response);
    return Fate::kOk;
  } catch (const net::WireError&) {
    return Fate::kUnexpected;
  }
}

// --------------------------------------------------------------- phases

namespace {

constexpr int kSetupLaunches = 4;  ///< per round
constexpr double kRecvTimeoutS = 10.0;
constexpr double kInf = std::numeric_limits<double>::infinity();
/// Open-loop validity: the sender's median lateness and either generator
/// thread's CPU share beyond which the generator, not the daemon, set the
/// numbers.
constexpr double kMaxLagP50Us = 50.0;
constexpr double kMaxBusy = 0.9;
/// Rounds in which the host took at most this share of the daemon's and
/// the generator's CPUs are always measured.
constexpr double kStealOkPct = 1.0;

constexpr double kBucketS = 0.1;

}  // namespace

ClosedLoop closed_loop(std::uint16_t port, const WorkloadSpec& spec, std::uint64_t seed,
                       int phase_id, int connections, int window, double seconds,
                       Fault* fault) {
  ClosedLoop out;
  out.lanes.resize(static_cast<std::size_t>(connections));
  const auto nbuckets = static_cast<std::size_t>(seconds / kBucketS) + 2;
  std::vector<std::vector<std::uint64_t>> buckets(static_cast<std::size_t>(connections),
                                                  std::vector<std::uint64_t>(nbuckets, 0));
  std::vector<std::vector<double>> point(static_cast<std::size_t>(connections));
  std::vector<std::vector<double>> heavy(static_cast<std::size_t>(connections));
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(seconds);
  auto body = [&](int c) {
    Lane& lane = out.lanes[static_cast<std::size_t>(c)];
    lane.seed = lane_seed(seed, phase_id, c);
    RequestStream stream{spec, lane.seed};
    struct InFlight {
      std::size_t index;
      Clock::time_point sent;
      bool heavy;
    };
    std::deque<InFlight> outstanding;
    try {
      Conn conn{port, kRecvTimeoutS};
      for (;;) {
        while (outstanding.size() < static_cast<std::size_t>(window) &&
               Clock::now() < deadline) {
          const serve::Request q = stream.next();
          lane.replies.emplace_back();
          outstanding.push_back({lane.replies.size() - 1, Clock::now(), is_heavy(q.kind)});
          conn.send(lane.replies.size(), q);
        }
        if (outstanding.empty()) break;
        const std::vector<std::uint8_t>& payload = conn.recv();
        const auto now = Clock::now();
        const InFlight done = outstanding.front();
        outstanding.pop_front();
        ReplyRec& rec = lane.replies[done.index];
        if (c == 0 && fault != nullptr && *fault == Fault::kLose) {  // self-test: drop one reply
          *fault = Fault::kNone;
          continue;
        }
        rec.fate = classify(payload, done.index + 1, rec, c == 0 ? fault : nullptr);
        const double us = std::chrono::duration<double, std::micro>(now - done.sent).count();
        (done.heavy ? heavy : point)[static_cast<std::size_t>(c)].push_back(
            rec.fate == Fate::kOk ? us : kInf);
        const auto bucket = static_cast<std::size_t>(
            std::chrono::duration<double>(now - start).count() / kBucketS);
        if (bucket < nbuckets && rec.fate == Fate::kOk)
          ++buckets[static_cast<std::size_t>(c)][bucket];
      }
    } catch (const std::exception& e) {
      lane.error = e.what();  // outstanding requests stay kMissing
    }
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < connections; ++c) threads.emplace_back(body, c);
  body(0);
  for (auto& t : threads) t.join();
  out.wall_s = seconds_since(start);
  out.buckets.assign(nbuckets, 0);
  for (int c = 0; c < connections; ++c) {
    for (std::size_t b = 0; b < nbuckets; ++b)
      out.buckets[b] += buckets[static_cast<std::size_t>(c)][b];
    out.point_us.insert(out.point_us.end(), point[static_cast<std::size_t>(c)].begin(),
                        point[static_cast<std::size_t>(c)].end());
    out.heavy_us.insert(out.heavy_us.end(), heavy[static_cast<std::size_t>(c)].begin(),
                        heavy[static_cast<std::size_t>(c)].end());
  }
  return out;
}

std::vector<double> bucket_rates(const ClosedLoop& loop) {
  std::vector<double> rates;
  // Whole buckets only: skip the first (ramp-up) and the partial tail.
  for (std::size_t b = 1; b + 2 < loop.buckets.size(); ++b)
    rates.push_back(static_cast<double>(loop.buckets[b]) / kBucketS);
  return rates;
}

namespace {

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

OpenLoop open_loop(std::uint16_t port, const WorkloadSpec& spec, std::uint64_t seed,
                   int phase_id, double rate, double seconds) {
  OpenLoop out;
  SplitMix64 gaps{lane_seed(seed, phase_id, 1000)};
  std::vector<std::int64_t> due_ns;
  for (double t = gaps.exponential(1.0 / rate); t < seconds; t += gaps.exponential(1.0 / rate))
    due_ns.push_back(static_cast<std::int64_t>(t * 1e9));
  const std::size_t n = due_ns.size();
  out.lane.seed = lane_seed(seed, phase_id, 0);
  out.lane.replies.resize(n);
  std::vector<std::int64_t> send_ns(n, 0);
  std::vector<std::int64_t> recv_ns(n, 0);
  std::vector<std::uint8_t> heavy(n, 0);

  Conn conn{port, kRecvTimeoutS};
  const auto start = Clock::now() + std::chrono::milliseconds{5};
  std::size_t sent = 0;
  std::string sender_error;
  std::thread receiver{[&] {
    const double cpu0 = thread_cpu_s();
    try {
      for (std::size_t i = 0; i < n; ++i) {
        const std::vector<std::uint8_t>& payload = conn.recv();
        recv_ns[i] = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
                         .count();
        out.lane.replies[i].fate = classify(payload, i + 1, out.lane.replies[i], nullptr);
      }
    } catch (const std::exception& e) {
      out.lane.error = e.what();
    }
    out.receiver_busy = thread_cpu_s() - cpu0;
  }};
  {
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);  // wake on time, not 50 us late
    RequestStream stream{spec, out.lane.seed};
    const double cpu0 = thread_cpu_s();
    try {
      for (; sent < n; ++sent) {
        const serve::Request q = stream.next();
        heavy[sent] = is_heavy(q.kind) ? 1 : 0;
        std::this_thread::sleep_until(start + std::chrono::nanoseconds{due_ns[sent]});
        send_ns[sent] =
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count();
        conn.send(sent + 1, q);
      }
    } catch (const std::exception& e) {
      sender_error = e.what();  // the receiver times out on the unsent rest
    }
    out.sender_busy = thread_cpu_s() - cpu0;
  }
  receiver.join();
  if (!sender_error.empty()) out.lane.error = sender_error;
  const double wall = std::max(seconds, 1e-9);
  out.sender_busy /= wall;
  out.receiver_busy /= wall;
  out.achieved_rate = static_cast<double>(sent) / wall;
  for (std::size_t i = 0; i < n; ++i) {
    const bool ok = out.lane.replies[i].fate == Fate::kOk;
    const double us = ok ? static_cast<double>(recv_ns[i] - due_ns[i]) / 1e3 : kInf;
    (heavy[i] != 0 ? out.heavy_us : out.point_us).push_back(us);
    if (i < sent) out.lag_us.push_back(static_cast<double>(send_ns[i] - due_ns[i]) / 1e3);
  }
  return out;
}

namespace {

struct Tally {
  std::uint64_t sent = 0, ok = 0, not_found = 0, overloaded = 0, error = 0, unexpected = 0,
                missing = 0;
  void add(const Lane& lane) {
    for (const ReplyRec& r : lane.replies) {
      ++sent;
      switch (r.fate) {
        case Fate::kOk: ++ok; break;
        case Fate::kNotFound: ++not_found; break;
        case Fate::kOverloaded: ++overloaded; break;
        case Fate::kError: ++error; break;
        case Fate::kUnexpected: ++unexpected; break;
        case Fate::kMissing: ++missing; break;
      }
    }
  }
  [[nodiscard]] std::uint64_t failed() const {
    return not_found + overloaded + error + unexpected + missing;
  }
};

}  // namespace

void check_conservation(const std::string& phase, const std::vector<const Lane*>& lanes,
                        Outcome& out) {
  Tally t;
  bool broken = false;
  for (const Lane* lane : lanes) {
    t.add(*lane);
    if (!lane->error.empty()) {
      std::fprintf(stderr, "perfbench: %s lane error: %s\n", phase.c_str(),
                   lane->error.c_str());
      broken = true;
    }
  }
  out.attempted += t.sent;
  out.failed += t.failed();
  std::printf("phase %-6s sent %llu ok %llu not_found %llu overloaded %llu error %llu "
              "unexpected %llu missing %llu\n",
              phase.c_str(), static_cast<unsigned long long>(t.sent),
              static_cast<unsigned long long>(t.ok),
              static_cast<unsigned long long>(t.not_found),
              static_cast<unsigned long long>(t.overloaded),
              static_cast<unsigned long long>(t.error),
              static_cast<unsigned long long>(t.unexpected),
              static_cast<unsigned long long>(t.missing));
  if (broken || t.unexpected != 0 || t.missing != 0 ||
      t.ok + t.not_found + t.overloaded + t.error != t.sent)
    out.fail("conservation violated in phase " + phase);
}

OpenLoopSummary summarize(const std::vector<OpenLoop>& rounds, const char* name,
                          Outcome& out, const std::vector<bool>& measured) {
  std::vector<double> point, heavy, lag;
  double sender = 0.0, receiver = 0.0, rate = 0.0;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const OpenLoop& r = rounds[i];
    if (measured.empty() || measured[i]) {
      point.insert(point.end(), r.point_us.begin(), r.point_us.end());
      heavy.insert(heavy.end(), r.heavy_us.begin(), r.heavy_us.end());
    }
    lag.insert(lag.end(), r.lag_us.begin(), r.lag_us.end());
    sender = std::max(sender, r.sender_busy);
    receiver = std::max(receiver, r.receiver_busy);
    rate += r.achieved_rate / static_cast<double>(rounds.size());
  }
  // Generator health: a lagging or saturated generator measures itself.
  const double lag_p50 = quantile(lag, 0.5);
  std::printf("generator %s: lag p50 %.1f us p99 %.1f us, sender busy %.2f, receiver busy "
              "%.2f, %.0f req/s\n",
              name, lag_p50, quantile(lag, 0.99), sender, receiver, rate);
  if (lag_p50 > kMaxLagP50Us || sender > kMaxBusy || receiver > kMaxBusy)
    out.fail(std::string{"invalid run: the generator fell behind in phase "} + name);
  OpenLoopSummary s;
  s.points = point.size();
  s.heavies = heavy.size();
  s.point_p50 = quantile(point, 0.50);
  s.point_p99 = quantile(point, 0.99);
  s.heavy_p50 = quantile(heavy, 0.50);
  s.heavy_p99 = quantile(heavy, 0.99);
  return s;
}

std::uint64_t verify_replies(const WorkloadSpec& spec, const std::vector<const Lane*>& lanes,
                             ReferenceModels& refs) {
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> mismatches{0};
  auto worker = [&] {
    for (std::size_t l = next++; l < lanes.size(); l = next++) {
      RequestStream stream{spec, lanes[l]->seed};
      for (const ReplyRec& rec : lanes[l]->replies) {
        const serve::Request q = stream.next();
        if (rec.fate != Fate::kOk) continue;
        const serve::ModelSnapshot* snapshot = refs.for_epoch(rec.epoch, q.key);
        if (snapshot == nullptr || response_hash(serve::execute_one(snapshot, q)) != rec.hash)
          ++mismatches;
      }
    }
  };
  const unsigned helpers = std::max(1u, std::thread::hardware_concurrency()) - 1;
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < helpers; ++i) threads.emplace_back(worker);
  worker();
  for (auto& t : threads) t.join();
  return mismatches.load();
}

std::vector<std::string> daemon_args(const WorkloadSpec& spec, const std::string& port_file) {
  std::string keys;
  for (const std::string& k : market_keys()) keys += (keys.empty() ? "" : ",") + k;
  std::vector<std::string> args = {"--keys", keys, "--port", "0", "--port-file", port_file,
                                   "--shards", std::to_string(kDaemonShards),
                                   "--workers", std::to_string(kDaemonWorkers),
                                   "--queue-capacity", std::to_string(kDaemonQueueCapacity),
                                   "--slots", std::to_string(kDaemonSlots),
                                   "--seed", std::to_string(kDaemonSeed)};
  if (spec.recalibrate_ms > 0) {
    args.push_back("--recalibrate-ms");
    args.push_back(std::to_string(spec.recalibrate_ms));
  }
  return args;
}

CpuSplit::CpuSplit() {
  ::sched_getaffinity(0, sizeof(original_), &original_);
  if (CPU_COUNT(&original_) < 2) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &original_)) continue;
    daemon_cpu_ = generator_cpu_;
    generator_cpu_ = cpu;
  }
}

CpuSplit::~CpuSplit() { unpinned(); }

void CpuSplit::pin(int cpu) const {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

void CpuSplit::unpinned() const { ::sched_setaffinity(0, sizeof(original_), &original_); }
void CpuSplit::daemon_side() const { pin(daemon_cpu_); }
void CpuSplit::generator_side() const { pin(generator_cpu_); }

std::uint64_t CpuSplit::steal_ticks() const {
  std::ifstream in{"/proc/stat"};
  std::string line;
  std::uint64_t ticks = 0;
  while (std::getline(in, line)) {
    int cpu = -1;
    // cpuN user nice system idle iowait irq softirq steal ...
    unsigned long long f[8] = {};
    if (std::sscanf(line.c_str(), "cpu%d %llu %llu %llu %llu %llu %llu %llu %llu", &cpu, &f[0],
                    &f[1], &f[2], &f[3], &f[4], &f[5], &f[6], &f[7]) == 9 &&
        (cpu == daemon_cpu_ || cpu == generator_cpu_))
      ticks += f[7];
  }
  return ticks;
}

std::unique_ptr<Daemon> launch_ready(const WorkloadSpec& spec, const Options& options,
                                     ReferenceModels& refs, const CpuSplit& split,
                                     std::uint16_t* port, double* setup_s) {
  const std::string port_file = options.workdir + "/spotbidd.port";
  std::remove(port_file.c_str());
  const auto t0 = Clock::now();
  split.daemon_side();
  auto daemon = std::make_unique<Daemon>(PERFBENCH_SPOTBIDD, daemon_args(spec, port_file),
                                         options.workdir + "/spotbidd.log");
  split.generator_side();
  *port = daemon->wait_port(port_file, 120.0);
  serve::Request probe;
  probe.key = market_keys().front();
  probe.kind = serve::Kind::kRunLength;
  probe.bid = Money{0.1};
  Conn conn{*port, kRecvTimeoutS};
  conn.send(1, probe);
  ReplyRec rec;
  rec.fate = classify(conn.recv(), 1, rec, nullptr);
  *setup_s = seconds_since(t0);
  const serve::ModelSnapshot* snapshot = refs.for_epoch(rec.epoch, probe.key);
  if (rec.fate != Fate::kOk || snapshot == nullptr ||
      response_hash(serve::execute_one(snapshot, probe)) != rec.hash)
    throw std::runtime_error{"spotbidd's first reply is wrong"};
  return daemon;
}

namespace {

/// Times kSetupLaunches launches of a fresh daemon; `serving` is stopped
/// meanwhile, so no request is in flight and no thread of it runs.
std::vector<double> time_launches(const WorkloadSpec& spec, const Options& options,
                                  ReferenceModels& refs, const CpuSplit& split,
                                  Daemon& serving) {
  serving.pause();
  std::vector<double> setups;
  for (int i = 0; i < kSetupLaunches; ++i) {
    std::uint16_t port = 0;
    double setup = 0.0;
    (void)launch_ready(spec, options, refs, split, &port, &setup)->stop();
    setups.push_back(setup);
  }
  serving.resume();
  return setups;
}

/// One host-speed sample on the daemon's CPU and one on the generator's,
/// taken at the same time: the host slows a guest more when more of its
/// vCPUs are busy, so the kernel keeps as many busy as the phases do. The
/// daemon is stopped meanwhile, so none of its threads, busy or spinning,
/// shares a core with the kernel; the generator's threads are idle between
/// phases. Returns with the calling thread on the generator side.
void sample_host(const CpuSplit& split, Daemon& daemon) {
  daemon.pause();
  double daemon_rate = 0.0;
  std::thread daemon_cpu{[&] {
    split.daemon_side();
    daemon_rate = host_speed::measure();
  }};
  split.generator_side();
  const double generator_rate = host_speed::measure();
  daemon_cpu.join();
  host_speed::record(daemon_rate);
  host_speed::record(generator_rate);
  daemon.resume();
}

}  // namespace

void run_rpc(const Options& options, const WorkloadSpec& spec, double budget_s, Outcome& out,
             const std::function<void()>& between_rounds) {
  ReferenceModels refs;
  for (std::size_t i = 0; i < market_keys().size(); ++i)
    (void)refs.for_epoch(i + 1, market_keys()[i]);  // build outside the timed setup

  const CpuSplit split;
  std::uint16_t port = 0;
  double first_setup = 0.0;  // a launch like the others, but not in a round
  std::unique_ptr<Daemon> daemon =
      launch_ready(spec, options, refs, split, &port, &first_setup);

  // Each metric pools its samples over the measured rounds (below).
  Fault fault = options.inject;
  const ClosedLoop warm = closed_loop(port, spec, options.seed, 0, kSatConnections, kSatWindow,
                                      std::min(0.5, 0.05 * budget_s), nullptr);
  std::vector<ClosedLoop> rtts, sats;
  std::vector<OpenLoop> los, his;
  std::vector<double> sat_cpu_s;
  std::vector<std::vector<double>> round_setups;
  double rss_mb = 0.0;
  const double slice = budget_s / kRounds;
  // The share of the two CPUs' time the host took in each round (the steal
  // column of /proc/stat): it decides which rounds are measured (below).
  std::vector<double> steal_pct;
  const double tick_s = 1.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
  for (int round = 0; round < kRounds; ++round) {
    const int id = 1 + 4 * round;
    const std::uint64_t steal0 = split.steal_ticks();
    const auto round_start = Clock::now();
    round_setups.push_back(time_launches(spec, options, refs, split, *daemon));
    sample_host(split, *daemon);
    rtts.push_back(closed_loop(port, spec, options.seed, id, 1, 1, 0.14 * slice, &fault));
    sample_host(split, *daemon);
    const double cpu0 = daemon->cpu_seconds();
    sats.push_back(closed_loop(port, spec, options.seed, id + 1, kSatConnections, kSatWindow,
                               0.25 * slice, nullptr));
    sat_cpu_s.push_back(daemon->cpu_seconds() - cpu0);
    // Peak RSS with at most connections x window in flight: read before the
    // open loops, whose backlog after an outside stall would make the peak
    // a measure of the stall.
    if (round == 0) rss_mb = daemon->peak_rss_mb();
    sample_host(split, *daemon);
    los.push_back(open_loop(port, spec, options.seed, id + 2, kRateLo, 0.24 * slice));
    sample_host(split, *daemon);
    his.push_back(open_loop(port, spec, options.seed, id + 3, kRateHi, 0.27 * slice));
    steal_pct.push_back(100.0 * static_cast<double>(split.steal_ticks() - steal0) * tick_s /
                        (2.0 * seconds_since(round_start)));
    between_rounds();
  }
  split.unpinned();
  if (const int status = daemon->stop(); status != 0)
    out.fail("spotbidd exited with status " + std::to_string(status));

  const auto lanes_of = [](std::span<const ClosedLoop> phases) {
    std::vector<const Lane*> lanes;
    for (const ClosedLoop& phase : phases)
      for (const Lane& l : phase.lanes) lanes.push_back(&l);
    return lanes;
  };
  const auto open_lanes = [](const std::vector<OpenLoop>& phases) {
    std::vector<const Lane*> lanes;
    for (const OpenLoop& phase : phases) lanes.push_back(&phase.lane);
    return lanes;
  };
  const std::span<const ClosedLoop> warm_phase{&warm, 1};
  check_conservation("warmup", lanes_of(warm_phase), out);
  check_conservation("rtt", lanes_of(rtts), out);
  check_conservation("sat", lanes_of(sats), out);
  check_conservation("lo", open_lanes(los), out);
  check_conservation("hi", open_lanes(his), out);
  std::vector<const Lane*> all = lanes_of(warm_phase);
  for (const auto& lanes : {lanes_of(rtts), lanes_of(sats), open_lanes(los), open_lanes(his)})
    all.insert(all.end(), lanes.begin(), lanes.end());

  const auto verify_start = Clock::now();
  const std::uint64_t mismatches = verify_replies(spec, all, refs);
  std::printf("verify: %llu mismatching replies (%.2f s)\n",
              static_cast<unsigned long long>(mismatches), seconds_since(verify_start));
  if (mismatches != 0)
    out.fail(std::to_string(mismatches) + " replies differ from serve::execute_one");

  // Measured rounds: those in which the host took at most kStealOkPct of
  // the two CPUs, or, when fewer than half were that quiet, the half with
  // the least steal. A stolen CPU runs none of the program's threads, so a
  // round the host took from measures the host (README.md "Steal").
  std::vector<double> by_steal = steal_pct;
  const double steal_cut = std::max(kStealOkPct, quantile(by_steal, 0.5));
  std::vector<bool> measured;
  std::printf("rounds measured");
  for (const double s : steal_pct) {
    measured.push_back(s <= steal_cut);
    std::printf(" %d", measured.back() ? 1 : 0);
  }
  std::printf("\n");
  const OpenLoopSummary lo = summarize(los, "lo", out, measured);
  const OpenLoopSummary hi = summarize(his, "hi", out, measured);
  for (const auto& [name, phases] : {std::pair{"lat_p50_us.lo", &los}, {"lat_p50_us.hi", &his}}) {
    std::printf("rounds %s", name);
    for (const OpenLoop& r : *phases) std::printf(" %.3f", median(r.point_us));
    std::printf("\n");
  }

  std::printf("rounds setup_ms");
  for (const std::vector<double>& s : round_setups) std::printf(" %.3f", 1e3 * median(s));
  std::printf("\n");
  std::printf("rounds steal_pct");
  for (const double s : steal_pct) std::printf(" %.1f", s);
  std::printf("\n");

  std::vector<double> rtt_us, sat_rates;
  std::uint64_t sat_done = 0;
  std::vector<double> setups;
  double sat_wall = 0.0, cpu_s = 0.0;
  for (std::size_t i = 0; i < rtts.size(); ++i) {
    if (!measured[i]) continue;
    setups.insert(setups.end(), round_setups[i].begin(), round_setups[i].end());
    rtt_us.insert(rtt_us.end(), rtts[i].point_us.begin(), rtts[i].point_us.end());
    rtt_us.insert(rtt_us.end(), rtts[i].heavy_us.begin(), rtts[i].heavy_us.end());
  }
  std::printf("rounds sat_rps");
  for (const ClosedLoop& s : sats) std::printf(" %.0f", median(bucket_rates(s)));
  std::printf("\n");
  for (std::size_t i = 0; i < sats.size(); ++i) {
    if (!measured[i]) continue;
    const ClosedLoop& s = sats[i];
    const std::vector<double> rates = bucket_rates(s);
    sat_rates.insert(sat_rates.end(), rates.begin(), rates.end());
    for (const Lane& l : s.lanes)
      for (const ReplyRec& r : l.replies) sat_done += r.fate == Fate::kOk ? 1 : 0;
    sat_wall += s.wall_s;
    cpu_s += sat_cpu_s[i];
  }

  // Wall-clock times of the daemon path follow the host's speed; daemon CPU
  // time does not (README.md "Host-speed scaling").
  out.add("setup_s", median(setups), "s", Outcome::Scale::kTime);
  out.add("rtt_p50_us", median(rtt_us), "us", Outcome::Scale::kTime);
  out.add("cpu_us_per_req", sat_done > 0 ? cpu_s * 1e6 / static_cast<double>(sat_done) : 0.0,
          "us");
  out.add("rss_mb", rss_mb, "MB");
  // Printed as measured, not gated (README.md "What is not gated"): the
  // open-loop p50s, saturation and the tails move 2-10x with the host's
  // steal, and the heavy class exists only on mixed_rpc. The traced run
  // reports them as per-layer numbers. Runs too short for a whole bucket
  // (the self-test) take saturation as the phase-wide ratio.
  std::printf("info lat_p50_us.lo = %.3f us (%zu samples)\n", lo.point_p50, lo.points);
  std::printf("info lat_p50_us.hi = %.3f us (%zu samples)\n", hi.point_p50, hi.points);
  std::printf("info sat_rps = %.1f 1/s\n", sat_rates.empty()
                                                ? static_cast<double>(sat_done) / sat_wall
                                                : median(sat_rates));
  std::printf("info lat_p99_us.lo = %.3f us (%zu samples)\n", lo.point_p99, lo.points);
  std::printf("info lat_p99_us.hi = %.3f us (%zu samples)\n", hi.point_p99, hi.points);
  if (hi.heavies > 0) {
    std::printf("info lat_p50_us.heavy = %.3f us (%zu samples)\n", hi.heavy_p50, hi.heavies);
    std::printf("info lat_p99_us.heavy = %.3f us\n", hi.heavy_p99);
  }
  std::printf("info samples: rtt %zu, sat %llu, sat buckets %zu\n", rtt_us.size(),
              static_cast<unsigned long long>(sat_done), sat_rates.size());
}

}  // namespace perfbench
