// The traced run: one seeded request stream fed through four tiers, each
// timed from outside around public calls, then reconciled against a
// spotbidd child's window-1 round trip.
//
//   tier 0  dist / bidding / portfolio calls on the calibrated models;
//   tier 1  serve::execute_batch (point kinds) and execute_one (optimizers);
//   tier 2  an in-process serve::BidService;
//   tier 3  net: wire encode/decode, and an in-process EpollServer over
//           loopback TCP.
//
// Each tier's increment over the one below is a layer's share of the round
// trip. Per-request spans (tiers 2 and 3 and the daemon pass) are kept in
// memory and written to <workdir>/spans-<workload>-<seed>.jsonl at the end.

#include <atomic>
#include <cstdio>
#include <fstream>
#include <thread>

#include "harness.hpp"
#include "rpc.hpp"
#include "spotbid/bidding/strategies.hpp"
#include "spotbid/core/metrics.hpp"
#include "spotbid/dist/empirical.hpp"
#include "spotbid/net/epoll_server.hpp"
#include "spotbid/portfolio/strategy.hpp"
#include "spotbid/serve/engine.hpp"
#include "spotbid/serve/service.hpp"
#include "spotbid/serve/snapshot_store.hpp"

namespace perfbench {

using namespace spotbid;

namespace {

constexpr std::size_t kStream = 4000;     ///< requests per window-1 pass
constexpr int kPointReps = 20;            ///< passes over the point stream in tier 1
constexpr std::size_t kOptimal = 200;     ///< optimal_bid / bidding calls timed
constexpr std::size_t kPortfolio = 24;    ///< portfolio calls timed per K
constexpr double kTailSeconds = 2.0;      ///< each open-loop tail phase

struct Span {
  const char* name;
  std::uint32_t id;      ///< request index within its pass
  std::uint32_t parent;  ///< 0: none; else 1 + index of the parent span
  std::int64_t start_ns;
  std::int64_t end_ns;
};

class SpanLog {
 public:
  SpanLog() { spans_.reserve(8 * kStream); }
  std::uint32_t add(const char* name, std::uint32_t id, std::uint32_t parent,
                    Clock::time_point start, Clock::time_point end) {
    spans_.push_back({name, id, parent, to_ns(start), to_ns(end)});
    return static_cast<std::uint32_t>(spans_.size());
  }
  void write(const std::string& path) const {
    std::ofstream os{path, std::ios::trunc};
    for (const Span& s : spans_)
      os << "{\"name\":\"" << s.name << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
         << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
  }

 private:
  std::vector<Span> spans_;
};

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Time fn() over `reps` calls; returns ns per call.
template <typename Fn>
double ns_per_call(std::size_t reps, Fn&& fn) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < reps; ++i) fn(i);
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
         static_cast<double>(std::max<std::size_t>(reps, 1));
}

volatile double g_sink = 0.0;  // keeps timed results observable

/// The stream's requests re-kinded, so the optimizer tiers have inputs on
/// every workload (point_rpc itself sends none).
serve::Request rekind(serve::Request q, serve::Kind kind, int levels) {
  q.kind = kind;
  if (kind == serve::Kind::kPortfolioBid) {
    q.deadline = Hours{q.job.execution_time.hours() * 2.5};
    q.epsilon = 0.05;
    q.levels = static_cast<std::uint8_t>(levels);
  }
  return q;
}

/// Window-1 passes through an in-process BidService: submit cost, sojourn
/// (submit to completion callback), and allocations per request.
struct ServicePass {
  std::vector<double> submit_ns, point_sojourn_us;
  double allocs_per_req = 0.0;
};

ServicePass service_pass(serve::BidService& service, const std::vector<serve::Request>& stream,
                         SpanLog& spans) {
  ServicePass out;
  std::atomic<int> done{0};
  Clock::time_point completed;
  allocs::arm();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    done.store(0, std::memory_order_relaxed);
    const auto t0 = Clock::now();
    service.submit(stream[i], [&](serve::Response r) {
      completed = Clock::now();
      g_sink = r.expected_cost.usd();
      done.store(1, std::memory_order_release);
      done.notify_one();
    });
    const auto t1 = Clock::now();
    done.wait(0, std::memory_order_acquire);
    const std::uint32_t parent =
        spans.add("serve.sojourn", static_cast<std::uint32_t>(i), 0, t0, completed);
    spans.add("serve.submit", static_cast<std::uint32_t>(i), parent, t0, t1);
    out.submit_ns.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count());
    if (!is_heavy(stream[i].kind)) out.point_sojourn_us.push_back(us_between(t0, completed));
  }
  out.allocs_per_req = static_cast<double>(allocs::disarm()) / static_cast<double>(stream.size());
  return out;
}

/// Window-1 round trips on one connection; point-class times in us.
std::vector<double> rtt_pass(std::uint16_t port, const std::vector<serve::Request>& stream,
                             SpanLog* spans, const char* span_name, Outcome& out) {
  std::vector<double> point_us;
  Conn conn{port, 10.0};
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto t0 = Clock::now();
    conn.send(i + 1, stream[i]);
    ReplyRec rec;
    rec.fate = classify(conn.recv(), i + 1, rec, nullptr);
    const auto t1 = Clock::now();
    if (spans != nullptr) spans->add(span_name, static_cast<std::uint32_t>(i), 0, t0, t1);
    ++out.attempted;
    if (rec.fate != Fate::kOk) ++out.failed;
    if (!is_heavy(stream[i].kind)) point_us.push_back(us_between(t0, t1));
  }
  return point_us;
}

struct HistogramTotals {
  std::uint64_t count = 0;
  double sum = 0.0;
};

HistogramTotals batch_histogram() {
  const metrics::Snapshot snap = metrics::Registry::global().snapshot();
  const metrics::MetricSnapshot* m = snap.find("serve.sched.batch_size");
  return m != nullptr ? HistogramTotals{m->count, m->value} : HistogramTotals{};
}

}  // namespace

void run_layers(const Options& options, const WorkloadSpec& spec, Outcome& out) {
  metrics::set_enabled(true);
  SpanLog spans;
  const auto& keys = market_keys();

  // -- models: snapshot build cost, and the store every tier serves from.
  serve::SnapshotStore store;
  std::vector<double> build_ms;
  for (int rep = 0; rep < 3; ++rep)
    for (const std::string& key : keys) {
      const auto t0 = Clock::now();
      auto snapshot = calibrate(key, kDaemonSeed);
      build_ms.push_back(us_between(t0, Clock::now()) / 1e3);
      if (rep == 0) store.publish(std::move(snapshot));
    }
  out.add("serve.snapshot.build_ms", median(build_ms), "ms");

  std::vector<serve::Request> stream;
  RequestStream gen{spec, lane_seed(options.seed, 10, 0)};
  for (std::size_t i = 0; i < kStream; ++i) stream.push_back(gen.next());
  std::vector<serve::Request> points;
  for (const serve::Request& q : stream)
    if (!is_heavy(q.kind)) points.push_back(q);

  // -- tier 0: dist, bidding, portfolio.
  const auto main_snapshot = store.find("us-east-1/r3.xlarge");
  const dist::Empirical& law = *main_snapshot->empirical();
  const bidding::SpotPriceModel& model = main_snapshot->model();
  const std::size_t dist_reps = 50 * points.size();
  out.add("dist.cdf_ns", ns_per_call(dist_reps, [&](std::size_t i) {
            g_sink = law.cdf(points[i % points.size()].bid.usd());
          }), "ns");
  out.add("dist.partial_expectation_ns", ns_per_call(dist_reps, [&](std::size_t i) {
            g_sink = law.partial_expectation(points[i % points.size()].bid.usd());
          }), "ns");
  out.add("dist.quantile_ns", ns_per_call(dist_reps, [&](std::size_t i) {
            g_sink = law.quantile(points[i % points.size()].bid.usd());
          }), "ns");
  out.add("bidding.persistent_bid_us", ns_per_call(kOptimal, [&](std::size_t i) {
            g_sink = bidding::persistent_bid(model, stream[i].job).bid.usd();
          }) / 1e3, "us");
  out.add("bidding.one_time_bid_us", ns_per_call(kOptimal, [&](std::size_t i) {
            g_sink = bidding::one_time_bid(model, stream[i].job).bid.usd();
          }) / 1e3, "us");
  const portfolio::PortfolioStrategy strategy{model};
  out.add("portfolio.optimize_us", ns_per_call(kPortfolio, [&](std::size_t i) {
            portfolio::PortfolioQuery query;
            query.job = stream[i].job;
            query.deadline = Hours{stream[i].job.execution_time.hours() * 2.5};
            query.epsilon = 0.05;
            query.levels = 1 + static_cast<int>(i % 8);
            g_sink = strategy.optimize(query).expected_cost.usd();
          }) / 1e3, "us");

  // -- tier 1: the engine. Point kinds through execute_batch in same-key
  // groups of up to 64 (the service's max_batch), optimizers one by one.
  std::vector<std::vector<const serve::Request*>> groups(keys.size());
  for (const serve::Request& q : points)
    for (std::size_t k = 0; k < keys.size(); ++k)
      if (q.key == keys[k]) groups[k].push_back(&q);
  std::vector<serve::Response> responses(64);
  std::vector<std::shared_ptr<const serve::ModelSnapshot>> snapshots;
  for (const std::string& key : keys) snapshots.push_back(store.find(key));
  const auto e0 = Clock::now();
  for (int rep = 0; rep < kPointReps; ++rep)
    for (std::size_t k = 0; k < keys.size(); ++k)
      for (std::size_t at = 0; at < groups[k].size(); at += 64) {
        const std::size_t n = std::min<std::size_t>(64, groups[k].size() - at);
        serve::execute_batch(snapshots[k].get(), std::span{groups[k]}.subspan(at, n),
                             std::span{responses}.first(n));
      }
  const double point_ns = std::chrono::duration<double, std::nano>(Clock::now() - e0).count() /
                          static_cast<double>(kPointReps * points.size());
  out.add("serve.engine.point_ns", point_ns, "ns");
  auto optimizer_us = [&](serve::Kind kind, int levels, std::size_t count) {
    return ns_per_call(count, [&](std::size_t i) {
             const serve::Request q = rekind(stream[i], kind, levels);
             g_sink = serve::execute_one(store.find(q.key).get(), q).expected_cost.usd();
           }) / 1e3;
  };
  out.add("serve.engine.optimal_bid_us", optimizer_us(serve::Kind::kOptimalBid, 1, kOptimal), "us");
  out.add("serve.engine.portfolio_us.k1", optimizer_us(serve::Kind::kPortfolioBid, 1, kPortfolio),
          "us");
  out.add("serve.engine.portfolio_us.k4", optimizer_us(serve::Kind::kPortfolioBid, 4, kPortfolio),
          "us");
  out.add("serve.engine.portfolio_us.k8", optimizer_us(serve::Kind::kPortfolioBid, 8, kPortfolio),
          "us");

  // -- store: lookups while a publisher swaps epochs; publish; build.
  {
    serve::SnapshotStore live;
    for (const std::string& key : keys) live.publish(calibrate(key, kDaemonSeed));
    std::atomic<bool> stop{false};
    std::vector<double> publish_us;
    std::thread publisher{[&] {
      for (std::size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const auto& source = snapshots[i % snapshots.size()];
        auto fresh = std::make_shared<serve::ModelSnapshot>(source->key(), source->model(),
                                                            source->provider());
        const auto t0 = Clock::now();
        live.publish(std::move(fresh));
        publish_us.push_back(us_between(t0, Clock::now()));
        std::this_thread::sleep_for(std::chrono::microseconds{100});
      }
    }};
    const double find_ns = ns_per_call(100 * stream.size(), [&](std::size_t i) {
      g_sink = static_cast<double>(live.find(stream[i % stream.size()].key)->epoch());
    });
    stop.store(true);
    publisher.join();
    out.add("serve.store.find_ns", find_ns, "ns");
    out.add("serve.store.publish_us", median(publish_us), "us");
  }

  // -- tier 2: in-process BidService at window 1, then a pipelined pass
  // (window = the saturation phase's requests in flight) for batch sizes.
  serve::ServiceConfig service_config;
  service_config.workers = kDaemonWorkers;
  service_config.queue_capacity = kDaemonQueueCapacity;
  ServicePass tier2;
  HistogramTotals batches;
  {
    serve::BidService service{store, service_config};
    (void)service_pass(service, std::vector<serve::Request>(stream.begin(), stream.begin() + 200),
                       spans);  // warm
    tier2 = service_pass(service, stream, spans);
    const HistogramTotals before = batch_histogram();
    constexpr std::size_t window = std::size_t{kSatConnections} * std::size_t{kSatWindow};
    std::atomic<std::size_t> in_flight{0};
    for (const serve::Request& q : stream) {
      while (in_flight.load(std::memory_order_acquire) >= window) std::this_thread::yield();
      in_flight.fetch_add(1, std::memory_order_acq_rel);
      service.submit(q, [&](serve::Response) {
        in_flight.fetch_sub(1, std::memory_order_acq_rel);
      });
    }
    while (in_flight.load(std::memory_order_acquire) > 0) std::this_thread::yield();
    const HistogramTotals after = batch_histogram();
    batches = {after.count - before.count, after.sum - before.sum};
    service.stop();
  }
  std::vector<double> sojourn = tier2.point_sojourn_us;
  const double sojourn_p50 = quantile(sojourn, 0.50);
  out.add("serve.submit_ns", median(tier2.submit_ns), "ns");
  out.add("serve.sojourn_us.p50", sojourn_p50, "us");
  out.add("serve.sojourn_us.p99", quantile(sojourn, 0.99), "us");
  out.add("serve.queue_wait_us", sojourn_p50 - point_ns / 1e3, "us");
  out.add("serve.allocs_per_req", tier2.allocs_per_req, "count");
  out.add("serve.batch_size.mean",
          batches.count > 0 ? batches.sum / static_cast<double>(batches.count) : 0.0, "count");

  // -- tier 3: wire codec, then loopback TCP to an in-process EpollServer.
  std::vector<serve::Response> answers;
  for (const serve::Request& q : points)
    answers.push_back(serve::execute_one(store.find(q.key).get(), q));
  const std::size_t frames = points.size();
  std::vector<std::vector<std::uint8_t>> request_bytes(frames), response_bytes(frames);
  allocs::arm();
  const double encode_ns = ns_per_call(frames, [&](std::size_t i) {
    request_bytes[i] = net::encode_request(i + 1, points[i]);
    response_bytes[i] = net::encode_response(i + 1, answers[i]);
  }) / 2.0;
  const double decode_ns = ns_per_call(frames, [&](std::size_t i) {
    const std::span<const std::uint8_t> rq{request_bytes[i]};
    const std::span<const std::uint8_t> rs{response_bytes[i]};
    g_sink = net::decode_request_body(net::decode_frame(rq.subspan(4))).bid.usd();
    g_sink = net::decode_response_body(net::decode_frame(rs.subspan(4))).expected_cost.usd();
  }) / 2.0;
  const double wire_allocs =
      static_cast<double>(allocs::disarm()) / (2.0 * static_cast<double>(frames));
  out.add("net.wire.encode_ns", encode_ns, "ns");
  out.add("net.wire.decode_ns", decode_ns, "ns");
  out.add("net.wire.allocs_per_frame", wire_allocs, "count");

  double loopback_p50 = 0.0;
  {
    serve::BidService service{store, service_config};
    net::EpollServerConfig server_config;
    server_config.shards = kDaemonShards;
    net::EpollServer server{service, server_config};
    server.start();
    (void)rtt_pass(server.port(), std::vector<serve::Request>(stream.begin(), stream.begin() + 200),
                   nullptr, "", out);  // warm
    std::vector<double> rtt = rtt_pass(server.port(), stream, &spans, "net.rtt", out);
    loopback_p50 = median(rtt);
    server.stop();
    service.stop();
  }
  out.add("net.rtt_overhead_us", loopback_p50 - sojourn_p50, "us");

  // -- reconciliation against spotbidd's window-1 round trip, untraced and
  // traced (spans recorded per request): the difference is the tracing
  // overhead.
  // The open-loop p50s and tails and the saturation rate are reported here
  // rather than gated end to end: they repeat too poorly on a shared
  // machine to carry a bound (README.md "What is not gated").
  ReferenceModels refs;
  std::uint16_t port = 0;
  double setup_s = 0.0;
  double untraced = 0.0, traced = 0.0;
  {
    const CpuSplit split;
    auto daemon = launch_ready(spec, options, refs, split, &port, &setup_s);
    (void)rtt_pass(port, std::vector<serve::Request>(stream.begin(), stream.begin() + 200),
                   nullptr, "", out);  // warm
    untraced = median(rtt_pass(port, stream, nullptr, "", out));
    traced = median(rtt_pass(port, stream, &spans, "client.rtt", out));
    for (const bool high : {false, true}) {
      std::vector<OpenLoop> phase{open_loop(port, spec, options.seed, high ? 31 : 30,
                                            high ? kRateHi : kRateLo, kTailSeconds)};
      check_conservation(high ? "hi" : "lo", {&phase[0].lane}, out);
      const OpenLoopSummary tail = summarize(phase, high ? "hi" : "lo", out);
      out.add(high ? "lat_p50_us.hi" : "lat_p50_us.lo", tail.point_p50, "us");
      out.add(high ? "lat_p99_us.hi" : "lat_p99_us.lo", tail.point_p99, "us");
    }
    const ClosedLoop sat = closed_loop(port, spec, options.seed, 32, kSatConnections,
                                       kSatWindow, kTailSeconds, nullptr);
    std::vector<const Lane*> sat_lanes;
    for (const Lane& lane : sat.lanes) sat_lanes.push_back(&lane);
    check_conservation("sat", sat_lanes, out);
    out.add("sat_rps", median(bucket_rates(sat)), "1/s");
    if (const int status = daemon->stop(); status != 0)
      out.fail("spotbidd exited with status " + std::to_string(status));
  }
  const double engine_us = point_ns / 1e3;
  const double serve_us = sojourn_p50 - engine_us;
  const double net_us = loopback_p50 - sojourn_p50;
  const double tier_sum = engine_us + serve_us + net_us;
  out.add("trace.rtt_p50_us", untraced, "us");
  out.add("trace.tier_sum_us", tier_sum, "us");
  out.add("trace.unaccounted_us", untraced - tier_sum, "us");
  out.add("trace.overhead_us", traced - untraced, "us");
  std::printf("reconciliation (point class, window 1, p50):\n");
  std::printf("  engine  (tier 1)            %10.3f us  %5.1f%%\n", engine_us,
              100.0 * engine_us / untraced);
  std::printf("  serve   (tier 2 - tier 1)   %10.3f us  %5.1f%%\n", serve_us,
              100.0 * serve_us / untraced);
  std::printf("  net     (tier 3 - tier 2)   %10.3f us  %5.1f%%\n", net_us,
              100.0 * net_us / untraced);
  std::printf("  process (daemon - tier 3)   %10.3f us  %5.1f%%\n", untraced - tier_sum,
              100.0 * (untraced - tier_sum) / untraced);
  std::printf("  spotbidd rtt_p50            %10.3f us (traced %.3f us)\n", untraced, traced);

  spans.write(options.workdir + "/spans-" + spec.name + "-" + std::to_string(options.seed) +
              ".jsonl");
}

}  // namespace perfbench
