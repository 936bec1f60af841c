#include "harness.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

namespace {

// The two workloads differ only in their mix: mixed_rpc adds optimizer
// requests and background republication (README.md "Workloads").
const std::vector<WorkloadSpec>& specs() {
  static const std::vector<WorkloadSpec> all = {
      {.name = "point_rpc"},
      {.name = "mixed_rpc", .optimal_bid_frac = 0.03, .recalibrate_ms = 1000},
  };
  return all;
}

}  // namespace

std::uint64_t lane_seed(std::uint64_t seed, int phase, int lane) {
  SplitMix64 mix{seed ^ (static_cast<std::uint64_t>(phase) << 40) ^
                 (static_cast<std::uint64_t>(lane) << 20)};
  return mix.next();
}

const WorkloadSpec& workload_spec(const std::string& name) {
  for (const WorkloadSpec& spec : specs())
    if (spec.name == name) return spec;
  throw std::invalid_argument{"unknown workload '" + name + "'"};
}

const std::vector<std::string>& market_keys() {
  static const std::vector<std::string> keys = {
      "ap-southeast-1/c3.xlarge", "eu-west-1/c3.4xlarge", "us-east-1/r3.xlarge",
      "us-west-2/m3.xlarge"};
  return keys;
}

RequestStream::RequestStream(const WorkloadSpec& spec, std::uint64_t seed)
    : spec_(&spec), rng_{seed} {
  // Zipf(s=1) over a fixed popularity order (not the sorted key order).
  const std::size_t n = market_keys().size();
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / static_cast<double>(k + 1);
    zipf_cdf_.push_back(total);
  }
  for (double& c : zipf_cdf_) c /= total;
  zipf_cdf_.back() = 1.0;
}

spotbid::serve::Request RequestStream::next() {
  using spotbid::serve::Kind;
  static constexpr Kind kPoint[] = {Kind::kExpectedCost, Kind::kRunLength,
                                    Kind::kPersistentFeasibility, Kind::kProviderPrice};
  static constexpr std::size_t kPopularity[] = {2, 3, 0, 1};  // r3, m3, c3.xl, c3.4xl
  const std::uint64_t r = rng_.next();
  const double pick = rng_.uniform();
  const double kind_u = rng_.uniform();
  spotbid::serve::Request q;
  const auto rank = static_cast<std::size_t>(
      std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), pick) - zipf_cdf_.begin());
  q.key = market_keys()[kPopularity[rank]];
  q.kind = kind_u < spec_->optimal_bid_frac ? Kind::kOptimalBid : kPoint[r % 4];
  q.mode = (r >> 8) % 2 == 0 ? spotbid::serve::BidMode::kOneTime
                             : spotbid::serve::BidMode::kPersistent;
  q.bid = spotbid::Money{0.01 + 0.99 * rng_.uniform()};
  q.job = spotbid::bidding::JobSpec{spotbid::Hours{0.5 + 4.0 * rng_.uniform()},
                                    spotbid::Hours::from_seconds(30.0)};
  q.demand = 0.5 + rng_.uniform();
  return q;
}

bool is_heavy(spotbid::serve::Kind kind) {
  return kind == spotbid::serve::Kind::kOptimalBid ||
         kind == spotbid::serve::Kind::kPortfolioBid;
}

double quantile(std::vector<double>& sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const auto index = static_cast<std::size_t>(q * static_cast<double>(sample.size() - 1));
  return sample[index];
}

double median(std::vector<double> sample) { return quantile(sample, 0.5); }

namespace host_speed {

namespace {
std::vector<double>& samples() {
  static std::vector<double> all;
  return all;
}
}  // namespace

double measure() {
  thread_local std::vector<std::uint64_t> table(std::size_t{1} << 20);  // 8 MiB
  constexpr std::uint64_t kIterations = 16'000'000;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < kIterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x & (table.size() - 1)] += x;
  }
  const double seconds = seconds_since(start);
  volatile std::uint64_t sink = table[x & (table.size() - 1)];
  (void)sink;
  return static_cast<double>(kIterations) / seconds;
}

void record(double rate) { samples().push_back(rate); }

std::size_t count() { return samples().size(); }

double factor() { return samples().empty() ? 1.0 : median(samples()) / kReferenceRate; }

}  // namespace host_speed

}  // namespace perfbench
