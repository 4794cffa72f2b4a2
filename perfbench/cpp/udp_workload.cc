// udp_loopback: fig3_steady's deployment snapshot (app::build_cluster_config)
// on 4 app::NodeEngine ranks, each with its own transport::UdpTransport on
// 127.0.0.1, all polled by this one thread. Traffic never leaves the
// host's loopback interface.
//
// Each set-up builds the deployment, snapshots it, binds the sockets and
// runs an untimed closed-loop warm-up. Its share of the run is then split
// in two phases:
//  * closed loop: kWindow publishes stay outstanding (a publish completes
//    when its last subscriber delivered); deliveries_per_s is the 10th
//    percentile of the rates of windows of kRateWindow deliveries;
//  * open loop: publishes are due every 1/kOpenRate s whatever happened
//    before; each delivery's wall latency runs from its publish's due time,
//    and the generator's own lateness is recorded.
// Simulated latency, reconfiguration and cutover come from the simulator
// twin: after the UDP phases, the set-up's own PubSubSystem is driven with
// fig3_steady's rounds and tail transitions.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "app/cluster_config.h"
#include "app/decseqd.h"
#include "checks.h"
#include "common/rng.h"
#include "deployment.h"
#include "pubsub/system.h"
#include "transport/channel.h"
#include "transport/udp_transport.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace decseq;

/// Eight set-ups, as fig3_steady has: the twin's reconfigure calls then come
/// in eight bursts spread over the run. With three, a run's bursts could
/// all fall while the shared machine's cores ran fast, and
/// reconfigure_p90_ms spread 0.32 over 10 seeds.
constexpr std::size_t kSetups = 8;
/// deliveries_per_s is the rate sustained in 90 % of the ~25 ms rate
/// windows, as for fig3_steady (see SimSpec::rate_quantile).
constexpr double kSustainedQuantile = 0.10;
constexpr std::uint32_t kRanks = 4;
constexpr std::size_t kWindow = 64;          ///< closed-loop publishes in flight
constexpr std::size_t kRateWindow = 4096;    ///< deliveries per rate sample
constexpr std::size_t kWarmupPublishes = 4096;
constexpr double kOpenRate = 10000.0;        ///< open-loop publishes per second
constexpr double kDrainTimeoutMs = 5000.0;
constexpr std::size_t kTwinRounds = 128;       ///< per set-up
constexpr std::size_t kTwinTransitions = 32;  ///< per set-up, as fig3_steady's tail

/// Four ranks in one process, polled in turn.
struct Cluster {
  explicit Cluster(const app::ClusterConfig& cfg) : config(cfg) {
    for (std::uint32_t r = 0; r < kRanks; ++r) {
      transports.push_back(std::make_unique<transport::UdpTransport>());
    }
    for (const app::EdgeSpec& edge : app::build_edge_table(config)) {
      if (edge.kind == app::EdgeKind::kControlCommand ||
          edge.kind == app::EdgeKind::kControlReport ||
          edge.src_rank == edge.dst_rank) {
        continue;
      }
      // Data flows src -> dst on the edge, acks dst -> src.
      transports[edge.src_rank]->add_edge(
          edge.id, transports[edge.dst_rank]->local_addr());
      transports[edge.dst_rank]->add_edge(
          edge.id, transports[edge.src_rank]->local_addr());
    }
  }

  app::ClusterConfig config;
  std::vector<std::unique_ptr<transport::UdpTransport>> transports;
  std::vector<std::unique_ptr<transport::ChannelSet>> sets;
  // Declared last: engines hold timers and channels on the above.
  std::vector<std::unique_ptr<app::NodeEngine>> engines;
};

class UdpRun {
 public:
  UdpRun(const Options& options, Outcome& outcome, Trace& trace)
      : options_(options), outcome_(outcome), trace_(trace),
        groups_(fig3_groups()) {}

  void run(Metrics& metrics);

 private:
  void set_up();
  void publish(std::uint32_t group);
  void poll_all();
  bool drain(double timeout_ms);
  void closed_loop(double budget_ms, bool timed);
  void open_loop(double budget_ms);

  const Options& options_;
  Outcome& outcome_;
  Trace& trace_;
  std::vector<std::vector<NodeId>> groups_;

  std::unique_ptr<pubsub::PubSubSystem> system_;
  std::unique_ptr<Cluster> cluster_;
  Checker checker_;
  Rng rng_{0};
  std::uint64_t next_key_ = 0;
  std::uint32_t next_group_ = 0;
  std::vector<std::uint32_t> set_of_;     ///< checker set per group
  std::vector<std::uint32_t> remaining_;  ///< deliveries still due, per key
  std::vector<double> due_ms_;            ///< open-loop due time, per key
  std::uint64_t outstanding_ = 0;
  std::uint64_t delivered_ = 0;
  Clock::time_point origin_ = Clock::now();

  // Measurements.
  std::vector<double> setup_s_;
  std::vector<double> rates_;
  std::vector<double> traced_rates_;
  std::vector<double> wall_latency_;
  std::vector<double> lag_ms_;
  std::vector<protocol::Message> sample_;
  double rss_after_setup_ = 0.0;
  double poll_ms_ = 0.0;
  double app_publish_ms_ = 0.0;
  std::uint64_t app_publishes_ = 0;
  std::uint64_t datagrams_ = 0;
  std::uint64_t send_errors_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t forwards_ = 0;
  std::uint64_t engine_delivered_ = 0;
  std::uint64_t closed_publishes_ = 0;
  double closed_ms_ = 0.0;
};

void UdpRun::set_up() {
  const auto start = Clock::now();
  const ScopedSpan span(trace_, "setup");
  {
    const ScopedSpan s(trace_, "pubsub.construct");
    system_ = std::make_unique<pubsub::PubSubSystem>(fig3_config());
    system_->create_groups(groups_);
  }
  {
    const ScopedSpan s(trace_, "app.build_cluster");
    cluster_ = std::make_unique<Cluster>(app::build_cluster_config(
        *system_, kRanks, /*retransmit_timeout_ms=*/50.0,
        /*max_retransmits=*/200, kDeploymentSeed));
    for (std::uint32_t r = 0; r < kRanks; ++r) {
      cluster_->sets.push_back(std::make_unique<transport::ChannelSet>());
      cluster_->engines.push_back(std::make_unique<app::NodeEngine>(
          *cluster_->transports[r], *cluster_->sets[r], cluster_->config, r,
          [this](NodeId receiver, const protocol::Message& m, double) {
            const std::uint64_t key = m.payload();
            checker_.delivered(receiver.value(), key, m.group().value(),
                               m.sender().value());
            ++delivered_;
            if (key < due_ms_.size() && due_ms_[key] >= 0.0) {
              wall_latency_.push_back(ms_since(origin_) - due_ms_[key]);
            }
            if (trace_.recording() && sample_.size() < 4096) {
              sample_.push_back(m);
            }
            if (key < remaining_.size() && remaining_[key] > 0 &&
                --remaining_[key] == 0) {
              --outstanding_;
            }
          },
          [this](GroupId, NodeId, std::uint64_t) {
            ++outcome_.failed_publishes;
          }));
      transport::ChannelSet* set = cluster_->sets.back().get();
      cluster_->transports[r]->set_datagram_sink(
          [set](const std::uint8_t* d, std::size_t n,
                const transport::Origin& o) { set->handle(d, n, o); });
    }
  }
  // Reset the per-cluster state: keys restart at 0 for each checker.
  checker_ = Checker();
  set_of_.clear();
  for (const auto& g : groups_) {
    std::vector<std::uint32_t> members;
    for (const NodeId n : g) members.push_back(n.value());
    set_of_.push_back(checker_.add_set(std::move(members)));
  }
  rng_ = Rng(options_.seed * 0x9E3779B97F4A7C15ULL + 29);
  next_key_ = 0;
  next_group_ = 0;
  remaining_.clear();
  due_ms_.clear();
  outstanding_ = 0;
  {
    const ScopedSpan s(trace_, "app.warmup");
    closed_loop(0.0, false);
  }
  setup_s_.push_back(ms_since(start) / 1e3);
}

void UdpRun::publish(std::uint32_t group) {
  const auto& members = groups_[group];
  const NodeId sender = rng_.pick(members);
  const std::uint64_t key = next_key_++;
  checker_.sent(key, group, sender.value(), set_of_[group], set_of_[group]);
  remaining_.push_back(static_cast<std::uint32_t>(members.size()));
  ++outstanding_;
  ++outcome_.publishes;
  const std::uint32_t rank = cluster_->config.hosts[sender.value()].rank;
  if (trace_.recording()) {
    const auto start = Clock::now();
    cluster_->engines[rank]->publish(static_cast<std::uint32_t>(key), sender,
                                     GroupId(group), key);
    app_publish_ms_ += ms_since(start);
    ++app_publishes_;
  } else {
    cluster_->engines[rank]->publish(static_cast<std::uint32_t>(key), sender,
                                     GroupId(group), key);
  }
}

void UdpRun::poll_all() {
  if (trace_.recording()) {
    const auto start = Clock::now();
    for (auto& t : cluster_->transports) t->poll(0.0);
    poll_ms_ += ms_since(start);
    return;
  }
  for (auto& t : cluster_->transports) t->poll(0.0);
}

bool UdpRun::drain(double timeout_ms) {
  const auto start = Clock::now();
  while (outstanding_ > 0) {
    if (ms_since(start) > timeout_ms) return false;
    poll_all();
  }
  return true;
}

void UdpRun::closed_loop(double budget_ms, bool timed) {
  const ScopedSpan span(trace_, "app.closed_loop");
  const auto start = Clock::now();
  const std::uint64_t keys0 = next_key_;
  auto window_start = Clock::now();
  std::uint64_t window_base = delivered_;
  const auto groups = static_cast<std::uint32_t>(groups_.size());
  while (timed ? ms_since(start) < budget_ms
               : next_key_ - keys0 < kWarmupPublishes) {
    while (outstanding_ < kWindow) {
      due_ms_.push_back(-1.0);
      publish(next_group_);
      next_group_ = (next_group_ + 1) % groups;
    }
    poll_all();
    if (timed && delivered_ - window_base >= kRateWindow) {
      const double ms = ms_since(window_start);
      (trace_.recording() ? traced_rates_ : rates_)
          .push_back(static_cast<double>(delivered_ - window_base) / ms * 1e3);
      // The traced run alternates traced and untraced rate windows.
      if (options_.trace) trace_.set_recording(!trace_.recording());
      window_start = Clock::now();
      window_base = delivered_;
    }
  }
  if (timed) {
    closed_publishes_ += next_key_ - keys0;
    closed_ms_ += ms_since(start);
  }
  if (!drain(kDrainTimeoutMs)) {
    outcome_.violate("closed loop: deliveries still missing after drain");
  }
}

void UdpRun::open_loop(double budget_ms) {
  const ScopedSpan span(trace_, "app.open_loop");
  const double begin = ms_since(origin_);
  const double period = 1e3 / kOpenRate;
  const auto groups = static_cast<std::uint32_t>(groups_.size());
  double due = begin;
  while (due < begin + budget_ms) {
    const double now = ms_since(origin_);
    while (due <= now && due < begin + budget_ms) {
      lag_ms_.push_back(now - due);
      due_ms_.push_back(due);
      publish(next_group_);
      next_group_ = (next_group_ + 1) % groups;
      due += period;
    }
    poll_all();
  }
  if (!drain(kDrainTimeoutMs)) {
    outcome_.violate("open loop: deliveries still missing after drain");
  }
}

void UdpRun::run(Metrics& metrics) {
  const double share_ms = options_.seconds * 1e3 / kSetups;
  TwinResult twin;
  for (std::size_t s = 0; s < kSetups; ++s) {
    cluster_.reset();
    system_.reset();
    set_up();
    if (s == 0) rss_after_setup_ = peak_rss_mb();
    closed_loop(share_ms / 2, true);
    open_loop(share_ms / 2);
    trace_.set_recording(options_.trace);
    for (std::size_t r = 0; r < kRanks; ++r) {
      datagrams_ += cluster_->transports[r]->datagrams_sent();
      send_errors_ += cluster_->transports[r]->send_errors();
      rejected_ += cluster_->sets[r]->rejected();
      const auto& st = cluster_->engines[r]->stats();
      forwards_ += st.forwarded + st.distributed;
      engine_delivered_ += st.delivered;
      if (cluster_->engines[r]->faulted_channels() > 0) {
        outcome_.violate("rank " + std::to_string(r) + " has " +
                         std::to_string(cluster_->engines[r]->faulted_channels()) +
                         " faulted channel(s)");
      }
    }
    {
      const ScopedSpan span(trace_, "check");
      checker_.finish(outcome_);
    }
    // The simulator twin: this set-up's deployment system, driven with
    // fig3_steady's rounds and tail transitions.
    const ScopedSpan span(trace_, "sim_twin");
    cluster_.reset();
    TwinResult t = run_sim_twin(*system_, groups_, kTwinRounds,
                                kTwinTransitions, s, options_, outcome_,
                                trace_);
    twin.sim_latency.insert(twin.sim_latency.end(), t.sim_latency.begin(),
                            t.sim_latency.end());
    twin.reconfigure_ms.insert(twin.reconfigure_ms.end(),
                               t.reconfigure_ms.begin(), t.reconfigure_ms.end());
    twin.cutover_ms.insert(twin.cutover_ms.end(), t.cutover_ms.begin(),
                           t.cutover_ms.end());
  }
  if (send_errors_ > 0 || rejected_ > 0) {
    outcome_.violate("transport: " + std::to_string(send_errors_) +
                     " send error(s), " + std::to_string(rejected_) +
                     " rejected frame(s)");
  }

  std::printf("# udp_loopback: %zu set-ups, %zu rate windows, closed loop "
              "%.0f publishes/s, open loop %.0f publishes/s (%.0f%% of it)\n",
              setup_s_.size(), rates_.size(),
              ratio(static_cast<double>(closed_publishes_), closed_ms_ / 1e3),
              kOpenRate,
              100.0 * ratio(kOpenRate, static_cast<double>(closed_publishes_) /
                                           (closed_ms_ / 1e3)));

  if (options_.trace) {
    shadow_compile(fig3_config(), groups_, trace_, metrics);
    if (time_codecs(sample_, trace_, metrics) > 0) {
      outcome_.violate("codec round trips did not reproduce their input");
    }
    const double d = static_cast<double>(engine_delivered_);
    metrics.set("transport.poll_us_per_delivery", "us", ratio(poll_ms_ * 1e3, d));
    metrics.set("transport.datagrams_per_delivery", "count",
                ratio(static_cast<double>(datagrams_), d));
    metrics.set("transport.send_errors", "count", static_cast<double>(send_errors_));
    metrics.set("transport.rejected_frames", "count", static_cast<double>(rejected_));
    metrics.set("app.publish_us", "us",
                ratio(app_publish_ms_ * 1e3, static_cast<double>(app_publishes_)));
    metrics.set("app.forwards_per_delivery", "count",
                ratio(static_cast<double>(forwards_), d));
    metrics.set("app.generator_lag_p99_ms", "ms", quantile(lag_ms_, 0.99));
    metrics.set("app.wall_latency_p99_ms", "ms", quantile(wall_latency_, 0.99));
    metrics.set("pubsub.reconfigure_p50_ms", "ms", median(twin.reconfigure_ms));
    metrics.set("e2e.wall_latency_p50_ms", "ms", quantile(wall_latency_, 0.50));
    const double untraced = median(rates_);
    metrics.set("trace.overhead_pct", "%",
                100.0 * ratio(untraced - median(traced_rates_), untraced));
    return;
  }
  metrics.set("setup_s", "s", median(setup_s_));
  metrics.set("peak_rss_mb", "MB", rss_after_setup_);
  metrics.set("deliveries_per_s", "1/s", quantile(rates_, kSustainedQuantile));
  // Band means, as for fig3_steady (see band_quantile()).
  metrics.set("sim_latency_p50_ms", "ms",
              band_quantile(twin.sim_latency, 0.50, 0.005));
  metrics.set("sim_latency_p99_ms", "ms",
              band_quantile(twin.sim_latency, 0.99, 0.005));
  metrics.set("wall_latency_p90_ms", "ms", quantile(wall_latency_, 0.90));
  metrics.set("reconfigure_p90_ms", "ms", quantile(twin.reconfigure_ms, 0.90));
  metrics.set("cutover_p50_ms", "ms", median(twin.cutover_ms));
}

}  // namespace

void run_udp_loopback(const Options& options, Metrics& metrics,
                      Outcome& outcome, Trace& trace) {
  UdpRun run(options, outcome, trace);
  run.run(metrics);
}

}  // namespace perfbench
