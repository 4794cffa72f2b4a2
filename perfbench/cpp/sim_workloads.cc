// fig3_steady and live_churn: publish rounds through pubsub::PubSubSystem
// on the simulated 10,000-router deployment.
//
// A run sets the system up several times (SimSpec::setups) on the same
// deployment. Each set-up (construction, group creation, epoch compile, an
// untimed warm-up pass) is timed for setup_s and is then followed by its
// share of the timed windows, so no one system's delivery log holds a
// whole run. A window is
// a fixed number of rounds; a round publishes once to every live group
// from a random member (64-byte body) at one simulated instant, then drains
// with run(). A membership transition lands in the middle of a burst.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <unordered_map>

#include "checks.h"
#include "common/rng.h"
#include "deployment.h"
#include "protocol/network.h"
#include "pubsub/system.h"
#include "sim/callback.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace decseq;
using Change = pubsub::PubSubSystem::MembershipChange;

/// reconfigure_p90_ms reports the 90th percentile of the call times. A
/// fig3_steady call takes ~0.25 ms, short enough to land wholly in one of
/// the shared machine's two core speeds, and the median then jumps between
/// them (spread 0.25 over 10 seeds); the slower speed is always present,
/// and the 90th percentile stays in it. The median is kept per layer.
constexpr double kReconfigureQuantile = 0.90;
/// Simulated-latency quantiles are band means over +-0.5 percentage points
/// of rank (see band_quantile()).
constexpr double kSimBand = 0.005;

constexpr double kProbeStep = 1.0;     ///< sim ms between drain probes
constexpr std::size_t kBodyBytes = 64;
constexpr std::size_t kMinGroupsPerBlock = 2;
constexpr std::size_t kMaxGroupsPerBlock = 6;

struct SimSpec {
  const char* name;
  std::size_t hosts;
  std::size_t clusters;
  std::size_t block_hosts;       ///< hosts per membership block
  std::size_t window_rounds;     ///< rounds per timed window
  std::size_t warmup_windows;    ///< untimed windows in each set-up
  std::size_t transition_every;  ///< window round r % n == 1 transitions; 0: none
  std::size_t ops_per_transition;
  bool all_kinds;  ///< joins, leaves, creates and removes (else joins, leaves)
  std::size_t tail_transitions;  ///< transitions after each set-up's windows
  /// Untimed windows the first set-up runs, followed by its tail
  /// transitions, before peak_rss_mb is read (see SimRun::run()).
  std::size_t rss_windows;
  /// Set-ups per run; each takes an equal share of the timed windows, so
  /// more set-ups keep each system's delivery log (and the checks' copies
  /// of it) smaller.
  std::size_t setups = 3;
  /// Quantile of the per-window rates reported as deliveries_per_s. On the
  /// shared reference machine a core runs at two speeds about 1.5x apart,
  /// and the share of time at each moves between runs. Windows of a few ms
  /// resolve the two speeds, so their median jumps between them while the
  /// 10th percentile (the rate sustained in 90 % of windows) stays in the
  /// slower one. Windows of a whole transition cycle (~100 ms) average over
  /// both speeds, and their median is steadier.
  double rate_quantile = 0.5;
};

/// The benchmark's own view of the membership.
struct Model {
  std::vector<std::vector<std::uint32_t>> members;  ///< by group; empty: dead
  std::vector<std::uint32_t> set_of;  ///< checker set of `members[g]`
  std::vector<std::uint32_t> block_of;

  [[nodiscard]] bool live(std::uint32_t g) const {
    return g < members.size() && !members[g].empty();
  }
};

/// A planned membership batch, with the member lists it will leave behind.
struct Plan {
  std::vector<Change> batch;
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> changed;
  std::set<std::uint32_t> removed;
  std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>> created;
  std::vector<std::uint32_t> blocks;
};

/// What the timed part of one run measured, over all its set-ups.
struct Samples {
  std::vector<double> setup_s;
  std::vector<double> window_rate;         ///< untraced windows, deliveries/s
  std::vector<double> traced_window_rate;  ///< traced windows, deliveries/s
  // Latency quantiles of each set-up's timed deliveries; a run reports
  // their median over its set-ups, so no set-up's samples outlive it.
  std::vector<double> sim_p50, sim_p99, wall_p50, wall_p90;
  std::vector<double> reconfigure_ms;
  std::vector<double> cutover_ms;
  double peak_rss_mb = 0.0;
  // Per-layer accumulators (timed windows only).
  std::uint64_t timed_deliveries = 0;
  std::uint64_t timed_allocs = 0;
  std::uint64_t events = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t spills = 0;
  double warmup_ms = 0.0;
  std::uint64_t delta_recomputed = 0;
  std::uint64_t components_relaid = 0;
  std::uint64_t atoms_created = 0;
  std::uint64_t affected_groups = 0;
  std::uint64_t fences = 0;
  std::uint64_t transitions = 0;
};

struct DrainProbe {
  pubsub::PubSubSystem* system;
  double started_at;
  double* out;
  void operator()() const {
    if (!system->transition_active()) {
      *out = system->simulator().now() - started_at;
      return;
    }
    system->simulator().schedule_after(kProbeStep, *this);
  }
};

const SimSpec kFig3Spec{.name = "fig3_steady",
                        .hosts = 128,
                        .clusters = 32,
                        .block_hosts = 128,
                        .window_rounds = 16,
                        .warmup_windows = 8,
                        .transition_every = 0,
                        .ops_per_transition = 2,
                        .all_kinds = false,
                        .tail_transitions = 32,
                        .rss_windows = 8,
                        .setups = 8,
                        .rate_quantile = 0.10};

class SimRun {
 public:
  SimRun(const SimSpec& spec, std::vector<std::vector<NodeId>> groups,
         const Options& options, Outcome& outcome, Trace& trace)
      : spec_(spec),
        groups_(std::move(groups)),
        options_(options),
        outcome_(outcome),
        trace_(trace),
        config_(deployment_config(spec.hosts, spec.clusters)) {}

  void run(Metrics& metrics);
  TwinResult twin(pubsub::PubSubSystem& system, std::size_t rounds,
                  std::size_t transitions, std::size_t stream);

 private:
  /// One system, set up, timed and checked.
  struct Instance {
    std::unique_ptr<pubsub::PubSubSystem> owned;
    pubsub::PubSubSystem* system = nullptr;
    Model model;
    Checker checker;
    Rng rng{0};
    std::uint64_t next_key = 0;
    std::vector<double> publish_ms;        ///< by key
    std::vector<std::uint32_t> round_of;   ///< by key
    std::vector<double> round_end_ms;      ///< by round
    std::vector<MsgId> ids;                ///< by key (traced run)
    Clock::time_point origin = Clock::now();
    std::uint64_t op_counter = 0;  ///< rotates the kinds of batch ops
  };

  void init_model(Instance& in);
  /// Traffic and batch stream of set-up `index`: each set-up draws its own,
  /// so a run's transitions are all distinct.
  [[nodiscard]] Rng traffic_rng(std::size_t index) const {
    return Rng(options_.seed * 0x9E3779B97F4A7C15ULL + 17 + index * 7919);
  }
  std::unique_ptr<Instance> set_up(std::size_t index);
  void round(Instance& in, bool with_transition);
  Plan plan_batch(Instance& in);
  void apply_plan(Instance& in, const Plan& plan,
                  const std::vector<GroupId>& created);
  void check_gates(const Instance& in, const Plan& plan,
                   const std::vector<GroupId>& created,
                   const std::vector<std::size_t>& held_before);
  void window(Instance& in, std::size_t& round_index);
  void check(Instance& in);
  void collect_layers(Instance& in, Metrics& metrics);
  void receiver_metrics(Instance& in, Metrics& metrics);

  const SimSpec& spec_;
  std::vector<std::vector<NodeId>> groups_;
  const Options& options_;
  Outcome& outcome_;
  Trace& trace_;
  pubsub::SystemConfig config_;
  Samples samples_;
  StretchCheck stretch_;
  std::vector<std::uint8_t> body_ = std::vector<std::uint8_t>(kBodyBytes, 7);
  std::uint64_t traced_publishes_ = 0;
  /// Transition samples are taken in the timed windows and the tail only
  /// (warm-up transitions pay cold caches).
  bool collect_ = false;
};

void SimRun::init_model(Instance& in) {
  // Group g of the input list is GroupId g: create_groups() numbers them in
  // order on a fresh system.
  for (const auto& group : groups_) {
    std::vector<std::uint32_t> members;
    for (const NodeId n : group) members.push_back(n.value());
    std::sort(members.begin(), members.end());
    in.model.set_of.push_back(in.checker.add_set(members));
    in.model.block_of.push_back(members.front() /
                                static_cast<std::uint32_t>(spec_.block_hosts));
    in.model.members.push_back(std::move(members));
  }
}

std::unique_ptr<SimRun::Instance> SimRun::set_up(std::size_t index) {
  auto in = std::make_unique<Instance>();
  in->rng = traffic_rng(index);
  const auto start = Clock::now();
  {
    const ScopedSpan span(trace_, "setup");
    {
      const ScopedSpan s(trace_, "pubsub.construct");
      in->owned = std::make_unique<pubsub::PubSubSystem>(config_);
      in->system = in->owned.get();
    }
    {
      const ScopedSpan s(trace_, "pubsub.create_groups");
      in->system->create_groups(groups_);
    }
    init_model(*in);
    const auto warm = Clock::now();
    {
      const ScopedSpan s(trace_, "pubsub.warmup");
      std::size_t r = 0;
      for (std::size_t w = 0; w < spec_.warmup_windows; ++w) window(*in, r);
    }
    samples_.warmup_ms = ms_since(warm);
  }
  samples_.setup_s.push_back(ms_since(start) / 1e3);
  return in;
}

Plan SimRun::plan_batch(Instance& in) {
  Plan plan;
  Model& m = in.model;
  const std::size_t num_blocks =
      (spec_.hosts + spec_.block_hosts - 1) / spec_.block_hosts;
  std::vector<std::vector<std::uint32_t>> block_groups(num_blocks);
  for (std::uint32_t g = 0; g < m.members.size(); ++g) {
    if (m.live(g)) block_groups[m.block_of[g]].push_back(g);
  }
  std::set<std::uint32_t> used;
  for (std::size_t op = 0; op < spec_.ops_per_transition; ++op) {
    // fig3's one block takes every op; blocked memberships spread the ops
    // over distinct blocks.
    std::uint32_t block = 0;
    if (num_blocks > 1) {
      do {
        block = static_cast<std::uint32_t>(in.rng.next_below(num_blocks));
      } while (std::find(plan.blocks.begin(), plan.blocks.end(), block) !=
               plan.blocks.end());
    }
    if (std::find(plan.blocks.begin(), plan.blocks.end(), block) ==
        plan.blocks.end()) {
      plan.blocks.push_back(block);
    }
    const std::uint32_t base = block * static_cast<std::uint32_t>(spec_.block_hosts);
    const std::size_t hosts_in_block =
        std::min(spec_.block_hosts, spec_.hosts - base);
    std::vector<std::uint32_t> candidates;
    for (const std::uint32_t g : block_groups[block]) {
      if (!used.contains(g)) candidates.push_back(g);
    }
    const std::size_t kinds = spec_.all_kinds ? 4 : 2;
    std::size_t kind = in.op_counter++ % kinds;
    if (kind == 2 && block_groups[block].size() >= kMaxGroupsPerBlock) kind = 0;
    if (kind == 3 && (block_groups[block].size() <= kMinGroupsPerBlock ||
                      candidates.empty())) {
      kind = 1;
    }
    if (kind == 2) {  // create
      std::vector<std::uint32_t> pool(hosts_in_block);
      for (std::uint32_t h = 0; h < hosts_in_block; ++h) pool[h] = base + h;
      in.rng.shuffle(pool);
      pool.resize(static_cast<std::size_t>(in.rng.next_in(3, 6)));
      std::sort(pool.begin(), pool.end());
      std::vector<NodeId> members(pool.begin(), pool.end());
      plan.batch.push_back(Change::create(std::move(members)));
      plan.created.emplace_back(block, std::move(pool));
      continue;
    }
    if (kind == 3) {  // remove
      const std::uint32_t g = in.rng.pick(candidates);
      used.insert(g);
      plan.removed.insert(g);
      plan.batch.push_back(Change::remove(GroupId(g)));
      continue;
    }
    // Join where the group has room, otherwise leave where it keeps two.
    for (int attempt = 0; attempt < 2 && !candidates.empty(); ++attempt) {
      const bool join = (kind == 0) == (attempt == 0);
      std::vector<std::uint32_t> fit;
      for (const std::uint32_t g : candidates) {
        const std::size_t size = m.members[g].size();
        if (join ? size < hosts_in_block : size > 2) fit.push_back(g);
      }
      if (fit.empty()) continue;
      const std::uint32_t g = in.rng.pick(fit);
      std::vector<std::uint32_t> after = m.members[g];
      if (join) {
        std::uint32_t host;
        do {
          host = base + static_cast<std::uint32_t>(
                            in.rng.next_below(hosts_in_block));
        } while (std::binary_search(after.begin(), after.end(), host));
        after.insert(std::upper_bound(after.begin(), after.end(), host), host);
        plan.batch.push_back(Change::join(GroupId(g), NodeId(host)));
      } else {
        const std::uint32_t host = in.rng.pick(after);
        after.erase(std::find(after.begin(), after.end(), host));
        plan.batch.push_back(Change::leave(GroupId(g), NodeId(host)));
      }
      used.insert(g);
      plan.changed.emplace(g, std::move(after));
      break;
    }
  }
  return plan;
}

void SimRun::apply_plan(Instance& in, const Plan& plan,
                        const std::vector<GroupId>& created) {
  Model& m = in.model;
  for (const auto& [g, after] : plan.changed) {
    m.members[g] = after;
    m.set_of[g] = in.checker.add_set(after);
  }
  for (const std::uint32_t g : plan.removed) m.members[g].clear();
  if (created.size() != plan.created.size()) {
    outcome_.violate("reconfigure_async created " +
                     std::to_string(created.size()) + " group(s), asked for " +
                     std::to_string(plan.created.size()));
    return;
  }
  for (std::size_t i = 0; i < created.size(); ++i) {
    const std::uint32_t g = created[i].value();
    if (g >= m.members.size()) {
      m.members.resize(g + 1);
      m.set_of.resize(g + 1, 0);
      m.block_of.resize(g + 1, 0);
    }
    m.members[g] = plan.created[i].second;
    m.set_of[g] = in.checker.add_set(plan.created[i].second);
    m.block_of[g] = plan.created[i].first;
  }
}

void SimRun::check_gates(const Instance& in, const Plan& plan,
                         const std::vector<GroupId>& created,
                         const std::vector<std::size_t>& held_before) {
  // A transition re-lays only the overlap components it touched, and every
  // component stays inside one block, so only groups of the batch's blocks
  // (or groups it created) may have messages held at a cutover gate while
  // it drains. fig3_steady has one block, so there every group may be.
  const auto held = in.system->network().gate_held_by_group();
  std::uint64_t stalled = 0;
  for (std::uint32_t g = 0; g < held.size(); ++g) {
    const std::size_t before = g < held_before.size() ? held_before[g] : 0;
    if (held[g] <= before) continue;
    const bool inside =
        std::find(created.begin(), created.end(), GroupId(g)) != created.end() ||
        (g < in.model.block_of.size() &&
         std::find(plan.blocks.begin(), plan.blocks.end(),
                   in.model.block_of[g]) != plan.blocks.end());
    if (!inside) stalled += held[g] - before;
  }
  if (stalled > 0) {
    outcome_.violate("a transition's cutover gates held " +
                     std::to_string(stalled) +
                     " message(s) of groups outside the blocks it touched");
  }
}

void SimRun::round(Instance& in, bool with_transition) {
  pubsub::PubSubSystem& system = *in.system;
  Model& m = in.model;
  const auto round_index = static_cast<std::uint32_t>(in.round_end_ms.size());
  Plan plan;
  if (with_transition) plan = plan_batch(in);
  std::vector<std::uint32_t> targets;
  for (std::uint32_t g = 0; g < m.members.size(); ++g) {
    // A group removed this round gets no burst: a message still on its
    // ingress leg when the removal's FIN closes the group is refused.
    if (m.live(g) && !plan.removed.contains(g)) targets.push_back(g);
  }
  // The transition lands mid-burst, after the first half of the publishes:
  // those are still queued or on their ingress legs, so they may be
  // sequenced on either side of the cutover fence and may reach the old or
  // the new member set; the second half must reach the new one.
  const std::size_t split = with_transition ? targets.size() / 2 : targets.size();
  auto burst = [&](std::size_t from, std::size_t to, bool after_call) {
    const ScopedSpan span(trace_, "pubsub.publish");
    for (std::size_t i = from; i < to; ++i) {
      const std::uint32_t g = targets[i];
      const std::uint32_t sender = in.rng.pick(m.members[g]);
      const std::uint64_t key = in.next_key++;
      const auto changed = plan.changed.find(g);
      const std::uint32_t after = changed == plan.changed.end()
                                      ? m.set_of[g]
                                      : in.checker.add_set(changed->second);
      in.checker.sent(key, g, sender, after_call ? after : m.set_of[g], after);
      in.publish_ms.push_back(ms_since(in.origin));
      in.round_of.push_back(round_index);
      const MsgId id = system.publish(NodeId(sender), GroupId(g), key,
                                      body_.data(), body_.size());
      if (trace_.recording()) {
        in.ids.push_back(id);
        ++traced_publishes_;
      }
      ++outcome_.publishes;
    }
  };
  burst(0, split, false);
  double cutover = -1.0;
  std::vector<GroupId> created;
  std::vector<std::size_t> held_before;
  if (with_transition) {
    held_before = system.network().gate_held_by_group();
    const double at = system.simulator().now();
    const auto start = Clock::now();
    pubsub::PubSubSystem::ReconfigureResult result;
    {
      const ScopedSpan span(trace_, "pubsub.reconfigure_async");
      result = system.reconfigure_async(std::move(plan.batch));
    }
    const double wall = ms_since(start);
    created = result.created;
    // Probe transition_active() every kProbeStep simulated ms from here on.
    DrainProbe{&system, at, &cutover}();
    if (collect_) {
      samples_.reconfigure_ms.push_back(wall);
      samples_.delta_recomputed +=
          system.overlaps().build_stats().delta_recomputed;
      samples_.components_relaid += result.delta.components_relaid;
      samples_.atoms_created += result.delta.atoms_created;
      samples_.affected_groups += result.delta.affected_groups.size();
      samples_.fences += result.report.fences_outstanding;
      ++samples_.transitions;
    }
  }
  burst(split, targets.size(), true);
  {
    const ScopedSpan span(trace_, "pubsub.run");
    system.run();
  }
  in.round_end_ms.push_back(ms_since(in.origin));
  if (!with_transition) return;
  ++outcome_.transitions;
  if (system.transition_active() || cutover < 0.0) {
    ++outcome_.failed_transitions;
    outcome_.violate("a transition did not drain within its round");
  } else if (collect_) {
    samples_.cutover_ms.push_back(cutover);
  }
  check_gates(in, plan, created, held_before);
  apply_plan(in, plan, created);
}

void SimRun::window(Instance& in, std::size_t& round_index) {
  for (std::size_t r = 0; r < spec_.window_rounds; ++r, ++round_index) {
    const bool transition = spec_.transition_every > 0 &&
                            r % spec_.transition_every == 1;
    round(in, transition);
  }
}

void SimRun::check(Instance& in) {
  const auto& log = in.system->deliveries();
  for (const pubsub::Delivery& d : log) {
    in.checker.delivered(d.receiver.value(), d.payload, d.group.value(),
                         d.sender.value());
  }
  in.checker.finish(outcome_);
  stretch_.observe(*in.system, 0);
}

void SimRun::run(Metrics& metrics) {
  std::unique_ptr<Instance> last;
  const double budget_ms = options_.seconds * 1e3 / spec_.setups;
  for (std::size_t s = 0; s < spec_.setups; ++s) {
    auto in = set_up(s);
    pubsub::PubSubSystem& system = *in->system;
    const std::size_t warm_keys = in->next_key;
    const std::size_t warm_deliveries = system.deliveries().size();
    if (s == 0) {
      // peak_rss_mb is read after a fixed number of rounds and transitions
      // past the first set-up, before any timed window. It then covers
      // steady-state and churn state (reorder buffers, retired routes and
      // channels) but not the timed windows, whose delivery log grows with
      // throughput, so a faster program would read as a larger one.
      const ScopedSpan span(trace_, "rss_rounds");
      std::size_t r = 0;
      for (std::size_t w = 0; w < spec_.rss_windows; ++w) window(*in, r);
      for (std::size_t t = 0; t < spec_.tail_transitions; ++t) round(*in, true);
      samples_.peak_rss_mb = peak_rss_mb();
    }
    // Size the facade's logs and the benchmark's own per-message records
    // for twice the warm-up rate over the timed share, so their growth
    // (reallocation and copying) stays out of the timed windows.
    {
      const double per_ms = 2.0 * budget_ms / samples_.warmup_ms;
      const auto messages = static_cast<std::size_t>(
          static_cast<double>(warm_keys) * per_ms);
      const auto deliveries = static_cast<std::size_t>(
          static_cast<double>(warm_deliveries) * per_ms);
      system.reserve(in->next_key + messages,
                     system.deliveries().size() + deliveries);
      in->publish_ms.reserve(in->next_key + messages);
      in->round_of.reserve(in->next_key + messages);
      in->checker.reserve(in->next_key + messages);
      if (options_.trace) in->ids.reserve(in->next_key + messages);
    }
    const std::size_t log0 = system.deliveries().size();
    const std::size_t first_key = in->next_key;
    const std::size_t first_round = in->round_end_ms.size();
    collect_ = true;
    const auto allocs0 = allocations();
    const auto spills0 = sim::spill_pool_stats().fresh;
    const std::uint64_t events0 = system.simulator().events_fired();
    const std::uint64_t cancelled0 = system.simulator().timers_cancelled();
    const auto start = Clock::now();
    std::size_t round_index = 0;
    std::size_t windows = 0;
    while (ms_since(start) < budget_ms) {
      // The traced run alternates traced and untraced windows, so the two
      // rates see the same machine state; the difference is the overhead.
      const bool traced = options_.trace && windows % 2 == 0;
      trace_.set_recording(traced);
      const std::size_t d0 = system.deliveries().size();
      const auto w0 = Clock::now();
      {
        const ScopedSpan span(trace_, "window");
        window(*in, round_index);
      }
      const double wall = ms_since(w0);
      const double rate =
          static_cast<double>(system.deliveries().size() - d0) / wall * 1e3;
      (traced ? samples_.traced_window_rate : samples_.window_rate)
          .push_back(rate);
      ++windows;
    }
    trace_.set_recording(options_.trace);
    samples_.timed_allocs += allocations() - allocs0;
    samples_.spills += sim::spill_pool_stats().fresh - spills0;
    samples_.events += system.simulator().events_fired() - events0;
    samples_.cancelled += system.simulator().timers_cancelled() - cancelled0;
    const auto& log = system.deliveries();
    samples_.timed_deliveries += log.size() - log0;
    {
      std::vector<double> sim;
      sim.reserve(log.size() - log0);
      for (std::size_t i = log0; i < log.size(); ++i) {
        sim.push_back(log[i].delivered_at - log[i].sent_at);
      }
      samples_.sim_p50.push_back(band_quantile(sim, 0.50, kSimBand));
      samples_.sim_p99.push_back(band_quantile(sim, 0.99, kSimBand));
    }
    // Wall latency: a delivery becomes visible to the application when the
    // run() of its round returns, so all receivers of a message share one
    // latency; the quantiles weight each message by its deliveries.
    {
      std::vector<std::uint32_t> per_key(in->next_key - first_key, 0);
      for (std::size_t i = log0; i < log.size(); ++i) {
        if (log[i].payload >= first_key) ++per_key[log[i].payload - first_key];
      }
      std::vector<std::pair<double, std::uint32_t>> wall;
      std::uint64_t total = 0;
      for (std::size_t k = first_key; k < in->next_key; ++k) {
        if (in->round_of[k] < first_round || per_key[k - first_key] == 0) {
          continue;
        }
        wall.emplace_back(in->round_end_ms[in->round_of[k]] - in->publish_ms[k],
                          per_key[k - first_key]);
        total += per_key[k - first_key];
      }
      std::sort(wall.begin(), wall.end());
      auto weighted = [&](double q) {
        const auto target =
            static_cast<std::uint64_t>(q * static_cast<double>(total));
        std::uint64_t seen = 0;
        for (const auto& [ms, n] : wall) {
          seen += n;
          if (seen > target) return ms;
        }
        return wall.empty() ? 0.0 : wall.back().first;
      };
      samples_.wall_p50.push_back(weighted(0.50));
      samples_.wall_p90.push_back(weighted(0.90));
    }
    // Transitions after the timed windows (fig3_steady's giant component).
    for (std::size_t t = 0; t < spec_.tail_transitions; ++t) round(*in, true);
    collect_ = false;
    if (options_.trace && s + 1 == spec_.setups) collect_layers(*in, metrics);
    {
      const ScopedSpan span(trace_, "check");
      check(*in);
    }
    if (s + 1 == spec_.setups) last = std::move(in);
  }
  {
    const ScopedSpan span(trace_, "check.stretch");
    stretch_.finish(last->system->topology_graph(), outcome_);
  }

  if (options_.trace) {
    const double untraced = median(samples_.window_rate);
    const double traced = median(samples_.traced_window_rate);
    metrics.set("trace.overhead_pct", "%",
                100.0 * ratio(untraced - traced, untraced));
    metrics.set("pubsub.warmup_ms", "ms", samples_.warmup_ms);
    metrics.set("pubsub.reconfigure_p50_ms", "ms",
                median(samples_.reconfigure_ms));
    metrics.set("e2e.wall_latency_p50_ms", "ms", median(samples_.wall_p50));
    return;
  }
  metrics.set("setup_s", "s", median(samples_.setup_s));
  metrics.set("peak_rss_mb", "MB", samples_.peak_rss_mb);
  metrics.set("deliveries_per_s", "1/s",
              quantile(samples_.window_rate, spec_.rate_quantile));
  metrics.set("sim_latency_p50_ms", "ms", median(samples_.sim_p50));
  metrics.set("sim_latency_p99_ms", "ms", median(samples_.sim_p99));
  metrics.set("wall_latency_p90_ms", "ms", median(samples_.wall_p90));
  metrics.set("reconfigure_p90_ms", "ms",
              quantile(samples_.reconfigure_ms, kReconfigureQuantile));
  metrics.set("cutover_p50_ms", "ms", median(samples_.cutover_ms));
  std::printf("# %s: %zu set-ups, %zu timed windows, %llu timed deliveries, "
              "%zu transitions\n",
              spec_.name, samples_.setup_s.size(), samples_.window_rate.size(),
              static_cast<unsigned long long>(samples_.timed_deliveries),
              samples_.reconfigure_ms.size());
}

void SimRun::receiver_metrics(Instance& in, Metrics& metrics) {
  const pubsub::PubSubSystem& system = *in.system;
  double wait = 0.0;
  std::size_t max_buffered = 0;
  std::set<std::uint32_t> receivers;
  for (const auto& members : in.model.members) {
    receivers.insert(members.begin(), members.end());
  }
  for (const std::uint32_t r : receivers) {
    const protocol::Receiver& receiver = system.network().receiver(NodeId(r));
    wait += receiver.total_buffer_wait();
    max_buffered = std::max(max_buffered, receiver.max_buffered());
  }
  metrics.set("protocol.reorder_wait_ms_per_delivery", "ms",
              ratio(wait, static_cast<double>(system.deliveries().size())));
  metrics.set("protocol.reorder_max_buffered", "count",
              static_cast<double>(max_buffered));
}

void SimRun::collect_layers(Instance& in, Metrics& metrics) {
  pubsub::PubSubSystem& system = *in.system;
  shadow_compile(config_, groups_, trace_, metrics);

  const auto& oracle_stats = system.oracle().stats();
  metrics.set("topology.oracle_full_rows", "count",
              static_cast<double>(oracle_stats.full_rows));
  metrics.set("topology.oracle_cache_mb", "MB",
              static_cast<double>(system.oracle().cache_bytes()) / (1 << 20));

  const double transitions = static_cast<double>(samples_.transitions);
  metrics.set("membership.delta_recomputed", "count",
              ratio(static_cast<double>(samples_.delta_recomputed), transitions));
  metrics.set("seqgraph.components_relaid", "count",
              ratio(static_cast<double>(samples_.components_relaid), transitions));
  metrics.set("seqgraph.atoms_created", "count",
              ratio(static_cast<double>(samples_.atoms_created), transitions));
  metrics.set("pubsub.affected_groups", "count",
              ratio(static_cast<double>(samples_.affected_groups), transitions));
  metrics.set("protocol.fences_per_transition", "count",
              ratio(static_cast<double>(samples_.fences), transitions));

  std::size_t path_atoms = 0, paths = 0;
  for (const GroupId g : system.membership().live_groups()) {
    if (!system.graph().has_path(g)) continue;
    path_atoms += system.graph().path(g).size();
    ++paths;
  }
  metrics.set("seqgraph.atoms_per_path", "count",
              ratio(static_cast<double>(path_atoms), static_cast<double>(paths)));
  metrics.set("placement.seq_nodes", "count",
              static_cast<double>(system.assignment().num_nodes()));

  // Per-message phases of the traced windows' messages.
  std::vector<double> sequencing, distribution;
  std::uint64_t stamps = 0;
  std::unordered_map<std::uint64_t, double> exited;
  for (const MsgId id : in.ids) {
    const protocol::MessageRecord& r = system.record(id);
    stamps += r.stamps;
    if (r.exited_at) {
      sequencing.push_back(*r.exited_at - r.published_at);
      exited.emplace(id.value(), *r.exited_at);
    }
  }
  for (const pubsub::Delivery& d : system.deliveries()) {
    const auto it = exited.find(d.message.value());
    if (it != exited.end()) distribution.push_back(d.delivered_at - it->second);
  }
  metrics.set("protocol.stamps_per_message", "count",
              ratio(static_cast<double>(stamps), static_cast<double>(in.ids.size())));
  metrics.set("protocol.sequencing_p50_ms", "ms", median(sequencing));
  metrics.set("protocol.distribution_p50_ms", "ms", median(distribution));

  receiver_metrics(in, metrics);
  const auto& load = system.network().seqnode_load();
  metrics.set("protocol.seqnode_load_max", "ratio",
              ratio(load.empty() ? 0.0
                                 : static_cast<double>(
                                       *std::max_element(load.begin(), load.end())),
                    static_cast<double>(system.network().published())));
  std::size_t held = 0;
  for (const std::size_t h : system.network().gate_held_by_group()) held += h;
  metrics.set("protocol.gate_held", "count", static_cast<double>(held));
  metrics.set("protocol.routing_table_kb", "KB",
              static_cast<double>(system.network().routing_table_bytes()) / 1024.0);

  const double delivered = static_cast<double>(samples_.timed_deliveries);
  metrics.set("pubsub.allocs_per_delivery", "count",
              ratio(static_cast<double>(samples_.timed_allocs), delivered));
  metrics.set("sim.events_per_delivery", "count",
              ratio(static_cast<double>(samples_.events), delivered));
  metrics.set("sim.timers_cancelled_per_delivery", "count",
              ratio(static_cast<double>(samples_.cancelled), delivered));
  metrics.set("sim.callback_spills", "count", static_cast<double>(samples_.spills));

  const auto run_span = trace_.totals("pubsub.run");
  metrics.set("pubsub.run_ms", "ms",
              ratio(run_span.total_ms, static_cast<double>(run_span.count)));
  // The windows' self time is the benchmark's own work between its calls
  // into the program (model upkeep, timestamps, window bookkeeping).
  const auto window_span = trace_.totals("window");
  metrics.set("trace.bench_self_pct", "%",
              100.0 * ratio(window_span.self_ms, window_span.total_ms));
  const auto publish_span = trace_.totals("pubsub.publish");
  metrics.set("pubsub.publish_us", "us",
              ratio(publish_span.total_ms * 1e3,
                    static_cast<double>(traced_publishes_)));

  // Codec sample: one more round delivers real messages (stamps included)
  // to a callback.
  std::vector<protocol::Message> sample;
  system.set_delivery_callback(
      [&sample](NodeId, const protocol::Message& m, sim::Time) {
        if (sample.size() < 4096) sample.push_back(m);
      });
  round(in, false);
  system.set_delivery_callback({});
  if (time_codecs(sample, trace_, metrics) > 0) {
    outcome_.violate("codec round trips did not reproduce their input");
  }
}

TwinResult SimRun::twin(pubsub::PubSubSystem& system, std::size_t rounds,
                       std::size_t transitions, std::size_t stream) {
  Instance in;
  in.rng = traffic_rng(stream);
  in.system = &system;
  init_model(in);
  collect_ = true;
  for (std::size_t r = 0; r < rounds; ++r) round(in, false);
  TwinResult result;
  const auto& log = system.deliveries();
  for (const pubsub::Delivery& d : log) {
    result.sim_latency.push_back(d.delivered_at - d.sent_at);
  }
  for (std::size_t t = 0; t < transitions; ++t) round(in, true);
  collect_ = false;
  check(in);
  stretch_.finish(system.topology_graph(), outcome_);
  result.reconfigure_ms = samples_.reconfigure_ms;
  result.cutover_ms = samples_.cutover_ms;
  return result;
}

}  // namespace

TwinResult run_sim_twin(pubsub::PubSubSystem& system,
                        const std::vector<std::vector<NodeId>>& groups,
                        std::size_t rounds, std::size_t transitions,
                        std::size_t stream, const Options& options,
                        Outcome& outcome, Trace& trace) {
  SimRun run(kFig3Spec, groups, options, outcome, trace);
  return run.twin(system, rounds, transitions, stream);
}

void run_fig3_steady(const Options& options, Metrics& metrics,
                     Outcome& outcome, Trace& trace) {
  SimRun run(kFig3Spec, fig3_groups(), options, outcome, trace);
  run.run(metrics);
}

void run_live_churn(const Options& options, Metrics& metrics,
                    Outcome& outcome, Trace& trace) {
  const SimSpec spec{.name = "live_churn",
                     .hosts = 2048,
                     .clusters = 512,
                     .block_hosts = 16,
                     .window_rounds = 4,
                     .warmup_windows = 2,
                     .transition_every = 4,
                     .ops_per_transition = 8,
                     .all_kinds = true,
                     .tail_transitions = 0,
                     .rss_windows = 32,
                     .rate_quantile = 0.5};
  SimRun run(spec, blocked_groups(128, 16, 4), options, outcome,
             trace);
  run.run(metrics);
}

}  // namespace perfbench
