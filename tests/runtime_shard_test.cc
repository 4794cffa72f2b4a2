// Sharded runtime (runtime/shard_plan.h, runtime/sharded_engine.h, the
// `shards` SystemConfig knob): the headline guarantee is that the delivery
// log under N worker shards is byte-identical to the single-shard run for
// every N, and — on scenarios where the legacy path draws the same RNG
// stream (no channel loss) — identical to the classic single-threaded
// runtime too. Scenarios cover overlapping groups, island groups, causal
// chains, FIN termination, sequencer crash/recovery, publisher crashes,
// lossy channels, and membership reconfiguration.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "metrics/logio.h"
#include "pubsub/system.h"
#include "runtime/shard_plan.h"
#include "tests/test_util.h"

namespace decseq {
namespace {

using pubsub::PubSubSystem;
using test::N;

// --- ShardPlan structure -------------------------------------------------

/// Two overlap chains plus one island: units must be {g0,g1}, {g2,g3},
/// {g4} regardless of the shard count.
PubSubSystem make_three_unit_system(std::uint64_t seed = 11) {
  PubSubSystem system(test::small_config(seed, /*num_hosts=*/12));
  // Double overlaps need >= 2 shared members (membership/overlap.h).
  system.create_groups({{N(0), N(1), N(2), N(3)},
                        {N(2), N(3), N(4), N(5)},
                        {N(6), N(7), N(8)},
                        {N(7), N(8), N(9)},
                        {N(10), N(11)}});
  return system;
}

TEST(ShardPlan, UnitsAreOverlapComponents) {
  auto system = make_three_unit_system();
  const auto plan = runtime::build_shard_plan(system.graph(),
                                              system.membership(), 4);
  ASSERT_EQ(plan.num_units, 3u);
  EXPECT_EQ(plan.unit(GroupId(0)), plan.unit(GroupId(1)))
      << "overlapping groups share a unit";
  EXPECT_EQ(plan.unit(GroupId(2)), plan.unit(GroupId(3)));
  EXPECT_NE(plan.unit(GroupId(0)), plan.unit(GroupId(2)));
  EXPECT_NE(plan.unit(GroupId(0)), plan.unit(GroupId(4)));
  EXPECT_NE(plan.unit(GroupId(2)), plan.unit(GroupId(4)));
  // Dense ids in ascending-group-id discovery order, keyed by the smallest
  // group id of the unit.
  EXPECT_EQ(plan.unit(GroupId(0)), 0u);
  EXPECT_EQ(plan.unit(GroupId(2)), 1u);
  EXPECT_EQ(plan.unit(GroupId(4)), 2u);
  EXPECT_EQ(plan.unit_key, (std::vector<std::uint32_t>{0, 2, 4}));
}

TEST(ShardPlan, UnitIdsAreShardCountInvariant) {
  auto system = make_three_unit_system();
  const auto one = runtime::build_shard_plan(system.graph(),
                                             system.membership(), 1);
  const auto eight = runtime::build_shard_plan(system.graph(),
                                               system.membership(), 8);
  EXPECT_EQ(one.unit_of_group, eight.unit_of_group);
  EXPECT_EQ(one.unit_of_atom, eight.unit_of_atom);
  EXPECT_EQ(one.unit_key, eight.unit_key);
}

TEST(ShardPlan, ShardCountClampsToUnits) {
  auto system = make_three_unit_system();
  const auto plan = runtime::build_shard_plan(system.graph(),
                                              system.membership(), 8);
  EXPECT_EQ(plan.num_shards, 3u) << "more shards than units is pointless";
  for (const std::uint32_t s : plan.shard_of_unit) EXPECT_LT(s, 3u);
}

TEST(ShardPlan, EveryShardGetsWork) {
  auto system = make_three_unit_system();
  const auto plan = runtime::build_shard_plan(system.graph(),
                                              system.membership(), 2);
  ASSERT_EQ(plan.num_shards, 2u);
  std::vector<bool> used(plan.num_shards, false);
  for (const std::uint32_t s : plan.shard_of_unit) used[s] = true;
  for (std::size_t s = 0; s < used.size(); ++s) {
    EXPECT_TRUE(used[s]) << "LPT left shard " << s << " empty";
  }
}

// --- End-to-end determinism ----------------------------------------------

struct ScenarioOptions {
  double loss = 0.0;
  bool causal = false;
  bool fin = false;
  bool crash_sequencer = false;
  bool crash_publisher = false;
  bool reconfigure = false;
};

/// The workload: five groups in three overlap units, 40 scattered
/// publishes, and whatever faults the options switch on. Returns the
/// serialized delivery log (byte-comparable across runs).
std::string run_scenario(std::uint64_t seed, std::size_t shards,
                         const ScenarioOptions& opt) {
  auto config = test::small_config(seed, /*num_hosts=*/12);
  config.shards = shards;
  config.network.channel.loss_probability = opt.loss;
  config.network.channel.retransmit_timeout_ms = 40.0;
  config.network.channel.max_retransmits = 1000;
  PubSubSystem system(config);
  const auto groups = system.create_groups({{N(0), N(1), N(2), N(3)},
                                            {N(2), N(3), N(4), N(5)},
                                            {N(6), N(7), N(8)},
                                            {N(7), N(8), N(9)},
                                            {N(10), N(11)}});
  auto& sim = system.simulator();
  Rng rng(seed + 5);
  for (int i = 0; i < 40; ++i) {
    const GroupId g = groups[rng.next_below(groups.size())];
    const NodeId sender = rng.pick(system.membership().members(g));
    double at = rng.next_double() * 400.0;
    // Publishing to a terminated group is a contract violation; keep the
    // FIN'd group's traffic before its termination instant.
    if (opt.fin && g == groups[3]) at = rng.next_double() * 140.0;
    sim.schedule_at(at, [&system, sender, g, i] {
      system.publish(sender, g, static_cast<std::uint64_t>(i));
    });
  }
  if (opt.causal) {
    // Chains on two different units; each release gates the next publish
    // on the previous delivery, forcing the lockstep fence protocol.
    for (std::uint64_t i = 0; i < 4; ++i) {
      system.publish_causal(N(3), groups[0], 1000 + i);
      system.publish_causal(N(8), groups[2], 2000 + i);
    }
  }
  if (opt.fin) {
    sim.schedule_at(150.0,
                    [&system, g = groups[3]] { system.terminate_group(g, N(8)); });
  }
  if (opt.crash_sequencer) {
    const SeqNodeId ingress =
        system.colocation().node_of(system.graph().path(groups[0]).front());
    sim.schedule_at(50.0,
                    [&system, ingress] { system.fail_sequencing_node(ingress); });
    sim.schedule_at(250.0, [&system, ingress] {
      system.recover_sequencing_node(ingress);
    });
  }
  if (opt.crash_publisher) {
    sim.schedule_at(100.0, [&system] { system.fail_publisher(N(0)); });
    sim.schedule_at(300.0, [&system] { system.recover_publisher(N(0)); });
  }
  system.run();
  if (opt.reconfigure) {
    // Epoch boundary: rebuild the graph (and the engine) live, then push a
    // second wave of traffic through the new epoch.
    system.reconfigure({PubSubSystem::MembershipChange::join(groups[4], N(9)),
                        PubSubSystem::MembershipChange::create({N(1), N(10)})});
    for (int i = 0; i < 10; ++i) {
      GroupId g = groups[rng.next_below(groups.size())];
      // A FIN'd group is gone after the membership op cleans it up.
      if (opt.fin && g == groups[3]) g = groups[0];
      const NodeId sender = rng.pick(system.membership().members(g));
      system.publish(sender, g, static_cast<std::uint64_t>(100 + i));
    }
    system.run();
  }
  std::stringstream out;
  metrics::write_delivery_log(system.deliveries(), out);
  return out.str();
}

/// Assert logs at shard counts {1, 2, 4} are byte-identical.
void expect_shard_count_invariant(std::uint64_t seed,
                                  const ScenarioOptions& opt) {
  const std::string one = run_scenario(seed, 1, opt);
  EXPECT_GT(one.size(), 100u) << "scenario must actually deliver";
  EXPECT_EQ(one, run_scenario(seed, 2, opt)) << "1 vs 2 shards, seed " << seed;
  EXPECT_EQ(one, run_scenario(seed, 4, opt)) << "1 vs 4 shards, seed " << seed;
}

TEST(ShardedRuntime, PlainTrafficMatchesAcrossShardCounts) {
  for (const std::uint64_t seed : {1ull, 9ull, 42ull}) {
    expect_shard_count_invariant(seed, {});
  }
}

TEST(ShardedRuntime, PlainTrafficMatchesLegacyRuntime) {
  // loss == 0 draws nothing from the channel RNG, so the legacy shared
  // stream and the per-unit streams are indistinguishable — the sharded
  // log must equal the classic single-threaded one byte for byte.
  for (const std::uint64_t seed : {1ull, 9ull, 42ull}) {
    const std::string legacy = run_scenario(seed, 0, {});
    EXPECT_EQ(legacy, run_scenario(seed, 1, {})) << "seed " << seed;
    EXPECT_EQ(legacy, run_scenario(seed, 4, {})) << "seed " << seed;
  }
}

TEST(ShardedRuntime, LossyChannelsMatchAcrossShardCounts) {
  ScenarioOptions opt;
  opt.loss = 0.1;  // exercises the per-unit channel RNG streams
  expect_shard_count_invariant(17, opt);
}

TEST(ShardedRuntime, CausalChainsMatchAcrossShardCounts) {
  ScenarioOptions opt;
  opt.causal = true;
  expect_shard_count_invariant(23, opt);
}

TEST(ShardedRuntime, CausalChainsMatchLegacyRuntime) {
  ScenarioOptions opt;
  opt.causal = true;
  const std::string legacy = run_scenario(23, 0, opt);
  EXPECT_EQ(legacy, run_scenario(23, 1, opt));
  EXPECT_EQ(legacy, run_scenario(23, 4, opt));
}

TEST(ShardedRuntime, FinTerminationMatchesAcrossShardCounts) {
  ScenarioOptions opt;
  opt.fin = true;
  expect_shard_count_invariant(31, opt);
}

TEST(ShardedRuntime, SequencerCrashMatchesAcrossShardCounts) {
  ScenarioOptions opt;
  opt.crash_sequencer = true;
  expect_shard_count_invariant(37, opt);
}

TEST(ShardedRuntime, PublisherCrashMatchesAcrossShardCounts) {
  ScenarioOptions opt;
  opt.crash_publisher = true;
  opt.causal = true;  // exercises the failed-causal chain drop
  expect_shard_count_invariant(41, opt);
}

TEST(ShardedRuntime, ReconfigureMatchesAcrossShardCounts) {
  ScenarioOptions opt;
  opt.reconfigure = true;
  expect_shard_count_invariant(47, opt);
}

TEST(ShardedRuntime, EverythingAtOnceMatchesAcrossShardCounts) {
  ScenarioOptions opt;
  opt.loss = 0.05;
  opt.causal = true;
  opt.fin = true;
  opt.crash_sequencer = true;
  opt.reconfigure = true;
  expect_shard_count_invariant(53, opt);
}

TEST(ShardedRuntime, ShardedLogIsOrderConsistent) {
  ScenarioOptions opt;
  opt.loss = 0.1;
  opt.causal = true;
  auto config = test::small_config(53, /*num_hosts=*/12);
  config.shards = 4;
  config.network.channel.loss_probability = opt.loss;
  config.network.channel.retransmit_timeout_ms = 40.0;
  PubSubSystem system(config);
  const auto groups = system.create_groups({{N(0), N(1), N(2), N(3)},
                                            {N(2), N(3), N(4), N(5)},
                                            {N(6), N(7), N(8)}});
  Rng rng(99);
  for (int i = 0; i < 30; ++i) {
    const GroupId g = groups[rng.next_below(groups.size())];
    system.publish(rng.pick(system.membership().members(g)), g,
                   static_cast<std::uint64_t>(i));
  }
  system.publish_causal(N(3), groups[0], 777);
  system.publish_causal(N(3), groups[0], 778);
  system.run();
  EXPECT_GE(system.deliveries().size(), 30u);
  const auto violation = test::find_order_violation(system.deliveries());
  EXPECT_FALSE(violation.has_value()) << *violation;
}

TEST(ShardedRuntime, EngineIsExposedAndClamped) {
  auto config = test::small_config(7, /*num_hosts=*/12);
  config.shards = 16;
  PubSubSystem system(config);
  system.create_groups({{N(0), N(1)}, {N(2), N(3)}});
  ASSERT_NE(system.engine(), nullptr);
  EXPECT_EQ(system.engine()->num_shards(), 2u) << "clamped to 2 units";
  system.publish(N(0), GroupId(0), 1);
  system.run();
  EXPECT_EQ(system.deliveries().size(), 2u);

  pubsub::PubSubSystem legacy(test::small_config(7, 12));
  EXPECT_EQ(legacy.engine(), nullptr);
}

TEST(ShardedRuntime, UnitRngsStayPutWhenThePlanGrows) {
  // Channels hold references to their unit's RNG stream, so growing the
  // plan (a reconfiguration adding units) must never move an existing one.
  auto config = test::small_config(7, /*num_hosts=*/12);
  config.shards = 2;
  PubSubSystem system(config);
  system.create_groups({{N(0), N(1)}, {N(2), N(3)}});
  const runtime::ShardedEngine* engine = system.engine();
  ASSERT_NE(engine, nullptr);
  const std::uint32_t units = engine->plan().num_units;
  std::vector<const Rng*> before;
  for (std::uint32_t u = 0; u < units; ++u) {
    before.push_back(&engine->unit_rng(u));
  }
  using Change = PubSubSystem::MembershipChange;
  std::vector<Change> batch;
  for (unsigned h = 4; h + 1 < 12; h += 2) {
    batch.push_back(Change::create({N(h), N(h + 1)}));
  }
  system.reconfigure_async(std::move(batch));
  system.run();
  ASSERT_EQ(engine->plan().num_units, units + 4);
  for (std::uint32_t u = 0; u < units; ++u) {
    EXPECT_EQ(&engine->unit_rng(u), before[u]) << "unit " << u << " moved";
  }
}

TEST(ShardedRuntime, IntrospectionMergesAcrossShards) {
  // seqnode_load / deliveries(node) / channel_faults must read the same
  // whether the state lives on one simulator or is merged across shards.
  ScenarioOptions opt;
  opt.loss = 0.0;
  auto build = [&](std::size_t shards) {
    auto config = test::small_config(61, /*num_hosts=*/12);
    config.shards = shards;
    auto system = std::make_unique<PubSubSystem>(config);
    const auto groups = system->create_groups({{N(0), N(1), N(2), N(3)},
                                               {N(2), N(3), N(4), N(5)},
                                               {N(6), N(7), N(8)}});
    Rng rng(5);
    for (int i = 0; i < 20; ++i) {
      const GroupId g = groups[rng.next_below(groups.size())];
      system->publish(rng.pick(system->membership().members(g)), g,
                      static_cast<std::uint64_t>(i));
    }
    system->run();
    return system;
  };
  const auto legacy = build(0);
  const auto sharded = build(4);
  EXPECT_EQ(legacy->network().seqnode_load(), sharded->network().seqnode_load());
  for (unsigned n = 0; n < 12; ++n) {
    EXPECT_EQ(legacy->network().deliveries(N(n)),
              sharded->network().deliveries(N(n)))
        << "node " << n;
  }
  EXPECT_EQ(legacy->network().buffered_at_receivers(),
            sharded->network().buffered_at_receivers());
}

TEST(ShardedRuntime, TracingIsRejectedInShardedMode) {
  auto config = test::small_config(3, /*num_hosts=*/8);
  config.shards = 2;
  PubSubSystem system(config);
  const GroupId g = system.create_group({N(0), N(1)});
  system.network_mutable().tracer().enable();
  EXPECT_THROW(system.publish(N(0), g, 1), CheckFailure);
}

}  // namespace
}  // namespace decseq
