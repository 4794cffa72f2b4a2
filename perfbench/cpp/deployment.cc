#include "deployment.h"

#include <algorithm>
#include <memory>

#include "common/rng.h"
#include "membership/generators.h"
#include "membership/membership.h"
#include "membership/overlap.h"
#include "placement/assignment.h"
#include "placement/colocation.h"
#include "protocol/codec.h"
#include "protocol/network.h"
#include "seqgraph/graph.h"
#include "sim/simulator.h"
#include "topology/hosts.h"
#include "topology/shortest_path.h"
#include "topology/transit_stub.h"
#include "transport/frame.h"
#include "workloads.h"

namespace perfbench {

using namespace decseq;

pubsub::SystemConfig deployment_config(std::size_t hosts,
                                       std::size_t clusters) {
  // Topology, channel and runtime defaults: 10,000 routers, the classic
  // single-threaded runtime.
  pubsub::SystemConfig config;
  config.seed = kDeploymentSeed;
  config.hosts.num_hosts = hosts;
  config.hosts.num_clusters = clusters;
  return config;
}

std::vector<std::vector<NodeId>> zipf_groups(std::size_t hosts,
                                             std::size_t groups) {
  Rng rng(kDeploymentSeed);
  const membership::ZipfWorkloadParams params{
      .num_nodes = hosts, .num_groups = groups, .exponent = 1.0, .scale = 1.0};
  const auto snapshot = membership::zipf_membership(params, rng);
  std::vector<std::vector<NodeId>> lists;
  for (const GroupId g : snapshot.live_groups()) {
    lists.push_back(snapshot.members(g));
  }
  return lists;
}

std::vector<std::vector<NodeId>> blocked_groups(std::size_t blocks,
                                                std::size_t block_hosts,
                                                std::size_t groups_per_block) {
  Rng rng(kDeploymentSeed + 1);
  std::vector<std::vector<NodeId>> lists;
  std::vector<std::uint32_t> pool(block_hosts);
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t i = 0; i < groups_per_block; ++i) {
      for (std::size_t h = 0; h < block_hosts; ++h) {
        pool[h] = static_cast<std::uint32_t>(b * block_hosts + h);
      }
      rng.shuffle(pool);
      const auto size = static_cast<std::size_t>(rng.next_in(4, 8));
      std::vector<NodeId> members;
      for (std::size_t m = 0; m < size; ++m) members.emplace_back(pool[m]);
      std::sort(members.begin(), members.end());
      lists.push_back(std::move(members));
    }
  }
  return lists;
}

void shadow_compile(const pubsub::SystemConfig& config,
                    const std::vector<std::vector<NodeId>>& groups,
                    Trace& trace, Metrics& metrics) {
  const ScopedSpan compile(trace, "setup.shadow_compile");
  Rng rng(config.seed);
  const auto timed = [&](const char* name, auto&& fn) {
    const auto start = Clock::now();
    {
      const ScopedSpan span(trace, name);
      fn();
    }
    return ms_since(start);
  };

  std::unique_ptr<topology::TransitStubTopology> topo;
  std::unique_ptr<topology::HostMap> hosts;
  metrics.set("topology.build_ms", "ms", timed("topology.build", [&] {
    topo = std::make_unique<topology::TransitStubTopology>(
        topology::generate_transit_stub(config.topology, rng));
    hosts = std::make_unique<topology::HostMap>(
        topology::attach_hosts(*topo, config.hosts, rng));
  }));
  std::unique_ptr<topology::DistanceOracle> oracle;
  timed("topology.oracle", [&] {
    oracle = std::make_unique<topology::DistanceOracle>(topo->graph);
  });

  membership::GroupMembership membership(config.hosts.num_hosts);
  for (const auto& members : groups) membership.add_group(members);
  std::unique_ptr<membership::OverlapIndex> overlaps;
  metrics.set("membership.overlap_build_ms", "ms",
              timed("membership.overlap_build", [&] {
                overlaps =
                    std::make_unique<membership::OverlapIndex>(membership);
              }));
  metrics.set("membership.pair_increments", "count",
              static_cast<double>(overlaps->build_stats().pair_increments));

  std::vector<std::size_t> labels;
  metrics.set("placement.colocate_ms", "ms", timed("placement.colocate", [&] {
    labels = placement::colocate_overlaps(*overlaps, config.colocation, rng);
  }));
  seqgraph::BuildScratch scratch;
  std::unique_ptr<seqgraph::SequencingGraph> graph;
  metrics.set("seqgraph.build_ms", "ms", timed("seqgraph.build", [&] {
    seqgraph::BuildOptions options = config.graph;
    options.colocation_labels = &labels;
    options.scratch = &scratch;
    graph = std::make_unique<seqgraph::SequencingGraph>(
        seqgraph::build_sequencing_graph(membership, *overlaps, options));
  }));
  std::unique_ptr<placement::Colocation> colocation;
  std::unique_ptr<placement::Assignment> assignment;
  metrics.set("placement.assign_ms", "ms", timed("placement.assign", [&] {
    colocation = std::make_unique<placement::Colocation>(
        placement::apply_labels(*graph, labels));
    assignment = std::make_unique<placement::Assignment>(
        placement::assign_machines(*graph, *colocation, membership, *hosts,
                                   topo->graph, config.assignment, rng));
  }));

  sim::Simulator sim;
  std::unique_ptr<protocol::SequencingNetwork> network;
  metrics.set("protocol.network_build_ms", "ms",
              timed("protocol.network_build", [&] {
                network = std::make_unique<protocol::SequencingNetwork>(
                    sim, rng, *graph, *colocation, *assignment, membership,
                    *hosts, *oracle, config.network, &topo->graph);
              }));
}

std::uint64_t time_codecs(const std::vector<protocol::Message>& sample,
                          Trace& trace, Metrics& metrics) {
  if (sample.empty()) return 0;
  // Repeat whole passes over the sample until 50 ms have passed, so one
  // reading is not one cache-cold pass.
  std::vector<std::vector<std::uint8_t>> wire(sample.size());
  std::uint64_t rejected = 0;
  auto passes = [&](auto&& pass) {
    const auto start = Clock::now();
    std::uint64_t n = 0;
    do {
      pass();
      n += sample.size();
    } while (ms_since(start) < 50.0);
    return ms_since(start) * 1e6 / static_cast<double>(n);
  };
  {
    const ScopedSpan span(trace, "protocol.codec");
    metrics.set("protocol.codec_ns", "ns", passes([&] {
      for (std::size_t i = 0; i < sample.size(); ++i) {
        wire[i] = protocol::encode_message(sample[i]);
        const auto decoded = protocol::decode_message(wire[i]);
        if (!decoded || decoded->stamps.size() != sample[i].stamps.size()) {
          ++rejected;
        }
      }
    }));
  }
  {
    const ScopedSpan span(trace, "transport.frame_codec");
    metrics.set("transport.frame_codec_ns", "ns", passes([&] {
      for (std::size_t i = 0; i < sample.size(); ++i) {
        const auto frame = transport::encode_frame(
            transport::FrameType::kData, 0, static_cast<transport::EdgeId>(i),
            i, wire[i].data(), wire[i].size());
        const auto decoded = transport::decode_frame(frame.data(), frame.size());
        if (!decoded || decoded->payload_size != wire[i].size()) ++rejected;
      }
    }));
  }
  return rejected;
}

void declare_layer_metrics(Metrics& m) {
  for (const char* name :
       {"topology.build_ms", "membership.overlap_build_ms", "seqgraph.build_ms",
        "placement.colocate_ms", "placement.assign_ms",
        "protocol.network_build_ms", "protocol.sequencing_p50_ms",
        "protocol.distribution_p50_ms", "protocol.reorder_wait_ms_per_delivery",
        "pubsub.run_ms", "pubsub.warmup_ms", "pubsub.reconfigure_p50_ms",
        "app.generator_lag_p99_ms", "app.wall_latency_p99_ms",
        "e2e.wall_latency_p50_ms"}) {
    m.set(name, "ms", 0.0);
  }
  for (const char* name :
       {"topology.oracle_full_rows", "membership.pair_increments",
        "membership.delta_recomputed", "seqgraph.atoms_per_path",
        "seqgraph.components_relaid", "seqgraph.atoms_created",
        "placement.seq_nodes", "protocol.stamps_per_message",
        "protocol.reorder_max_buffered", "protocol.gate_held",
        "protocol.fences_per_transition", "pubsub.allocs_per_delivery",
        "pubsub.affected_groups", "sim.events_per_delivery",
        "sim.timers_cancelled_per_delivery", "sim.callback_spills",
        "transport.datagrams_per_delivery",
        "transport.send_errors", "transport.rejected_frames",
        "app.forwards_per_delivery", "trace.spans"}) {
    m.set(name, "count", 0.0);
  }
  m.set("topology.oracle_cache_mb", "MB", 0.0);
  m.set("protocol.seqnode_load_max", "ratio", 0.0);
  m.set("protocol.routing_table_kb", "KB", 0.0);
  m.set("protocol.codec_ns", "ns", 0.0);
  m.set("transport.frame_codec_ns", "ns", 0.0);
  m.set("pubsub.publish_us", "us", 0.0);
  m.set("transport.poll_us_per_delivery", "us", 0.0);
  m.set("app.publish_us", "us", 0.0);
  m.set("trace.overhead_pct", "%", 0.0);
  m.set("trace.bench_self_pct", "%", 0.0);
}

}  // namespace perfbench
