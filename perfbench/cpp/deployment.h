// Inputs shared by the workloads: the paper's deployment, the generated
// memberships, and layer measurements that several workloads take the
// same way (the shadow compile and the codec timings).
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "protocol/message.h"
#include "pubsub/system.h"
#include "trace.h"
#include "util.h"

namespace perfbench {

/// The §4.1 deployment: 10,000-router transit-stub topology, `hosts` hosts
/// in `clusters` clusters, on the fixed deployment seed. The deployment and
/// the initial membership are the same in every run; --seed draws the
/// traffic (which member publishes) and the membership batches, so the
/// runs of one workload measure one system under varied traffic.
[[nodiscard]] decseq::pubsub::SystemConfig deployment_config(
    std::size_t hosts, std::size_t clusters);

/// Member lists of `groups` Zipf(1) groups over `hosts` hosts, drawn on
/// the deployment seed.
[[nodiscard]] std::vector<std::vector<decseq::NodeId>> zipf_groups(
    std::size_t hosts, std::size_t groups);

/// fig3_steady's initial membership (udp_loopback deploys the same one).
[[nodiscard]] inline std::vector<std::vector<decseq::NodeId>> fig3_groups() {
  return zipf_groups(128, 64);
}
/// fig3_steady's deployment: 128 hosts in 32 clusters.
[[nodiscard]] inline decseq::pubsub::SystemConfig fig3_config() {
  return deployment_config(128, 32);
}

/// Blocked membership: `blocks` disjoint blocks of `block_hosts` hosts,
/// each holding `groups_per_block` groups of 4..8 random block hosts, so
/// every overlap component stays inside one block. Drawn on the deployment
/// seed.
[[nodiscard]] std::vector<std::vector<decseq::NodeId>> blocked_groups(
    std::size_t blocks, std::size_t block_hosts, std::size_t groups_per_block);

/// Re-run the epoch compile through each layer's public entry point, on the
/// same config and member lists the system was built from, and time every
/// stage as a span: topology, distance oracle, overlap index, colocation,
/// sequencing graph, machine assignment and network build.
/// Sets topology.build_ms, membership.overlap_build_ms,
/// membership.pair_increments, placement.colocate_ms, seqgraph.build_ms,
/// placement.assign_ms and protocol.network_build_ms.
void shadow_compile(const decseq::pubsub::SystemConfig& config,
                    const std::vector<std::vector<decseq::NodeId>>& groups,
                    Trace& trace, Metrics& metrics);

/// Time encode+decode of `sample` through the message codec and, with the
/// encoded bytes as payload, through the transport frame codec. Sets
/// protocol.codec_ns and transport.frame_codec_ns (per message). Returns
/// how many round trips did not reproduce their input.
std::uint64_t time_codecs(const std::vector<decseq::protocol::Message>& sample,
                          Trace& trace, Metrics& metrics);

/// What the simulator twin of a deployment measured.
struct TwinResult {
  std::vector<double> sim_latency;
  std::vector<double> reconfigure_ms;
  std::vector<double> cutover_ms;
};

/// Drive fig3_steady's rounds on `system` (a fresh classic system holding
/// `groups`): `rounds` plain rounds, then `transitions` rounds with a
/// mid-burst membership transition, with the same correctness checks.
/// `stream` picks the traffic stream, as the set-up index does in a
/// fig3_steady run.
TwinResult run_sim_twin(decseq::pubsub::PubSubSystem& system,
                        const std::vector<std::vector<decseq::NodeId>>& groups,
                        std::size_t rounds, std::size_t transitions,
                        std::size_t stream, const Options& options,
                        Outcome& outcome, Trace& trace);

/// Zero every per-layer metric, so a layer a workload never reaches reads 0.
void declare_layer_metrics(Metrics& metrics);

}  // namespace perfbench
