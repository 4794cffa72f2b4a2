// The three workloads. Each fills the end-to-end metrics (untraced run) or
// the per-layer metrics (traced run), and counts its operations and
// violations into `outcome`.
#pragma once

#include "trace.h"
#include "util.h"

namespace perfbench {

/// Fixed seed of the deployment (topology, host attachment and initial
/// membership): every run measures the same system, and --seed varies the
/// traffic and the churn batches on it.
inline constexpr std::uint64_t kDeploymentSeed = 20060101;

void run_fig3_steady(const Options& options, Metrics& metrics,
                     Outcome& outcome, Trace& trace);
void run_live_churn(const Options& options, Metrics& metrics,
                    Outcome& outcome, Trace& trace);
void run_udp_loopback(const Options& options, Metrics& metrics,
                      Outcome& outcome, Trace& trace);

}  // namespace perfbench
