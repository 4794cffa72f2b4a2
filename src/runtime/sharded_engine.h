// Sharded execution engine: one worker per shard, ring handoff, fences.
//
// The coordinator thread (PubSubSystem::run) owns the control simulator —
// harness events, failure injection, publish timing — and the protocol's
// per-message work runs on worker shards, each with its own sim::Simulator
// advanced in lockstep slices between *coordination fences*:
//
//   coordinator                          worker shard s
//   -----------                          --------------
//   pick fence time T                    (parked)
//   dispatch slice(T)          ───────►  drain ingress ring
//                                        run events before/at T
//   (parked, or runs shard 0)  ◄───────  park
//   advance clocks to T
//   run control events at T
//   drain delivery rings, merge, commit
//
// Handoff is lock-free inside a slice (runs/ring.h); the dispatch mutex at
// each fence provides the happens-before edge that lets fence-time code
// touch any shard's state directly — failure injection, record-log growth,
// stats merging all happen while workers are parked.
//
// Determinism: fence times are derived only from event times, which are
// independent of the shard count; within a fence window each *unit* (see
// shard_plan.h) runs exactly the event sequence it would run alone (its
// events' relative FIFO order cannot be disturbed by co-resident units);
// and each unit draws channel jitter from its own RNG. The coordinator
// merges each window's deliveries by (time, unit, per-unit position), so
// the committed log is byte-identical for 1, 2, or N shards.
//
// Shard 0 runs inline on the coordinator thread; shards 1..N-1 get worker
// threads. With one shard the engine is therefore entirely thread-free.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/small_vector.h"
#include "runtime/ring.h"
#include "runtime/shard_plan.h"
#include "sim/simulator.h"

namespace decseq::runtime {

/// A publish crossing from the coordinator to the owning shard. Carries raw
/// bytes, not a payload block: pooled blocks must be created and released on
/// one thread, so the worker materializes the block at ingest.
struct IngressItem {
  MsgId id;
  GroupId group;
  NodeId sender;
  std::uint64_t payload = 0;
  /// Publisher-host -> ingress-machine propagation delay; the arrival is
  /// scheduled at shard-now (== publish time at ingest) + delay.
  double delay = 0.0;
  bool is_fin = false;
  common::SmallVector<std::uint8_t, 64> body;
};

/// An in-order delivery crossing from a shard back to the coordinator.
/// Plain data only — payload blocks never cross threads.
struct DeliveryEvent {
  NodeId receiver;
  MsgId message;
  GroupId group;
  NodeId sender;
  std::uint64_t payload = 0;
  sim::Time sent_at = 0.0;
  sim::Time delivered_at = 0.0;
  /// Merge keys: the group's unit and the delivery's position in that
  /// unit's delivery stream (both shard-count-invariant). During a
  /// reconfiguration an old-epoch delivery carries the group's *previous*
  /// unit — the stream it was sequenced in.
  std::uint32_t unit = 0;
  std::uint64_t unit_pos = 0;
  bool fin = false;
  /// Reconfiguration cutover fence (protocol/message.h): the coordinator
  /// relays these to the node's gated receivers at commit time.
  bool fence = false;
};

class ShardedEngine {
 public:
  /// Worker-side ingest hook, installed by the protocol layer: materialize
  /// the payload block and schedule the ingress arrival on shard_sim(shard).
  using IngestFn = std::function<void(std::uint32_t shard, IngressItem&&)>;

  /// `seed`/`epoch` parameterize the per-unit RNGs: each unit's jitter
  /// stream depends on the config seed, the membership epoch, and the
  /// unit's smallest group id — never on the shard count.
  ShardedEngine(ShardPlan plan, std::uint64_t seed, std::uint64_t epoch);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  [[nodiscard]] const ShardPlan& plan() const { return plan_; }
  [[nodiscard]] std::uint32_t num_shards() const {
    return static_cast<std::uint32_t>(shards_.size());
  }

  [[nodiscard]] sim::Simulator& shard_sim(std::uint32_t s) {
    return shards_[s]->sim;
  }
  /// The unit's channel-jitter stream. Address-stable for the engine's
  /// lifetime: extend_plan() never moves an existing unit's stream.
  [[nodiscard]] Rng& unit_rng(std::uint32_t unit) { return unit_rngs_[unit]; }
  [[nodiscard]] const Rng& unit_rng(std::uint32_t unit) const {
    return unit_rngs_[unit];
  }

  void set_ingest(IngestFn fn) { ingest_ = std::move(fn); }

  // --- Coordinator side (legal only between slices / at fences). ---

  /// Enqueue a publish to its owning shard. Falls back to per-shard
  /// overflow storage when the ring is full; FIFO order is preserved (once
  /// an item overflows, later items overflow too until the next drain).
  void push_ingress(std::uint32_t shard, IngressItem item);

  [[nodiscard]] bool ingress_pending() const;
  /// Earliest pending event across all shards; +infinity when all idle.
  [[nodiscard]] sim::Time next_event_time() const;
  [[nodiscard]] bool idle() const;
  [[nodiscard]] sim::Time max_now() const;
  /// Advance every shard clock to the fence time `t` (must be finite and
  /// must not skip any pending shard event).
  void advance_to(sim::Time t);

  /// Parallel slice: every shard drains its ingress ring, then fires its
  /// events strictly before `deadline` (exclusive — the free-run fence) or
  /// up to and including it (inclusive — the lockstep fence). Blocks until
  /// all shards park; rethrows the lowest shard's exception, if any.
  void run_before(sim::Time deadline) { dispatch(deadline, false); }
  void run_until(sim::Time deadline) { dispatch(deadline, true); }

  /// Drain every shard's delivery ring + overflow into `out` (appends; does
  /// not sort). Shards are drained in index order; within a shard, ring
  /// first, then overflow — the order the worker produced them.
  void drain_deliveries(std::vector<DeliveryEvent>& out);

  /// Zero-downtime reconfiguration (between slices only): extend the shard
  /// plan for a delta-rebuilt graph and materialize the appended units' RNG
  /// streams and delivery-position counters. `transition` is the
  /// reconfiguration ordinal, mixed into the unit seeds so repeated
  /// reconfigurations never reuse a jitter stream. Returns the first new
  /// unit id. The shard count never changes.
  std::uint32_t extend_plan(const seqgraph::SequencingGraph& graph,
                            const membership::GroupMembership& membership,
                            const std::vector<GroupId>& affected,
                            std::uint64_t transition);

  /// Zero-downtime reconfiguration (between slices only): pass every
  /// still-queued publish through `reroute` — which may adjust the item
  /// (e.g. its ingress delay) and returns its owning shard — and re-enqueue
  /// it there. Relative order of any one group's publishes is preserved.
  /// Workers are parked, so consuming their rings here is race-free (the
  /// dispatch mutex orders it against both the previous and the next
  /// slice).
  void redistribute_ingress(
      const std::function<std::uint32_t(IngressItem&)>& reroute);

  /// Events fired across all shards (stats; read at a fence).
  [[nodiscard]] std::size_t events_fired() const;

  // --- Worker side (called from protocol code during a slice). ---

  /// Queue a delivery for the coordinator's next merge.
  void push_delivery(std::uint32_t shard, DeliveryEvent ev);
  /// Claim the next position in a unit's delivery stream.
  [[nodiscard]] std::uint64_t next_unit_pos(std::uint32_t unit) {
    return unit_pos_[unit]++;
  }

 private:
  struct Shard {
    sim::Simulator sim;
    MpscRing<IngressItem> ingress{kIngressRingSlots};
    /// Coordinator-owned spill when the ingress ring fills between drains.
    std::vector<IngressItem> ingress_spill;
    SpscRing<DeliveryEvent> deliveries{kDeliveryRingSlots};
    /// Worker-owned spill when the delivery ring fills within a slice.
    std::vector<DeliveryEvent> delivery_spill;
    std::exception_ptr error;
    std::thread thread;
  };

  static constexpr std::size_t kIngressRingSlots = 1024;
  static constexpr std::size_t kDeliveryRingSlots = 4096;

  void dispatch(sim::Time deadline, bool inclusive);
  void run_slice(std::uint32_t s, sim::Time deadline, bool inclusive);
  void worker_loop(std::uint32_t s);

  ShardPlan plan_;
  /// Ctor seed/epoch, kept for extend_plan's unit-seed derivation.
  std::uint64_t seed_ = 0;
  std::uint64_t epoch_ = 0;
  /// A deque: extend_plan appends units while channels hold references to
  /// the existing units' RNGs, so the streams must never move.
  std::deque<Rng> unit_rngs_;
  std::vector<std::uint64_t> unit_pos_;
  IngestFn ingest_;
  /// unique_ptr: a Simulator is not movable once channels capture it, and
  /// Shard holds atomics/threads besides.
  std::vector<std::unique_ptr<Shard>> shards_;

  // Fence dispatch (workers exist only when num_shards() > 1).
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  sim::Time deadline_ = 0.0;
  bool inclusive_ = false;
  bool stop_ = false;
  std::uint32_t done_ = 0;
};

}  // namespace decseq::runtime
