#include "runtime/sharded_engine.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace decseq::runtime {

namespace {

/// Mix (seed, epoch, key) into one 64-bit RNG seed via chained splitmix64
/// steps: every unit gets an independent stream that is a pure function of
/// values the single-threaded run would also have.
std::uint64_t unit_seed(std::uint64_t seed, std::uint64_t epoch,
                        std::uint64_t key) {
  std::uint64_t state = seed;
  std::uint64_t h = splitmix64(state);
  state ^= epoch;
  h ^= splitmix64(state);
  state ^= key;
  h ^= splitmix64(state);
  return h;
}

}  // namespace

ShardedEngine::ShardedEngine(ShardPlan plan, std::uint64_t seed,
                             std::uint64_t epoch)
    : plan_(std::move(plan)),
      seed_(seed),
      epoch_(epoch),
      unit_pos_(plan_.num_units, 0) {
  for (std::uint32_t u = 0; u < plan_.num_units; ++u) {
    unit_rngs_.emplace_back(unit_seed(seed, epoch, plan_.unit_key[u]));
  }
  shards_.reserve(plan_.num_shards);
  for (std::uint32_t s = 0; s < plan_.num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  // Shard 0 always runs inline on the coordinator thread.
  for (std::uint32_t s = 1; s < plan_.num_shards; ++s) {
    shards_[s]->thread = std::thread([this, s] { worker_loop(s); });
  }
}

ShardedEngine::~ShardedEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
}

void ShardedEngine::push_ingress(std::uint32_t shard, IngressItem item) {
  Shard& s = *shards_[shard];
  // Once anything has spilled, later items must spill too — the worker
  // drains ring-then-spill, so alternating would reorder the stream.
  if (!s.ingress_spill.empty() || !s.ingress.push(std::move(item))) {
    s.ingress_spill.push_back(std::move(item));
  }
}

bool ShardedEngine::ingress_pending() const {
  for (const auto& shard : shards_) {
    if (!shard->ingress.empty() || !shard->ingress_spill.empty()) return true;
  }
  return false;
}

sim::Time ShardedEngine::next_event_time() const {
  sim::Time next = std::numeric_limits<sim::Time>::infinity();
  for (const auto& shard : shards_) {
    next = std::min(next, shard->sim.next_event_time());
  }
  return next;
}

bool ShardedEngine::idle() const {
  for (const auto& shard : shards_) {
    if (!shard->sim.idle()) return false;
  }
  return true;
}

sim::Time ShardedEngine::max_now() const {
  sim::Time now = 0.0;
  for (const auto& shard : shards_) now = std::max(now, shard->sim.now());
  return now;
}

void ShardedEngine::advance_to(sim::Time t) {
  DECSEQ_CHECK_MSG(std::isfinite(t), "advancing shard clocks to " << t);
  for (auto& shard : shards_) shard->sim.advance_to(t);
}

std::size_t ShardedEngine::events_fired() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->sim.events_fired();
  return total;
}

void ShardedEngine::run_slice(std::uint32_t s, sim::Time deadline,
                              bool inclusive) {
  Shard& shard = *shards_[s];
  // Ingest first: every queued publish was stamped at or before the fence,
  // so its arrival event must exist before the slice runs the window.
  IngressItem item;
  while (shard.ingress.pop(item)) ingest_(s, std::move(item));
  if (!shard.ingress_spill.empty()) {
    for (IngressItem& spilled : shard.ingress_spill) {
      ingest_(s, std::move(spilled));
    }
    shard.ingress_spill.clear();
  }
  if (inclusive) {
    shard.sim.run_until(deadline);
  } else {
    shard.sim.run_before(deadline);
  }
}

void ShardedEngine::dispatch(sim::Time deadline, bool inclusive) {
  const std::uint32_t workers = num_shards() - 1;
  if (workers > 0) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      deadline_ = deadline;
      inclusive_ = inclusive;
      done_ = 0;
      ++generation_;
    }
    work_cv_.notify_all();
  }
  try {
    run_slice(0, deadline, inclusive);
  } catch (...) {
    shards_[0]->error = std::current_exception();
  }
  if (workers > 0) {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return done_ == workers; });
  }
  // Rethrow the lowest shard's failure (deterministic pick when several
  // shards trip an invariant in the same slice).
  for (auto& shard : shards_) {
    if (shard->error != nullptr) {
      std::exception_ptr error = std::exchange(shard->error, nullptr);
      std::rethrow_exception(error);
    }
  }
}

void ShardedEngine::worker_loop(std::uint32_t s) {
  std::uint64_t seen = 0;
  while (true) {
    sim::Time deadline;
    bool inclusive;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      deadline = deadline_;
      inclusive = inclusive_;
    }
    try {
      run_slice(s, deadline, inclusive);
    } catch (...) {
      shards_[s]->error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++done_;
    }
    done_cv_.notify_one();
  }
}

std::uint32_t ShardedEngine::extend_plan(
    const seqgraph::SequencingGraph& graph,
    const membership::GroupMembership& membership,
    const std::vector<GroupId>& affected, std::uint64_t transition) {
  const std::uint32_t first_new =
      extend_shard_plan(plan_, graph, membership, affected);
  for (std::uint32_t u = first_new; u < plan_.num_units; ++u) {
    // A new unit may reuse a retired unit's smallest-group key (the group
    // rejoined a re-laid component); mixing the transition ordinal into the
    // epoch keeps every unit's jitter stream distinct.
    unit_rngs_.emplace_back(unit_seed(
        seed_, epoch_ + 0x9e3779b97f4a7c15ULL * transition,
        plan_.unit_key[u]));
    unit_pos_.push_back(0);
  }
  return first_new;
}

void ShardedEngine::redistribute_ingress(
    const std::function<std::uint32_t(IngressItem&)>& reroute) {
  std::vector<IngressItem> pending;
  for (auto& shard : shards_) {
    IngressItem item;
    while (shard->ingress.pop(item)) pending.push_back(std::move(item));
    for (IngressItem& spilled : shard->ingress_spill) {
      pending.push_back(std::move(spilled));
    }
    shard->ingress_spill.clear();
  }
  for (IngressItem& item : pending) {
    const std::uint32_t s = reroute(item);
    DECSEQ_CHECK(s < num_shards());
    push_ingress(s, std::move(item));
  }
}

void ShardedEngine::push_delivery(std::uint32_t shard, DeliveryEvent ev) {
  Shard& s = *shards_[shard];
  if (!s.delivery_spill.empty() || !s.deliveries.push(ev)) {
    s.delivery_spill.push_back(ev);
  }
}

void ShardedEngine::drain_deliveries(std::vector<DeliveryEvent>& out) {
  for (auto& shard : shards_) {
    DeliveryEvent ev;
    while (shard->deliveries.pop(ev)) out.push_back(ev);
    if (!shard->delivery_spill.empty()) {
      out.insert(out.end(), shard->delivery_spill.begin(),
                 shard->delivery_spill.end());
      shard->delivery_spill.clear();
    }
  }
}

}  // namespace decseq::runtime
